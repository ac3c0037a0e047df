// StallWatchdog -- in-flight operation table + one-shot diagnostic dump.
//
// Every metric in the registry describes operations that *finished*. The
// failure mode none of them can see is the op that never comes back: a
// wedged pool task, a journal fsync stuck behind a sick disk, a provider
// RPC lost inside a deadlocked lane. The watchdog closes that blind spot
// with an explicit in-flight table: distributor entry points and request-
// layer RPCs arm an entry carrying their *modeled deadline* on the way in
// and disarm it on the way out; the journal flush leader brackets its
// write+fsync window. A poll (the exporter's sample tick, or a direct
// poll() call) flags any entry older than `deadline_multiple` times its
// own deadline, or an fsync window open past `fsync_stall`.
//
// The first stall fires a ONE-SHOT diagnostic dump -- stalled-op table,
// caller-supplied context (breaker states), full Prometheus metrics text,
// and the most recent trace spans -- to `dump_path` (and keeps it in
// memory via last_report()). One-shot because a stalled system polls the
// same stall forever; the interesting state is the first capture, and a
// dump per poll would bury it. `watchdog.stalls` / `watchdog.fsync_stalls`
// keep counting on every poll so the condition stays visible after the
// dump.
//
// Cost: arm/disarm is one short mutex critical section per *operation*
// (not per byte), a gauge add, and nothing at all when the owning
// telemetry is disabled -- arm() returns the inert token 0.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/telemetry.hpp"

namespace cshield::obs {

class StallWatchdog {
 public:
  struct Config {
    /// An op is stalled once its wall age exceeds this multiple of its own
    /// modeled deadline (request-layer deadline for RPC-backed ops).
    double deadline_multiple = 4.0;
    /// An fsync window (journal flush leader) open this long is a stall.
    std::chrono::nanoseconds fsync_stall{std::chrono::seconds(2)};
    /// Diagnostic dump target; empty = in-memory report only.
    std::string dump_path;
    /// Trace spans included in the dump (most recent first).
    std::size_t dump_spans = 64;
  };

  /// `tel` may be null (watchdog inert). The telemetry must outlive the
  /// watchdog; its enabled flag gates every arm().
  StallWatchdog(std::shared_ptr<Telemetry> tel, Config cfg)
      : tel_(std::move(tel)), cfg_(cfg) {}
  explicit StallWatchdog(std::shared_ptr<Telemetry> tel)
      : StallWatchdog(std::move(tel), Config()) {}

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Registers an in-flight op. `deadline_ns` is the op's own modeled
  /// deadline (0 = no deadline: the entry is visible in the table but can
  /// only stall via a caller with one). Returns the disarm token; 0 means
  /// "not armed" (telemetry off) and is safe to pass to disarm().
  [[nodiscard]] std::uint64_t arm(std::string_view name,
                                  std::int64_t deadline_ns) {
    if (tel_ == nullptr || !tel_->enabled()) return 0;
    const std::uint64_t token =
        next_token_.fetch_add(1, std::memory_order_relaxed);
    Entry e;
    e.name.assign(name.data(), name.size());
    e.start = std::chrono::steady_clock::now();
    e.deadline_ns = deadline_ns;
    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.emplace(token, std::move(e));
    }
    tel_->metrics().gauge("watchdog.inflight_ops").add(1);
    return token;
  }

  void disarm(std::uint64_t token) {
    if (token == 0) return;
    bool erased = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      erased = inflight_.erase(token) != 0;
    }
    if (erased && tel_ != nullptr) {
      tel_->metrics().gauge("watchdog.inflight_ops").add(-1);
    }
  }

  /// RAII arm/disarm. Inert when `wd` is null or telemetry is off.
  class Armed {
   public:
    Armed() = default;
    Armed(StallWatchdog* wd, std::string_view name, std::int64_t deadline_ns)
        : wd_(wd), token_(wd != nullptr ? wd->arm(name, deadline_ns) : 0) {}
    Armed(const Armed&) = delete;
    Armed& operator=(const Armed&) = delete;
    Armed(Armed&& o) noexcept : wd_(o.wd_), token_(o.token_) { o.token_ = 0; }
    Armed& operator=(Armed&& o) noexcept {
      if (this != &o) {
        release();
        wd_ = o.wd_;
        token_ = o.token_;
        o.token_ = 0;
      }
      return *this;
    }
    ~Armed() { release(); }
    void release() {
      if (token_ != 0 && wd_ != nullptr) wd_->disarm(token_);
      token_ = 0;
    }

   private:
    StallWatchdog* wd_ = nullptr;
    std::uint64_t token_ = 0;
  };

  /// Journal flush leader brackets: one fsync window at a time (the journal
  /// serializes flushes, so a single slot suffices).
  void fsync_begin() {
    fsync_start_ns_.store(steady_ns(), std::memory_order_relaxed);
  }
  void fsync_end() { fsync_start_ns_.store(0, std::memory_order_relaxed); }

  /// One detection pass. Returns the number of stalled entries (ops +
  /// fsync) seen by THIS poll; fires the one-shot dump on the first.
  std::size_t poll() {
    if (tel_ == nullptr || !tel_->enabled()) return 0;
    const std::int64_t now = steady_ns();
    std::vector<std::string> stalled;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [token, e] : inflight_) {
        if (e.deadline_ns <= 0) continue;
        const std::int64_t age =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - e.start)
                .count();
        const double limit =
            cfg_.deadline_multiple * static_cast<double>(e.deadline_ns);
        if (static_cast<double>(age) > limit) {
          std::ostringstream os;
          os << "op #" << token << " '" << e.name << "' in flight "
             << age << " ns, modeled deadline " << e.deadline_ns
             << " ns (x" << cfg_.deadline_multiple << " exceeded)";
          stalled.push_back(os.str());
        }
      }
    }
    const std::int64_t fsync_at = fsync_start_ns_.load(std::memory_order_relaxed);
    std::size_t fsync_stalls = 0;
    if (fsync_at != 0 && now - fsync_at >= cfg_.fsync_stall.count()) {
      std::ostringstream os;
      os << "journal fsync window open " << (now - fsync_at)
         << " ns (threshold " << cfg_.fsync_stall.count() << " ns)";
      stalled.push_back(os.str());
      fsync_stalls = 1;
    }
    if (stalled.empty()) return 0;
    MetricsRegistry& m = tel_->metrics();
    m.counter("watchdog.stalls").inc(stalled.size() - fsync_stalls);
    if (fsync_stalls != 0) m.counter("watchdog.fsync_stalls").inc();
    if (!fired_.exchange(true, std::memory_order_acq_rel)) dump(stalled);
    return stalled.size();
  }

  /// Extra dump context (breaker/quarantine states live in the storage
  /// layer, which obs must not depend on -- the owner injects a renderer).
  void set_context_fn(std::function<std::string()> fn) {
    std::lock_guard<std::mutex> lock(mu_);
    context_fn_ = std::move(fn);
  }

  [[nodiscard]] bool fired() const {
    return fired_.load(std::memory_order_acquire);
  }

  /// The one-shot diagnostic (empty until the first stall).
  [[nodiscard]] std::string last_report() const {
    std::lock_guard<std::mutex> lock(mu_);
    return report_;
  }

  [[nodiscard]] std::size_t inflight() const {
    std::lock_guard<std::mutex> lock(mu_);
    return inflight_.size();
  }

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  struct Entry {
    std::string name;
    std::chrono::steady_clock::time_point start;
    std::int64_t deadline_ns = 0;
  };

  [[nodiscard]] static std::int64_t steady_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Builds + writes the diagnostic. Called once, off the stall path's
  /// locks (metrics/tracer snapshots take their own).
  void dump(const std::vector<std::string>& stalled) {
    std::ostringstream os;
    os << "=== cshield stall watchdog diagnostic ===\n";
    os << "--- stalled operations ---\n";
    for (const std::string& line : stalled) os << line << "\n";
    std::function<std::string()> ctx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ctx = context_fn_;
    }
    if (ctx) {
      os << "--- context ---\n" << ctx();
      if (os.str().back() != '\n') os << "\n";
    }
    os << "--- metrics ---\n" << tel_->metrics().to_prometheus();
    os << "--- recent spans ---\n";
    std::vector<SpanRecord> spans = tel_->tracer().snapshot();
    const std::size_t n = std::min(cfg_.dump_spans, spans.size());
    for (std::size_t i = spans.size() - n; i < spans.size(); ++i) {
      os << Tracer::to_json(spans[i]) << "\n";
    }
    tel_->tracer().mark_exported();  // dumped spans are exported, not dropped
    {
      std::lock_guard<std::mutex> lock(mu_);
      report_ = os.str();
    }
    if (!cfg_.dump_path.empty()) {
      std::ofstream out(cfg_.dump_path, std::ios::trunc);
      if (out) out << report_;
    }
  }

  std::shared_ptr<Telemetry> tel_;
  Config cfg_;
  std::atomic<std::uint64_t> next_token_{1};
  std::atomic<std::int64_t> fsync_start_ns_{0};
  std::atomic<bool> fired_{false};
  mutable std::mutex mu_;  ///< guards inflight_, report_, context_fn_
  std::unordered_map<std::uint64_t, Entry> inflight_;
  std::string report_;
  std::function<std::string()> context_fn_;
};

}  // namespace cshield::obs
