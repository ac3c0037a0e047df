// MetricsExporter -- continuous sampler over the MetricsRegistry.
//
// The registry answers "what are the lifetime totals right now"; an ops
// plane needs "what happened over the last few seconds". The exporter
// bridges the two: a background thread snapshots the registry on a fixed
// interval into a bounded ring of timestamped samples, and everything
// windowed -- rates, deltas, rolling p99s, the SLO engine in
// obs/health.hpp -- is computed between the ring's ends. Bounded ring,
// same argument as the tracer: fixed memory, O(1) per tick, a quiet
// weekend does not grow a buffer.
//
// Output formats:
//   * to_prometheus(): the registry's text exposition plus the
//     cshield_build_info info-metric (obs/process.hpp).
//   * JSONL stream: when Config::jsonl_path is set, every sample appends
//     one JSON object line -- a poor man's remote-write for offline
//     analysis (jq-able, replayable).
//
// Cost: when the owning Telemetry is disabled a tick is one atomic load --
// no snapshot, no ring push, no file I/O. With telemetry on, a tick is one
// registry snapshot (shared-lock map walk) every `interval`; at the
// default 100 ms that is measured inside the bench_throughput <=5%
// telemetry-overhead gate.
//
// Threading: sample_now() may also be driven externally (tests drive it
// deterministically; the CLI uses the thread). The ring is mutex-guarded;
// readers copy.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/process.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"

namespace cshield::obs {

// --- window math over a sample ring ----------------------------------------
//
// A ring is any oldest-first sequence of MetricsExporter::Sample: the
// exporter's live deque, or the copy the health engine evaluates. The
// window is the span between the ring's two ends.

/// Counter increase across the window (missing metric = 0). Counters are
/// monotonic except for explicit reset(); a reset mid-window clamps to 0
/// rather than going negative.
template <typename Ring>
[[nodiscard]] std::uint64_t window_counter_delta(const Ring& ring,
                                                 const std::string& name) {
  if (ring.size() < 2) return 0;
  const auto value = [&name](const auto& sample) -> std::uint64_t {
    auto it = sample.snap.counters.find(name);
    return it == sample.snap.counters.end() ? 0 : it->second;
  };
  const std::uint64_t oldest = value(ring.front());
  const std::uint64_t newest = value(ring.back());
  return newest >= oldest ? newest - oldest : 0;
}

/// Windowed histogram: per-bucket count deltas between the ring's ends,
/// packaged as a Histogram::Snapshot so percentile()/mean() answer for the
/// window instead of the process lifetime. min/max stay lifetime values
/// (the registry does not window them); nullopt when the metric is absent
/// or the window holds no new observations.
template <typename Ring>
[[nodiscard]] std::optional<Histogram::Snapshot> window_histogram(
    const Ring& ring, const std::string& name) {
  if (ring.empty()) return std::nullopt;
  auto newest = ring.back().snap.histograms.find(name);
  if (newest == ring.back().snap.histograms.end()) return std::nullopt;
  Histogram::Snapshot w = newest->second;
  if (ring.size() >= 2) {
    auto oldest = ring.front().snap.histograms.find(name);
    if (oldest != ring.front().snap.histograms.end() &&
        oldest->second.counts.size() == w.counts.size() &&
        oldest->second.count <= w.count) {
      for (std::size_t i = 0; i < w.counts.size(); ++i) {
        w.counts[i] -= std::min(oldest->second.counts[i], w.counts[i]);
      }
      w.count -= oldest->second.count;
      w.sum -= oldest->second.sum;
    }
  }
  if (w.count == 0) return std::nullopt;
  return w;
}

class MetricsExporter {
 public:
  struct Config {
    /// Sampler tick period.
    std::chrono::milliseconds interval{100};
    /// Samples retained; the rolling window every evaluator sees spans
    /// (window - 1) * interval.
    std::size_t window = 64;
    /// Append one JSON line per sample here; empty = no stream.
    std::string jsonl_path;
    /// Optional stall watchdog polled on every tick (one shared thread
    /// instead of two); may be null. Must outlive the exporter.
    StallWatchdog* watchdog = nullptr;
  };

  struct Sample {
    std::int64_t t_ns = 0;  ///< steady ns since the exporter's epoch
    MetricsRegistry::Snapshot snap;
  };

  /// `tel` must not be null and must outlive the exporter.
  explicit MetricsExporter(std::shared_ptr<Telemetry> tel)
      : MetricsExporter(std::move(tel), Config()) {}
  MetricsExporter(std::shared_ptr<Telemetry> tel, Config cfg)
      : tel_(std::move(tel)),
        cfg_(cfg),
        epoch_(std::chrono::steady_clock::now()) {
    CS_REQUIRE(tel_ != nullptr, "MetricsExporter needs a telemetry sink");
    if (cfg_.window == 0) cfg_.window = 1;
    if (!cfg_.jsonl_path.empty()) {
      jsonl_.open(cfg_.jsonl_path, std::ios::app);
    }
  }

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  ~MetricsExporter() { stop(); }

  /// Takes one sample now (on the caller's thread): refreshes the process
  /// gauges, snapshots the registry into the ring, appends the JSONL line.
  /// No-op while telemetry is disabled -- the zero-cost contract.
  void sample_now() {
    if (!tel_->enabled()) return;
    publish_process_gauges(tel_->metrics(), true);
    std::string line;
    {
      // Sample under the ring lock: the background thread and a
      // sample_now() caller must push in the order they sampled, or a
      // counter would run backwards along the ring.
      std::lock_guard<std::mutex> lock(mu_);
      Sample s;
      s.t_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
                   .count();
      s.snap = tel_->metrics().snapshot();
      ring_.push_back(std::move(s));
      while (ring_.size() > cfg_.window) ring_.pop_front();
      ++total_samples_;
      if (jsonl_.is_open()) line = to_json(ring_.back());
    }
    if (!line.empty()) {
      std::lock_guard<std::mutex> lock(file_mu_);
      jsonl_ << line << "\n";
      jsonl_.flush();
    }
  }

  /// Starts the background sampler (and watchdog polling, if attached).
  void start() {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (thread_.joinable()) return;
    stop_ = false;
    thread_ = std::thread([this] { loop(); });
  }

  void stop() {
    std::thread to_join;
    {
      std::lock_guard<std::mutex> lock(thread_mu_);
      {
        std::lock_guard<std::mutex> cv_lock(cv_mu_);
        stop_ = true;
      }
      cv_.notify_all();
      to_join = std::move(thread_);
    }
    if (to_join.joinable()) to_join.join();
  }

  [[nodiscard]] bool running() const {
    std::lock_guard<std::mutex> lock(thread_mu_);
    return thread_.joinable();
  }

  // --- ring access (the health engine's raw feed) -----------------------

  [[nodiscard]] std::size_t samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }

  [[nodiscard]] std::uint64_t total_samples() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_samples_;
  }

  /// Copies the retained ring, oldest first.
  [[nodiscard]] std::vector<Sample> ring() const {
    std::lock_guard<std::mutex> lock(mu_);
    return {ring_.begin(), ring_.end()};
  }

  /// Counter increase across the retained window (window_counter_delta).
  [[nodiscard]] std::uint64_t counter_delta(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_counter_delta(ring_, name);
  }

  /// counter_delta divided by the window's wall span.
  [[nodiscard]] double counter_rate_per_sec(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < 2) return 0.0;
    const double span_s =
        static_cast<double>(ring_.back().t_ns - ring_.front().t_ns) * 1e-9;
    if (span_s <= 0.0) return 0.0;
    return static_cast<double>(window_counter_delta(ring_, name)) / span_s;
  }

  /// Latest value of a counter / gauge in the ring (nullopt = never seen).
  [[nodiscard]] std::optional<std::uint64_t> counter_last(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) return std::nullopt;
    auto it = ring_.back().snap.counters.find(name);
    if (it == ring_.back().snap.counters.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::optional<std::int64_t> gauge_last(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.empty()) return std::nullopt;
    auto it = ring_.back().snap.gauges.find(name);
    if (it == ring_.back().snap.gauges.end()) return std::nullopt;
    return it->second;
  }

  /// Rolling-window histogram over the retained ring (window_histogram).
  [[nodiscard]] std::optional<Histogram::Snapshot> histogram_window(
      const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    return window_histogram(ring_, name);
  }

  // --- rendering --------------------------------------------------------

  /// Prometheus text exposition: build-info line + the full registry dump.
  /// Process gauges are refreshed first so a one-shot dump (CLI `export`)
  /// carries them even if no sampler tick ever ran.
  [[nodiscard]] std::string to_prometheus() const {
    publish_process_gauges(tel_->metrics(), tel_->enabled());
    return build_info_prometheus(tel_->enabled()) +
           tel_->metrics().to_prometheus();
  }

  /// One sample as a single JSON object (the JSONL stream's line format).
  /// Histograms are summarized (count/sum/p50/p99) -- the stream is for
  /// trend analysis, full buckets stay in the Prometheus exposition.
  [[nodiscard]] static std::string to_json(const Sample& s) {
    std::ostringstream os;
    os.precision(10);
    os << "{\"t_ns\":" << s.t_ns << ",\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : s.snap.counters) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":" << v;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : s.snap.gauges) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":" << v;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : s.snap.histograms) {
      if (!first) os << ",";
      first = false;
      os << "\"" << name << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
         << ",\"p50\":" << h.percentile(0.50)
         << ",\"p99\":" << h.percentile(0.99) << "}";
    }
    os << "}}";
    return os.str();
  }

  [[nodiscard]] Telemetry& telemetry() const { return *tel_; }
  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(cv_mu_);
    while (!stop_) {
      lk.unlock();
      sample_now();
      if (cfg_.watchdog != nullptr) (void)cfg_.watchdog->poll();
      lk.lock();
      cv_.wait_for(lk, cfg_.interval, [this] { return stop_; });
    }
  }

  std::shared_ptr<Telemetry> tel_;
  Config cfg_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards ring_ / total_samples_ / jsonl_ state
  std::deque<Sample> ring_;
  std::uint64_t total_samples_ = 0;
  std::mutex file_mu_;  ///< serializes JSONL appends
  std::ofstream jsonl_;
  mutable std::mutex thread_mu_;  ///< guards thread_
  std::mutex cv_mu_;              ///< backs cv_ / stop_
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace cshield::obs
