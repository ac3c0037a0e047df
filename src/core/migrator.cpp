#include "core/migrator.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>

#include "obs/watchdog.hpp"
#include "util/thread_pool.hpp"

namespace cshield::core {
namespace {

/// The metric and span names a pass reports under. A scrubbing heal and a
/// migration keep the names the health engine and dashboards read; repair()
/// and rebalance() report through their own op span and counters instead.
struct PassNames {
  const char* span = nullptr;
  const char* passes = nullptr;
  const char* visited = nullptr;
  const char* moved = nullptr;
  const char* bytes = nullptr;
  const char* mismatches = nullptr;
  const char* errors = nullptr;
  const char* progress = nullptr;  ///< gauge, 0..100
  const char* active = nullptr;    ///< gauge, 1 while walking
};

PassNames names_for(const MovePolicy& policy) {
  if (policy.kind == MovePolicy::Kind::kMigrate) {
    return {nullptr, nullptr, "migration.chunks_visited",
            "migration.shards_moved", "migration.bytes_moved", nullptr,
            "migration.errors", "migration.progress", "migration.active"};
  }
  if (policy.kind == MovePolicy::Kind::kHeal && policy.scrub) {
    return {"scrub_pass", "scrub.passes", "scrub.chunks_scanned",
            "scrub.shards_repaired", nullptr, "scrub.digest_mismatches",
            nullptr, "scrub.progress", nullptr};
  }
  return {};
}

}  // namespace

Result<Migrator::Report> Migrator::run(const MovePolicy& policy) {
  stop_.store(false, std::memory_order_relaxed);
  return do_run(policy);
}

Result<Migrator::Report> Migrator::do_run(const MovePolicy& policy) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const bool running = progress_.running;
    progress_ = Progress{};
    progress_.running = running;
  }
  const bool migrate = policy.kind == MovePolicy::Kind::kMigrate;
  if (migrate) {
    CS_RETURN_IF_ERROR(dist_.begin_migration(policy.migration, policy.subject));
  }

  obs::Telemetry* tel = dist_.telemetry().get();
  obs::StallWatchdog* wd = dist_.config().watchdog.get();
  const std::int64_t deadline_ns = dist_.config().retry.deadline.count();
  const PassNames names = names_for(policy);
  obs::MetricsRegistry* metrics = tel->enabled() ? &tel->metrics() : nullptr;
  auto bump = [metrics](const char* name, std::uint64_t n) {
    if (metrics != nullptr && name != nullptr && n != 0) {
      metrics->counter(name).inc(n);
    }
  };
  auto set_gauge = [metrics](const char* name, std::int64_t value) {
    if (metrics != nullptr && name != nullptr) metrics->gauge(name).set(value);
  };
  obs::SpanRecord proto;
  if (names.span != nullptr) {
    proto.name = names.span;
    if (tel->enabled()) proto.op_id = tel->tracer().next_id();
  }
  obs::ScopedSpan span(names.span != nullptr ? tel : nullptr,
                       std::move(proto));
  set_gauge(names.progress, 0);
  set_gauge(names.active, 1);

  // Snapshot the global index bound once: chunks appended by concurrent
  // writes land on the current topology (placement already excludes a
  // draining subject and still excludes a joining one) and on healthy
  // providers, so they need no rewrite. On a sharded plane the bound
  // interleaves all partitions; sparse globals are no-ops.
  const std::size_t n = dist_.chunk_index_bound();
  Status first_error = Status::Ok();

  // Bounded-concurrency walk: a private pool issues rewrite_chunk calls
  // (each fans its shard RPCs out on the distributor's I/O pool when they
  // can wait) and a sliding window caps the chunks in flight.
  const std::size_t width = std::max<std::size_t>(1, config_.max_in_flight);
  ThreadPool pool(width);
  std::deque<std::future<Result<RewriteStats>>> window;
  auto drain_one = [&] {
    Result<RewriteStats> r = window.front().get();
    window.pop_front();
    if (!r.ok() && first_error.ok()) first_error = r.status();
    const RewriteStats stats = r.ok() ? r.value() : RewriteStats{0, 0, 0, 1};
    std::uint64_t visited;
    {
      std::lock_guard<std::mutex> lock(mu_);
      visited = ++progress_.chunks_visited;
      progress_.shards_moved += stats.moved;
      progress_.bytes_moved += stats.bytes;
      progress_.mismatches += stats.mismatches;
      progress_.errors += stats.errors;
    }
    bump(names.visited, 1);
    bump(names.moved, stats.moved);
    bump(names.bytes, stats.bytes);
    bump(names.mismatches, stats.mismatches);
    bump(names.errors, stats.errors);
    set_gauge(names.progress, static_cast<std::int64_t>(visited * 100 / n));
  };

  for (std::size_t idx = 0; idx < n; ++idx) {
    if (stop_.load(std::memory_order_relaxed)) break;
    window.push_back(pool.submit([this, idx, &policy, wd, deadline_ns] {
      obs::StallWatchdog::Armed armed(wd, "rewrite_chunk", deadline_ns);
      return dist_.rewrite_chunk(idx, policy);
    }));
    if (window.size() >= width) drain_one();
    throttle();
  }
  while (!window.empty()) drain_one();

  const bool stopped = stop_.load(std::memory_order_relaxed);
  Report report = progress();
  bump(names.passes, 1);
  set_gauge(names.active, 0);
  if (!stopped && report.errors == 0) set_gauge(names.progress, 100);
  if (span.armed()) {
    span.rec().chunk = report.chunks_visited;
    span.rec().outcome = first_error.code();
  }

  if (stopped) return report;  // paused, uncommitted: run() again to resume
  if (!first_error.ok()) return first_error;
  if (report.errors != 0) {
    return Status::ResourceExhausted(
        "maintenance pass incomplete: " + std::to_string(report.errors) +
        " shards could not be rewritten this pass; re-run to resume");
  }
  if (migrate) {
    CS_RETURN_IF_ERROR(
        dist_.commit_migration(policy.migration, policy.subject));
    std::lock_guard<std::mutex> lock(mu_);
    progress_.committed = report.committed = true;
  }
  return report;
}

void Migrator::start(const MovePolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) {
    // A completed run leaves its thread joinable until wait()/stop(); only
    // a live one wins over this start(). Reap the finished thread so a
    // start() meant to resume an errored or stopped migration launches.
    // Safe under mu_: running false means the epilogue (the thread's last
    // use of mu_) already finished.
    if (progress_.running) return;
    thread_.join();
  }
  stop_.store(false, std::memory_order_relaxed);
  progress_.running = true;
  thread_ = std::thread([this, policy] {
    Result<Report> r = do_run(policy);
    std::lock_guard<std::mutex> inner(mu_);
    bg_status_ = r.status();
    progress_.running = false;
  });
}

void Migrator::stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
  std::lock_guard<std::mutex> lock(mu_);
  progress_.running = false;
}

Result<Migrator::Report> Migrator::wait() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join = std::move(thread_);
  }
  if (to_join.joinable()) to_join.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (!bg_status_.ok()) return bg_status_;
  return static_cast<const Report&>(progress_);
}

void Migrator::throttle() {
  if (config_.stripes_per_sec <= 0.0) return;
  const auto period = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(1.0 / config_.stripes_per_sec));
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, period,
               [this] { return stop_.load(std::memory_order_relaxed); });
}

}  // namespace cshield::core
