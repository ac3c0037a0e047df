// The maintenance walker.
//
// Every maintenance job is one CloudDataDistributor::rewrite_chunk per chunk
// under a MovePolicy: heal (repair, and the integrity scrub that closes the
// SIII-A silent-corruption gap before a client read can observe it),
// migrate (a provider joins, drains or decommissions, SIV-C dynamic
// membership) or demote (a provider lost the trust its shards need). The
// Migrator drives any policy over the chunk table: a throttled,
// bounded-concurrency walk that runs synchronously (the CLI's verbs,
// repair(), rebalance()) or as a background thread alongside live traffic,
// reporting through progress() and the metrics the health engine and
// watchdog consume -- scrub.* for a scrubbing heal, migration.* for a
// migrate policy.
//
// Crash safety is inherited, not reimplemented: every rewrite is copy ->
// commit (metadata + journal) -> delete, and a migration's begin/commit
// records bracket the whole walk, so a crash at any point resumes by simply
// re-running -- already-moved shards are skipped, and reconcile() sweeps
// any orphan duplicates the crash left.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "core/distributor.hpp"
#include "core/journal.hpp"

namespace cshield::core {

class Migrator {
 public:
  struct Config {
    /// Chunk-visit rate ceiling; 0 = unthrottled (walk as fast as the
    /// request layer allows).
    double stripes_per_sec = 0.0;
    /// Concurrent rewrite_chunk calls in flight (>= 1). Each call fans its
    /// own shard RPCs out on the distributor's I/O pool when their
    /// providers can wait, so this bounds chunk-level, not shard-level,
    /// parallelism. 1 visits the chunks one at a time, in index order.
    std::size_t max_in_flight = 4;
  };

  /// What one run() accomplished (also readable mid-run via progress()).
  struct Report {
    std::uint64_t chunks_visited = 0;
    std::uint64_t shards_moved = 0;
    std::uint64_t bytes_moved = 0;
    std::uint64_t mismatches = 0;  ///< shards that answered with bad bytes
    std::uint64_t errors = 0;      ///< shards left for the next pass
    bool committed = false;        ///< kCommitMigrate was journaled
  };

  /// Live view of the current/last run.
  struct Progress : Report {
    bool running = false;  ///< background thread active
  };

  /// `dist` must outlive the migrator.
  explicit Migrator(CloudDataDistributor& dist) : dist_(dist) {}
  Migrator(CloudDataDistributor& dist, Config config)
      : dist_(dist), config_(config) {}

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  ~Migrator() { stop(); }

  /// One full synchronous pass of `policy` over the chunk table, throttled
  /// and bounded by Config. Every chunk is visited even after a failure;
  /// the first error is returned, and a pass that left shards in place
  /// returns ResourceExhausted (re-running resumes). A migrate policy is
  /// bracketed by begin_migration (re-issued idempotently, so a crashed
  /// migration resumes) and commit_migration, which is skipped when the
  /// pass failed or stop() interrupted it.
  Result<Report> run(const MovePolicy& policy);
  Result<Report> run(MigrationKind kind, ProviderIndex subject) {
    return run(MovePolicy::migrate(kind, subject));
  }

  /// Launches one run() on a background thread. No-op while one is still
  /// running; a finished (completed, errored or stopped) background run is
  /// reaped and superseded, so start() also resumes an open migration.
  void start(const MovePolicy& policy);
  void start(MigrationKind kind, ProviderIndex subject) {
    start(MovePolicy::migrate(kind, subject));
  }

  /// Asks a background run to stop at the next chunk boundary and joins
  /// it. A migration stays open (begun, uncommitted) -- run() again to
  /// resume. Safe to call when not running.
  void stop();

  /// Joins the background thread (without requesting a stop) and returns
  /// its final report. Ok/empty when none was started.
  Result<Report> wait();

  [[nodiscard]] Progress progress() const {
    std::lock_guard<std::mutex> lock(mu_);
    return progress_;
  }

 private:
  /// The walk itself; assumes stop_ was reset by the caller (run() for the
  /// synchronous path, start() -- under mu_ -- for the background one, so a
  /// stop() racing a fresh start() is never lost).
  Result<Report> do_run(const MovePolicy& policy);

  /// Paces the walk to Config::stripes_per_sec; wakes early on stop().
  void throttle();

  CloudDataDistributor& dist_;
  Config config_;
  std::atomic<bool> stop_{false};
  mutable std::mutex mu_;  ///< guards progress_/thread_/bg_status_, backs cv_
  Progress progress_;
  std::condition_variable cv_;
  std::thread thread_;
  /// Last background run's outcome, consumed by wait().
  Status bg_status_ = Status::Ok();
};

}  // namespace cshield::core
