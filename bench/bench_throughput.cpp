// Throughput + latency benchmark for the pipelined stripe engine.
//
// Two parts:
//   1. Gate: a 64-chunk file put and get at 8 worker threads, pipelined
//      engine vs. the serial per-stripe baseline (DistributorConfig::
//      pipelined = false). The pipelined engine must win by >= 3x wall
//      clock; the process exits non-zero otherwise so CI catches
//      regressions.
//   2. Matrix: N client threads x M files x C chunks driven through
//      put/get/update/remove, reporting ops/sec, p50/p99 wall latency and
//      the modeled sim_time_parallel.
//
//   3. Overhead gate: the same 64-chunk put+get pair on modeled (CPU-bound)
//      providers with telemetry disabled vs. enabled. Enabled telemetry must
//      cost <= 5% wall clock; the speedup gate in (1) runs with telemetry
//      disabled so its numbers stay comparable with the pre-telemetry
//      baseline JSON.
//
//   4. Fault smoke (gated): 5% seeded transient faults on every provider,
//      4x 32-chunk put+get -- the request layer must absorb all of it with
//      zero client-visible errors. `--fault-sweep` adds the availability-
//      vs-fault-rate curve (EXPERIMENTS.md E14) to the JSON.
//
//   5. Journal gate: the 64-chunk realtime put with the write-ahead journal
//      (fsync per record) vs without. Journaling must cost <= 10% put wall
//      clock; judged by the min-over-pairs ratio like the telemetry gate.
//      `--recovery-sweep` adds the EXPERIMENTS.md E15 rows: metadata
//      recovery time vs journal length, and scrub pass time/detection vs
//      injected corruption rate.
//
// Results are written as JSON (default ./BENCH_throughput.json, a bare
// argument overrides the path) so future PRs have a perf trajectory to
// diff against. The
// matrix phase reports into a private telemetry sink whose per-provider
// latency histograms land in the JSON under "telemetry".
#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <filesystem>

#include <unistd.h>

#include "core/chunker.hpp"
#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/migrator.hpp"
#include "obs/exporter.hpp"
#include "obs/telemetry.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"

namespace {

using namespace cshield;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;

Bytes make_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return data;
}

DistributorConfig bench_config(bool pipelined,
                               std::shared_ptr<obs::Telemetry> sink = nullptr) {
  DistributorConfig config;
  config.default_raid = raid::RaidLevel::kRaid5;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.2;
  config.worker_threads = 8;
  config.pipelined = pipelined;
  // No sink = telemetry off entirely: gate timings stay comparable with the
  // pre-telemetry baseline JSON and are unaffected by the global sink.
  config.telemetry = sink != nullptr;
  config.telemetry_sink = std::move(sink);
  return config;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// --- gate: 64-chunk file, pipelined vs serial ------------------------------
//
// The gate runs against providers in realtime mode (requests block for
// their modeled service time, ~3 ms base latency): shard RPCs are
// latency-bound in any real deployment, and that is exactly the regime the
// chunk-level pipeline targets. The serial baseline pays one round-trip
// barrier per stripe; the pipelined engine keeps every chunk's stripe in
// flight at once.

constexpr double kGateBaseLatencyMs = 3.0;

storage::ProviderRegistry make_realtime_registry(std::size_t n) {
  storage::ProviderRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    storage::ProviderDescriptor d;
    d.name = "rt" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = CostLevel::kCheapest;
    storage::LatencyModel latency;
    latency.base_latency = SimDuration(std::chrono::microseconds(
        static_cast<std::int64_t>(kGateBaseLatencyMs * 1000.0)));
    registry.add(std::move(d), latency, 0xBE9C0000ULL + i);
    registry.at(i).set_realtime_scale(1.0);
  }
  return registry;
}

struct GateResult {
  double serial_s = 0.0;
  double pipelined_s = 0.0;
  [[nodiscard]] double speedup() const { return serial_s / pipelined_s; }
};

double time_put_64(bool pipelined, int reps, const Bytes& data) {
  storage::ProviderRegistry registry = make_realtime_registry(12);
  CloudDataDistributor cdd(registry, bench_config(pipelined));
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kHigh).ok(), "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;  // 1 KiB chunks -> 64 chunks
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    Status st = cdd.put_file("bench", "pw", "gate_put_" + std::to_string(r),
                             data, opts);
    samples.push_back(w.elapsed_seconds());
    CS_REQUIRE(st.ok(), st.to_string());
  }
  return median(samples);
}

double time_get_64(bool pipelined, int reps, const Bytes& data) {
  storage::ProviderRegistry registry = make_realtime_registry(12);
  CloudDataDistributor cdd(registry, bench_config(pipelined));
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kHigh).ok(), "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  CS_REQUIRE(cdd.put_file("bench", "pw", "gate_get", data, opts).ok(), "put");
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    Stopwatch w;
    Result<Bytes> back = cdd.get_file("bench", "pw", "gate_get");
    samples.push_back(w.elapsed_seconds());
    CS_REQUIRE(back.ok(), back.status().to_string());
    CS_REQUIRE(back.value().size() == data.size(), "short read");
  }
  return median(samples);
}

// --- overhead gate: telemetry disabled vs enabled --------------------------
//
// CPU-bound regime (modeled providers, no realtime sleeping): wall clock is
// pure pipeline work, so any instrumentation cost shows directly. Each rep
// is a fresh deployment doing a 64-chunk put + get pair over several files
// to push the timing above scheduler noise.

double time_pair_64_once(bool telemetry, const Bytes& data) {
  constexpr std::size_t kFilesPerRep = 4;
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  std::shared_ptr<obs::Telemetry> sink =
      telemetry ? std::make_shared<obs::Telemetry>() : nullptr;
  CloudDataDistributor cdd(registry, bench_config(true, sink));
  // The enabled side carries the FULL ops plane: the continuous sampler
  // snapshots the registry every 100 ms while the pipeline runs, so the
  // <=5% gate prices exporter ticks in, not just bare counters.
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (telemetry) {
    obs::MetricsExporter::Config ec;
    ec.interval = std::chrono::milliseconds(100);
    exporter = std::make_unique<obs::MetricsExporter>(sink, ec);
    exporter->start();
  }
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kHigh).ok(), "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  Stopwatch w;
  for (std::size_t f = 0; f < kFilesPerRep; ++f) {
    const std::string name = "ovh_" + std::to_string(f);
    CS_REQUIRE(cdd.put_file("bench", "pw", name, data, opts).ok(), "put");
    Result<Bytes> back = cdd.get_file("bench", "pw", name);
    CS_REQUIRE(back.ok() && back.value().size() == data.size(), "get");
  }
  const double elapsed = w.elapsed_seconds();
  if (exporter != nullptr) exporter->stop();  // join outside the timed window
  return elapsed;
}

struct OverheadSamples {
  std::vector<double> disabled;
  std::vector<double> enabled;
};

/// Interleaves disabled/enabled reps (A/B pairs) so clock-frequency and
/// cache drift over the run lands on both sides of each pair instead of
/// entirely on one variant.
OverheadSamples time_pair_64(int reps, const Bytes& data) {
  OverheadSamples s;
  for (int r = 0; r < reps; ++r) {
    s.disabled.push_back(time_pair_64_once(false, data));
    s.enabled.push_back(time_pair_64_once(true, data));
  }
  return s;
}

struct OverheadGate {
  double disabled_s = 0.0;  ///< median of the disabled reps (reporting)
  double enabled_s = 0.0;   ///< median of the enabled reps (reporting)
  double min_ratio = 1.0;  ///< min over pairs of enabled_i / disabled_i
  static constexpr double kLimitPct = 5.0;

  /// The gate judges the minimum per-pair enabled/disabled ratio. Each
  /// enabled rep runs right after its disabled partner, so a pair that
  /// dodged external load measures the true instrumentation cost; noise is
  /// one-sided (a loaded machine only inflates ratios), so the minimum over
  /// N pairs converges on that truth, while a genuine regression shifts
  /// every pair and still trips the limit. Medians are kept for reporting.
  void fill(const OverheadSamples& s) {
    disabled_s = median(s.disabled);
    enabled_s = median(s.enabled);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < s.disabled.size(); ++i) {
      if (s.disabled[i] > 0.0) {
        best = std::min(best, s.enabled[i] / s.disabled[i]);
      }
    }
    if (std::isfinite(best)) min_ratio = best;
  }
  [[nodiscard]] double overhead_pct() const {
    return (min_ratio - 1.0) * 100.0;
  }
  [[nodiscard]] bool pass() const { return overhead_pct() <= kLimitPct; }
};

// --- journal gate: WAL on vs off -------------------------------------------
//
// Same realtime regime as the speedup gate (shard RPCs block for their
// modeled latency). The journal adds two fsynced appends per put (kBeginPut
// + kCommitPut) on the critical path; the gate proves that stays under 10%
// of put wall clock. A/B pairs with a fresh deployment per side; judged on
// the min per-pair ratio (noise is one-sided, see OverheadGate).

namespace fs = std::filesystem;

/// Scratch directory for journal/checkpoint files, removed on destruction.
struct BenchDir {
  fs::path path;
  BenchDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cshield_bench_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~BenchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// A journaled 1-shard plane under `dir`: plane.wal + plane.ckpt.
std::shared_ptr<core::MetadataPlane> journaled_plane(
    const fs::path& dir, const core::GroupCommitConfig& gc = {}) {
  Result<std::shared_ptr<core::MetadataPlane>> plane =
      core::MetadataPlane::open(dir / "plane.ckpt", dir / "plane.wal", 1, gc);
  CS_REQUIRE(plane.ok(), plane.status().to_string());
  return std::move(plane).value();
}

double time_put_64_journal(bool journaled, const Bytes& data) {
  BenchDir dir;
  storage::ProviderRegistry registry = make_realtime_registry(12);
  DistributorConfig config = bench_config(true);
  if (journaled) config.plane = journaled_plane(dir.path);
  CloudDataDistributor cdd(registry, config);
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kHigh).ok(), "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  constexpr int kPutsPerRep = 2;
  Stopwatch w;
  for (int r = 0; r < kPutsPerRep; ++r) {
    Status st = cdd.put_file("bench", "pw", "jgate_" + std::to_string(r),
                             data, opts);
    CS_REQUIRE(st.ok(), st.to_string());
  }
  return w.elapsed_seconds();
}

struct JournalGate {
  double baseline_s = 0.0;   ///< median without journal (reporting)
  double journaled_s = 0.0;  ///< median with journal (reporting)
  double min_ratio = 1.0;    ///< min over pairs of journaled_i / baseline_i
  static constexpr double kLimitPct = 10.0;

  void run(int reps, const Bytes& data) {
    std::vector<double> off, on;
    (void)time_put_64_journal(false, data);  // warm both variants
    (void)time_put_64_journal(true, data);
    for (int r = 0; r < reps; ++r) {
      off.push_back(time_put_64_journal(false, data));
      on.push_back(time_put_64_journal(true, data));
    }
    baseline_s = median(off);
    journaled_s = median(on);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < off.size(); ++i) {
      if (off[i] > 0.0) best = std::min(best, on[i] / off[i]);
    }
    if (std::isfinite(best)) min_ratio = best;
  }
  [[nodiscard]] double overhead_pct() const { return (min_ratio - 1.0) * 100.0; }
  [[nodiscard]] bool pass() const { return overhead_pct() <= kLimitPct; }
};

// --- small-op gate: per-op commit vs group commit vs batched RPC ------------
//
// The regime the PR 6 data path targets: many concurrent clients writing
// small files (1-8 KiB -> one or two 4 KiB stripes each) against realtime
// providers, with a WAL fsync on every metadata mutation. Per-op commit
// serializes two fsyncs per put behind the journal mutex and pushes every
// shard through its own round trip against a bounded I/O-channel pool; the
// two amortizations attack exactly those costs:
//   per_op            fsync per record, one RPC per shard (the baseline)
//   group_commit      one fsync per <= 64 records (2 ms window)
//   group_commit_batched  + shards coalesced into 16-shard put_many RPCs
// Gate: batched throughput must be >= 3x per_op at 64 clients.

enum class SmallOpsMode { kPerOp, kGroupCommit, kGroupCommitBatched };

const char* smallops_mode_name(SmallOpsMode m) {
  switch (m) {
    case SmallOpsMode::kPerOp: return "per_op";
    case SmallOpsMode::kGroupCommit: return "group_commit";
    case SmallOpsMode::kGroupCommitBatched: return "group_commit_batched";
  }
  return "?";
}

struct SmallOpsCell {
  std::string mode;
  std::size_t clients = 0;
  std::size_t puts = 0;             ///< ops per rep
  double ops_per_sec = 0.0;         ///< median over reps
  std::vector<double> wall_s;       ///< per-put latencies, pooled over reps
  std::uint64_t group_commits = 0;  ///< journal flushes that carried > 1 record
  std::uint64_t batch_rpcs = 0;     ///< provider batch requests (all reps)
};

SmallOpsCell run_smallops_cell(SmallOpsMode mode, std::size_t clients,
                               int reps) {
  // Long enough per rep that fsync-latency jitter on the host filesystem
  // averages out of the per_op baseline; the gate compares medians of reps.
  constexpr std::size_t kFilesPerClient = 16;
  SmallOpsCell cell;
  cell.mode = smallops_mode_name(mode);
  cell.clients = clients;
  cell.puts = clients * kFilesPerClient;
  std::vector<double> rep_ops;
  for (int rep = 0; rep < reps; ++rep) {
    BenchDir dir;
    storage::ProviderRegistry registry = make_realtime_registry(12);
    DistributorConfig config = bench_config(true);
    // Small-op regime: a worker channel per client (each blocks on shard
    // latency, not CPU), but a bounded shard-RPC channel pool -- a real
    // object-store client caps concurrent connections, and that cap is
    // what per-shard RPCs saturate at 64 clients.
    config.worker_threads = clients;
    config.io_threads = 32;
    config.misleading_fraction = 0.1;
    // Opportunistic grouping (interval 0): the leader flushes whatever
    // queued behind the previous fsync, so batches form from backpressure
    // without adding wait latency to lightly-loaded appends.
    config.plane = journaled_plane(
        dir.path, mode == SmallOpsMode::kPerOp
                      ? core::GroupCommitConfig{}
                      : core::GroupCommitConfig{
                            64, std::chrono::microseconds(0)});
    if (mode == SmallOpsMode::kGroupCommitBatched) {
      config.rpc_batch_shards = 16;
      config.rpc_batch_wait = std::chrono::microseconds(500);
    }
    CloudDataDistributor cdd(registry, config);
    for (std::size_t c = 0; c < clients; ++c) {
      const std::string name = "sc" + std::to_string(c);
      CS_REQUIRE(cdd.register_client(name).ok(), "register");
      CS_REQUIRE(cdd.add_password(name, "pw", PrivacyLevel::kHigh).ok(), "pw");
    }
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;  // 4 KiB chunks

    std::mutex merge_mu;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    Stopwatch phase;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(kFilesPerClient);
        for (std::size_t m = 0; m < kFilesPerClient; ++m) {
          // 1-8 KiB, client-skewed so every size lands in every rep.
          const std::size_t bytes = 1024 * (1 + (c + m) % 8);
          const Bytes data = make_payload(bytes, rep * 7919 + c * 131 + m);
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
    rep_ops.push_back(elapsed > 0.0
                          ? static_cast<double>(cell.puts) / elapsed
                          : 0.0);
    cell.group_commits += config.plane->journal(0)->group_commits();
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      cell.batch_rpcs += registry.at(p).counters().batch_requests.load();
    }
  }
  cell.ops_per_sec = median(rep_ops);
  return cell;
}

struct SmallOpsGate {
  std::vector<SmallOpsCell> cells;
  double per_op_64 = 0.0;
  double batched_64 = 0.0;
  static constexpr double kTargetSpeedup = 3.0;

  void run(int reps) {
    for (SmallOpsMode mode :
         {SmallOpsMode::kPerOp, SmallOpsMode::kGroupCommit,
          SmallOpsMode::kGroupCommitBatched}) {
      for (std::size_t clients : {8u, 16u, 64u}) {
        cells.push_back(run_smallops_cell(mode, clients, reps));
        const SmallOpsCell& c = cells.back();
        std::cout << c.mode << " @ " << c.clients << " clients: "
                  << c.ops_per_sec << " puts/s (p50 "
                  << percentile(c.wall_s, 0.5) * 1e3 << " ms, p99 "
                  << percentile(c.wall_s, 0.99) * 1e3 << " ms)\n";
        if (c.clients == 64) {
          if (mode == SmallOpsMode::kPerOp) per_op_64 = c.ops_per_sec;
          if (mode == SmallOpsMode::kGroupCommitBatched) {
            batched_64 = c.ops_per_sec;
          }
        }
      }
    }
  }
  [[nodiscard]] double speedup() const {
    return per_op_64 > 0.0 ? batched_64 / per_op_64 : 0.0;
  }
  [[nodiscard]] bool pass() const { return speedup() >= kTargetSpeedup; }
};

void emit_smallops_json(const std::string& path, const SmallOpsGate& gate) {
  std::ofstream out(path);
  CS_REQUIRE(out.good(), "cannot open " + path);
  out << "{\n  \"bench\": \"smallops\",\n"
      << "  \"config\": {\"file_bytes\": \"1024..8192\", "
         "\"files_per_client\": 16, \"chunk_bytes\": 4096, "
         "\"data_shards\": 3, \"misleading_fraction\": 0.1, "
         "\"io_threads\": 32, \"providers\": 12, \"realtime_latency_ms\": "
      << kGateBaseLatencyMs
      << ", \"journal\": \"fsync WAL\", \"group_commit\": "
         "{\"batch_ops\": 64, \"batch_interval_us\": 0}, \"rpc_batch\": "
         "{\"batch_shards\": 16, \"batch_wait_us\": 500}},\n"
      << "  \"rows\": [\n";
  for (std::size_t i = 0; i < gate.cells.size(); ++i) {
    const SmallOpsCell& c = gate.cells[i];
    out << "    {\"mode\": \"" << c.mode << "\", \"clients\": " << c.clients
        << ", \"puts\": " << c.puts
        << ", \"ops_per_sec\": " << c.ops_per_sec
        << ", \"p50_ms\": " << percentile(c.wall_s, 0.5) * 1e3
        << ", \"p99_ms\": " << percentile(c.wall_s, 0.99) * 1e3
        << ", \"group_commits\": " << c.group_commits
        << ", \"batch_rpcs\": " << c.batch_rpcs << "}"
        << (i + 1 < gate.cells.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"gate\": {\"per_op_64_ops\": " << gate.per_op_64
      << ", \"batched_64_ops\": " << gate.batched_64
      << ", \"speedup\": " << gate.speedup()
      << ", \"target_speedup\": " << SmallOpsGate::kTargetSpeedup
      << ", \"pass\": " << (gate.pass() ? "true" : "false") << "}\n}\n";
}

// --- recovery sweep (E15) ---------------------------------------------------

struct MttrRow {
  std::size_t records = 0;  ///< journal records replayed
  std::size_t chunks = 0;   ///< chunk rows in the recovered store
  double recover_ms = 0.0;  ///< recover_metadata wall time
};

/// Metadata recovery time as a function of journal length: put 1-chunk
/// files with no checkpointing, then time a cold checkpoint+journal replay.
MttrRow run_mttr(std::size_t target_records) {
  BenchDir dir;
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config = bench_config(true);
  config.plane = journaled_plane(dir.path);
  const core::Journal& journal = *config.plane->journal(0);
  CloudDataDistributor cdd(registry, config);
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kModerate).ok(),
             "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;  // 4 KiB chunks
  std::size_t f = 0;
  while (journal.record_count() < target_records) {
    const Bytes data = make_payload(4000, 0xE15 + f);  // one chunk per file
    CS_REQUIRE(cdd.put_file("bench", "pw", "mttr_" + std::to_string(f++),
                            data, opts)
                   .ok(),
               "put");
  }
  MttrRow row;
  row.records = journal.record_count();
  Stopwatch w;
  Result<core::RecoveredState> rec = core::recover_metadata(
      dir.path / "plane.ckpt", dir.path / "plane.wal");
  row.recover_ms = w.elapsed_seconds() * 1e3;
  CS_REQUIRE(rec.ok(), rec.status().to_string());
  row.chunks = rec.value().metadata->total_chunks();
  return row;
}

struct ScrubRow {
  double corruption_rate = 0.0;
  std::size_t chunks = 0;
  std::size_t corrupted = 0;
  std::size_t detected = 0;
  std::size_t repaired = 0;
  double pass_ms = 0.0;  ///< one full scrub pass (detection latency bound)
};

/// Scrub detection latency and completeness vs injected corruption rate:
/// flip one byte in one stripe shard of `rate` of all chunks, then time a
/// full scrubbing heal pass. Detection latency for any one corruption is
/// bounded by the pass time; completeness must be 100%.
ScrubRow run_scrub_row(double rate) {
  BenchDir dir;
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config = bench_config(true);
  config.plane = journaled_plane(dir.path);
  CloudDataDistributor cdd(registry, config);
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kModerate).ok(),
             "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  for (int f = 0; f < 4; ++f) {
    const Bytes data = make_payload(16 * 4096, 0x5C4B + f);  // 16 chunks
    CS_REQUIRE(cdd.put_file("bench", "pw", "scrub_" + std::to_string(f),
                            data, opts)
                   .ok(),
               "put");
  }
  ScrubRow row;
  row.corruption_rate = rate;
  const auto table = cdd.metadata().chunk_table();
  row.chunks = table.size();
  const auto step = static_cast<std::size_t>(
      rate > 0.0 ? std::max(1.0, 1.0 / rate) : table.size() + 1);
  for (std::size_t i = 0; i < table.size(); i += step) {
    if (table[i].deleted || table[i].stripe.empty()) continue;
    const core::ShardLocation& loc = table[i].stripe[i % table[i].stripe.size()];
    CS_REQUIRE(registry.at(loc.provider).corrupt_object(loc.virtual_id, 7).ok(),
               "corrupt");
    ++row.corrupted;
  }
  core::Migrator walker(cdd);
  Stopwatch w;
  Result<core::Migrator::Report> pass =
      walker.run(core::MovePolicy::heal(/*scrub=*/true));
  row.pass_ms = w.elapsed_seconds() * 1e3;
  CS_REQUIRE(pass.ok(), pass.status().to_string());
  row.detected = pass.value().mismatches;
  row.repaired = pass.value().shards_moved;
  return row;
}

// --- matrix: N clients x M files x C chunks --------------------------------

struct OpSeries {
  std::vector<double> wall_s;          // per-op wall latency
  std::vector<double> sim_parallel_ms; // per-op modeled makespan
  double phase_wall_s = 0.0;           // whole phase, all threads

  [[nodiscard]] double ops_per_sec() const {
    return phase_wall_s > 0.0
               ? static_cast<double>(wall_s.size()) / phase_wall_s
               : 0.0;
  }
};

struct MatrixRow {
  std::size_t clients = 0;
  std::size_t files_per_client = 0;
  std::size_t chunks = 0;
  OpSeries put, get, update, remove;
};

MatrixRow run_matrix(std::size_t clients, std::size_t files_per_client,
                     std::size_t chunks,
                     const std::shared_ptr<obs::Telemetry>& sink) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  CloudDataDistributor cdd(registry, bench_config(true, sink));
  const std::size_t chunk_bytes =
      core::ChunkSizePolicy{}.chunk_size(PrivacyLevel::kPublic);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::string name = "client" + std::to_string(c);
    CS_REQUIRE(cdd.register_client(name).ok(), "register");
    CS_REQUIRE(cdd.add_password(name, "pw", PrivacyLevel::kHigh).ok(), "pw");
  }

  MatrixRow row;
  row.clients = clients;
  row.files_per_client = files_per_client;
  row.chunks = chunks;
  std::mutex merge_mu;

  // One phase = every client thread performing `op` on all of its files.
  auto run_phase = [&](OpSeries& series, auto op) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    Stopwatch phase;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        OpSeries local;
        for (std::size_t m = 0; m < files_per_client; ++m) {
          OpReport report;
          Stopwatch w;
          op(c, m, &report);
          local.wall_s.push_back(w.elapsed_seconds());
          local.sim_parallel_ms.push_back(
              static_cast<double>(report.sim_time_parallel.count()) / 1e6);
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        series.wall_s.insert(series.wall_s.end(), local.wall_s.begin(),
                             local.wall_s.end());
        series.sim_parallel_ms.insert(series.sim_parallel_ms.end(),
                                      local.sim_parallel_ms.begin(),
                                      local.sim_parallel_ms.end());
      });
    }
    for (auto& t : threads) t.join();
    series.phase_wall_s = phase.elapsed_seconds();
  };

  auto client_of = [](std::size_t c) { return "client" + std::to_string(c); };
  auto file_of = [](std::size_t m) { return "file" + std::to_string(m); };
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kPublic;

  run_phase(row.put, [&](std::size_t c, std::size_t m, OpReport* report) {
    const Bytes data = make_payload(chunk_bytes * chunks, c * 100 + m);
    Status st = cdd.put_file(client_of(c), "pw", file_of(m), data, opts,
                             report);
    CS_REQUIRE(st.ok(), st.to_string());
  });
  run_phase(row.get, [&](std::size_t c, std::size_t m, OpReport* report) {
    Result<Bytes> back = cdd.get_file(client_of(c), "pw", file_of(m), report);
    CS_REQUIRE(back.ok(), back.status().to_string());
  });
  run_phase(row.update, [&](std::size_t c, std::size_t m, OpReport* report) {
    const Bytes data = make_payload(chunk_bytes, c * 7919 + m + 1);
    Status st = cdd.update_chunk(client_of(c), "pw", file_of(m), 0, data,
                                 report);
    CS_REQUIRE(st.ok(), st.to_string());
  });
  run_phase(row.remove, [&](std::size_t c, std::size_t m, OpReport* report) {
    (void)report;
    Status st = cdd.remove_file(client_of(c), "pw", file_of(m));
    CS_REQUIRE(st.ok(), st.to_string());
  });
  return row;
}

// --- faults: availability vs injected transient fault rate -----------------
//
// Every request to every provider fails with probability `rate` (seeded
// FaultPlan, so a rerun replays the same faults). The smoke row (5%) is
// part of the exit gate: the request layer must absorb the noise with zero
// client-visible errors. `--fault-sweep` adds the E14 curve.

struct FaultRow {
  double rate = 0.0;
  std::size_t ops = 0;            ///< put+get operations attempted
  std::size_t client_errors = 0;  ///< failed or wrong-bytes client ops
  std::size_t retries = 0;
  std::size_t hedges = 0;
  std::size_t replaced_shards = 0;
  std::uint64_t injected = 0;  ///< provider-side injected faults
  std::uint64_t breaker_trips = 0;
  [[nodiscard]] double availability() const {
    return ops == 0 ? 1.0
                    : 1.0 - static_cast<double>(client_errors) /
                                static_cast<double>(ops);
  }
};

FaultRow run_faults(double rate, std::uint64_t seed) {
  auto sink = std::make_shared<obs::Telemetry>();
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  if (rate > 0.0) {
    registry.apply_fault_plan(std::make_shared<storage::FaultPlan>(
        storage::FaultPlan::transient(seed, rate)));
  }
  CloudDataDistributor cdd(registry, bench_config(true, sink));
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kModerate).ok(),
             "pw");
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;  // 4 KiB chunks

  FaultRow row;
  row.rate = rate;
  for (int f = 0; f < 4; ++f) {
    const Bytes data = make_payload(32 * 4096, seed * 131 + f);  // 32 chunks
    const std::string name = "fault_" + std::to_string(f);
    OpReport put_report;
    const Status st = cdd.put_file("bench", "pw", name, data, opts,
                                   &put_report);
    ++row.ops;
    row.retries += put_report.retries;
    row.replaced_shards += put_report.replaced_shards;
    if (!st.ok()) {
      ++row.client_errors;
      continue;
    }
    OpReport get_report;
    Result<Bytes> back = cdd.get_file("bench", "pw", name, &get_report);
    ++row.ops;
    row.retries += get_report.retries;
    row.hedges += get_report.hedges;
    if (!back.ok() || !equal(back.value(), data)) ++row.client_errors;
  }
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    row.injected += registry.at(p).counters().injected_failures.load();
  }
  row.breaker_trips = sink->metrics().counter("rt.breaker_trips").value();
  return row;
}

void emit_fault_row(std::ostream& os, const FaultRow& r) {
  os << "{\"rate\": " << r.rate << ", \"ops\": " << r.ops
     << ", \"client_errors\": " << r.client_errors
     << ", \"availability\": " << r.availability()
     << ", \"retries\": " << r.retries << ", \"hedges\": " << r.hedges
     << ", \"replaced_shards\": " << r.replaced_shards
     << ", \"injected_failures\": " << r.injected
     << ", \"breaker_trips\": " << r.breaker_trips << "}";
}

// --- JSON emission ----------------------------------------------------------

void emit_series(std::ostream& os, const char* name, const OpSeries& s,
                 bool last) {
  os << "      \"" << name << "\": {"
     << "\"ops_per_sec\": " << s.ops_per_sec()
     << ", \"p50_ms\": " << percentile(s.wall_s, 0.5) * 1e3
     << ", \"p99_ms\": " << percentile(s.wall_s, 0.99) * 1e3
     << ", \"sim_parallel_ms_mean\": " << mean_of(s.sim_parallel_ms) << "}"
     << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_throughput.json";
  std::string smallops_path = "BENCH_smallops.json";
  bool fault_sweep = false;
  bool recovery_sweep = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--fault-sweep") {
      fault_sweep = true;
    } else if (std::string_view(argv[i]) == "--recovery-sweep") {
      recovery_sweep = true;
    } else if (std::string_view(argv[i]) == "--smallops-out" && i + 1 < argc) {
      smallops_path = argv[++i];
    } else {
      out_path = argv[i];
    }
  }

  const std::size_t gate_chunk_bytes =
      core::ChunkSizePolicy{}.chunk_size(PrivacyLevel::kHigh);
  const Bytes gate_data = make_payload(gate_chunk_bytes * 64, 42);

  std::cout << "=== gate: 64-chunk file (" << gate_data.size() / 1024
            << " KiB, PL3, RAID-5 k=3, chaff 0.2, 8 workers, realtime "
            << kGateBaseLatencyMs << " ms base latency) ===\n";
  GateResult put_gate;
  put_gate.serial_s = time_put_64(false, 5, gate_data);
  put_gate.pipelined_s = time_put_64(true, 5, gate_data);
  GateResult get_gate;
  get_gate.serial_s = time_get_64(false, 5, gate_data);
  get_gate.pipelined_s = time_get_64(true, 5, gate_data);
  std::cout << "put: serial " << put_gate.serial_s * 1e3 << " ms, pipelined "
            << put_gate.pipelined_s * 1e3 << " ms -> " << put_gate.speedup()
            << "x\n";
  std::cout << "get: serial " << get_gate.serial_s * 1e3 << " ms, pipelined "
            << get_gate.pipelined_s * 1e3 << " ms -> " << get_gate.speedup()
            << "x\n";
  const bool gate_ok = put_gate.speedup() >= 3.0 && get_gate.speedup() >= 3.0;
  std::cout << "gate (target >= 3x): " << (gate_ok ? "PASS" : "FAIL") << "\n";

  std::cout << "\n=== overhead gate: telemetry disabled vs enabled "
               "(modeled providers, 4x 64-chunk put+get per rep) ===\n";
  OverheadGate overhead;
  // Warm caches/allocator/turbo on both variants before measuring.
  (void)time_pair_64_once(false, gate_data);
  (void)time_pair_64_once(true, gate_data);
  overhead.fill(time_pair_64(7, gate_data));
  std::cout << "disabled " << overhead.disabled_s * 1e3 << " ms, enabled "
            << overhead.enabled_s * 1e3 << " ms -> "
            << overhead.overhead_pct() << "% overhead (limit "
            << OverheadGate::kLimitPct << "%): "
            << (overhead.pass() ? "PASS" : "FAIL") << "\n";

  std::cout << "\n=== journal gate: WAL on vs off (realtime 64-chunk puts, "
               "fsync per record) ===\n";
  JournalGate journal_gate;
  journal_gate.run(5, gate_data);
  std::cout << "no journal " << journal_gate.baseline_s * 1e3
            << " ms, journaled " << journal_gate.journaled_s * 1e3
            << " ms -> " << journal_gate.overhead_pct()
            << "% overhead (limit " << JournalGate::kLimitPct
            << "%): " << (journal_gate.pass() ? "PASS" : "FAIL") << "\n";

  std::cout << "\n=== small-op gate: 1-8 KiB puts, fsync WAL, per-op vs "
               "group commit vs batched RPC ===\n";
  SmallOpsGate smallops;
  smallops.run(3);
  std::cout << "64 clients: per-op " << smallops.per_op_64
            << " puts/s, group-commit+batched-rpc " << smallops.batched_64
            << " puts/s -> " << smallops.speedup() << "x (target >= "
            << SmallOpsGate::kTargetSpeedup
            << "x): " << (smallops.pass() ? "PASS" : "FAIL") << "\n";
  emit_smallops_json(smallops_path, smallops);
  std::cout << "wrote " << smallops_path << "\n";

  std::vector<MttrRow> mttr_rows;
  std::vector<ScrubRow> scrub_rows;
  if (recovery_sweep) {
    std::cout << "\n=== recovery sweep (E15) ===\n";
    for (std::size_t records : {8u, 32u, 128u, 512u}) {
      mttr_rows.push_back(run_mttr(records));
      const MttrRow& r = mttr_rows.back();
      std::cout << "journal " << r.records << " records (" << r.chunks
                << " chunks): recover " << r.recover_ms << " ms\n";
    }
    for (double rate : {0.05, 0.25, 1.0}) {
      scrub_rows.push_back(run_scrub_row(rate));
      const ScrubRow& r = scrub_rows.back();
      std::cout << "corruption rate " << r.corruption_rate << ": "
                << r.detected << "/" << r.corrupted << " detected, "
                << r.repaired << " repaired, pass " << r.pass_ms << " ms\n";
    }
  }

  std::cout << "\n=== fault smoke: 5% transient faults, 4x 32-chunk put+get "
               "(pipelined, seeded) ===\n";
  const FaultRow smoke = run_faults(0.05, 0xFA17);
  const bool fault_ok = smoke.client_errors == 0 && smoke.injected > 0;
  std::cout << "injected " << smoke.injected << " faults -> " << smoke.retries
            << " retries, " << smoke.replaced_shards << " re-placed shards, "
            << smoke.hedges << " hedges, " << smoke.client_errors
            << " client errors: " << (fault_ok ? "PASS" : "FAIL") << "\n";
  std::vector<FaultRow> fault_rows;
  if (fault_sweep) {
    std::cout << "\n=== fault sweep: availability vs rate (E14) ===\n";
    for (double rate : {0.0, 0.02, 0.05, 0.1, 0.2}) {
      fault_rows.push_back(run_faults(rate, 0xFA17));
      const FaultRow& r = fault_rows.back();
      std::cout << "rate " << r.rate << ": availability "
                << r.availability() << " (" << r.client_errors << "/"
                << r.ops << " errors), retries " << r.retries
                << ", breaker trips " << r.breaker_trips << "\n";
    }
  }

  std::cout << "\n=== matrix: clients x files x chunks (pipelined, "
               "8 workers) ===\n";
  std::vector<MatrixRow> rows;
  // One private sink per row; the 64-chunk row's per-provider histograms are
  // what lands in the JSON "telemetry" section.
  std::shared_ptr<obs::Telemetry> matrix_sink;
  for (std::size_t chunks : {4u, 16u, 64u}) {
    matrix_sink = std::make_shared<obs::Telemetry>();
    rows.push_back(run_matrix(/*clients=*/8, /*files_per_client=*/4, chunks,
                              matrix_sink));
    const MatrixRow& r = rows.back();
    std::cout << "C=" << chunks << ": put " << r.put.ops_per_sec()
              << " ops/s (p99 " << percentile(r.put.wall_s, 0.99) * 1e3
              << " ms), get " << r.get.ops_per_sec() << " ops/s, update "
              << r.update.ops_per_sec() << " ops/s, remove "
              << r.remove.ops_per_sec() << " ops/s\n";
  }

  std::ofstream out(out_path);
  CS_REQUIRE(out.good(), "cannot open " + out_path);
  out << "{\n  \"bench\": \"throughput\",\n"
      << "  \"config\": {\"raid\": \"raid5\", \"data_shards\": 3, "
         "\"misleading_fraction\": 0.2, \"worker_threads\": 8, "
         "\"gate_chunk_bytes\": "
      << gate_chunk_bytes << ", \"gate_latency_ms\": " << kGateBaseLatencyMs
      << ", \"gate_realtime\": true, \"matrix_chunk_bytes\": "
      << core::ChunkSizePolicy{}.chunk_size(PrivacyLevel::kPublic) << "},\n"
      << "  \"gate\": {\n"
      << "    \"put_64chunk\": {\"serial_s\": " << put_gate.serial_s
      << ", \"pipelined_s\": " << put_gate.pipelined_s
      << ", \"speedup\": " << put_gate.speedup() << "},\n"
      << "    \"get_64chunk\": {\"serial_s\": " << get_gate.serial_s
      << ", \"pipelined_s\": " << get_gate.pipelined_s
      << ", \"speedup\": " << get_gate.speedup() << "},\n"
      << "    \"target_speedup\": 3.0, \"pass\": "
      << (gate_ok ? "true" : "false") << "\n  },\n"
      << "  \"overhead_gate\": {\"disabled_s\": " << overhead.disabled_s
      << ", \"enabled_s\": " << overhead.enabled_s
      << ", \"min_ratio\": " << overhead.min_ratio
      << ", \"overhead_pct\": " << overhead.overhead_pct()
      << ", \"limit_pct\": " << OverheadGate::kLimitPct
      << ", \"pass\": " << (overhead.pass() ? "true" : "false") << "},\n"
      << "  \"journal_gate\": {\"baseline_s\": " << journal_gate.baseline_s
      << ", \"journaled_s\": " << journal_gate.journaled_s
      << ", \"min_ratio\": " << journal_gate.min_ratio
      << ", \"overhead_pct\": " << journal_gate.overhead_pct()
      << ", \"limit_pct\": " << JournalGate::kLimitPct
      << ", \"pass\": " << (journal_gate.pass() ? "true" : "false") << "},\n"
      << "  \"fault_smoke\": ";
  emit_fault_row(out, smoke);
  out << ",\n  \"fault_smoke_pass\": " << (fault_ok ? "true" : "false")
      << ",\n";
  if (!mttr_rows.empty()) {
    out << "  \"recovery_sweep\": {\n    \"mttr\": [\n";
    for (std::size_t i = 0; i < mttr_rows.size(); ++i) {
      const MttrRow& r = mttr_rows[i];
      out << "      {\"records\": " << r.records << ", \"chunks\": "
          << r.chunks << ", \"recover_ms\": " << r.recover_ms << "}"
          << (i + 1 < mttr_rows.size() ? ",\n" : "\n");
    }
    out << "    ],\n    \"scrub\": [\n";
    for (std::size_t i = 0; i < scrub_rows.size(); ++i) {
      const ScrubRow& r = scrub_rows[i];
      out << "      {\"corruption_rate\": " << r.corruption_rate
          << ", \"chunks\": " << r.chunks << ", \"corrupted\": "
          << r.corrupted << ", \"detected\": " << r.detected
          << ", \"repaired\": " << r.repaired << ", \"pass_ms\": "
          << r.pass_ms << "}"
          << (i + 1 < scrub_rows.size() ? ",\n" : "\n");
    }
    out << "    ]\n  },\n";
  }
  if (!fault_rows.empty()) {
    out << "  \"fault_sweep\": [\n";
    for (std::size_t i = 0; i < fault_rows.size(); ++i) {
      out << "    ";
      emit_fault_row(out, fault_rows[i]);
      out << (i + 1 < fault_rows.size() ? ",\n" : "\n");
    }
    out << "  ],\n";
  }
  out << "  \"matrix\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MatrixRow& r = rows[i];
    out << "    {\"clients\": " << r.clients
        << ", \"files_per_client\": " << r.files_per_client
        << ", \"chunks\": " << r.chunks << ",\n";
    emit_series(out, "put", r.put, false);
    emit_series(out, "get", r.get, false);
    emit_series(out, "update", r.update, false);
    emit_series(out, "remove", r.remove, true);
    out << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  // Per-provider latency histograms, RAID kernel timings and distributor
  // counters from the 64-chunk matrix row (telemetry enabled there).
  out << "  ],\n  \"telemetry\": " << matrix_sink->metrics().to_json()
      << "\n}\n";
  out.close();
  std::cout << "\nwrote " << out_path << "\n";
  return gate_ok && overhead.pass() && journal_gate.pass() &&
                 smallops.pass() && fault_ok
             ? 0
             : 1;
}
