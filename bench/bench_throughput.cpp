// Throughput + latency benchmark for the pipelined stripe engine.
//
//   1. E12 gate: a 64-chunk file put and get at 8 worker threads, pipelined
//      engine vs. the serial per-stripe baseline (worker_threads = 1 at the
//      same 32 I/O threads: one chunk's stripe in flight at a time). The
//      two deployments run interleaved reps; the median of the paired
//      serial/pipelined ratios must reach >= 3x for put and for get.
//   2. Overhead gate: the same 64-chunk put+get pair on modelled (CPU-bound)
//      providers with telemetry disabled vs. enabled. The minimum paired
//      enabled/disabled ratio must stay within 5%; the E12 gate runs with
//      telemetry disabled so its numbers stay comparable across PRs.
//   3. Journal gate: the 64-chunk realtime put with the write-ahead journal
//      (fsync per record) vs without; minimum paired ratio within 10%.
//   4. Small-op gate: 1-8 KiB puts from 8/16/64 clients through a fsync
//      WAL, per-op commit vs group commit vs group commit + batched shard
//      RPCs. At 64 clients the median of the paired batched/per-op ratios
//      must reach >= 3x. The curves land in BENCH_smallops.json.
//   5. Fault smoke: 5% seeded transient faults on every provider, 4x
//      32-chunk put+get -- the request layer must absorb all of it with
//      zero client-visible errors. `--fault-sweep` adds the availability-
//      vs-fault-rate curve (EXPERIMENTS.md E14).
//   6. Matrix: N client threads x M files x C chunks driven through
//      put/get/update/remove, reporting ops/sec, p50/p99 wall latency and
//      the modelled sim_time_parallel. The 64-chunk row reports into a
//      private telemetry sink whose metrics land under "telemetry".
//
// `--recovery-sweep` adds the EXPERIMENTS.md E15 rows: metadata recovery
// time vs journal length, and scrub pass time/detection vs injected
// corruption rate. Results are written through the bench harness envelope
// (default ./BENCH_throughput.json, a bare argument overrides the path;
// `--smallops-out` moves BENCH_smallops.json); the exit code is non-zero
// when any gate in either file fails.
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/chunker.hpp"
#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/migrator.hpp"
#include "harness.hpp"
#include "obs/exporter.hpp"
#include "obs/telemetry.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"

namespace {

using namespace cshield;
using bench::Json;
using bench::Paired;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;

/// `serial` is the E12 gate's baseline arm: one worker keeps one chunk's
/// stripe in flight at a time, at the pipelined arm's I/O width.
DistributorConfig bench_config(bool serial,
                               std::shared_ptr<obs::Telemetry> sink = nullptr) {
  DistributorConfig config;
  config.default_raid = raid::RaidLevel::kRaid5;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.2;
  config.worker_threads = serial ? 1 : 8;
  config.io_threads = 32;
  // No sink = telemetry off entirely: gate timings stay comparable across
  // PRs and are unaffected by the global sink.
  config.telemetry = sink != nullptr;
  config.telemetry_sink = std::move(sink);
  return config;
}

/// One client "bench" with a PL3 password on a fresh distributor.
void register_bench_client(CloudDataDistributor& cdd, PrivacyLevel pl) {
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", pl).ok(), "pw");
}

PutOptions options(PrivacyLevel pl) {
  PutOptions opts;
  opts.privacy_level = pl;
  return opts;
}

Json paired_json(const Paired& p, const char* a, const char* b) {
  return Json::object()
      .set(a, bench::quartiles_json(p.a))
      .set(b, bench::quartiles_json(p.b))
      .set("ratios", Json::array_of(p.ratios()));
}

// --- E12 gate: 64-chunk file, pipelined vs serial ----------------------------
//
// Realtime providers: shard RPCs are latency-bound in any real deployment,
// and that is exactly the regime the chunk-level pipeline targets. The
// serial baseline pays one round-trip barrier per stripe; the pipelined
// engine keeps every chunk's stripe in flight at once.

struct GateDeployment {
  storage::ProviderRegistry registry = bench::realtime_registry(12);
  CloudDataDistributor cdd;
  explicit GateDeployment(bool serial) : cdd(registry, bench_config(serial)) {
    register_bench_client(cdd, PrivacyLevel::kHigh);
  }
};

struct E12 {
  Paired put;  ///< a = serial, b = pipelined (seconds per put)
  Paired get;  ///< a = serial, b = pipelined (seconds per get)
};

E12 run_e12(const Bytes& data, int reps) {
  GateDeployment serial(true);
  GateDeployment pipelined(false);
  const PutOptions opts = options(PrivacyLevel::kHigh);  // 64 chunks
  int files = 0;
  const auto time_put = [&](GateDeployment& d) {
    Stopwatch w;
    const Status st = d.cdd.put_file(
        "bench", "pw", "gate_put_" + std::to_string(files++), data, opts);
    const double s = w.elapsed_seconds();
    CS_REQUIRE(st.ok(), st.to_string());
    return s;
  };
  const auto time_get = [&](GateDeployment& d) {
    Stopwatch w;
    Result<Bytes> back = d.cdd.get_file("bench", "pw", "gate_get");
    const double s = w.elapsed_seconds();
    CS_REQUIRE(back.ok(), back.status().to_string());
    CS_REQUIRE(back.value().size() == data.size(), "short read");
    return s;
  };
  E12 e12;
  e12.put = Paired::run(
      reps, [&](int) { return time_put(serial); },
      [&](int) { return time_put(pipelined); });
  for (GateDeployment* d : {&serial, &pipelined}) {
    CS_REQUIRE(d->cdd.put_file("bench", "pw", "gate_get", data, opts).ok(),
               "put");
  }
  e12.get = Paired::run(
      reps, [&](int) { return time_get(serial); },
      [&](int) { return time_get(pipelined); });
  return e12;
}

// --- overhead gate: telemetry disabled vs enabled ----------------------------
//
// CPU-bound regime (modelled providers, no realtime sleeping): wall clock is
// pure pipeline work, so any instrumentation cost shows directly. Each rep
// is a fresh deployment doing a 64-chunk put + get pair over several files
// to push the timing above scheduler noise.

double time_pair_64(bool telemetry, const Bytes& data) {
  constexpr std::size_t kFilesPerRep = 4;
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  std::shared_ptr<obs::Telemetry> sink =
      telemetry ? std::make_shared<obs::Telemetry>() : nullptr;
  CloudDataDistributor cdd(registry, bench_config(false, sink));
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
  register_bench_client(cdd, PrivacyLevel::kHigh);
  const PutOptions opts = options(PrivacyLevel::kHigh);
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

// --- journal gate: WAL on vs off ---------------------------------------------
//
// Same realtime regime as E12. The journal adds two fsynced appends per put
// (kBeginPut + kCommitPut) on the critical path; the gate proves that stays
// under 10% of put wall clock. Fresh deployment per side per rep.

double time_put_64_journal(bool journaled, const Bytes& data) {
  bench::ScratchDir dir;
  storage::ProviderRegistry registry = bench::realtime_registry(12);
  DistributorConfig config = bench_config(false);
  if (journaled) config.plane = bench::open_plane(dir.path);
  CloudDataDistributor cdd(registry, config);
  register_bench_client(cdd, PrivacyLevel::kHigh);
  const PutOptions opts = options(PrivacyLevel::kHigh);
  constexpr int kPutsPerRep = 2;
  Stopwatch w;
  for (int r = 0; r < kPutsPerRep; ++r) {
    const Status st =
        cdd.put_file("bench", "pw", "jgate_" + std::to_string(r), data, opts);
    CS_REQUIRE(st.ok(), st.to_string());
  }
  return w.elapsed_seconds();
}

// --- small-op gate: per-op commit vs group commit vs batched RPC -------------
//
// Many concurrent clients writing small files (1-8 KiB -> one or two 4 KiB
// stripes each) against realtime providers, with a WAL fsync on every
// metadata mutation. Per-op commit serializes two fsyncs per put behind the
// journal mutex and pushes every shard through its own round trip against
// a bounded I/O-channel pool; the two amortizations attack exactly those:
//   per_op                fsync per record, one RPC per shard (the baseline)
//   group_commit          one fsync per <= 64 records
//   group_commit_batched  + shards coalesced into 16-shard put_many RPCs

enum class SmallOpsMode { kPerOp, kGroupCommit, kGroupCommitBatched };
constexpr SmallOpsMode kSmallOpsModes[] = {SmallOpsMode::kPerOp,
                                           SmallOpsMode::kGroupCommit,
                                           SmallOpsMode::kGroupCommitBatched};
constexpr std::size_t kSmallOpsClients[] = {8, 16, 64};
constexpr std::size_t kSmallOpsFilesPerClient = 16;

const char* smallops_mode_name(SmallOpsMode m) {
  switch (m) {
    case SmallOpsMode::kPerOp: return "per_op";
    case SmallOpsMode::kGroupCommit: return "group_commit";
    case SmallOpsMode::kGroupCommitBatched: return "group_commit_batched";
  }
  return "?";
}

struct SmallOpsCell {
  std::vector<double> rep_ops;      ///< put throughput, one entry per rep
  std::vector<double> put_s;        ///< per-put latencies, pooled over reps
  std::uint64_t group_commits = 0;  ///< journal flushes with > 1 record
  std::uint64_t batch_rpcs = 0;     ///< provider batch requests (all reps)
};

double run_smallops_rep(SmallOpsMode mode, std::size_t clients, int rep,
                        SmallOpsCell& cell) {
  bench::ScratchDir dir;
  DistributorConfig config = bench_config(false);
  // A worker channel per client (each blocks on shard latency, not CPU),
  // but a bounded shard-RPC channel pool -- a real object-store client caps
  // concurrent connections, and that cap is what per-shard RPCs saturate
  // at 64 clients.
  config.worker_threads = clients;
  config.io_threads = 32;
  config.misleading_fraction = 0.1;
  if (mode == SmallOpsMode::kGroupCommitBatched) {
    config.rpc_batch_shards = 16;
    config.rpc_batch_wait = std::chrono::microseconds(500);
  }
  // Opportunistic grouping (interval 0): the leader flushes whatever queued
  // behind the previous fsync, so batches form from backpressure without
  // adding wait latency to lightly-loaded appends.
  const core::GroupCommitConfig gc =
      mode == SmallOpsMode::kPerOp
          ? core::GroupCommitConfig{}
          : core::GroupCommitConfig{64, std::chrono::microseconds(0)};
  bench::PutLoad load = bench::closed_loop_puts(
      bench::open_plane(dir.path, 1, gc), config, clients,
      kSmallOpsFilesPerClient, rep,
      [](std::size_t c, std::size_t m) { return 1024 * (1 + (c + m) % 8); });
  cell.rep_ops.push_back(load.ops_per_sec);
  cell.put_s.insert(cell.put_s.end(), load.put_s.begin(), load.put_s.end());
  cell.group_commits += load.group_commits;
  cell.batch_rpcs += load.batch_rpcs;
  return load.ops_per_sec;
}

struct SmallOps {
  std::map<std::pair<SmallOpsMode, std::size_t>, SmallOpsCell> cells;
  Paired gate;  ///< 64 clients: a = batched, b = per-op (puts/s)

  void run(int reps) {
    for (std::size_t clients : kSmallOpsClients) {
      SmallOpsCell& per_op = cells[{SmallOpsMode::kPerOp, clients}];
      SmallOpsCell& group = cells[{SmallOpsMode::kGroupCommit, clients}];
      SmallOpsCell& batched =
          cells[{SmallOpsMode::kGroupCommitBatched, clients}];
      const Paired p = Paired::run(
          reps,
          [&](int rep) {
            return run_smallops_rep(SmallOpsMode::kGroupCommitBatched,
                                    clients, rep, batched);
          },
          [&](int rep) {
            return run_smallops_rep(SmallOpsMode::kPerOp, clients, rep,
                                    per_op);
          });
      if (clients == 64) gate = p;
      for (int rep = 0; rep < reps; ++rep) {
        run_smallops_rep(SmallOpsMode::kGroupCommit, clients, rep, group);
      }
    }
    for (SmallOpsMode mode : kSmallOpsModes) {
      for (std::size_t clients : kSmallOpsClients) {
        const SmallOpsCell& c = cells[{mode, clients}];
        std::cout << smallops_mode_name(mode) << " @ " << clients
                  << " clients: " << bench::median(c.rep_ops)
                  << " puts/s (p50 " << percentile(c.put_s, 0.5) * 1e3
                  << " ms, p99 " << percentile(c.put_s, 0.99) * 1e3
                  << " ms)\n";
      }
    }
  }

  [[nodiscard]] Json rows() const {
    Json rows = Json::array();
    for (SmallOpsMode mode : kSmallOpsModes) {
      for (std::size_t clients : kSmallOpsClients) {
        const SmallOpsCell& c = cells.at({mode, clients});
        const bench::Quartiles q = bench::quartiles(c.rep_ops);
        rows.push(Json::object()
                      .set("mode", smallops_mode_name(mode))
                      .set("clients", clients)
                      .set("puts", clients * kSmallOpsFilesPerClient)
                      .set("ops_per_sec", q.median)
                      .set("ops_per_sec_q1", q.q1)
                      .set("ops_per_sec_q3", q.q3)
                      .set("p50_ms", percentile(c.put_s, 0.5) * 1e3)
                      .set("p99_ms", percentile(c.put_s, 0.99) * 1e3)
                      .set("group_commits", c.group_commits)
                      .set("batch_rpcs", c.batch_rpcs));
      }
    }
    return rows;
  }
};

// --- recovery sweep (E15) ----------------------------------------------------

/// Metadata recovery time as a function of journal length: put 1-chunk
/// files with no checkpointing, then time a cold checkpoint+journal replay.
Json run_mttr(std::size_t target_records) {
  bench::ScratchDir dir;
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config = bench_config(false);
  config.plane = bench::open_plane(dir.path);
  const core::Journal& journal = *config.plane->journal(0);
  CloudDataDistributor cdd(registry, config);
  register_bench_client(cdd, PrivacyLevel::kModerate);
  const PutOptions opts = options(PrivacyLevel::kModerate);  // 4 KiB chunks
  std::size_t f = 0;
  while (journal.record_count() < target_records) {
    const Bytes data = bench::make_payload(4000, 0xE15 + f);  // one chunk
    CS_REQUIRE(cdd.put_file("bench", "pw", "mttr_" + std::to_string(f++),
                            data, opts)
                   .ok(),
               "put");
  }
  const std::size_t records = journal.record_count();
  Stopwatch w;
  Result<core::RecoveredState> rec = core::recover_metadata(
      dir.path / "plane.ckpt", dir.path / "plane.wal");
  const double recover_ms = w.elapsed_seconds() * 1e3;
  CS_REQUIRE(rec.ok(), rec.status().to_string());
  const std::size_t chunks = rec.value().metadata->total_chunks();
  std::cout << "journal " << records << " records (" << chunks
            << " chunks): recover " << recover_ms << " ms\n";
  return Json::object()
      .set("records", records)
      .set("chunks", chunks)
      .set("recover_ms", recover_ms);
}

/// Scrub detection latency and completeness vs injected corruption rate:
/// flip one byte in one stripe shard of `rate` of all chunks, then time a
/// full scrubbing heal pass. Detection latency for any one corruption is
/// bounded by the pass time; completeness must be 100%.
Json run_scrub_row(double rate) {
  bench::ScratchDir dir;
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config = bench_config(false);
  config.plane = bench::open_plane(dir.path);
  CloudDataDistributor cdd(registry, config);
  register_bench_client(cdd, PrivacyLevel::kModerate);
  const PutOptions opts = options(PrivacyLevel::kModerate);
  for (int f = 0; f < 4; ++f) {
    const Bytes data = bench::make_payload(16 * 4096, 0x5C4B + f);  // 16 chunks
    CS_REQUIRE(cdd.put_file("bench", "pw", "scrub_" + std::to_string(f),
                            data, opts)
                   .ok(),
               "put");
  }
  const auto table = cdd.metadata().chunk_table();
  const auto step = static_cast<std::size_t>(
      rate > 0.0 ? std::max(1.0, 1.0 / rate) : table.size() + 1);
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < table.size(); i += step) {
    if (table[i].deleted || table[i].stripe.empty()) continue;
    const core::ShardLocation& loc = table[i].stripe[i % table[i].stripe.size()];
    CS_REQUIRE(registry.at(loc.provider).corrupt_object(loc.virtual_id, 7).ok(),
               "corrupt");
    ++corrupted;
  }
  core::Migrator walker(cdd);
  Stopwatch w;
  Result<core::Migrator::Report> pass =
      walker.run(core::MovePolicy::heal(/*scrub=*/true));
  const double pass_ms = w.elapsed_seconds() * 1e3;
  CS_REQUIRE(pass.ok(), pass.status().to_string());
  std::cout << "corruption rate " << rate << ": " << pass.value().mismatches
            << "/" << corrupted << " detected, " << pass.value().shards_moved
            << " repaired, pass " << pass_ms << " ms\n";
  return Json::object()
      .set("corruption_rate", rate)
      .set("chunks", table.size())
      .set("corrupted", corrupted)
      .set("detected", pass.value().mismatches)
      .set("repaired", pass.value().shards_moved)
      .set("pass_ms", pass_ms);
}

// --- matrix: N clients x M files x C chunks ----------------------------------

struct OpSeries {
  std::vector<double> wall_s;           // per-op wall latency
  std::vector<double> sim_parallel_ms;  // per-op modelled makespan
  double phase_wall_s = 0.0;            // whole phase, all threads

  [[nodiscard]] double ops_per_sec() const {
    return phase_wall_s > 0.0
               ? static_cast<double>(wall_s.size()) / phase_wall_s
               : 0.0;
  }
  [[nodiscard]] Json to_json() const {
    return Json::object()
        .set("ops_per_sec", ops_per_sec())
        .set("p50_ms", percentile(wall_s, 0.5) * 1e3)
        .set("p99_ms", percentile(wall_s, 0.99) * 1e3)
        .set("sim_parallel_ms_mean", mean_of(sim_parallel_ms));
  }
};

Json run_matrix(std::size_t clients, std::size_t files_per_client,
                std::size_t chunks,
                const std::shared_ptr<obs::Telemetry>& sink) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  CloudDataDistributor cdd(registry, bench_config(false, sink));
  const std::size_t chunk_bytes =
      core::ChunkSizePolicy{}.chunk_size(PrivacyLevel::kPublic);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::string name = "client" + std::to_string(c);
    CS_REQUIRE(cdd.register_client(name).ok(), "register");
    CS_REQUIRE(cdd.add_password(name, "pw", PrivacyLevel::kHigh).ok(), "pw");
  }
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
  const PutOptions opts = options(PrivacyLevel::kPublic);

  OpSeries put, get, update, remove;
  run_phase(put, [&](std::size_t c, std::size_t m, OpReport* report) {
    const Bytes data = bench::make_payload(chunk_bytes * chunks, c * 100 + m);
    const Status st =
        cdd.put_file(client_of(c), "pw", file_of(m), data, opts, report);
    CS_REQUIRE(st.ok(), st.to_string());
  });
  run_phase(get, [&](std::size_t c, std::size_t m, OpReport* report) {
    Result<Bytes> back = cdd.get_file(client_of(c), "pw", file_of(m), report);
    CS_REQUIRE(back.ok(), back.status().to_string());
  });
  run_phase(update, [&](std::size_t c, std::size_t m, OpReport* report) {
    const Bytes data = bench::make_payload(chunk_bytes, c * 7919 + m + 1);
    const Status st =
        cdd.update_chunk(client_of(c), "pw", file_of(m), 0, data, report);
    CS_REQUIRE(st.ok(), st.to_string());
  });
  run_phase(remove, [&](std::size_t c, std::size_t m, OpReport*) {
    const Status st = cdd.remove_file(client_of(c), "pw", file_of(m));
    CS_REQUIRE(st.ok(), st.to_string());
  });
  std::cout << "C=" << chunks << ": put " << put.ops_per_sec()
            << " ops/s (p99 " << percentile(put.wall_s, 0.99) * 1e3
            << " ms), get " << get.ops_per_sec() << " ops/s, update "
            << update.ops_per_sec() << " ops/s, remove "
            << remove.ops_per_sec() << " ops/s\n";
  return Json::object()
      .set("clients", clients)
      .set("files_per_client", files_per_client)
      .set("chunks", chunks)
      .set("put", put.to_json())
      .set("get", get.to_json())
      .set("update", update.to_json())
      .set("remove", remove.to_json());
}

// --- faults: availability vs injected transient fault rate -------------------
//
// Every request to every provider fails with probability `rate` (seeded
// FaultPlan, so a rerun replays the same faults). The smoke row (5%) is
// gated: the request layer must absorb the noise with zero client-visible
// errors. `--fault-sweep` adds the E14 curve.

struct FaultRow {
  double rate = 0.0;
  std::size_t ops = 0;            ///< put+get operations attempted
  std::size_t client_errors = 0;  ///< failed or wrong-bytes client ops
  std::size_t retries = 0;
  std::size_t replaced_shards = 0;
  std::uint64_t injected = 0;  ///< provider-side injected faults
  std::uint64_t breaker_trips = 0;
  [[nodiscard]] double availability() const {
    return ops == 0 ? 1.0
                    : 1.0 - static_cast<double>(client_errors) /
                                static_cast<double>(ops);
  }
  [[nodiscard]] Json to_json() const {
    return Json::object()
        .set("rate", rate)
        .set("ops", ops)
        .set("client_errors", client_errors)
        .set("availability", availability())
        .set("retries", retries)
        .set("replaced_shards", replaced_shards)
        .set("injected_failures", injected)
        .set("breaker_trips", breaker_trips);
  }
};

FaultRow run_faults(double rate, std::uint64_t seed) {
  auto sink = std::make_shared<obs::Telemetry>();
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  if (rate > 0.0) {
    registry.apply_fault_plan(std::make_shared<storage::FaultPlan>(
        storage::FaultPlan::transient(seed, rate)));
  }
  CloudDataDistributor cdd(registry, bench_config(false, sink));
  register_bench_client(cdd, PrivacyLevel::kModerate);
  const PutOptions opts = options(PrivacyLevel::kModerate);  // 4 KiB chunks

  FaultRow row;
  row.rate = rate;
  for (int f = 0; f < 4; ++f) {
    const Bytes data = bench::make_payload(32 * 4096, seed * 131 + f);
    const std::string name = "fault_" + std::to_string(f);
    OpReport put_report;
    const Status st =
        cdd.put_file("bench", "pw", name, data, opts, &put_report);
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
    if (!back.ok() || !equal(back.value(), data)) ++row.client_errors;
  }
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    row.injected += registry.at(p).counters().injected_failures.load();
  }
  row.breaker_trips = sink->metrics().counter("rt.breaker_trips").value();
  return row;
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
  constexpr int kGateReps = 5;
  constexpr int kOverheadReps = 7;
  constexpr int kJournalReps = 5;
  constexpr int kSmallOpsReps = 3;

  bench::Report report("throughput");
  const std::size_t gate_chunk_bytes =
      core::ChunkSizePolicy{}.chunk_size(PrivacyLevel::kHigh);
  report.config.set("raid", "raid5")
      .set("data_shards", 3)
      .set("misleading_fraction", 0.2)
      .set("worker_threads", 8)
      .set("serial_worker_threads", 1)
      .set("io_threads", 32)
      .set("gate_chunk_bytes", gate_chunk_bytes)
      .set("gate_chunks", 64)
      .set("realtime_latency_ms", bench::kRealtimeLatencyMs)
      .set("gate_reps", kGateReps)
      .set("overhead_reps", kOverheadReps)
      .set("journal_reps", kJournalReps)
      .set("matrix_chunk_bytes",
           core::ChunkSizePolicy{}.chunk_size(PrivacyLevel::kPublic));
  const Bytes gate_data = bench::make_payload(gate_chunk_bytes * 64, 42);

  std::cout << "=== E12 gate: 64-chunk file (" << gate_data.size() / 1024
            << " KiB, PL3, RAID-5 k=3, chaff 0.2, 8 workers vs 1, realtime "
            << bench::kRealtimeLatencyMs << " ms base latency, " << kGateReps
            << " paired reps) ===\n";
  const E12 e12 = run_e12(gate_data, kGateReps);
  for (const auto& [name, p] : {std::pair{"put", &e12.put},
                                std::pair{"get", &e12.get}}) {
    std::cout << name << ": serial " << bench::median(p->a) * 1e3
              << " ms, pipelined " << bench::median(p->b) * 1e3
              << " ms -> paired " << p->ratio() << "x\n";
  }
  report.at_least("e12.put_speedup", "median of paired serial/pipelined",
                  e12.put.ratio(), 3.0);
  report.at_least("e12.get_speedup", "median of paired serial/pipelined",
                  e12.get.ratio(), 3.0);
  report.rows.set("e12", Json::object()
                             .set("put", paired_json(e12.put, "serial_s",
                                                     "pipelined_s"))
                             .set("get", paired_json(e12.get, "serial_s",
                                                     "pipelined_s")));

  std::cout << "\n=== overhead gate: telemetry disabled vs enabled "
               "(modelled providers, 4x 64-chunk put+get per rep) ===\n";
  // Warm caches/allocator/turbo on both variants before measuring.
  (void)time_pair_64(false, gate_data);
  (void)time_pair_64(true, gate_data);
  const Paired overhead = Paired::run(
      kOverheadReps, [&](int) { return time_pair_64(true, gate_data); },
      [&](int) { return time_pair_64(false, gate_data); });
  const double overhead_pct = (overhead.min_ratio() - 1.0) * 100.0;
  std::cout << "disabled " << bench::median(overhead.b) * 1e3
            << " ms, enabled " << bench::median(overhead.a) * 1e3 << " ms -> "
            << overhead_pct << "% overhead\n";
  report.at_most("telemetry_overhead_pct",
                 "min over pairs of enabled/disabled, as % overhead",
                 overhead_pct, 5.0);
  report.rows.set("overhead",
                  paired_json(overhead, "enabled_s", "disabled_s"));

  std::cout << "\n=== journal gate: WAL on vs off (realtime 64-chunk puts, "
               "fsync per record) ===\n";
  (void)time_put_64_journal(false, gate_data);  // warm both variants
  (void)time_put_64_journal(true, gate_data);
  const Paired journal = Paired::run(
      kJournalReps, [&](int) { return time_put_64_journal(true, gate_data); },
      [&](int) { return time_put_64_journal(false, gate_data); });
  const double journal_pct = (journal.min_ratio() - 1.0) * 100.0;
  std::cout << "no journal " << bench::median(journal.b) * 1e3
            << " ms, journaled " << bench::median(journal.a) * 1e3
            << " ms -> " << journal_pct << "% overhead\n";
  report.at_most("journal_overhead_pct",
                 "min over pairs of journaled/no-journal, as % overhead",
                 journal_pct, 10.0);
  report.rows.set("journal", paired_json(journal, "journaled_s", "baseline_s"));

  std::cout << "\n=== small-op gate: 1-8 KiB puts, fsync WAL, per-op vs "
               "group commit vs batched RPC ===\n";
  SmallOps smallops;
  smallops.run(kSmallOpsReps);
  std::cout << "64 clients: group-commit+batched-rpc / per-op (paired) "
            << smallops.gate.ratio() << "x\n";
  bench::Report smallops_report("smallops");
  smallops_report.config.set("file_bytes", "1024..8192")
      .set("files_per_client", kSmallOpsFilesPerClient)
      .set("chunk_bytes", 4096)
      .set("data_shards", 3)
      .set("misleading_fraction", 0.1)
      .set("io_threads", 32)
      .set("providers", 12)
      .set("realtime_latency_ms", bench::kRealtimeLatencyMs)
      .set("reps", kSmallOpsReps)
      .set("journal", "fsync WAL")
      .set("group_commit",
           Json::object().set("batch_ops", 64).set("batch_interval_us", 0))
      .set("rpc_batch",
           Json::object().set("batch_shards", 16).set("batch_wait_us", 500));
  smallops_report.at_least("smallops.batched_over_per_op_64",
                           "median of paired batched/per-op puts/s",
                           smallops.gate.ratio(), 3.0);
  smallops_report.rows.set("rows", smallops.rows())
      .set("gate_pairs", paired_json(smallops.gate, "batched_ops_per_sec",
                                     "per_op_ops_per_sec"));

  if (recovery_sweep) {
    std::cout << "\n=== recovery sweep (E15) ===\n";
    Json mttr = Json::array();
    for (std::size_t records : {8u, 32u, 128u, 512u}) {
      mttr.push(run_mttr(records));
    }
    Json scrub = Json::array();
    for (double rate : {0.05, 0.25, 1.0}) scrub.push(run_scrub_row(rate));
    report.rows.set("recovery_sweep",
                    Json::object().set("mttr", mttr).set("scrub", scrub));
  }

  std::cout << "\n=== fault smoke: 5% transient faults, 4x 32-chunk put+get "
               "(pipelined, seeded) ===\n";
  const FaultRow smoke = run_faults(0.05, 0xFA17);
  std::cout << "injected " << smoke.injected << " faults -> " << smoke.retries
            << " retries, " << smoke.replaced_shards << " re-placed shards, "
            << smoke.client_errors << " client errors\n";
  report.at_most("fault_smoke.client_errors", "count",
                 static_cast<double>(smoke.client_errors), 0.0);
  report.at_least("fault_smoke.injected_failures", "count",
                  static_cast<double>(smoke.injected), 1.0);
  report.rows.set("fault_smoke", smoke.to_json());
  if (fault_sweep) {
    std::cout << "\n=== fault sweep: availability vs rate (E14) ===\n";
    Json rows = Json::array();
    for (double rate : {0.0, 0.02, 0.05, 0.1, 0.2}) {
      const FaultRow r = run_faults(rate, 0xFA17);
      std::cout << "rate " << r.rate << ": availability " << r.availability()
                << " (" << r.client_errors << "/" << r.ops
                << " errors), retries " << r.retries << ", breaker trips "
                << r.breaker_trips << "\n";
      rows.push(r.to_json());
    }
    report.rows.set("fault_sweep", rows);
  }

  std::cout << "\n=== matrix: clients x files x chunks (pipelined, "
               "8 workers) ===\n";
  // One private sink per row; the 64-chunk row's per-provider histograms
  // are what lands in the JSON "telemetry" section.
  Json matrix = Json::array();
  std::shared_ptr<obs::Telemetry> matrix_sink;
  for (std::size_t chunks : {4u, 16u, 64u}) {
    matrix_sink = std::make_shared<obs::Telemetry>();
    matrix.push(run_matrix(/*clients=*/8, /*files_per_client=*/4, chunks,
                           matrix_sink));
  }
  report.rows.set("matrix", matrix)
      .set("telemetry", Json::raw(matrix_sink->metrics().to_json()));

  std::cout << "\n";
  const int smallops_rc = smallops_report.finish(smallops_path);
  const int rc = report.finish(out_path);
  return smallops_rc != 0 ? smallops_rc : rc;
}
