// bench_ledger entry point.
//
//   bench_ledger --workload W [--seed N] [--trace 0|1] [--out DIR]
//                [--scratch DIR] [--smoke]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones,
// and prints each as a "<workload> <metric> <value> <unit>" line. The last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: with --trace 0 its metrics are the gated set (kGated, the
// end_to_end list of BENCHMARK.json), with --trace 1 every per-layer
// metric. Results, every metric included, also go to DIR/<workload>.json
// (traced: DIR/<workload>.traced.json and DIR/<workload>.spans.jsonl).
// Exit status 0 only when every output check passed.
#include <malloc.h>
#include <unistd.h>

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/metadata_io.hpp"
#include "crypto/gf256_kernels.hpp"
#include "ledger.hpp"
#include "obs/telemetry.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"

namespace ledger {
namespace {

using cshield::Stopwatch;

// Input streams drawn from --seed (system.cpp owns streams 1-4).
enum Stream : std::uint64_t {
  kStreamPool = 10,
  kStreamOps = 11,
  kStreamTracePass = 12,
  kStreamSample = 13,
  kStreamChecks = 14,
};

constexpr std::size_t kPoolBytes = 16u << 20;
// Generous ceiling on one thread's op rate: sequences are generated before
// the window opens and must not run out inside it.
constexpr double kMaxOpsPerThreadPerSecond = 3000.0;
// Generous ceiling on one drain's length, for its foreground sequences.
constexpr double kMaxDrainSeconds = 20.0;
constexpr std::size_t kMaxRounds = 12;
constexpr std::size_t kSampleOps = 200;

// The end-to-end metrics BENCHMARK.json gates: set-up time, and the two
// that repeat within a third of their bound on every workload. The
// latencies, rates and restart times also measured here follow the shared
// host's CPU speed; they are printed and compared (compare.py) but do not
// gate a change.
constexpr std::array<std::string_view, 3> kGated{
    "setup_s", "stored_bytes_per_user_byte", "peak_rss_mb"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool smoke = false;
  fs::path out = ".bench_build/ledger/results";
  fs::path scratch = ".bench_build/ledger/scratch";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--scratch") {
      a.scratch = value();
    } else if (flag == "--smoke") {
      a.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double median(std::vector<double> v) { return cshield::percentile(v, 0.5); }

Payloads make_pool(std::uint64_t seed) {
  Payloads p;
  p.bytes.resize(kPoolBytes);
  cshield::Rng rng(stream_seed(seed, kStreamPool));
  for (std::size_t i = 0; i < p.bytes.size(); i += 8) {
    const std::uint64_t v = rng.next();
    for (std::size_t b = 0; b < 8; ++b) {
      p.bytes[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
  }
  return p;
}

std::vector<std::vector<Op>> sequences(const WorkloadSpec& w,
                                       const Model& model,
                                       const Payloads& pool,
                                       std::uint64_t seed, double seconds) {
  const auto per_thread =
      static_cast<std::size_t>(seconds * kMaxOpsPerThreadPerSecond) + 64;
  std::vector<std::vector<Op>> seqs(w.threads);
  for (std::size_t t = 0; t < w.threads; ++t) {
    seqs[t] = generate_ops(w, model, pool, stream_seed(seed, t), w.threads, t,
                           per_thread);
  }
  return seqs;
}

/// Everything a run reports.
struct Outcome {
  MetricMap metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::array<std::size_t, kNumOpKinds> samples{};
  std::size_t orphans_after_drain = 0;
  std::string examples_json = "[]";
};

void absorb(Outcome& out, const LoadResult& load) {
  out.attempted += load.ops;
  out.failed += load.failed;
  out.errors.insert(out.errors.end(), load.errors.begin(), load.errors.end());
}

/// One round's set-up, crash and restart (with the restart's checks).
struct Round {
  /// CPU time of set-up and crash, all threads. Wall time would follow
  /// the shared host: CPU time leaves out the time other tenants hold the
  /// cores, which this host reports as steal.
  double setup_s = 0.0;
  RecoverStats recovered;
};

Round begin_round(System& sys, const WorkloadSpec& w, const RunConfig& run,
                  std::size_t index, const Payloads& pool, Model& model,
                  std::vector<std::string>& errors) {
  Round r;
  const std::int64_t cpu0 = clock_ns(CLOCK_PROCESS_CPUTIME_ID);
  set_up(sys, w, run, run.scratch / ("round" + std::to_string(index)), pool,
         model);
  const CrashPlan plan = crash(sys, model, run.smoke);
  r.setup_s =
      static_cast<double>(clock_ns(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9;
  r.recovered = recover(sys);
  check_recovery(sys, model, plan, r.recovered, errors);
  check_reads(sys, model, pool, 32, stream_seed(run.seed, kStreamChecks, index),
              errors);
  return r;
}

/// Drains the round's subject while the load threads run the mix; the
/// drain is the measured window. Afterwards a reconcile pass sweeps the
/// copies an update racing a shard move leaves unreferenced (update_chunk
/// commits without the migrator's version check); they are counted, not
/// failed, so the storage cross-check that follows stays exact.
LoadResult drain_under_load(System& sys, const WorkloadSpec& w, Model& model,
                            const Payloads& pool, std::uint64_t seed,
                            MigrateStats& ms, Outcome& out) {
  const auto seqs = sequences(w, model, pool, seed, kMaxDrainSeconds);
  LoadResult load = run_load(sys, model, pool, seqs, 0.0, 0, 0.0,
                             [&] { ms = drain_provider(sys); });
  const std::size_t left = sys.registry.at(ms.subject).object_count();
  if (left != 0) {
    out.errors.push_back("drained provider still holds " +
                         std::to_string(left) + " shards");
  }
  const auto swept = sys.cdd->reconcile({});
  if (swept.ok()) {
    out.orphans_after_drain += swept.value().orphans_removed;
  } else {
    out.errors.push_back("reconcile after the drain failed: " +
                         swept.status().to_string());
  }
  return load;
}

/// The realtime workload sleeps through its providers' modelled latency in
/// the load windows only; set-up, restart and fleet changes run CPU-only.
void enter_load_mode(System& sys) {
  if (!sys.spec->realtime) return;
  for (cshield::ProviderIndex p = 0; p < sys.registry.size(); ++p) {
    sys.registry.at(p).set_realtime_scale(1.0);
  }
}

void end_of_run_checks(System& sys, const Model& model, const Payloads& pool,
                       const RunConfig& run, Outcome& out,
                       double* stored_ratio) {
  check_reads(sys, model, pool, 256, stream_seed(run.seed, kStreamChecks, 99),
              out.errors);
  const double ratio = check_storage(sys, model, out.errors);
  if (stored_ratio != nullptr) *stored_ratio = ratio;
  check_durable(sys, model, out.errors);
}

void run_end_to_end(const WorkloadSpec& w, const RunConfig& run,
                    const Payloads& pool, Outcome& out) {
  std::vector<double> setup_s;
  std::vector<double> recover_s;
  std::vector<double> migrate_s;
  LoadResult load;
  Model model;
  double stored_ratio = 0.0;
  // Memory is read in the first round only: later rounds start from the
  // heap their predecessors left, whose resident size drifts from run to
  // run by tens of MiB. So outside maintenance the first round's system
  // serves the window, and the later rounds only repeat set-up, restart and
  // the join for their medians.
  double rss = 0.0;
  if (!w.drain_under_load) {
    for (std::size_t r = 0; r < run.min_rounds(); ++r) {
      ::malloc_trim(0);  // a round starts from a heap its predecessor left
      System sys;
      const Round round = begin_round(sys, w, run, r, pool, model, out.errors);
      const MigrateStats ms = join_provider(sys);
      if (sys.registry.at(ms.subject).object_count() != ms.shards) {
        out.errors.push_back("joined provider holds a different shard count "
                             "than the migration moved");
      }
      setup_s.push_back(round.setup_s);
      recover_s.push_back(round.recovered.total_s);
      migrate_s.push_back(ms.seconds);
      if (r != 0) continue;
      const auto seqs =
          sequences(w, model, pool, stream_seed(run.seed, kStreamOps),
                    run.warmup_seconds() + run.window_seconds() + 1.0);
      enter_load_mode(sys);
      load = run_load(sys, model, pool, seqs, run.warmup_seconds(),
                      run.smoke ? 0 : kRssMarkOps, run.window_seconds());
      rss = load.peak_rss_mb;
      end_of_run_checks(sys, model, pool, run, out, &stored_ratio);
    }
  } else {
    // Rounds repeat until the window length has passed (at least three
    // rounds); each drain is a measured window.
    Stopwatch elapsed;
    for (std::size_t r = 0; r < kMaxRounds; ++r) {
      if (r >= run.min_rounds() &&
          elapsed.elapsed_seconds() >= run.window_seconds()) {
        break;
      }
      ::malloc_trim(0);
      System sys;
      const Round round = begin_round(sys, w, run, r, pool, model, out.errors);
      MigrateStats ms;
      LoadResult drained = drain_under_load(
          sys, w, model, pool, stream_seed(run.seed, kStreamOps, r), ms, out);
      if (r == 0) rss = drained.peak_rss_mb;
      load.merge(std::move(drained));
      setup_s.push_back(round.setup_s);
      recover_s.push_back(round.recovered.total_s);
      migrate_s.push_back(ms.seconds);
      end_of_run_checks(sys, model, pool, run, out, &stored_ratio);
    }
  }
  absorb(out, load);

  MetricMap& m = out.metrics;
  m["setup_s"] = {median(setup_s), "s"};
  m["recover_s"] = {median(recover_s), "s"};
  m["migrate_s"] = {median(migrate_s), "s"};
  m["ops_per_s"] = {static_cast<double>(load.ops) / load.seconds, "ops/s"};
  m["user_mb_per_s"] = {static_cast<double>(load.user_bytes) / 1e6 /
                            load.seconds,
                        "MB/s"};
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    const std::vector<double>& lat = load.latency_ms[k];
    out.samples[k] = lat.size();
    const std::string name = kOpNames[k];
    if (lat.empty()) {
      out.errors.push_back("no " + name + " completed in the window");
      continue;
    }
    m[name + "_p50_ms"] = {cshield::percentile(lat, 0.50), "ms"};
    if (k == static_cast<std::size_t>(OpKind::kRemove)) continue;
    // Too few samples is the host's speed, not a wrong output: the p99 is
    // left out, and the run stays correct.
    if (lat.size() < run.min_p99_samples()) {
      std::cerr << "bench_ledger: " << name << "_p99_ms not reported: "
                << lat.size() << " samples (< " << run.min_p99_samples()
                << ")\n";
      continue;
    }
    m[name + "_p99_ms"] = {cshield::percentile(lat, 0.99), "ms"};
  }
  m["stored_bytes_per_user_byte"] = {stored_ratio, "ratio"};
  m["peak_rss_mb"] = {rss, "MiB"};
}

std::uint64_t journal_flushes(const System& sys) {
  std::uint64_t n = 0;
  for (std::size_t s = 0; s < sys.plane->shard_count(); ++s) {
    n += sys.plane->journal(s)->flushes();
  }
  return n;
}

void run_traced(const WorkloadSpec& w, const RunConfig& run,
                const Payloads& pool, const fs::path& out_dir, Outcome& out) {
  MetricMap& m = out.metrics;
  Model model;
  System sys;
  sys.telemetry = true;  // reports into the global sink, off until toggled
  const Round round = begin_round(sys, w, run, 0, pool, model, out.errors);
  MigrateStats ms;
  if (w.drain_under_load) {
    const LoadResult load = drain_under_load(
        sys, w, model, pool, stream_seed(run.seed, kStreamOps), ms, out);
    absorb(out, load);
  } else {
    ms = join_provider(sys);
  }
  const RecoverStats& rs = round.recovered;
  m["recovery.records"] = {static_cast<double>(rs.records), "count"};
  m["recovery.replay_ms"] = {rs.replay_s * 1e3, "ms"};
  m["recovery.reconcile_ms"] = {rs.reconcile_s * 1e3, "ms"};
  // repaired_shards is checked (check_recovery), not reported: PL3 stripes
  // have no spare provider to re-home a lost shard on, so sensitive plants
  // none and the count would be a constant zero there.
  m["recovery.orphans_removed"] = {
      static_cast<double>(rs.report.orphans_removed), "count"};
  m["migrator.shards_moved"] = {static_cast<double>(ms.shards), "count"};
  m["migrator.mb_moved"] = {static_cast<double>(ms.bytes) / 1e6, "MB"};
  m["migrator.stripes_per_s"] = {static_cast<double>(ms.chunks) / ms.seconds,
                                 "1/s"};

  // Telemetry pass: four windows, telemetry off/on/off/on, so drift in the
  // host's speed hits both sides alike.
  const std::shared_ptr<cshield::obs::Telemetry>& global =
      cshield::obs::Telemetry::global();
  global->reset();
  enter_load_mode(sys);
  const std::uint64_t flushes0 = journal_flushes(sys);
  const double window = std::max(0.5, run.window_seconds() / 4.0);
  std::array<double, 2> rate{};
  double ops_on = 0.0;
  double ops_all = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const bool on = i % 2 == 1;
    global->set_enabled(on);
    const auto seqs =
        sequences(w, model, pool, stream_seed(run.seed, kStreamTracePass, i),
                  window + 1.0);
    const LoadResult load = run_load(sys, model, pool, seqs, 0.0, 0, window);
    global->set_enabled(false);
    absorb(out, load);
    rate[on ? 1 : 0] += static_cast<double>(load.ops) / load.seconds / 2.0;
    ops_all += static_cast<double>(load.ops);
    if (on) ops_on += static_cast<double>(load.ops);
  }
  const double flushes = static_cast<double>(journal_flushes(sys) - flushes0);
  const cshield::obs::MetricsRegistry::Snapshot snap =
      global->metrics().snapshot();
  auto counter = [&](const std::string& name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto hist = [&](const std::string& name, double q) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.percentile(q);
  };
  m["trace.overhead_pct"] = {100.0 * (rate[0] - rate[1]) / rate[0], "%"};
  m["raid.parity_reads_per_op"] = {counter("cdd.parity_shard_reads") / ops_on,
                                   "count"};
  m["journal.fsyncs_per_op"] = {flushes / ops_all, "count"};
  m["journal.batch_size_p50"] = {hist("journal.batch_size", 0.5), "count"};
  m["journal.flush_ms_p50"] = {hist("journal.flush_ns", 0.5) / 1e6, "ms"};
  m["journal.flush_ms_p99"] = {hist("journal.flush_ns", 0.99) / 1e6, "ms"};

  const std::size_t k = run.smoke ? 16 : kSampleOps;
  const std::vector<Op> ops = generate_ops(
      w, model, pool, stream_seed(run.seed, kStreamSample), 1, 0, k,
      /*every_kind=*/true);
  trace_sample(sys, model, pool, ops, run.scratch / "replay",
               out_dir / (std::string(w.name) + ".spans.jsonl"), m,
               out.examples_json);

  double image = 0.0;
  for (std::size_t s = 0; s < sys.plane->shard_count(); ++s) {
    image += static_cast<double>(
        cshield::core::serialize_metadata(sys.plane->store(s),
                                          static_cast<std::uint32_t>(s),
                                          kShards)
            .size());
  }
  m["metadata.image_mb"] = {image / 1e6, "MB"};
  end_of_run_checks(sys, model, pool, run, out, nullptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string metrics_json(const MetricMap& metrics) {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << vu.first
       << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  os << "}";
  return os.str();
}

std::string config_json(const WorkloadSpec& w, const RunConfig& run) {
  std::ostringstream os;
  os << "{\"fleet\": \"make_default_registry(" << kFleet << ")"
     << (w.realtime ? ", realtime scale 1.0, 1 ms base latency" : "")
     << "\", \"raid\": \"raid5 " << kDataShards << "+1\""
     << ", \"misleading_fraction\": " << kMisleadingFraction
     << ", \"metadata_shards\": " << kShards
     << ", \"group_commit\": {\"batch_ops\": 64, \"batch_interval_us\": 0}"
     << ", \"rpc_batch_shards\": 1, \"clients\": " << kClients
     << ", \"threads\": " << w.threads << ", \"privacy_level\": "
     << cshield::level_index(w.pl) << ", \"protection\": \""
     << cshield::protection_mode_name(w.protection)
     << "\", \"file_bytes\": [" << w.min_bytes << ", " << w.max_bytes
     << "], \"live_cap\": " << w.live_cap
     << ", \"prefill_per_client\": " << w.prefill_per_client
     << ", \"window_seconds\": " << run.window_seconds() << ", \"smoke\": "
     << (run.smoke ? "true" : "false") << "}";
  return os.str();
}

int run_main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const WorkloadSpec* w = find_workload(args.workload);
  if (w == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload +
                                " (bulk, sensitive, smallops, maintenance)");
  }
  // Telemetry is off for the end-to-end numbers: the distributor's private
  // sink and the global one the RAID kernels report into.
  cshield::obs::Telemetry::global()->set_enabled(false);

  RunConfig run;
  run.seed = args.seed;
  run.smoke = args.smoke;
  run.scratch = args.scratch / (std::string(w->name) + "-" +
                                std::to_string(::getpid()));
  const fs::path& out_dir = args.out;
  fs::create_directories(out_dir);

  Outcome out;
  {
    // Journals and checkpoints go, whether the run ends or throws.
    struct Scratch {
      fs::path path;
      ~Scratch() {
        std::error_code ec;
        fs::remove_all(path, ec);
      }
    } scratch{run.scratch};
    const Payloads pool = make_pool(args.seed);
    if (args.trace) {
      run_traced(*w, run, pool, out_dir, out);
    } else {
      run_end_to_end(*w, run, pool, out);
    }
  }

  if (out.attempted == 0) out.errors.push_back("no op was attempted");
  const bool correct = out.errors.empty() && out.failed == 0;
  for (const std::string& e : out.errors) {
    std::cerr << "bench_ledger: check failed: " << e << "\n";
  }
  std::cout << std::setprecision(17);
  for (const auto& [name, vu] : out.metrics) {
    std::cout << w->name << " " << name << " " << vu.first << " " << vu.second
              << "\n";
  }
  {
    std::ofstream f(out_dir / (std::string(w->name) +
                               (args.trace ? ".traced.json" : ".json")));
    f << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
      << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"samples\": {\"put\": " << out.samples[0]
      << ", \"get\": " << out.samples[1] << ", \"update\": " << out.samples[2]
      << ", \"remove\": " << out.samples[3] << "}"
      << ", \"host\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"simd\": \""
      << cshield::cpu::simd_level_name(
             cshield::gf256::kernels::active_arm())
      << "\"}, \"config\": " << config_json(*w, run)
      << ", \"orphans_after_drain\": " << out.orphans_after_drain
      << ", \"examples\": " << out.examples_json << ", \"errors\": [";
    for (std::size_t i = 0; i < out.errors.size(); ++i) {
      f << (i ? ", " : "") << "\"" << json_escape(out.errors[i]) << "\"";
    }
    f << "], \"metrics\": " << metrics_json(out.metrics) << "}\n";
  }
  MetricMap reported = out.metrics;
  if (!args.trace) {
    std::erase_if(reported, [](const auto& entry) {
      return std::find(kGated.begin(), kGated.end(), entry.first) ==
             kGated.end();
    });
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << metrics_json(reported) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ledger

int main(int argc, char** argv) {
  try {
    return ledger::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_ledger: " << e.what() << "\n";
    return 2;
  }
}
