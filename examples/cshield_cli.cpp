// cshield_cli: a small command-line client driving a disk-backed CloudShield
// deployment, the artifact a downstream user would script against.
//
// State lives under a root directory: one DiskStore per simulated provider
// (wired as a write-through mirror, so shards are durable the moment a put
// returns), a metadata checkpoint image (`metadata.bin`), and a write-ahead
// journal (`journal.wal`). Startup always goes through crash recovery:
// checkpoint + journal replay, tolerating a torn journal tail from a crash
// mid-append. Metadata is never rewritten wholesale on each command -- the
// journal is the commit record, and `checkpoint` (or the automatic
// every-64-records cut) folds it into metadata.bin.
//
// Usage:
//   cshield_cli <root> init [providers]
//   cshield_cli <root> adduser <client> <password> <pl 0-3>
//   cshield_cli <root> put <client> <password> <name> <local-file> <pl 0-3>
//   cshield_cli <root> get <client> <password> <name> <local-file>
//   cshield_cli <root> rm  <client> <password> <name>
//   cshield_cli <root> ls
//   cshield_cli <root> ls-files <client> <password>
//   cshield_cli <root> repair
//   cshield_cli <root> checkpoint
//   cshield_cli <root> recover
//   cshield_cli <root> scrub
//   cshield_cli <root> stats
//   cshield_cli <root> export          # Prometheus text exposition to stdout
//   cshield_cli <root> health          # rolling SLO/health report
//   cshield_cli <root> providers       # fleet table: lifecycle, breaker, bytes
//   cshield_cli <root> add-provider <name> <pl 0-3> <cl 0-3>   # join + migrate
//   cshield_cli <root> drain <name>         # empty a provider, keep it serving
//   cshield_cli <root> decommission <name>  # drain (if needed) and retire
//
// Topology commands run the journaled two-phase migration, and `scrub` a
// digest-checking heal pass, on the maintenance walker (see
// core/migrator.hpp); `--stripes-per-sec <r>` throttles the walk and
// `--max-in-flight <n>` caps concurrent chunk rewrites. A crash mid-migration
// leaves a kBeginMigrate intent that `recover` resumes to completion.
//
// Flags (any command): `--stats` prints this invocation's telemetry;
// `--journal <path>` overrides the journal location;
// `--meta-shards <n>` (init) partitions the metadata/journal plane N ways
// -- shard k's journal/checkpoint live at `journal.wal.s<k>` /
// `metadata.bin.s<k>` (shard 0 keeps the base names, so a 1-shard plane
// is just `journal.wal` / `metadata.bin`); later commands
// auto-detect N from the journal's shard stamp and refuse a flag that
// contradicts it;
// `--protection <partial-aes|misleading|fragmentation>` (put only) selects
// the per-chunk protection transform instead of the per-PL default;
// `--faults <p>`
// [`--fault-seed <s>`] injects seeded transient provider failures;
// `--export-file <path>` runs the continuous sampler (100 ms) for the
// command's duration, streaming JSONL samples to <path> and writing the
// final Prometheus exposition to <path>.prom on exit.
//
// Crash injection (recovery e2e): setting CSHIELD_CRASH_AFTER_APPENDS=<k>
// makes the process _exit(42) inside the journal's (k+1)-th append of this
// invocation, before the record reaches disk -- e.g. k=0 on a `put` kills
// the process inside the put's only append, its kCommitPut, after every
// shard is uploaded: the shards are on-disk orphans for `recover` to
// collect, and the journal holds nothing of the put.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include <unistd.h>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/metadata_io.hpp"
#include "core/metadata_plane.hpp"
#include "core/migrator.hpp"
#include "obs/exporter.hpp"
#include "obs/health.hpp"
#include "obs/watchdog.hpp"
#include "storage/disk_store.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"
#include "util/table.hpp"

namespace {

using namespace cshield;
namespace fs = std::filesystem;

/// A cloud provider whose object store is a directory: SimCloudProvider
/// models faults/latency in-memory with a DiskStore write-through mirror,
/// so every acknowledged shard write is already durable. On startup the
/// disk inventory is loaded back into the simulated provider (before the
/// mirror attaches, to avoid rewriting every object on every run).
struct CliWorld {
  fs::path root;
  storage::ProviderRegistry registry;
  std::vector<std::unique_ptr<storage::DiskStore>> disks;
  std::shared_ptr<core::MetadataPlane> plane;
  std::size_t meta_shards = 1;
  /// Replay-only kBeginPut records with no commit; `recover` releases
  /// their claims.
  std::vector<std::pair<std::string, std::string>> in_flight;
  /// Migrations the last crash caught between kBeginMigrate and
  /// kCommitMigrate; `recover` resumes them.
  std::vector<core::MigrationIntent> pending_migrations;
  std::shared_ptr<obs::StallWatchdog> watchdog;
  std::unique_ptr<core::CloudDataDistributor> cdd;

  CliWorld(fs::path r, const fs::path& journal_path, std::size_t providers = 0,
           std::size_t batch_ops = 1, std::size_t batch_ms = 0,
           std::size_t shards_flag = 0)
      : root(std::move(r)) {
    // Shard count: `--meta-shards` on init chooses it; afterwards the
    // journal's own shard stamp is the authority. A flag that contradicts
    // the stamp is refused -- re-opening a 4-shard plane as 2-shard would
    // scatter ownership and corrupt the namespace.
    Result<core::ShardStamp> stamp =
        core::probe_journal_shard(journal_path);
    if (stamp.ok()) {
      meta_shards = stamp.value().shard_count;
      CS_REQUIRE(shards_flag == 0 || shards_flag == meta_shards,
                 "shard count mismatch: " + journal_path.string() +
                     " belongs to a " + std::to_string(meta_shards) +
                     "-shard metadata plane, but --meta-shards " +
                     std::to_string(shards_flag) +
                     " was given; re-open it with the plane's own shard "
                     "count (or omit the flag to auto-detect)");
    } else {
      meta_shards = shards_flag == 0 ? 1 : shards_flag;
    }

    // Crash recovery first: every shard's checkpoint image + journal
    // replayed in parallel (one thread per shard). This is the only
    // metadata load path -- a clean shutdown is just a crash with an empty
    // tail. It runs before the registry is built because the recovered
    // provider table is the authority on fleet membership: runtime-added
    // providers and their lifecycle states live there, not in the default
    // registry layout.
    const fs::path meta_path = root / "metadata.bin";
    Result<core::PlaneRecovery> recovered =
        core::recover_plane(meta_path, journal_path, meta_shards);
    CS_REQUIRE(recovered.ok(), "metadata recovery failed: " +
                                   recovered.status().to_string());
    in_flight = recovered.value().in_flight;
    pending_migrations = recovered.value().pending_migrations;

    // Provider count: from init argument, the recovered table, or the
    // directory layout (whichever knows more -- a crash can die between
    // journaling a join and creating its directory). Provider rows are
    // broadcast to every partition, so shard 0 speaks for the plane.
    const auto table = recovered.value().shards[0].metadata->provider_table();
    std::size_t n = providers;
    if (n == 0) {
      while (fs::exists(root / ("provider" + std::to_string(n)))) ++n;
      n = std::max(n, table.size());
      CS_REQUIRE(n > 0, "no providers under " + root.string() +
                            " -- run 'init' first");
    }
    if (table.empty()) {
      registry = storage::make_default_registry(n);
    } else {
      // Rebuild the fleet the deployment actually has: names, trust/cost
      // levels and lifecycles from the recovered table.
      for (std::size_t i = 0; i < table.size(); ++i) {
        storage::ProviderDescriptor d;
        d.name = table[i].name;
        d.privacy_level = table[i].privacy_level;
        d.cost_level = table[i].cost_level;
        d.price_per_gb_month = 0.01 + 0.015 * level_index(table[i].cost_level);
        registry.add(std::move(d), storage::LatencyModel{},
                     0xFEED0000ULL + i, table[i].lifecycle);
      }
      n = table.size();
    }
    for (std::size_t p = 0; p < n; ++p) {
      disks.push_back(std::make_unique<storage::DiskStore>(
          root / ("provider" + std::to_string(p))));
      // Load persisted objects back into the simulated provider.
      for (VirtualId id : disks[p]->list_ids()) {
        Result<Bytes> obj = disks[p]->get(id);
        if (obj.ok()) (void)registry.at(p).put(id, obj.value());
      }
      registry.at(p).set_mirror(disks[p].get());
    }
    // Re-open every shard's journal for appends (truncating any torn tail
    // away), stamped with its place in the plane so a wrong-shape open of
    // any member fails loudly. `--batch-ops/--batch-ms` tune group commit
    // per commit lane, installed before the distributor exists so every
    // append (including the registrations the distributor journals at
    // startup) goes through the configured path.
    std::vector<std::shared_ptr<core::MetadataStore>> stores;
    for (core::RecoveredState& s : recovered.value().shards) {
      stores.push_back(std::move(s.metadata));
    }
    Result<std::shared_ptr<core::MetadataPlane>> opened =
        core::MetadataPlane::open(
            meta_path, journal_path, meta_shards,
            core::GroupCommitConfig{
                batch_ops,
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::milliseconds(batch_ms))},
            std::move(stores));
    CS_REQUIRE(opened.ok(),
               "cannot open journal: " + opened.status().to_string());
    plane = std::move(opened).value();
    install_crash_hook();

    core::DistributorConfig config;
    config.stripe_data_shards = 3;
    config.misleading_fraction = 0.05;
    config.plane = plane;
    // Stall watchdog: armed by every distributor op and request-layer RPC;
    // a stall dumps its diagnostic next to the deployment's state. Polled
    // by the exporter's sampler when --export-file is given.
    obs::StallWatchdog::Config wd_config;
    wd_config.dump_path = (root / "watchdog-dump.txt").string();
    watchdog =
        std::make_shared<obs::StallWatchdog>(obs::Telemetry::global(),
                                             wd_config);
    config.watchdog = watchdog;
    // Checkpoint paths live in the plane's partitions (one image per
    // shard); the interval still gates the automatic per-shard cuts.
    config.checkpoint_interval = 64;
    // Unique-ish per process so restart never reuses virtual ids.
    config.seed = 0xC11D ^ static_cast<std::uint64_t>(
                               std::chrono::steady_clock::now()
                                   .time_since_epoch()
                                   .count());
    cdd = std::make_unique<core::CloudDataDistributor>(registry, config);
  }

  /// Creates the on-disk store for a just-added provider and wires its
  /// write-through mirror (the startup loop only covers providers that
  /// existed at construction).
  void attach_disk(ProviderIndex p) {
    while (disks.size() <= p) {
      disks.push_back(std::make_unique<storage::DiskStore>(
          root / ("provider" + std::to_string(disks.size()))));
    }
    registry.at(p).set_mirror(disks[p].get());
  }

  /// CSHIELD_CRASH_AFTER_APPENDS=<k>: allow k journal appends in this
  /// process, then die inside the next one before its record hits disk.
  /// The budget is shared across every shard's journal (one atomic), so on
  /// an N-shard plane the crash lands at whichever per-shard append
  /// crosses the threshold -- including a broadcast mid-fan-out, leaving
  /// some shards with the record and others without.
  void install_crash_hook() {
    const char* env = std::getenv("CSHIELD_CRASH_AFTER_APPENDS");
    if (env == nullptr) return;
    const auto allowed = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
    auto seen = std::make_shared<std::atomic<std::uint64_t>>(0);
    for (std::size_t k = 0; k < plane->shard_count(); ++k) {
      plane->journal(k)->test_hook_before_append =
          [seen, allowed](const core::JournalRecord&) {
            if (seen->fetch_add(1, std::memory_order_relaxed) + 1 > allowed) {
              ::_exit(42);
            }
          };
    }
  }
};

Bytes read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CS_REQUIRE(static_cast<bool>(in), "cannot read " + path.string());
  Bytes data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  return data;
}

void write_file(const fs::path& path, BytesView data) {
  std::ofstream out(path, std::ios::binary);
  CS_REQUIRE(static_cast<bool>(out), "cannot write " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

int usage() {
  std::cerr << "usage: cshield_cli <root> "
               "init [n] | adduser <c> <pw> <pl> | put <c> <pw> <name> "
               "<file> <pl> | get <c> <pw> <name> <file> | rm <c> <pw> "
               "<name> | ls | ls-files <c> <pw> | repair | checkpoint | "
               "recover | scrub | stats | export | health | providers | "
               "add-provider <name> <pl> <cl> | drain <name> | "
               "decommission <name> "
               "[--stats] [--journal <path>] [--meta-shards <n>] "
               "[--stripes-per-sec <r>] [--max-in-flight <n>] "
               "[--protection <partial-aes|misleading|fragmentation>] "
               "[--batch-ops <n> "
               "[--batch-ms <t>]] [--faults <p> "
               "[--fault-seed <s>]] [--export-file <path>] after any "
               "command\n";
  return 2;
}

/// Removes a `--stats` flag from argv (anywhere after the command) so the
/// positional parsing below stays untouched.
bool strip_stats_flag(int& argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--stats") {
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      return true;
    }
  }
  return false;
}

/// Removes a `--<name> <value>` pair from argv and returns the value (empty
/// when the flag is absent), keeping positional parsing untouched.
std::string strip_value_flag(int& argc, char** argv, std::string_view name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string_view(argv[i]) == name) {
      std::string value = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      return value;
    }
  }
  return {};
}

void print_journal_stats(CliWorld& world) {
  std::cout << "--- journal (" << world.meta_shards << " shard"
            << (world.meta_shards == 1 ? "" : "s") << ") ---\n";
  for (std::size_t k = 0; k < world.meta_shards; ++k) {
    core::Journal* j = world.plane->journal(k);
    std::cout << "shard " << k << ": " << j->path().string() << "\n"
              << "  records (uncheckpointed): " << j->record_count() << "\n"
              << "  bytes:               " << j->bytes() << "\n"
              << "  checkpointed ops:    " << j->last_checkpoint_ops() << "\n"
              << "  flushes:             " << j->flushes() << "\n"
              << "  group commits:       " << j->group_commits() << "\n";
  }
  std::cout << "in-flight puts:      " << world.in_flight.size() << "\n";
}

/// Prometheus metrics dump plus the top-N slowest spans by executed wall
/// time, with provider indices resolved back to names.
void print_stats(CliWorld& world, std::size_t top_n = 10) {
  const std::shared_ptr<obs::Telemetry>& tel = world.cdd->telemetry();
  std::cout << "--- metrics ---\n" << tel->metrics().to_prometheus();
  std::vector<obs::SpanRecord> spans = tel->tracer().snapshot();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                     return a.wall_ns > b.wall_ns;
                   });
  if (spans.size() > top_n) spans.resize(top_n);
  std::cout << "--- " << spans.size() << " slowest spans (wall time) ---\n";
  TextTable t({"span", "client", "file", "chunk", "provider", "kind",
               "wall_us", "sim_us", "outcome"});
  for (const obs::SpanRecord& s : spans) {
    t.add(s.name, s.client.empty() ? "-" : s.client,
          s.file.empty() ? "-" : s.file,
          s.chunk == obs::kNoChunk ? std::string("-")
                                   : std::to_string(s.chunk),
          s.provider == kNoProvider
              ? std::string("-")
              : world.registry.at(s.provider).descriptor().name,
          std::string(obs::shard_kind_name(s.shard_kind)), s.wall_ns / 1000,
          s.sim_ns / 1000, std::string(error_code_name(s.outcome)));
  }
  t.print(std::cout);
  print_journal_stats(world);
}

}  // namespace

int main(int argc, char** argv) {
  const bool want_stats = strip_stats_flag(argc, argv);
  const std::string faults = strip_value_flag(argc, argv, "--faults");
  const std::string fault_seed = strip_value_flag(argc, argv, "--fault-seed");
  const std::string journal_flag = strip_value_flag(argc, argv, "--journal");
  const std::string export_file = strip_value_flag(argc, argv, "--export-file");
  // `--batch-ops <n>` enables journal group commit (n records per fsync);
  // `--batch-ms <t>` bounds how long a batch leader waits for the batch to
  // fill. The CLI is single-threaded, so these exist to prove the crash
  // drill's durability semantics hold with group commit enabled, not to
  // make one process faster.
  const std::string protection_flag =
      strip_value_flag(argc, argv, "--protection");
  const std::string batch_ops_flag = strip_value_flag(argc, argv, "--batch-ops");
  const std::string batch_ms_flag = strip_value_flag(argc, argv, "--batch-ms");
  // `--meta-shards <n>`: partitions of the metadata/journal plane. Chosen
  // at `init`; later invocations auto-detect from the journal's shard
  // stamp, and a flag that contradicts the stamp is refused.
  const std::string shards_flag = strip_value_flag(argc, argv, "--meta-shards");
  const std::size_t meta_shards =
      shards_flag.empty() ? 0 : std::stoul(shards_flag);
  // Migration pacing for the topology commands (and `recover`'s resume).
  const std::string sps_flag =
      strip_value_flag(argc, argv, "--stripes-per-sec");
  const std::string inflight_flag =
      strip_value_flag(argc, argv, "--max-in-flight");
  core::Migrator::Config mig_config;
  if (!sps_flag.empty()) mig_config.stripes_per_sec = std::stod(sps_flag);
  if (!inflight_flag.empty()) {
    mig_config.max_in_flight = std::stoul(inflight_flag);
  }
  const std::size_t batch_ops =
      batch_ops_flag.empty() ? 1 : std::stoul(batch_ops_flag);
  const std::size_t batch_ms =
      batch_ms_flag.empty() ? 0 : std::stoul(batch_ms_flag);
  // `--faults <p>` injects seeded transient failures at rate p into every
  // provider, exercising the retry/breaker path and the parity fallback of
  // reads; the same
  // `--fault-seed` replays the exact same failure pattern.
  auto arm_faults = [&](CliWorld& world) {
    if (faults.empty()) return;
    storage::FaultPlan plan = storage::FaultPlan::transient(
        fault_seed.empty() ? storage::FaultPlan{}.seed
                           : std::stoull(fault_seed),
        std::stod(faults));
    world.registry.apply_fault_plan(
        std::make_shared<storage::FaultPlan>(std::move(plan)));
  };
  if (argc < 3) return usage();
  const fs::path root = argv[1];
  const std::string cmd = argv[2];
  const fs::path journal_path =
      journal_flag.empty() ? root / "journal.wal" : fs::path(journal_flag);
  try {
    if (cmd == "init") {
      const std::size_t n = argc > 3 ? std::stoul(argv[3]) : 12;
      fs::create_directories(root);
      CliWorld world(root, journal_path, n, batch_ops, batch_ms, meta_shards);
      // Fold the provider registrations into a first checkpoint so a fresh
      // deployment has both halves of the metadata pipeline on disk.
      Status st = world.cdd->checkpoint();
      CS_REQUIRE(st.ok(), st.to_string());
      std::cout << "initialized " << n << " providers under " << root
                << " (" << world.meta_shards << "-shard metadata plane)\n";
      return 0;
    }
    CliWorld world(root, journal_path, 0, batch_ops, batch_ms, meta_shards);
    arm_faults(world);
    // `--export-file`: the continuous sampler runs for the command's
    // duration, streaming one JSONL sample every 100 ms (and polling the
    // watchdog on the same tick).
    std::unique_ptr<obs::MetricsExporter> exporter;
    if (!export_file.empty()) {
      obs::MetricsExporter::Config ec;
      ec.jsonl_path = export_file;
      ec.watchdog = world.watchdog.get();
      exporter = std::make_unique<obs::MetricsExporter>(
          world.cdd->telemetry(), ec);
      exporter->start();
    }
    // Every command below funnels through `done` so --stats and
    // --export-file can report on whatever the command just did.
    auto done = [&](int rc) {
      if (exporter != nullptr) {
        exporter->stop();
        exporter->sample_now();  // final sample covers the command's tail
        std::ofstream prom(export_file + ".prom", std::ios::trunc);
        prom << exporter->to_prometheus();
        std::cout << "exported " << exporter->total_samples()
                  << " samples to " << export_file << " (+ .prom)\n";
      }
      if (want_stats) print_stats(world);
      return rc;
    };
    if (cmd == "stats") {
      print_stats(world);
      return done(0);
    }
    if (cmd == "export") {
      // One-shot scrape: build info + full registry exposition.
      obs::MetricsExporter ex(world.cdd->telemetry());
      ex.sample_now();
      std::cout << ex.to_prometheus();
      return done(0);
    }
    if (cmd == "health") {
      // Two samples bracket whatever state recovery/startup left, then the
      // engine folds providers + subsystem SLOs into one report.
      obs::MetricsExporter ex(world.cdd->telemetry());
      ex.sample_now();
      ex.sample_now();
      obs::HealthEngine engine(ex);
      const obs::HealthReport report = engine.evaluate();
      std::cout << report.to_string();
      return done(report.overall == obs::HealthState::kCritical ? 1 : 0);
    }
    if (cmd == "adduser" && argc == 6) {
      const std::string client = argv[3];
      (void)world.cdd->register_client(client);  // idempotent enough
      Status st = world.cdd->add_password(
          client, argv[4], privacy_level_from_int(std::stoi(argv[5])));
      std::cout << st.to_string() << "\n";
      return done(st.ok() ? 0 : 1);
    }
    if (cmd == "put" && argc == 8) {
      core::PutOptions opts;
      opts.privacy_level = privacy_level_from_int(std::stoi(argv[7]));
      if (!protection_flag.empty()) {
        if (protection_flag == "partial-aes") {
          opts.protection = ProtectionMode::kPartialAes;
        } else if (protection_flag == "misleading") {
          opts.protection = ProtectionMode::kMisleadingBytes;
        } else if (protection_flag == "fragmentation") {
          opts.protection = ProtectionMode::kFragmentation;
        } else {
          std::cerr << "unknown --protection '" << protection_flag << "'\n";
          return usage();
        }
      }
      core::OpReport report;
      Status st = world.cdd->put_file(argv[3], argv[4], argv[5],
                                      read_file(argv[6]), opts, &report);
      std::cout << st.to_string() << " (" << report.chunks << " chunks, "
                << report.shards << " shards, " << report.bytes_stored
                << " B stored)\n";
      return done(st.ok() ? 0 : 1);
    }
    if (cmd == "get" && argc == 7) {
      Result<Bytes> data = world.cdd->get_file(argv[3], argv[4], argv[5]);
      if (!data.ok()) {
        std::cout << data.status().to_string() << "\n";
        return done(1);
      }
      write_file(argv[6], data.value());
      std::cout << "OK (" << data.value().size() << " B)\n";
      return done(0);
    }
    if (cmd == "rm" && argc == 6) {
      Status st = world.cdd->remove_file(argv[3], argv[4], argv[5]);
      std::cout << st.to_string() << "\n";
      return done(st.ok() ? 0 : 1);
    }
    if (cmd == "ls-files" && argc == 5) {
      Result<std::vector<core::CloudDataDistributor::FileInfo>> files =
          world.cdd->list_files(argv[3], argv[4]);
      if (!files.ok()) {
        std::cout << files.status().to_string() << "\n";
        return done(1);
      }
      TextTable t({"file", "PL", "chunks"});
      for (const auto& f : files.value()) {
        t.add(f.filename, level_index(f.privacy_level), f.chunks);
      }
      t.print(std::cout);
      return done(0);
    }
    if (cmd == "ls") {
      TextTable t({"Cloud Provider", "PL", "CL", "Count", "Bytes"});
      // Merged plane view: placements are per-partition, so shard 0 alone
      // would under-count on an N-shard plane.
      const auto table = world.plane->provider_table();
      for (std::size_t p = 0; p < table.size(); ++p) {
        t.add(table[p].name, level_index(table[p].privacy_level),
              level_index(table[p].cost_level), table[p].count(),
              world.registry.at(p).bytes_stored());
      }
      t.print(std::cout);
      return done(0);
    }
    // One synchronous migration via the throttled engine; shared by the
    // topology commands and recover's crash-resume.
    auto run_migration = [&](core::MigrationKind kind,
                             ProviderIndex p) -> Status {
      core::Migrator migrator(*world.cdd, mig_config);
      Result<core::Migrator::Report> rep = migrator.run(kind, p);
      if (!rep.ok()) return rep.status();
      const core::Migrator::Report& r = rep.value();
      std::cout << core::migration_kind_name(kind) << " "
                << world.registry.at(p).descriptor().name
                << (r.committed ? " OK: " : " paused: ") << r.shards_moved
                << " shards (" << r.bytes_moved << " B) moved across "
                << r.chunks_visited << " chunks\n";
      return Status::Ok();
    };
    if (cmd == "providers") {
      TextTable t({"Cloud Provider", "PL", "CL", "Lifecycle", "Breaker",
                   "Shards", "Bytes", "Migration"});
      const auto table = world.plane->provider_table();
      for (std::size_t p = 0; p < table.size(); ++p) {
        const char* breaker = "closed";
        switch (world.registry.breaker(p).state()) {
          case storage::CircuitBreaker::State::kOpen: breaker = "open"; break;
          case storage::CircuitBreaker::State::kHalfOpen:
            breaker = "half-open";
            break;
          case storage::CircuitBreaker::State::kClosed: break;
        }
        std::string migration = "-";
        for (const core::MigrationIntent& m : world.pending_migrations) {
          if (m.provider == p) {
            migration =
                std::string(core::migration_kind_name(m.kind)) + " pending";
          }
        }
        t.add(table[p].name, level_index(table[p].privacy_level),
              level_index(table[p].cost_level),
              std::string(provider_lifecycle_name(table[p].lifecycle)),
              breaker, table[p].count(),
              world.registry.at(p).bytes_stored(), migration);
      }
      t.print(std::cout);
      return done(0);
    }
    if (cmd == "add-provider" && argc == 6) {
      storage::ProviderDescriptor d;
      d.name = argv[3];
      d.privacy_level = privacy_level_from_int(std::stoi(argv[4]));
      const int cl = std::stoi(argv[5]);
      CS_REQUIRE(cl >= 0 && cl < kNumCostLevels, "cost level outside 0..3");
      d.cost_level = static_cast<CostLevel>(cl);
      d.price_per_gb_month = 0.01 + 0.015 * cl;
      Result<ProviderIndex> added = world.cdd->add_provider(std::move(d));
      if (!added.ok()) {
        std::cout << added.status().to_string() << "\n";
        return done(1);
      }
      world.attach_disk(added.value());
      std::cout << "added " << argv[3] << " as provider" << added.value()
                << " (joining)\n";
      Status st = run_migration(core::MigrationKind::kJoin, added.value());
      if (!st.ok()) {
        std::cout << st.to_string() << " -- run 'recover' to resume\n";
        return done(1);
      }
      return done(0);
    }
    if ((cmd == "drain" || cmd == "decommission") && argc == 4) {
      const ProviderIndex p = world.registry.find(argv[3]);
      if (p == kNoProvider) {
        std::cout << "NOT_FOUND: no provider named " << argv[3] << "\n";
        return done(1);
      }
      Status st = run_migration(cmd == "drain"
                                    ? core::MigrationKind::kDrain
                                    : core::MigrationKind::kDecommission,
                                p);
      if (!st.ok()) {
        std::cout << st.to_string() << " -- run 'recover' to resume\n";
        return done(1);
      }
      return done(0);
    }
    if (cmd == "repair") {
      Result<std::size_t> repaired = world.cdd->repair();
      if (!repaired.ok()) {
        std::cout << repaired.status().to_string() << "\n";
        return done(1);
      }
      std::cout << "repaired " << repaired.value() << " shards\n";
      return done(0);
    }
    if (cmd == "checkpoint") {
      Status st = world.cdd->checkpoint();
      if (!st.ok()) {
        std::cout << st.to_string() << "\n";
        return done(1);
      }
      std::uint64_t folded = 0;
      for (std::size_t k = 0; k < world.meta_shards; ++k) {
        folded += world.plane->journal(k)->last_checkpoint_ops();
      }
      std::cout << "checkpoint OK (" << folded
                << " ops folded in total across " << world.meta_shards
                << " shard" << (world.meta_shards == 1 ? "" : "s") << ")\n";
      return done(0);
    }
    if (cmd == "recover") {
      // Startup already replayed checkpoint+journal; this reconciles the
      // providers against the recovered tables: GC orphan shards, abort
      // in-flight puts, re-run repair for degraded stripes.
      Result<core::CloudDataDistributor::ReconcileReport> rep =
          world.cdd->reconcile(world.in_flight);
      if (!rep.ok()) {
        std::cout << rep.status().to_string() << "\n";
        return done(1);
      }
      std::cout << "recover OK: " << rep.value().orphans_removed
                << " orphan shards removed, " << rep.value().stale_ids
                << " stale ids dropped, " << rep.value().aborted_files
                << " in-flight puts aborted, " << rep.value().repaired_shards
                << " shards repaired\n";
      // Resume any migration the crash interrupted: begin is re-issued
      // idempotently, already-moved shards are skipped, and commit finally
      // lands.
      for (const core::MigrationIntent& m : world.pending_migrations) {
        std::cout << "resuming " << core::migration_kind_name(m.kind)
                  << " of " << m.provider_name << "\n";
        Status st = run_migration(m.kind, m.provider);
        if (!st.ok()) {
          std::cout << st.to_string() << " -- run 'recover' again to resume\n";
          return done(1);
        }
      }
      return done(0);
    }
    if (cmd == "scrub") {
      core::Migrator walker(*world.cdd, mig_config);
      Result<core::Migrator::Report> pass =
          walker.run(core::MovePolicy::heal(/*scrub=*/true));
      const core::Migrator::Progress prog = walker.progress();
      if (!pass.ok()) {
        std::cout << pass.status().to_string() << " (scanned "
                  << prog.chunks_visited << " chunks)\n";
        return done(1);
      }
      std::cout << "scrub OK: " << prog.chunks_visited
                << " chunks scanned, " << prog.mismatches
                << " digest mismatches, " << prog.shards_moved
                << " shards repaired\n";
      return done(0);
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
