// Set-up, crash, restart and fleet changes of one round, and the output
// checks that run outside the timed intervals.
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "core/journal.hpp"
#include "core/migrator.hpp"
#include "ledger.hpp"
#include "util/random.hpp"
#include "util/sim_clock.hpp"

namespace ledger {
namespace {

namespace core = cshield::core;
namespace storage = cshield::storage;
using cshield::Rng;
using cshield::Status;
using cshield::Stopwatch;

// Input streams drawn from --seed.
enum Stream : std::uint64_t {
  kStreamPrefill = 1,
  kStreamCrash = 2,
  kStreamDistributor = 3,
  kStreamJoin = 4,
};

constexpr cshield::ProviderIndex kDrainSubject = 1;

void require(const Status& st, const std::string& what) {
  if (!st.ok()) throw std::runtime_error(what + ": " + st.to_string());
}

/// make_default_registry(12); the realtime workload keeps its descriptors
/// and seeds but models a 1 ms base latency.
storage::ProviderRegistry make_fleet(const WorkloadSpec& w) {
  storage::ProviderRegistry base = storage::make_default_registry(kFleet);
  if (!w.realtime) return base;
  storage::ProviderRegistry fleet;
  for (std::size_t i = 0; i < kFleet; ++i) {
    fleet.add(base.at(i).descriptor(), fleet_latency(w), 0xFEED0000ULL + i);
  }
  return fleet;
}

/// The 4-shard plane rooted at `dir`: one fsync'd WAL per shard under group
/// commit {batch_ops 64, batch_interval 0}. Empty `stores` = fresh tables.
std::shared_ptr<core::MetadataPlane> open_plane(
    const fs::path& dir,
    const std::vector<std::shared_ptr<core::MetadataStore>>& stores) {
  std::vector<core::MetadataPlane::Partition> parts(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    cshield::Result<std::unique_ptr<core::Journal>> j = core::Journal::open(
        core::shard_file_path(dir / "plane.wal", k),
        static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(kShards));
    require(j.status(), "open journal");
    j.value()->set_group_commit(
        core::GroupCommitConfig{64, std::chrono::microseconds(0)});
    parts[k].journal = std::shared_ptr<core::Journal>(std::move(j.value()));
    parts[k].store = stores.empty() ? std::make_shared<core::MetadataStore>()
                                    : stores[k];
    parts[k].checkpoint_path = core::shard_file_path(dir / "plane.ckpt", k);
  }
  return std::make_shared<core::MetadataPlane>(std::move(parts));
}

/// A new distributor over the round's plane. Every instance draws its own
/// seed: a restarted distributor must not re-mint the virtual ids of the
/// one before it.
void start_distributor(System& sys) {
  static std::uint64_t instance = 0;
  core::DistributorConfig config;
  config.default_raid = cshield::raid::RaidLevel::kRaid5;
  config.stripe_data_shards = kDataShards;
  config.misleading_fraction = kMisleadingFraction;
  config.rpc_batch_shards = 1;
  config.telemetry = sys.telemetry;
  config.plane = sys.plane;
  config.seed = stream_seed(sys.seed, kStreamDistributor, ++instance);
  sys.cdd = std::make_unique<core::CloudDataDistributor>(sys.registry,
                                                         std::move(config));
}

/// One unthrottled Migrator pass (4 chunks in flight) that must commit;
/// `since` started the fleet change.
MigrateStats migrate(System& sys, core::MigrationKind kind,
                     cshield::ProviderIndex subject, const Stopwatch& since) {
  core::Migrator migrator(*sys.cdd, core::Migrator::Config{0.0, 4});
  cshield::Result<core::Migrator::Report> r = migrator.run(kind, subject);
  require(r.status(), "migration");
  MigrateStats ms;
  ms.seconds = since.elapsed_seconds();
  if (!r.value().committed || r.value().errors != 0) {
    throw std::runtime_error("migration did not commit");
  }
  ms.chunks = r.value().chunks_visited;
  ms.shards = r.value().shards_moved;
  ms.bytes = r.value().bytes_moved;
  ms.subject = subject;
  return ms;
}

/// Committed files by "client/file", with their chunk counts.
std::map<std::string, std::size_t> committed_files(
    const core::MetadataPlane& plane) {
  std::map<std::string, std::size_t> out;
  for (std::size_t s = 0; s < plane.shard_count(); ++s) {
    for (std::size_t c = 0; c < kClients; ++c) {
      for (const core::FileSummary& f :
           plane.store(s).list_files(client_name(c), PrivacyLevel::kHigh)) {
        out[client_name(c) + "/" + f.filename] = f.chunks;
      }
    }
  }
  return out;
}

std::map<std::string, std::size_t> model_files(const Model& model) {
  std::map<std::string, std::size_t> out;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const auto& [id, f] : model.clients[c].files) {
      out[client_name(c) + "/" + file_name(id)] = f.chunk_off.size();
    }
  }
  return out;
}

void compare_files(const std::map<std::string, std::size_t>& got,
                   const Model& model, const std::string& when,
                   std::vector<std::string>& errors) {
  const std::map<std::string, std::size_t> want = model_files(model);
  if (got == want) return;
  std::string detail;
  for (const auto& [name, chunks] : want) {
    auto it = got.find(name);
    if (it == got.end()) {
      detail = name + " missing";
      break;
    }
    if (it->second != chunks) {
      detail = name + " has " + std::to_string(it->second) + " chunks";
      break;
    }
  }
  if (detail.empty()) detail = "unexpected extra files";
  errors.push_back(when + ": committed files (" + std::to_string(got.size()) +
                   ") differ from the model (" + std::to_string(want.size()) +
                   "): " + detail);
}

}  // namespace

storage::LatencyModel fleet_latency(const WorkloadSpec& w) {
  storage::LatencyModel m;
  if (w.realtime) m.base_latency = std::chrono::microseconds(1000);
  return m;
}

System::~System() {
  cdd.reset();
  plane.reset();
  std::error_code ec;
  if (!dir.empty()) fs::remove_all(dir, ec);
}

void set_up(System& sys, const WorkloadSpec& w, const RunConfig& run,
            const fs::path& dir, const Payloads& pool, Model& model) {
  sys.spec = &w;
  sys.dir = dir;
  sys.seed = run.seed;
  fs::create_directories(dir);
  sys.registry = make_fleet(w);
  sys.plane = open_plane(dir, {});
  start_distributor(sys);
  for (std::size_t c = 0; c < kClients; ++c) {
    require(sys.cdd->register_client(client_name(c)), "register_client");
    require(sys.cdd->add_password(client_name(c), kPassword,
                                  PrivacyLevel::kHigh),
            "add_password");
  }

  model = Model{};
  model.chunk_size = sys.cdd->config().chunk_sizes.chunk_size(w.pl);
  const std::size_t per_client = run.prefill_per_client(w);
  std::vector<std::vector<Op>> puts(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    Rng rng(stream_seed(run.seed, kStreamPrefill, c));
    for (std::uint32_t k = 0; k < per_client; ++k) {
      puts[c].push_back(make_put(w, pool, rng, c, k));
    }
  }
  // Client c belongs to loader c % 16, so each model entry has one writer.
  // The prefill waits mostly on WAL fsyncs; sixteen loaders let group
  // commit fold several puts into one fsync, so set-up time follows the
  // CPU more than the shared disk.
  constexpr std::size_t kLoaders = 16;
  std::vector<std::string> failures(kLoaders);
  std::vector<std::thread> loaders;
  for (std::size_t t = 0; t < kLoaders; ++t) {
    loaders.emplace_back([&, t] {
      try {
        for (std::size_t c = t; c < kClients; c += kLoaders) {
          for (const Op& op : puts[c]) {
            require(issue(*sys.cdd, op, file_name(op.file), pool, w, nullptr),
                    "prefill put");
            model.apply(op);
          }
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  }
  for (std::thread& t : loaders) t.join();
  for (const std::string& f : failures) {
    if (!f.empty()) throw std::runtime_error(f);
  }
}

CrashPlan crash(System& sys, const Model& model, bool smoke) {
  CrashPlan plan{smoke ? 2u : 16u, smoke ? 4u : 64u, smoke ? 2u : 16u};
  // Repair re-homes a lost shard outside its stripe, so it needs a trusted
  // provider the stripe does not use: PL3 has exactly four, none spare.
  if (sys.registry.eligible_for(sys.spec->pl).size() <= kDataShards + 1) {
    plan.lost = 0;
  }
  Rng rng(stream_seed(sys.seed, kStreamCrash));
  // Puts the crash caught between kBeginPut and kCommitPut.
  for (std::size_t k = 0; k < plan.in_flight; ++k) {
    core::JournalRecord rec;
    rec.op = core::JournalOp::kBeginPut;
    rec.client = client_name(k % kClients);
    rec.filename = "inflight" + std::to_string(k);
    const std::size_t shard = sys.plane->shard_of(rec.client, rec.filename);
    require(sys.plane->journal(shard)->append(rec), "journal in-flight put");
  }
  // Their shards, which no committed row references.
  for (std::size_t k = 0; k < plan.orphans; ++k) {
    Bytes junk(512);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    require(sys.registry.at(rng.below(kFleet)).put(rng.next() | 1, junk),
            "plant orphan");
  }
  // Committed shards a provider lost (one per chosen chunk, so every
  // stripe stays decodable and reconcile's repair pass heals it).
  std::set<std::tuple<std::size_t, std::uint32_t, std::uint32_t>> chosen;
  while (chosen.size() < plan.lost) {
    const std::size_t c = rng.below(kClients);
    const ClientFiles& cf = model.clients[c];
    if (cf.order.empty()) continue;
    const std::uint32_t file = cf.order[rng.below(cf.order.size())];
    const auto serial = static_cast<std::uint32_t>(
        rng.below(cf.files.at(file).chunk_off.size()));
    if (!chosen.insert({c, file, serial}).second) continue;
    const std::string& client = client_name(c);
    const std::string name = file_name(file);
    const core::MetadataStore& store =
        sys.plane->store(sys.plane->shard_of(client, name));
    const std::optional<core::ChunkRef> ref =
        store.find_chunk(client, name, serial);
    if (!ref.has_value()) throw std::runtime_error("lost shard: no row");
    const core::ChunkEntry entry = store.chunk_entry(ref->chunk_index).value();
    const core::ShardLocation& loc =
        entry.stripe[rng.below(entry.stripe.size())];
    require(sys.registry.at(loc.provider).remove(loc.virtual_id),
            "drop committed shard");
  }
  sys.cdd.reset();
  sys.plane.reset();
  return plan;
}

RecoverStats recover(System& sys) {
  RecoverStats rs;
  Stopwatch total;
  cshield::Result<core::PlaneRecovery> rec = core::recover_plane(
      sys.dir / "plane.ckpt", sys.dir / "plane.wal", kShards);
  require(rec.status(), "recover_plane");
  rs.replay_s = total.elapsed_seconds();
  rs.records = rec.value().replayed_records;
  std::vector<std::shared_ptr<core::MetadataStore>> stores;
  for (core::RecoveredState& s : rec.value().shards) {
    stores.push_back(s.metadata);
  }
  sys.plane = open_plane(sys.dir, stores);
  start_distributor(sys);
  Stopwatch reconcile;
  cshield::Result<core::CloudDataDistributor::ReconcileReport> report =
      sys.cdd->reconcile(rec.value().in_flight);
  require(report.status(), "reconcile");
  rs.reconcile_s = reconcile.elapsed_seconds();
  rs.report = report.value();
  rs.total_s = total.elapsed_seconds();
  return rs;
}

MigrateStats join_provider(System& sys) {
  storage::ProviderDescriptor d;
  d.name = "Avalon";
  d.privacy_level = PrivacyLevel::kHigh;
  d.cost_level = cshield::CostLevel::kPremium;
  d.price_per_gb_month = 0.055;
  const Stopwatch sw;
  cshield::Result<cshield::ProviderIndex> idx = sys.cdd->add_provider(
      d, fleet_latency(*sys.spec), stream_seed(sys.seed, kStreamJoin));
  require(idx.status(), "add_provider");
  return migrate(sys, core::MigrationKind::kJoin, idx.value(), sw);
}

MigrateStats drain_provider(System& sys) {
  return migrate(sys, core::MigrationKind::kDrain, kDrainSubject, Stopwatch());
}

void check_recovery(System& sys, const Model& model, const CrashPlan& plan,
                    const RecoverStats& rs, std::vector<std::string>& errors) {
  const auto& r = rs.report;
  if (r.aborted_files != plan.in_flight || r.orphans_removed != plan.orphans ||
      r.repaired_shards != plan.lost) {
    errors.push_back(
        "reconcile: aborted " + std::to_string(r.aborted_files) + "/" +
        std::to_string(plan.in_flight) + " in-flight puts, removed " +
        std::to_string(r.orphans_removed) + "/" +
        std::to_string(plan.orphans) + " orphans, repaired " +
        std::to_string(r.repaired_shards) + "/" + std::to_string(plan.lost) +
        " lost shards");
  }
  compare_files(committed_files(*sys.plane), model, "after recovery",
                errors);
}

void check_reads(System& sys, const Model& model, const Payloads& pool,
                 std::size_t sample, std::uint64_t seed,
                 std::vector<std::string>& errors) {
  std::vector<std::pair<std::size_t, std::uint32_t>> live;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::uint32_t id : model.clients[c].order) live.emplace_back(c, id);
  }
  Rng rng(seed);
  rng.shuffle(live);
  if (live.size() > sample) live.resize(sample);
  for (const auto& [c, id] : live) {
    cshield::Result<Bytes> got =
        sys.cdd->get_file(client_name(c), kPassword, file_name(id));
    if (!got.ok() ||
        !matches(model, model.clients[c].files.at(id), pool, got.value())) {
      errors.push_back("read-back of " + client_name(c) + "/" + file_name(id) +
                       (got.ok() ? " differs from what was written"
                                 : " failed: " + got.status().to_string()));
      return;
    }
  }
}

double check_storage(System& sys, const Model& model,
                     std::vector<std::string>& errors) {
  std::uint64_t provider_bytes = 0;
  for (cshield::ProviderIndex p = 0; p < sys.registry.size(); ++p) {
    provider_bytes += sys.registry.at(p).bytes_stored();
  }
  std::uint64_t row_bytes = 0;
  std::uint64_t row_user = 0;
  for (std::size_t s = 0; s < sys.plane->shard_count(); ++s) {
    for (const core::ChunkEntry& e : sys.plane->store(s).chunk_table()) {
      if (e.deleted) continue;
      const std::size_t k = e.layout.data_shards;
      row_bytes += e.stripe.size() * ((e.padded_size + k - 1) / k);
      row_user += e.padded_size - e.misleading.size();
      if (e.has_snapshot) {
        row_bytes += e.snapshot.size() * ((e.snapshot_padded_size + k - 1) / k);
        row_user += e.snapshot_padded_size - e.snapshot_misleading.size();
      }
    }
  }
  const std::uint64_t retained = model.retained_bytes();
  if (provider_bytes != row_bytes) {
    errors.push_back("providers hold " + std::to_string(provider_bytes) +
                     " bytes but the chunk rows account for " +
                     std::to_string(row_bytes));
  }
  if (row_user != retained) {
    errors.push_back("chunk rows retain " + std::to_string(row_user) +
                     " user bytes but the model expects " +
                     std::to_string(retained));
  }
  return retained == 0 ? 0.0
                       : static_cast<double>(provider_bytes) /
                             static_cast<double>(retained);
}

void check_durable(System& sys, const Model& model,
                   std::vector<std::string>& errors) {
  sys.cdd.reset();
  sys.plane.reset();
  cshield::Result<core::PlaneRecovery> rec = core::recover_plane(
      sys.dir / "plane.ckpt", sys.dir / "plane.wal", kShards);
  if (!rec.ok()) {
    errors.push_back("final recover_plane failed: " +
                     rec.status().to_string());
    return;
  }
  if (!rec.value().in_flight.empty()) {
    errors.push_back("final recovery found " +
                     std::to_string(rec.value().in_flight.size()) +
                     " puts begun but never committed or aborted");
  }
  std::vector<core::MetadataPlane::Partition> parts(kShards);
  for (std::size_t k = 0; k < kShards; ++k) {
    parts[k].store = rec.value().shards[k].metadata;
  }
  compare_files(committed_files(core::MetadataPlane(std::move(parts))), model,
                "after the final crash", errors);
}

}  // namespace ledger
