// Sharded metadata/journal plane: routing discipline, shard-stamped
// on-disk images, parallel recovery, and the 4-shard crash-injection
// sweep.
//
// Three layers under test:
//   1. MetadataPlane / DistributorGroup routing -- writes land on the
//      client's primary front-end, reads round-robin over every front-end,
//      and either way the op resolves against the owning shard partition;
//   2. the shard-stamped journal/checkpoint images -- every member of an
//      N-shard plane names its place, wrong-shape opens are refused, and a
//      1-shard plane is stamped shard 0 of 1 at the base paths;
//   3. crash recovery -- recover_plane replays all N journals in parallel,
//      and a crash at ANY per-shard append boundary (including broadcast
//      fan-outs and concurrent appends to different shards) recovers with
//      zero lost chunks, zero orphans, idempotently.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/metadata_io.hpp"
#include "core/metadata_plane.hpp"
#include "core/multi_distributor.hpp"
#include "storage/provider_registry.hpp"
#include "util/hash.hpp"

namespace cshield {
namespace {

namespace fs = std::filesystem;
using core::Journal;
using core::JournalOp;
using core::JournalRecord;
using core::MetadataPlane;

constexpr std::size_t kShards = 4;
constexpr std::size_t kProviders = 12;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("cshield_shardplane_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

Bytes read_disk(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  Bytes data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  return data;
}

void write_disk(const fs::path& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

core::DistributorConfig base_config(std::uint64_t seed) {
  core::DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.05;
  config.worker_threads = 4;
  config.seed = seed;
  return config;
}

/// A journaled N-shard plane under `dir`: shard k's journal/checkpoint at
/// the shard_file_path of journal.wal / metadata.bin. `stores` empty makes
/// fresh partitions (a new deployment); otherwise it is recovered state.
std::shared_ptr<MetadataPlane> open_plane(
    const fs::path& dir, std::size_t shards,
    std::vector<std::shared_ptr<core::MetadataStore>> stores = {}) {
  Result<std::shared_ptr<MetadataPlane>> plane =
      MetadataPlane::open(dir / "metadata.bin", dir / "journal.wal", shards,
                          {}, std::move(stores));
  CS_REQUIRE(plane.ok(), plane.status().to_string());
  return std::move(plane).value();
}

// --- routing discipline -----------------------------------------------------

TEST(ShardMapTest, ShardOfIsDeterministicAndSpreads) {
  std::set<std::size_t> hit;
  for (int c = 0; c < 8; ++c) {
    for (int f = 0; f < 8; ++f) {
      const std::string client = "client" + std::to_string(c);
      const std::string file = "file" + std::to_string(f);
      const std::size_t s = MetadataPlane::shard_of(client, file, kShards);
      EXPECT_LT(s, kShards);
      EXPECT_EQ(s, MetadataPlane::shard_of(client, file, kShards));
      hit.insert(s);
    }
  }
  // 64 (client, file) pairs over 4 shards: a consistent hash that parked
  // everything on one shard would be a serialization bug, not bad luck.
  EXPECT_EQ(hit.size(), kShards);
}

TEST(ShardMapTest, GlobalIndexInterleavingRoundTrips) {
  std::vector<MetadataPlane::Partition> parts(kShards);
  for (auto& p : parts) p.store = std::make_shared<core::MetadataStore>();
  MetadataPlane plane(std::move(parts));
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    for (std::size_t local = 0; local < 17; ++local) {
      const std::size_t global = plane.to_global(shard, local);
      EXPECT_EQ(plane.shard_of_index(global), shard);
      EXPECT_EQ(plane.local_index(global), local);
    }
  }
}

TEST(DistributorGroupTest, PrimaryAssignmentIgnoresFilenames) {
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  core::DistributorGroup group(registry, base_config(0xA11CE), 8, kShards);
  // The primary is a function of the client name alone: renaming or adding
  // files must never migrate a client to another front-end, and every
  // group member (here: a second group over the same config) computes the
  // identical assignment.
  core::DistributorGroup twin(registry, base_config(0xA11CE), 8, kShards);
  std::set<std::size_t> used;
  for (int c = 0; c < 32; ++c) {
    const std::string client = "tenant" + std::to_string(c);
    const std::size_t primary = group.primary_index(client);
    EXPECT_LT(primary, group.size());
    EXPECT_EQ(primary, twin.primary_index(client));
    EXPECT_EQ(primary, group.primary_index(client));  // stable
    used.insert(primary);
  }
  EXPECT_GT(used.size(), 1u);  // 32 tenants spread over 8 front-ends
}

TEST(DistributorGroupTest, PrimaryWriteAnyReadAcrossShardBoundaries) {
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  core::DistributorGroup group(registry, base_config(0xF00D), 4, kShards);

  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  std::map<std::pair<std::string, std::string>, Bytes> want;
  for (int c = 0; c < 6; ++c) {
    const std::string client = "client" + std::to_string(c);
    ASSERT_TRUE(group.register_client(client).ok());
    ASSERT_TRUE(
        group.add_password(client, "pw", PrivacyLevel::kModerate).ok());
    for (int f = 0; f < 4; ++f) {
      const std::string file = "file" + std::to_string(f);
      Bytes data = payload_of(3000 + 511 * f, 100 * c + f);
      ASSERT_TRUE(group.put_file(client, "pw", file, data, opts).ok());
      want[{client, file}] = std::move(data);
    }
  }

  // Every file reads back byte-identical through the round-robin read
  // path -- a secondary front-end resolves against the same owning shard
  // the primary committed to.
  for (const auto& [key, data] : want) {
    Result<Bytes> got = group.get_file(key.first, "pw", key.second);
    ASSERT_TRUE(got.ok()) << key.first << "/" << key.second << ": "
                          << got.status().to_string();
    EXPECT_TRUE(equal(got.value(), data)) << key.first << "/" << key.second;
  }

  // Load attribution: writes sit exactly on each client's primary; reads
  // round-robin, so the serving front-end (not the primary) is charged.
  std::vector<core::DistributorGroup::FrontEndLoad> load = group.load();
  std::vector<std::uint64_t> want_writes(group.size(), 0);
  for (int c = 0; c < 6; ++c) {
    const std::string client = "client" + std::to_string(c);
    want_writes[group.primary_index(client)] += 2 + 4;  // register+pw+4 puts
  }
  std::uint64_t reads_total = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    EXPECT_EQ(load[i].writes, want_writes[i]) << "front-end " << i;
    reads_total += load[i].reads;
    // 24 reads over 4 front-ends round-robin: everyone served some.
    EXPECT_GT(load[i].reads, 0u) << "front-end " << i;
  }
  EXPECT_EQ(reads_total, want.size());

  // The files live in more than one shard partition (the namespace really
  // is spread), and each lives in exactly one.
  const MetadataPlane& plane = *group.plane();
  std::size_t populated = 0;
  for (std::size_t s = 0; s < plane.shard_count(); ++s) {
    if (plane.store(s).total_chunks() > 0) ++populated;
  }
  EXPECT_GT(populated, 1u);

  // Updates route through the primary and stay visible to secondaries.
  const std::string client = "client3";
  Result<Bytes> chunk0 = group.get_chunk(client, "pw", "file0", 0);
  ASSERT_TRUE(chunk0.ok());
  const Bytes fresh = payload_of(chunk0.value().size(), 777);
  ASSERT_TRUE(group.update_chunk(client, "pw", "file0", 0, fresh).ok());
  Bytes expected = fresh;
  const Bytes& orig = want[{client, "file0"}];
  expected.insert(expected.end(), orig.begin() + fresh.size(), orig.end());
  for (std::size_t i = 0; i < 2 * group.size(); ++i) {
    Result<Bytes> got = group.get_file(client, "pw", "file0");
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(equal(got.value(), expected));
  }

  ASSERT_TRUE(group.remove_file(client, "pw", "file1").ok());
  EXPECT_FALSE(group.get_file(client, "pw", "file1").ok());
  Result<std::vector<core::CloudDataDistributor::FileInfo>> files =
      group.list_files(client, "pw");
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value().size(), 3u);
}

// --- shard-stamped images ---------------------------------------------------

TEST(ShardStampTest, MembersCarryTheirStampAndRejectWrongShapes) {
  TempDir dir;
  {
    std::shared_ptr<MetadataPlane> plane = open_plane(dir.path(), kShards);
    JournalRecord rec;
    rec.op = JournalOp::kRegisterClient;
    rec.client = "alice";
    for (std::size_t k = 0; k < kShards; ++k) {
      ASSERT_TRUE(plane->journal(k)->append(rec).ok());
    }
  }
  for (std::size_t k = 0; k < kShards; ++k) {
    const fs::path p = core::shard_file_path(dir.path() / "journal.wal", k);
    Result<core::ShardStamp> info = core::probe_journal_shard(p);
    ASSERT_TRUE(info.ok()) << p;
    EXPECT_EQ(info.value().shard_index, k);
    EXPECT_EQ(info.value().shard_count, kShards);
  }
  // Wrong count, wrong index, and 1-shard opens are all refused
  // with an error that names both stamps.
  const fs::path base = dir.path() / "journal.wal";
  Result<std::unique_ptr<Journal>> wrong = Journal::open(base, 0, 2);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().to_string().find("shard stamp mismatch"),
            std::string::npos);
  EXPECT_FALSE(Journal::open(base, 1, kShards).ok());
  EXPECT_FALSE(Journal::open(base).ok());
  EXPECT_FALSE(
      core::recover_metadata(dir.path() / "metadata.bin", base).ok());
  // The right shape re-opens fine.
  EXPECT_TRUE(Journal::open(base, 0, kShards).ok());
}

TEST(ShardStampTest, OneShardPlaneIsStampedZeroOfOne) {
  TempDir dir;
  const fs::path jpath = dir.path() / "journal.wal";
  {
    std::shared_ptr<MetadataPlane> plane = open_plane(dir.path(), 1);
    JournalRecord rec;
    rec.op = JournalOp::kRegisterClient;
    rec.client = "alice";
    Journal& journal = *plane->journal(0);
    ASSERT_TRUE(journal.append(rec).ok());
    const Bytes image = core::serialize_metadata(plane->store(0), 0, 1);
    ASSERT_TRUE(
        journal.checkpoint([&] { return image; }, plane->checkpoint_path(0))
            .ok());
    ASSERT_TRUE(journal.append(rec).ok());
  }
  // The files live at the base paths, and the journal names its place.
  EXPECT_TRUE(fs::exists(dir.path() / "metadata.bin"));
  EXPECT_FALSE(fs::exists(core::shard_file_path(jpath, 1)));
  Result<core::ShardStamp> info = core::probe_journal_shard(jpath);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().shard_index, 0u);
  EXPECT_EQ(info.value().shard_count, 1u);
  // The default open and a 1-shard plane recovery accept it...
  EXPECT_TRUE(Journal::open(jpath).ok());
  Result<core::PlaneRecovery> rec =
      core::recover_plane(dir.path() / "metadata.bin", jpath, 1);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  EXPECT_EQ(rec.value().replayed_records, 1u);
  // ...and opening it as a member of a wider plane is refused.
  Result<std::unique_ptr<Journal>> wider = Journal::open(jpath, 0, 2);
  ASSERT_FALSE(wider.ok());
  EXPECT_NE(wider.status().to_string().find("shard stamp mismatch"),
            std::string::npos);
}

// --- parallel plane recovery ------------------------------------------------

TEST(PlaneRecoveryTest, RoundTripsAcrossRestart) {
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  std::map<std::string, Bytes> want;
  {
    core::DistributorConfig config = base_config(0xCAFE);
    config.plane = open_plane(dir.path(), kShards);
    core::CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kModerate).ok());
    for (int f = 0; f < 8; ++f) {
      const std::string file = "doc" + std::to_string(f);
      Bytes data = payload_of(2500 + 333 * f, f);
      ASSERT_TRUE(cdd.put_file("alice", "pw", file, data, opts).ok());
      want[file] = std::move(data);
    }
    // One shard checkpoints, the others keep journal-only state -- restart
    // must fold both paths.
    ASSERT_TRUE(cdd.checkpoint().ok());
    Bytes extra = payload_of(4000, 99);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "late", extra, opts).ok());
    want["late"] = std::move(extra);
  }
  Result<core::PlaneRecovery> rec = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  ASSERT_EQ(rec.value().shards.size(), kShards);
  EXPECT_TRUE(rec.value().in_flight.empty());

  std::vector<std::shared_ptr<core::MetadataStore>> stores;
  stores.reserve(kShards);
  for (auto& s : rec.value().shards) stores.push_back(s.metadata);
  core::DistributorConfig config = base_config(0xCAFE + 1);
  config.plane = open_plane(dir.path(), kShards, std::move(stores));
  core::CloudDataDistributor cdd(registry, config);
  for (const auto& [file, data] : want) {
    Result<Bytes> got = cdd.get_file("alice", "pw", file);
    ASSERT_TRUE(got.ok()) << file << ": " << got.status().to_string();
    EXPECT_TRUE(equal(got.value(), data)) << file;
  }
}

TEST(PlaneRecoveryTest, RejectsMismatchedShardCount) {
  TempDir dir;
  { (void)open_plane(dir.path(), kShards); }
  Result<core::PlaneRecovery> wrong = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", 2);
  ASSERT_FALSE(wrong.ok());
  EXPECT_NE(wrong.status().to_string().find("shard"), std::string::npos);
  EXPECT_TRUE(core::recover_plane(dir.path() / "metadata.bin",
                                  dir.path() / "journal.wal", kShards)
                  .ok());
}

// --- 4-shard crash-injection sweep ------------------------------------------

/// Durable state of the whole plane at one crash point.
struct PlaneScenario {
  std::string label;
  std::array<Bytes, kShards> journals;
  std::array<Bytes, kShards> checkpoints;
  std::vector<std::map<VirtualId, Bytes>> providers;
  std::map<std::string, Bytes> expected;  ///< surely-committed file -> bytes
  /// Files whose put/update had begun but whose commit had not yet been
  /// confirmed when the snapshot was cut (concurrent sweep only): recovery
  /// may keep the new content, keep the old, or drop an unfinished put --
  /// but must never return torn bytes.
  std::map<std::string, std::vector<Bytes>> indeterminate;
};

/// Captures every per-shard append boundary of a live plane (and which
/// shard's journal took the record), mirroring recovery_test's
/// CrashRecorder across N journals.
class PlaneCrashRecorder {
 public:
  PlaneCrashRecorder(fs::path dir, storage::ProviderRegistry* registry)
      : dir_(std::move(dir)), registry_(registry) {}

  void install(MetadataPlane& plane) {
    for (std::size_t k = 0; k < plane.shard_count(); ++k) {
      plane.journal(k)->test_hook_before_append =
          [this, k](const JournalRecord& rec) {
            std::lock_guard<std::mutex> lock(mu_);
            pending_ = snapshot_locked(
                "before #" + std::to_string(scenarios_.size()) + " shard " +
                std::to_string(k) +
                " op=" + std::to_string(static_cast<int>(rec.op)));
            scenarios_.push_back(pending_);
          };
      plane.journal(k)->test_hook_after_append =
          [this, k](const JournalRecord& rec) {
            std::lock_guard<std::mutex> lock(mu_);
            advance_expected(rec);
            PlaneScenario after = snapshot_locked(
                "after #" + std::to_string(scenarios_.size()) + " shard " +
                std::to_string(k) +
                " op=" + std::to_string(static_cast<int>(rec.op)));
            scenarios_.push_back(std::move(after));
          };
    }
  }

  void will_write(const std::string& file, Bytes content) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_content_[file] = std::move(content);
  }

  [[nodiscard]] const std::vector<PlaneScenario>& scenarios() const {
    return scenarios_;
  }

 private:
  PlaneScenario snapshot_locked(std::string label) {
    PlaneScenario s;
    s.label = std::move(label);
    for (std::size_t k = 0; k < kShards; ++k) {
      s.journals[k] =
          read_disk(core::shard_file_path(dir_ / "journal.wal", k));
      s.checkpoints[k] =
          read_disk(core::shard_file_path(dir_ / "metadata.bin", k));
    }
    s.providers.resize(registry_->size());
    for (std::size_t p = 0; p < registry_->size(); ++p) {
      const storage::MemoryStore& store = registry_->at(p).raw_store();
      for (VirtualId id : store.list_ids()) {
        Result<Bytes> obj = store.get(id);
        if (obj.ok()) s.providers[p][id] = std::move(obj).value();
      }
    }
    s.expected = expected_;
    return s;
  }

  void advance_expected(const JournalRecord& rec) {
    switch (rec.op) {
      case JournalOp::kCommitPut:
      case JournalOp::kUpdateChunk: {
        if (rec.filename.empty()) break;
        auto it = pending_content_.find(rec.filename);
        if (it != pending_content_.end()) expected_[rec.filename] = it->second;
        break;
      }
      case JournalOp::kRemoveFile:
        expected_.erase(rec.filename);
        break;
      default:
        break;
    }
  }

  fs::path dir_;
  storage::ProviderRegistry* registry_;
  std::mutex mu_;
  std::map<std::string, Bytes> pending_content_;
  std::map<std::string, Bytes> expected_;
  PlaneScenario pending_;
  std::vector<PlaneScenario> scenarios_;
};

/// Reconstructs a plane from a crash PlaneScenario and asserts full
/// convergence: parallel recovery succeeds, committed files read back
/// byte-identical, uncommitted files are gone (or, in the concurrent
/// sweep, resolve to exactly one of their candidate states), reconcile
/// leaves zero unreferenced provider objects, and a second pass is a
/// no-op.
void verify_plane_recovery(const PlaneScenario& sc,
                           const std::set<std::string>& universe) {
  SCOPED_TRACE(sc.label);
  TempDir dir;
  for (std::size_t k = 0; k < kShards; ++k) {
    if (!sc.journals[k].empty()) {
      write_disk(core::shard_file_path(dir.path() / "journal.wal", k),
                 sc.journals[k]);
    }
    if (!sc.checkpoints[k].empty()) {
      write_disk(core::shard_file_path(dir.path() / "metadata.bin", k),
                 sc.checkpoints[k]);
    }
  }
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  for (std::size_t p = 0; p < sc.providers.size(); ++p) {
    for (const auto& [id, bytes] : sc.providers[p]) {
      ASSERT_TRUE(registry.at(p).put(id, bytes).ok());
    }
  }

  Result<core::PlaneRecovery> recovered = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();

  std::vector<std::shared_ptr<core::MetadataStore>> stores;
  stores.reserve(kShards);
  for (auto& s : recovered.value().shards) stores.push_back(s.metadata);
  core::DistributorConfig config = base_config(0xFE11BACC);
  config.plane = open_plane(dir.path(), kShards, std::move(stores));
  core::CloudDataDistributor cdd(registry, config);
  Result<core::CloudDataDistributor::ReconcileReport> report =
      cdd.reconcile(recovered.value().in_flight);
  ASSERT_TRUE(report.ok()) << report.status().to_string();

  for (const std::string& file : universe) {
    Result<Bytes> got = cdd.get_file("alice", "pw", file);
    auto want = sc.expected.find(file);
    if (want != sc.expected.end()) {
      ASSERT_TRUE(got.ok()) << file << ": " << got.status().to_string();
      EXPECT_TRUE(equal(got.value(), want->second)) << file;
    } else if (auto maybe = sc.indeterminate.find(file);
               maybe != sc.indeterminate.end()) {
      if (got.ok()) {
        bool matched = false;
        for (const Bytes& candidate : maybe->second) {
          if (equal(got.value(), candidate)) matched = true;
        }
        EXPECT_TRUE(matched) << file << " recovered to torn bytes";
      }
    } else {
      EXPECT_FALSE(got.ok()) << file << " should not have survived";
    }
  }

  // Zero orphans, plane-wide: the referenced set is the union over every
  // partition's chunk table.
  std::set<std::pair<ProviderIndex, VirtualId>> referenced;
  const MetadataPlane& plane = *cdd.plane();
  for (std::size_t s = 0; s < plane.shard_count(); ++s) {
    for (const core::ChunkEntry& entry : plane.store(s).chunk_table()) {
      if (entry.deleted) continue;
      for (const core::ShardLocation& loc : entry.stripe) {
        referenced.insert({loc.provider, loc.virtual_id});
      }
      for (const core::ShardLocation& loc : entry.snapshot) {
        referenced.insert({loc.provider, loc.virtual_id});
      }
    }
  }
  for (std::size_t p = 0; p < registry.size(); ++p) {
    for (VirtualId id : registry.at(p).list_ids()) {
      EXPECT_TRUE(referenced.count({static_cast<ProviderIndex>(p), id}))
          << "orphan object " << id << " at provider " << p;
    }
  }

  // Idempotence: recovering the recovered world is a no-op.
  Result<core::PlaneRecovery> second = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().in_flight.empty());
  Result<core::CloudDataDistributor::ReconcileReport> again =
      cdd.reconcile(second.value().in_flight);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().orphans_removed, 0u);
  EXPECT_EQ(again.value().stale_ids, 0u);
  EXPECT_EQ(again.value().aborted_files, 0u);
}

TEST(ShardPlaneCrashTest, SweepEveryAppendBoundary) {
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  PlaneCrashRecorder recorder(dir.path(), &registry);

  const Bytes f1 = payload_of(9000, 1);
  const Bytes f2 = payload_of(5000, 2);
  const Bytes f3 = payload_of(7000, 3);
  const std::set<std::string> universe = {"f1", "f2", "f3"};
  Bytes f1_updated;

  {
    core::DistributorConfig config = base_config(0x5EED);
    config.plane = open_plane(dir.path(), kShards);
    recorder.install(*config.plane);
    core::CloudDataDistributor cdd(registry, config);

    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kModerate).ok());
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;

    recorder.will_write("f1", f1);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f1", f1, opts).ok());
    recorder.will_write("f2", f2);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f2", f2, opts).ok());
    recorder.will_write("f3", f3);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f3", f3, opts).ok());

    Result<Bytes> chunk0 = cdd.get_chunk("alice", "pw", "f1", 0);
    ASSERT_TRUE(chunk0.ok());
    const std::size_t span = chunk0.value().size();
    ASSERT_GT(span, 0u);
    ASSERT_LT(span, f1.size());
    const Bytes fresh = payload_of(span, 11);
    f1_updated = fresh;
    f1_updated.insert(f1_updated.end(), f1.begin() + span, f1.end());
    recorder.will_write("f1", f1_updated);
    ASSERT_TRUE(cdd.update_chunk("alice", "pw", "f1", 0, fresh).ok());

    ASSERT_TRUE(cdd.remove_file("alice", "pw", "f2").ok());

    Result<Bytes> live_f1 = cdd.get_file("alice", "pw", "f1");
    ASSERT_TRUE(live_f1.ok());
    ASSERT_TRUE(equal(live_f1.value(), f1_updated));
  }

  // Every append boundary on every shard, captured before and after: the
  // provider-broadcast fan-out (12 providers x 4 journals from the ctor)
  // plus client broadcasts plus the per-file records on their owning
  // shards. The sweep must hold at each one.
  const std::vector<PlaneScenario>& scenarios = recorder.scenarios();
  // ctor broadcast 12*4 + client/password broadcast 2*4 + 3 puts
  // (begin+commit) + update + remove = 64 appends, before+after each.
  ASSERT_EQ(scenarios.size(), 128u);
  for (const PlaneScenario& sc : scenarios) {
    verify_plane_recovery(sc, universe);
  }

  // Torn-tail variants: a crash mid-frame on ONE shard's journal while the
  // other shards are intact -- the torn shard truncates its partial record
  // and the plane must still converge.
  std::size_t torn_checked = 0;
  for (std::size_t i = 0; i + 1 < scenarios.size() && torn_checked < 16;
       i += 2) {
    const PlaneScenario& before = scenarios[i];
    const PlaneScenario& after = scenarios[i + 1];
    for (std::size_t k = 0; k < kShards && torn_checked < 16; ++k) {
      if (after.journals[k].size() <= before.journals[k].size()) continue;
      const std::size_t frame =
          after.journals[k].size() - before.journals[k].size();
      for (std::size_t cut : {std::size_t{1}, frame / 2, frame - 1}) {
        if (cut == 0 || cut >= frame) continue;
        PlaneScenario torn = before;
        torn.label = before.label + " shard " + std::to_string(k) + " torn+" +
                     std::to_string(cut);
        torn.journals[k].insert(
            torn.journals[k].end(),
            after.journals[k].begin() + before.journals[k].size(),
            after.journals[k].begin() + before.journals[k].size() + cut);
        verify_plane_recovery(torn, universe);
        ++torn_checked;
      }
    }
  }
  EXPECT_GE(torn_checked, 9u);
}

TEST(ShardPlaneCrashTest, ConcurrentAppendsToDifferentShards) {
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kFilesPerWriter = 4;
  std::set<std::string> universe;
  std::map<std::string, Bytes> contents;
  for (std::size_t t = 0; t < kWriters; ++t) {
    for (std::size_t f = 0; f < kFilesPerWriter; ++f) {
      const std::string name =
          "w" + std::to_string(t) + "_" + std::to_string(f);
      universe.insert(name);
      contents[name] = payload_of(2000 + 97 * f, 1000 * t + f);
    }
  }

  // Sampled snapshots while 4 writers append to their owning shards
  // concurrently: each captured instant is a plausible whole-plane crash
  // state with different shards mid-record. Committed-set tracking is
  // confirmed only after put_file returns, so `expected` is a lower bound
  // and everything begun-but-unconfirmed verifies as indeterminate.
  std::mutex mu;
  std::vector<PlaneScenario> scenarios;
  std::map<std::string, Bytes> committed;
  std::set<std::string> begun;
  std::atomic<std::uint64_t> appends{0};

  core::DistributorConfig config = base_config(0xC0FFEE);
  config.plane = open_plane(dir.path(), kShards);
  MetadataPlane& plane = *config.plane;
  core::CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kModerate).ok());

  auto snapshot = [&](const std::string& label) {
    // mu_ held by caller. Reading another shard's journal while its owner
    // appends is exactly what a crash exposes: a possibly-torn tail the
    // recovery path must absorb.
    PlaneScenario s;
    s.label = label;
    for (std::size_t k = 0; k < kShards; ++k) {
      s.journals[k] =
          read_disk(core::shard_file_path(dir.path() / "journal.wal", k));
      s.checkpoints[k] =
          read_disk(core::shard_file_path(dir.path() / "metadata.bin", k));
    }
    s.providers.resize(registry.size());
    for (std::size_t p = 0; p < registry.size(); ++p) {
      const storage::MemoryStore& store = registry.at(p).raw_store();
      for (VirtualId id : store.list_ids()) {
        Result<Bytes> obj = store.get(id);
        if (obj.ok()) s.providers[p][id] = std::move(obj).value();
      }
    }
    s.expected = committed;
    for (const std::string& file : begun) {
      if (s.expected.count(file)) continue;
      s.indeterminate[file].push_back(contents[file]);
    }
    return s;
  };
  for (std::size_t k = 0; k < kShards; ++k) {
    plane.journal(k)->test_hook_before_append =
        [&, k](const JournalRecord&) {
          const std::uint64_t n =
              appends.fetch_add(1, std::memory_order_relaxed);
          if (n % 7 != 3) return;  // sample ~1/7 of the boundaries
          std::lock_guard<std::mutex> lock(mu);
          scenarios.push_back(snapshot(
              "concurrent #" + std::to_string(n) + " at shard " +
              std::to_string(k)));
        };
  }

  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (std::size_t f = 0; f < kFilesPerWriter; ++f) {
        const std::string name =
            "w" + std::to_string(t) + "_" + std::to_string(f);
        {
          std::lock_guard<std::mutex> lock(mu);
          begun.insert(name);
        }
        ASSERT_TRUE(
            cdd.put_file("alice", "pw", name, contents[name], opts).ok());
        std::lock_guard<std::mutex> lock(mu);
        committed[name] = contents[name];
      }
    });
  }
  for (std::thread& th : writers) th.join();

  ASSERT_GE(scenarios.size(), 4u);
  for (const PlaneScenario& sc : scenarios) {
    verify_plane_recovery(sc, universe);
  }
  // The finished world also recovers exactly.
  std::lock_guard<std::mutex> lock(mu);
  PlaneScenario final_state = snapshot("after all writers");
  EXPECT_EQ(final_state.expected.size(), kWriters * kFilesPerWriter);
  verify_plane_recovery(final_state, universe);
}

// --- TSan hammer ------------------------------------------------------------

// 8 front-ends x 64 clients of mixed put/get/update, every op crossing
// shard boundaries through the shared plane. Run under
// -DCSHIELD_SANITIZE=thread in CI; here it also asserts correctness.
TEST(ShardPlaneHammerTest, MixedOpsAcrossFrontEndsAndShards) {
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  core::DistributorGroup group(registry, base_config(0x4A33), 8, kShards);

  constexpr std::size_t kClients = 64;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  std::atomic<std::size_t> failures{0};
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      const std::string client = "hammer" + std::to_string(t);
      auto check = [&](bool ok) {
        if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      };
      check(group.register_client(client).ok());
      check(group.add_password(client, "pw", PrivacyLevel::kModerate).ok());
      core::PutOptions opts;
      opts.privacy_level = PrivacyLevel::kModerate;
      const Bytes a = payload_of(2048, 2 * t);
      const Bytes b = payload_of(3072, 2 * t + 1);
      check(group.put_file(client, "pw", "a", a, opts).ok());
      check(group.put_file(client, "pw", "b", b, opts).ok());
      Result<Bytes> got = group.get_file(client, "pw", "a");
      check(got.ok() && equal(got.value(), a));
      Result<Bytes> chunk = group.get_chunk(client, "pw", "b", 0);
      if (chunk.ok() && !chunk.value().empty() &&
          chunk.value().size() < b.size()) {
        const Bytes fresh = payload_of(chunk.value().size(), 9000 + t);
        check(group.update_chunk(client, "pw", "b", 0, fresh).ok());
        Bytes expected = fresh;
        expected.insert(expected.end(), b.begin() + fresh.size(), b.end());
        Result<Bytes> after = group.get_file(client, "pw", "b");
        check(after.ok() && equal(after.value(), expected));
      } else {
        check(chunk.ok());
      }
      check(group.remove_file(client, "pw", "a").ok());
      check(!group.get_file(client, "pw", "a").ok());
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);

  // Every client's surviving file is intact and the namespace is really
  // spread over the partitions.
  for (std::size_t t = 0; t < kClients; ++t) {
    Result<std::vector<core::CloudDataDistributor::FileInfo>> files =
        group.list_files("hammer" + std::to_string(t), "pw");
    ASSERT_TRUE(files.ok());
    EXPECT_EQ(files.value().size(), 1u);
  }
  std::size_t populated = 0;
  for (std::size_t s = 0; s < group.plane()->shard_count(); ++s) {
    if (group.plane()->store(s).total_chunks() > 0) ++populated;
  }
  EXPECT_GT(populated, 1u);
}

}  // namespace
}  // namespace cshield
