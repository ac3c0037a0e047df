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

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/metadata_io.hpp"
#include "core/metadata_plane.hpp"
#include "core/migrator.hpp"
#include "core/multi_distributor.hpp"
#include "storage/provider_registry.hpp"
#include "util/hash.hpp"
#include "util/wire.hpp"

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

/// The client and provider rows of one partition, down to name, PL, CL
/// and lifecycle (virtual-id sets are chunk bookkeeping, not fleet rows).
struct PartitionRows {
  std::vector<std::tuple<std::string, PrivacyLevel, CostLevel,
                         ProviderLifecycle>>
      providers;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, PrivacyLevel>>>>
      clients;

  explicit PartitionRows(const core::MetadataStore& store) {
    for (const core::ProviderEntry& p : store.provider_table()) {
      providers.emplace_back(p.name, p.privacy_level, p.cost_level,
                             p.lifecycle);
    }
    for (const core::ClientEntry& c : store.client_table()) {
      clients.emplace_back(c.name, c.passwords);
    }
  }
  bool operator==(const PartitionRows& o) const {
    return providers == o.providers && clients == o.clients;
  }
};

std::vector<std::size_t> record_counts(const MetadataPlane& plane) {
  std::vector<std::size_t> out;
  for (std::size_t k = 0; k < plane.shard_count(); ++k) {
    out.push_back(plane.journal(k)->record_count());
  }
  return out;
}

storage::ProviderDescriptor joiner_descriptor() {
  storage::ProviderDescriptor d;
  d.name = "Joiner";
  d.privacy_level = PrivacyLevel::kHigh;
  d.cost_level = CostLevel::kCheap;
  return d;
}

TEST(PlaneRecoveryTest, LiveBroadcastRowsMatchReplay) {
  using core::MigrationKind;
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  std::shared_ptr<MetadataPlane> plane = open_plane(dir.path(), kShards);
  std::vector<PartitionRows> live;
  {
    core::DistributorConfig config = base_config(0xB0A7);
    config.plane = plane;
    core::CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.register_client("bob").ok());
    ASSERT_TRUE(cdd.add_password("alice", "a-hi", PrivacyLevel::kHigh).ok());
    ASSERT_TRUE(cdd.add_password("alice", "a-lo", PrivacyLevel::kLow).ok());
    ASSERT_TRUE(cdd.add_password("bob", "b", PrivacyLevel::kModerate).ok());

    // A rejected op answers from its guard and journals nothing.
    const std::vector<std::size_t> before = record_counts(*plane);
    EXPECT_EQ(cdd.register_client("alice").code(), ErrorCode::kAlreadyExists);
    EXPECT_EQ(cdd.add_password("alice", "a-hi", PrivacyLevel::kLow).code(),
              ErrorCode::kAlreadyExists);
    EXPECT_EQ(cdd.add_password("carol", "c", PrivacyLevel::kLow).code(),
              ErrorCode::kNotFound);
    EXPECT_EQ(record_counts(*plane), before);

    Result<ProviderIndex> joiner = cdd.add_provider(joiner_descriptor());
    ASSERT_TRUE(joiner.ok()) << joiner.status().to_string();
    const ProviderIndex j = joiner.value();
    const ProviderIndex retiree = 3;
    ASSERT_TRUE(cdd.begin_migration(MigrationKind::kJoin, j).ok());
    ASSERT_TRUE(cdd.commit_migration(MigrationKind::kJoin, j).ok());
    ASSERT_TRUE(cdd.begin_migration(MigrationKind::kDrain, retiree).ok());
    ASSERT_TRUE(cdd.commit_migration(MigrationKind::kDrain, retiree).ok());
    ASSERT_TRUE(
        cdd.begin_migration(MigrationKind::kDecommission, retiree).ok());
    ASSERT_TRUE(
        cdd.commit_migration(MigrationKind::kDecommission, retiree).ok());

    for (std::size_t k = 0; k < kShards; ++k) {
      live.emplace_back(plane->store(k));
    }
    // Every partition holds the same rows, and they say what the ops did.
    for (std::size_t k = 1; k < kShards; ++k) EXPECT_TRUE(live[k] == live[0]);
    ASSERT_EQ(live[0].providers.size(), kProviders + 1);
    EXPECT_EQ(std::get<3>(live[0].providers[j]), ProviderLifecycle::kActive);
    EXPECT_EQ(std::get<0>(live[0].providers[j]), "Joiner");
    EXPECT_EQ(std::get<3>(live[0].providers[retiree]),
              ProviderLifecycle::kDecommissioned);
    ASSERT_EQ(live[0].clients.size(), 2u);
    EXPECT_EQ(live[0].clients[0].second.size(), 2u);
  }
  plane.reset();
  Result<core::PlaneRecovery> rec = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  for (std::size_t k = 0; k < kShards; ++k) {
    EXPECT_TRUE(PartitionRows(*rec.value().shards[k].metadata) == live[k])
        << "partition " << k;
  }
}

TEST(PlaneRecoveryTest, FreshDistributorRestoresAPartitionsMissingRow) {
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  // Durable images at the moment the last partition's journal was about
  // to take the joiner's row: partitions 0..2 have it, partition 3 not.
  std::array<Bytes, kShards> cut;
  {
    core::DistributorConfig config = base_config(0x5407);
    config.plane = open_plane(dir.path(), kShards);
    core::CloudDataDistributor cdd(registry, config);
    const fs::path jpath = dir.path() / "journal.wal";
    config.plane->journal(kShards - 1)->test_hook_before_append =
        [&](const JournalRecord& rec) {
          if (rec.op != JournalOp::kRegisterProvider) return;
          for (std::size_t k = 0; k < kShards; ++k) {
            cut[k] = read_disk(core::shard_file_path(jpath, k));
          }
        };
    ASSERT_TRUE(cdd.add_provider(joiner_descriptor()).ok());
  }
  for (std::size_t k = 0; k < kShards; ++k) {
    ASSERT_FALSE(cut[k].empty());
    write_disk(core::shard_file_path(dir.path() / "journal.wal", k), cut[k]);
  }
  auto recover = [&] {
    Result<core::PlaneRecovery> rec = core::recover_plane(
        dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
    CS_REQUIRE(rec.ok(), rec.status().to_string());
    std::vector<std::shared_ptr<core::MetadataStore>> stores;
    for (auto& s : rec.value().shards) stores.push_back(s.metadata);
    return stores;
  };
  std::vector<std::shared_ptr<core::MetadataStore>> stores = recover();
  EXPECT_EQ(stores[0]->provider_count(), kProviders + 1);
  EXPECT_EQ(stores[kShards - 1]->provider_count(), kProviders);
  {
    core::DistributorConfig config = base_config(0x5408);
    config.plane = open_plane(dir.path(), kShards, std::move(stores));
    core::CloudDataDistributor cdd(registry, config);
    for (std::size_t k = 0; k < kShards; ++k) {
      EXPECT_TRUE(PartitionRows(config.plane->store(k)) ==
                  PartitionRows(config.plane->store(0)))
          << "partition " << k;
    }
  }
  // The healed row is journaled to the short partition's own WAL.
  stores = recover();
  const PartitionRows want(*stores[0]);
  ASSERT_EQ(want.providers.size(), kProviders + 1);
  EXPECT_EQ(std::get<0>(want.providers[kProviders]), "Joiner");
  EXPECT_EQ(std::get<3>(want.providers[kProviders]),
            ProviderLifecycle::kJoining);
  for (std::size_t k = 1; k < kShards; ++k) {
    EXPECT_TRUE(PartitionRows(*stores[k]) == want) << "partition " << k;
  }
}

TEST(PlaneRecoveryTest, ConcurrentJoinsKeepRegistryOrder) {
  // A provider row's index is its registry index, and replay refuses a
  // gap, so racing add_provider calls must reach every partition and
  // every journal in registry order.
  constexpr int kRounds = 40;
  constexpr int kJoiners = 4;
  for (int round = 0; round < kRounds; ++round) {
    TempDir dir;
    storage::ProviderRegistry registry = storage::make_default_registry(4);
    std::vector<PartitionRows> live;
    {
      core::DistributorConfig config = base_config(0x701 + round);
      config.plane = open_plane(dir.path(), 2);
      core::CloudDataDistributor cdd(registry, config);
      std::atomic<int> failed{0};
      std::vector<std::thread> joiners;
      for (int t = 0; t < kJoiners; ++t) {
        joiners.emplace_back([&cdd, &failed, t] {
          storage::ProviderDescriptor d = joiner_descriptor();
          d.name += std::to_string(t);
          if (!cdd.add_provider(d).ok()) failed.fetch_add(1);
        });
      }
      for (std::thread& t : joiners) t.join();
      ASSERT_EQ(failed.load(), 0) << "round " << round;
      for (std::size_t k = 0; k < 2; ++k) {
        live.emplace_back(config.plane->store(k));
      }
      for (std::size_t k = 0; k < 2; ++k) {
        ASSERT_EQ(live[k].providers.size(), registry.size());
        for (ProviderIndex i = 0; i < registry.size(); ++i) {
          ASSERT_EQ(std::get<0>(live[k].providers[i]),
                    registry.at(i).descriptor().name)
              << "round " << round << " partition " << k;
        }
      }
    }
    Result<core::PlaneRecovery> rec = core::recover_plane(
        dir.path() / "metadata.bin", dir.path() / "journal.wal", 2);
    ASSERT_TRUE(rec.ok()) << "round " << round << ": "
                          << rec.status().to_string();
    for (std::size_t k = 0; k < 2; ++k) {
      ASSERT_TRUE(PartitionRows(*rec.value().shards[k].metadata) == live[k])
          << "round " << round << " partition " << k;
    }
  }
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
  // ctor broadcast 12*4 + client/password broadcast 2*4 + 3 puts (one
  // commit each) + update + remove = 61 appends, before+after each.
  ASSERT_EQ(scenarios.size(), 122u);
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

  // One journal record per put: 32 puts give 32 append boundaries, of
  // which the sampler below keeps 5.
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kFilesPerWriter = 8;
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

// --- provider tables equal the union of row references ----------------------

/// Per provider, a set of virtual ids.
using Placements = std::vector<std::set<VirtualId>>;

/// The ids `store`'s live rows reference, stripe and snapshot.
Placements row_placements(const core::MetadataStore& store,
                          std::size_t providers) {
  Placements out(providers);
  for (const core::ChunkEntry& row : store.chunk_table()) {
    for (const auto* stripe : {&row.stripe, &row.snapshot}) {
      for (const core::ShardLocation& loc : *stripe) {
        out.at(loc.provider).insert(loc.virtual_id);
      }
    }
  }
  return out;
}

/// The ids `store`'s Cloud Provider Table lists.
Placements table_placements(const core::MetadataStore& store) {
  Placements out;
  for (const core::ProviderEntry& p : store.provider_table()) {
    out.emplace_back(p.virtual_ids.begin(), p.virtual_ids.end());
  }
  return out;
}

/// The objects the providers hold.
Placements stored_objects(const storage::ProviderRegistry& registry) {
  Placements out(registry.size());
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    for (VirtualId id : registry.at(p).list_ids()) out[p].insert(id);
  }
  return out;
}

/// Checks every partition's tables against its own rows, and returns the
/// plane-wide union of the rows' references.
Placements expect_tables_equal_rows(
    const std::vector<const core::MetadataStore*>& partitions,
    std::size_t providers) {
  Placements all(providers);
  for (std::size_t k = 0; k < partitions.size(); ++k) {
    const Placements rows = row_placements(*partitions[k], providers);
    EXPECT_EQ(table_placements(*partitions[k]), rows) << "partition " << k;
    for (std::size_t p = 0; p < providers; ++p) {
      all[p].insert(rows[p].begin(), rows[p].end());
    }
  }
  return all;
}

/// Write-through mirror whose first put blocks until release(): it holds
/// one shard put of a live write in flight.
class BlockingMirror final : public storage::ObjectStore {
 public:
  /// One gate shared by every provider's mirror: the first put anywhere
  /// blocks.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool armed = true;
    bool holding = false;
    bool released = false;

    void wait_holding() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return holding; });
    }
    void release() {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
      cv.notify_all();
    }
  };

  explicit BlockingMirror(Gate& gate) : gate_(gate) {}

  Status put(VirtualId id, BytesView data) override {
    {
      std::unique_lock<std::mutex> lock(gate_.mu);
      if (gate_.armed) {
        gate_.armed = false;
        gate_.holding = true;
        gate_.cv.notify_all();
        gate_.cv.wait(lock, [this] { return gate_.released; });
      }
    }
    return inner_.put(id, data);
  }
  std::vector<Status> put_many(
      const std::vector<storage::BatchPut>& batch) override {
    std::vector<Status> out;
    for (const storage::BatchPut& item : batch) {
      out.push_back(put(item.id, item.data));
    }
    return out;
  }
  [[nodiscard]] Result<Bytes> get(VirtualId id) const override {
    return inner_.get(id);
  }
  Status remove(VirtualId id) override { return inner_.remove(id); }
  [[nodiscard]] bool contains(VirtualId id) const override {
    return inner_.contains(id);
  }
  [[nodiscard]] std::size_t object_count() const override {
    return inner_.object_count();
  }
  [[nodiscard]] std::size_t bytes_stored() const override {
    return inner_.bytes_stored();
  }
  [[nodiscard]] std::vector<VirtualId> list_ids() const override {
    return inner_.list_ids();
  }

 private:
  Gate& gate_;
  storage::MemoryStore inner_;
};

TEST(ShardPlaneTest, InFlightPutPlacesNothingInItsPartitionImage) {
  // A put's shards enter the provider tables with its rows, never before:
  // while one shard put of a multi-chunk put is held, a checkpoint image
  // of the owning partition lists exactly its rows' references.
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  BlockingMirror::Gate gate;
  std::vector<std::unique_ptr<BlockingMirror>> mirrors;
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    mirrors.push_back(std::make_unique<BlockingMirror>(gate));
  }
  core::DistributorConfig config = base_config(0x1F11);
  config.plane = MetadataPlane::make_in_memory(kShards);
  core::CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kModerate).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  ASSERT_TRUE(cdd.put_file("alice", "pw", "done", payload_of(8192, 1), opts)
                  .ok());
  const Placements committed = stored_objects(registry);

  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    registry.at(p).set_mirror(mirrors[p].get());
  }
  const Bytes data = payload_of(8 * 4096, 2);  // eight 4 KiB PL2 chunks
  Status put_status = Status::Internal("put never returned");
  std::thread put([&] {
    put_status = cdd.put_file("alice", "pw", "in-flight", data, opts);
  });
  gate.wait_holding();
  // Every other shard of the put lands while the held one waits (the
  // held one is in memory already: the mirror is written after it), and
  // each finished stripe gets time to return to its seal.
  std::size_t shards = 8 * (config.stripe_data_shards + 1);  // RAID-5
  for (const auto& ids : committed) shards += ids.size();
  for (int spin = 0; spin < 2000; ++spin) {
    std::size_t held = 0;
    for (const auto& ids : stored_objects(registry)) held += ids.size();
    if (held == shards) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const std::size_t owner = config.plane->shard_of("alice", "in-flight");
  Result<std::shared_ptr<core::MetadataStore>> image =
      core::deserialize_metadata(
          core::serialize_metadata(config.plane->store(owner)));
  gate.release();
  put.join();
  ASSERT_TRUE(image.ok()) << image.status().to_string();
  ASSERT_TRUE(put_status.ok()) << put_status.to_string();

  const Placements tables = table_placements(*image.value());
  EXPECT_EQ(tables, row_placements(*image.value(), registry.size()));
  const Placements in_flight = stored_objects(registry);
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    for (VirtualId id : in_flight[p]) {
      if (committed[p].count(id) != 0) continue;
      EXPECT_EQ(tables[p].count(id), 0u)
          << "in-flight shard " << id << " at provider " << p;
    }
  }
  // Committed, the partition's tables equal its rows, the put's included.
  expect_tables_equal_rows({&config.plane->store(owner)}, registry.size());
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    registry.at(p).set_mirror(nullptr);
  }
}

TEST(ShardPlaneTest, ThreadedMixKeepsProviderTablesEqualToRows) {
  // Client puts, updates and removes on 4 threads race a drain across a
  // 4-shard plane. With no reconcile pass, every partition's provider
  // tables equal its rows' references, the plane-wide union equals the
  // objects the providers hold, and recovery rebuilds the same tables.
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 6;
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  std::shared_ptr<MetadataPlane> plane = open_plane(dir.path(), kShards);
  Placements live;
  {
    core::DistributorConfig config = base_config(0x7AB1);
    config.plane = plane;
    core::CloudDataDistributor cdd(registry, config);
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    for (std::size_t t = 0; t < kThreads; ++t) {
      const std::string client = "mix" + std::to_string(t);
      ASSERT_TRUE(cdd.register_client(client).ok());
      ASSERT_TRUE(
          cdd.add_password(client, "pw", PrivacyLevel::kModerate).ok());
      for (int f = 0; f < 2; ++f) {
        ASSERT_TRUE(cdd.put_file(client, "pw", "seed" + std::to_string(f),
                                 payload_of(8192, 100 * t + f), opts)
                        .ok());
      }
    }

    // Drain the provider that holds the most shards, slowly enough that
    // the client ops interleave with its moves.
    const Placements seeded = stored_objects(registry);
    ProviderIndex subject = 0;
    for (ProviderIndex p = 1; p < registry.size(); ++p) {
      if (seeded[p].size() > seeded[subject].size()) subject = p;
    }
    core::Migrator::Config mconfig;
    mconfig.stripes_per_sec = 400.0;
    mconfig.max_in_flight = 2;
    core::Migrator migrator(cdd, mconfig);
    migrator.start(core::MigrationKind::kDrain, subject);
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::string client = "mix" + std::to_string(t);
        auto check = [&](const Status& st) {
          if (!st.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        };
        for (int r = 0; r < kRounds; ++r) {
          const std::string file = "f" + std::to_string(r);
          check(cdd.put_file(client, "pw", file,
                             payload_of(4096 * (1 + r % 3), 1000 * t + r),
                             opts));
          check(cdd.update_chunk(client, "pw", "seed" + std::to_string(r % 2),
                                 r % 2, payload_of(2048, 5000 * t + r)));
          if (r % 2 == 1) {
            check(cdd.remove_file(client, "pw", "f" + std::to_string(r - 1)));
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
    Result<core::Migrator::Report> drained = migrator.wait();
    ASSERT_TRUE(drained.ok() ||
                drained.status().code() == ErrorCode::kResourceExhausted)
        << drained.status().to_string();
    EXPECT_GT(migrator.progress().shards_moved, 0u);
    EXPECT_EQ(failures.load(), 0u);

    std::vector<const core::MetadataStore*> partitions;
    for (std::size_t k = 0; k < kShards; ++k) {
      partitions.push_back(&plane->store(k));
    }
    live = expect_tables_equal_rows(partitions, registry.size());
    EXPECT_EQ(live, stored_objects(registry));
    Placements plane_table;
    for (const core::ProviderEntry& p : plane->provider_table()) {
      plane_table.emplace_back(p.virtual_ids.begin(), p.virtual_ids.end());
    }
    EXPECT_EQ(plane_table, live);
    std::size_t populated = 0;
    for (const core::MetadataStore* part : partitions) {
      if (part->total_chunks() > 0) ++populated;
    }
    EXPECT_GT(populated, 1u);
  }
  plane.reset();
  Result<core::PlaneRecovery> rec = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  std::vector<const core::MetadataStore*> recovered;
  for (const auto& shard : rec.value().shards) {
    recovered.push_back(shard.metadata.get());
  }
  EXPECT_EQ(expect_tables_equal_rows(recovered, registry.size()), live);
}

// --- live rows equal replayed rows -------------------------------------------

/// One partition in comparable form: each chunk row in its wire encoding,
/// each client's refs, and the provider tables.
struct PartitionImage {
  std::vector<Bytes> rows;
  std::vector<std::pair<std::string,
                        std::vector<std::tuple<std::string, std::uint64_t,
                                               std::uint64_t>>>>
      refs;
  Placements tables;

  explicit PartitionImage(const core::MetadataStore& store)
      : tables(table_placements(store)) {
    for (const core::ChunkEntry& row : store.chunk_table()) {
      Bytes wire;
      wire::Writer w(wire);
      core::write_chunk_entry(w, row);
      rows.push_back(std::move(wire));
    }
    for (const core::ClientEntry& c : store.client_table()) {
      auto& out = refs.emplace_back(c.name, decltype(refs)::value_type::
                                                second_type{});
      for (const core::ChunkRef& r : c.chunks) {
        out.second.emplace_back(r.filename, r.serial, r.chunk_index);
      }
    }
  }
};

/// Compares `replayed` with `live` row by row, then refs and tables.
void expect_same_partition(const PartitionImage& live,
                           const PartitionImage& replayed, std::size_t k) {
  SCOPED_TRACE("partition " + std::to_string(k));
  ASSERT_EQ(replayed.rows.size(), live.rows.size());
  for (std::size_t i = 0; i < live.rows.size(); ++i) {
    EXPECT_TRUE(replayed.rows[i] == live.rows[i]) << "row " << i;
  }
  EXPECT_TRUE(replayed.refs == live.refs);
  EXPECT_EQ(replayed.tables, live.tables);
}

TEST(ShardPlaneTest, LiveRowsEqualReplayedRowsAfterAConcurrentMix) {
  // Two front-ends share a journaled 4-shard plane. Updaters rewrite hot
  // one-chunk files while a background drain moves their shards off the
  // drained provider, other threads put and remove files, and one
  // client's remove_file races its put_file of the same name. Every
  // commit applies and journals under its partition's commit step, so the
  // journal order is the apply order: recovery must rebuild every
  // partition exactly -- rows, refs and provider tables.
  //
  // A drained provider takes no new shards, so an update only races the
  // drain while its row still holds a shard there: each updater rewrites
  // its hot row from just before the drain starts until the row holds no
  // such shard, and never again after -- a later update would paper over
  // a misordered record.
  constexpr std::size_t kHot = 8;
  constexpr std::size_t kMixers = 2;
  constexpr int kMinRounds = 6;
  constexpr int kMaxRounds = 200;
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  std::shared_ptr<MetadataPlane> plane = open_plane(dir.path(), kShards);
  std::vector<PartitionImage> live;
  {
    std::vector<std::unique_ptr<core::CloudDataDistributor>> fronts;
    for (std::uint64_t seed : {0x11FEull, 0x11FFull}) {
      core::DistributorConfig config = base_config(seed);
      config.plane = plane;
      fronts.push_back(
          std::make_unique<core::CloudDataDistributor>(registry, config));
    }
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    auto client_of = [](std::size_t t) { return "mix" + std::to_string(t); };
    for (std::size_t t = 0; t < kHot; ++t) {
      ASSERT_TRUE(fronts[0]->register_client(client_of(t)).ok());
      ASSERT_TRUE(fronts[0]
                      ->add_password(client_of(t), "pw",
                                     PrivacyLevel::kModerate)
                      .ok());
      ASSERT_TRUE(fronts[t % 2]
                      ->put_file(client_of(t), "pw", "hot",
                                 payload_of(2048, 100 + t), opts)
                      .ok());
    }
    // Cold files nobody updates: the drain always has shards to move.
    for (std::size_t t = 0; t < kHot; ++t) {
      ASSERT_TRUE(fronts[t % 2]
                      ->put_file(client_of(t), "pw", "cold",
                                 payload_of(8192, 200 + t), opts)
                      .ok());
    }
    // The hot rows were written first, so the drain visits them first.
    auto hot_row = [&](std::size_t t) {
      const std::size_t k = plane->shard_of(client_of(t), "hot");
      const std::optional<core::ChunkRef> ref =
          plane->store(k).find_chunk(client_of(t), "hot", 0);
      return plane->store(k).chunk_entry(ref->chunk_index).value();
    };
    auto holds_on = [](const core::ChunkEntry& row, ProviderIndex p) {
      for (const auto* stripe : {&row.stripe, &row.snapshot}) {
        for (const core::ShardLocation& loc : *stripe) {
          if (loc.provider == p) return true;
        }
      }
      return false;
    };
    // The subject holds the most hot-row shards among the providers that
    // hold cold ones too.
    const Placements seeded = stored_objects(registry);
    std::vector<std::size_t> hot_shards(registry.size());
    for (std::size_t t = 0; t < kHot; ++t) {
      for (const core::ShardLocation& loc : hot_row(t).stripe) {
        ++hot_shards[loc.provider];
      }
    }
    ProviderIndex subject = kNoProvider;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      if (seeded[p].size() > hot_shards[p] &&
          (subject == kNoProvider || hot_shards[p] > hot_shards[subject])) {
        subject = p;
      }
    }
    ASSERT_NE(subject, kNoProvider);
    ASSERT_GT(seeded[subject].size(), 0u);
    core::Migrator migrator(*fronts[0], core::Migrator::Config{0.0, 2});

    std::atomic<std::size_t> started{0};
    std::atomic<bool> draining{false};
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> contested_puts{0};
    auto check = [&](const Status& st) {
      if (!st.ok()) failures.fetch_add(1, std::memory_order_relaxed);
    };
    auto drain_running = [&] {
      return !draining.load() || migrator.progress().running;
    };
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kHot; ++t) {
      threads.emplace_back([&, t] {
        started.fetch_add(1);
        for (int r = 0; r < kMaxRounds && holds_on(hot_row(t), subject) &&
                        drain_running();
             ++r) {
          check(fronts[t % 2]->update_chunk(client_of(t), "pw", "hot", 0,
                                            payload_of(2048, 5000 * t + r)));
        }
      });
    }
    for (std::size_t m = 0; m < kMixers; ++m) {
      threads.emplace_back([&, m] {
        core::CloudDataDistributor& cdd = *fronts[m];
        for (int r = 0; r < kMaxRounds && (r < kMinRounds || drain_running());
             ++r) {
          const std::string file = "f" + std::to_string(r);
          check(cdd.put_file(client_of(m), "pw", file,
                             payload_of(4096 * (1 + r % 3), 1000 * m + r),
                             opts));
          if (r % 2 == 1) {
            check(cdd.remove_file(client_of(m), "pw",
                                  "f" + std::to_string(r - 1)));
          }
        }
      });
    }
    // One name, put through one front-end and removed through the other.
    threads.emplace_back([&] {
      for (int k = 0; k < 40; ++k) {
        const Status st = fronts[0]->put_file(
            client_of(2), "pw", "contested",
            payload_of(4096 * (1 + k % 3), 77 + k), opts);
        if (st.ok()) {
          contested_puts.fetch_add(1, std::memory_order_relaxed);
        } else if (st.code() != ErrorCode::kAlreadyExists) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    threads.emplace_back([&] {
      for (int k = 0; k < 40; ++k) {
        const Status st =
            fronts[1]->remove_file(client_of(2), "pw", "contested");
        if (!st.ok() && st.code() != ErrorCode::kNotFound) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    });
    while (started.load() < kHot) std::this_thread::yield();
    migrator.start(core::MigrationKind::kDrain, subject);
    draining.store(true);
    for (std::thread& th : threads) th.join();
    Result<core::Migrator::Report> drained = migrator.wait();
    ASSERT_TRUE(drained.ok() ||
                drained.status().code() == ErrorCode::kResourceExhausted)
        << drained.status().to_string();
    EXPECT_GT(migrator.progress().shards_moved, 0u);
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GT(contested_puts.load(), 0u);

    for (std::size_t k = 0; k < kShards; ++k) {
      live.emplace_back(plane->store(k));
    }
  }
  plane.reset();
  Result<core::PlaneRecovery> rec = core::recover_plane(
      dir.path() / "metadata.bin", dir.path() / "journal.wal", kShards);
  ASSERT_TRUE(rec.ok()) << rec.status().to_string();
  for (std::size_t k = 0; k < kShards; ++k) {
    expect_same_partition(live[k],
                          PartitionImage(*rec.value().shards[k].metadata), k);
  }
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
