// Durability tests: the disk-backed object store, metadata-table
// serialization, and a full distributor restart (new process = new
// CloudDataDistributor instance) against surviving providers.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <unistd.h>

#include "core/distributor.hpp"
#include "core/metadata_io.hpp"
#include "storage/disk_store.hpp"
#include "storage/provider.hpp"
#include "storage/provider_registry.hpp"

namespace cshield {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("cshield_test_" + std::to_string(::getpid()) + "_" +
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

Bytes payload_of(std::size_t n, std::uint64_t seed = 5) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// --- DiskStore ----------------------------------------------------------------

TEST(DiskStoreTest, PutGetRemoveRoundTrip) {
  TempDir dir;
  storage::DiskStore store(dir.path());
  const Bytes data = payload_of(5000);
  ASSERT_TRUE(store.put(0xABCD, data).ok());
  Result<Bytes> back = store.get(0xABCD);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), data));
  EXPECT_TRUE(store.contains(0xABCD));
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_EQ(store.bytes_stored(), 5000u);
  ASSERT_TRUE(store.remove(0xABCD).ok());
  EXPECT_FALSE(store.contains(0xABCD));
  EXPECT_EQ(store.remove(0xABCD).code(), ErrorCode::kNotFound);
}

TEST(DiskStoreTest, GetMissingIsNotFound) {
  TempDir dir;
  storage::DiskStore store(dir.path());
  EXPECT_EQ(store.get(1).status().code(), ErrorCode::kNotFound);
}

TEST(DiskStoreTest, OverwriteReplacesContent) {
  TempDir dir;
  storage::DiskStore store(dir.path());
  ASSERT_TRUE(store.put(7, to_bytes("old content")).ok());
  ASSERT_TRUE(store.put(7, to_bytes("new")).ok());
  EXPECT_EQ(to_string(store.get(7).value()), "new");
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(DiskStoreTest, SurvivesReopen) {
  TempDir dir;
  const Bytes data = payload_of(1234);
  {
    storage::DiskStore store(dir.path());
    ASSERT_TRUE(store.put(42, data).ok());
    ASSERT_TRUE(store.put(43, to_bytes("x")).ok());
  }
  storage::DiskStore reopened(dir.path());
  EXPECT_EQ(reopened.object_count(), 2u);
  EXPECT_TRUE(equal(reopened.get(42).value(), data));
  auto ids = reopened.list_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<VirtualId>{42, 43}));
}

TEST(DiskStoreTest, EmptyObjectRoundTrips) {
  TempDir dir;
  storage::DiskStore store(dir.path());
  ASSERT_TRUE(store.put(9, {}).ok());
  Result<Bytes> back = store.get(9);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(DiskStoreTest, LargeIdsMapToDistinctFiles) {
  TempDir dir;
  storage::DiskStore store(dir.path());
  const VirtualId a = 0xFFFFFFFFFFFFFFFEull;
  const VirtualId b = 0xFFFFFFFFFFFFFFFFull;
  ASSERT_TRUE(store.put(a, to_bytes("a")).ok());
  ASSERT_TRUE(store.put(b, to_bytes("b")).ok());
  EXPECT_EQ(to_string(store.get(a).value()), "a");
  EXPECT_EQ(to_string(store.get(b).value()), "b");
}

TEST(DiskStoreTest, BatchedPutPersistsEveryItemAcrossReopen) {
  TempDir dir;
  const Bytes a = payload_of(1500, 1);
  const Bytes b = payload_of(3000, 2);
  const Bytes c = payload_of(64, 3);
  {
    storage::DiskStore store(dir.path());
    const std::vector<Status> statuses =
        store.put_many({{21, a}, {22, b}, {23, c}});
    ASSERT_EQ(statuses.size(), 3u);
    for (const Status& st : statuses) EXPECT_TRUE(st.ok());
    const auto results = store.get_many({21, 22, 23, 24});
    ASSERT_EQ(results.size(), 4u);
    EXPECT_TRUE(equal(results[1].value(), b));
    EXPECT_EQ(results[3].status().code(), ErrorCode::kNotFound);
  }
  storage::DiskStore reopened(dir.path());
  EXPECT_EQ(reopened.object_count(), 3u);
  EXPECT_TRUE(equal(reopened.get(21).value(), a));
  EXPECT_TRUE(equal(reopened.get(23).value(), c));
}

TEST(ProviderMirrorTest, BatchedPutWritesThroughMirror) {
  TempDir dir;
  storage::DiskStore mirror(dir.path());
  storage::SimCloudProvider p(storage::ProviderDescriptor{
      "Mirrored", PrivacyLevel::kModerate, CostLevel::kCheap, 0.02});
  p.set_mirror(&mirror);
  const Bytes a = payload_of(900, 4);
  const Bytes b = payload_of(1800, 6);
  const std::vector<Status> statuses = p.put_many({{31, a}, {32, b}});
  ASSERT_EQ(statuses.size(), 2u);
  for (const Status& st : statuses) EXPECT_TRUE(st.ok());
  // The batch is durable the moment it returns: the mirror holds both
  // objects byte-for-byte.
  EXPECT_EQ(mirror.object_count(), 2u);
  EXPECT_TRUE(equal(mirror.get(31).value(), a));
  EXPECT_TRUE(equal(mirror.get(32).value(), b));
}

// --- metadata serialization ------------------------------------------------------

void populate_store(core::MetadataStore& meta) {
  meta.register_provider("Adobe", PrivacyLevel::kHigh, CostLevel::kPremium);
  meta.register_provider("Sea", PrivacyLevel::kLow, CostLevel::kCheap);
  meta.record_placement(0, 41367);
  meta.record_placement(1, 10986);
  (void)meta.register_client("Bob");
  (void)meta.add_password("Bob", "x9pr", PrivacyLevel::kLow);
  (void)meta.add_password("Bob", "Ty7e", PrivacyLevel::kHigh);
  core::ChunkEntry entry;
  entry.privacy_level = PrivacyLevel::kModerate;
  entry.layout = raid::StripeLayout::make(raid::RaidLevel::kRaid5, 3);
  entry.stripe = {{0, 41367}, {1, 10986}, {0, 222}, {1, 333}};
  entry.misleading = {12, 32, 57};
  entry.padded_size = 4096;
  entry.shard_digests.assign(4, crypto::sha256(to_bytes("shard")));
  entry.protection = ProtectionMode::kFragmentation;
  entry.protect_nonce = 0xF4A6E57A61EULL;
  entry.protect_bytes = 4096;
  entry.has_snapshot = true;
  entry.snapshot = {{1, 900}, {0, 901}, {1, 902}, {0, 903}};
  entry.snapshot_padded_size = 4000;
  entry.snapshot_misleading = {7};
  entry.snapshot_digests.assign(4, crypto::sha256(to_bytes("snap")));
  entry.snapshot_protection = ProtectionMode::kPartialAes;
  entry.snapshot_protect_nonce = 0x5A45;
  entry.snapshot_protect_bytes = 1000;
  (void)meta.add_chunk("Bob", "file1", 0, entry);
  core::ChunkEntry tomb;
  tomb.deleted = true;
  (void)meta.add_chunk("Bob", "file2", 0, tomb);
  (void)meta.unlink_chunk("Bob", "file2", 0);
}

TEST(MetadataIoTest, RoundTripPreservesEverything) {
  core::MetadataStore original;
  populate_store(original);
  const Bytes image = core::serialize_metadata(original);
  Result<std::shared_ptr<core::MetadataStore>> restored =
      core::deserialize_metadata(image);
  ASSERT_TRUE(restored.ok()) << restored.status().to_string();
  const core::MetadataStore& copy = *restored.value();

  // Providers.
  const auto orig_providers = original.provider_table();
  const auto copy_providers = copy.provider_table();
  ASSERT_EQ(copy_providers.size(), orig_providers.size());
  for (std::size_t i = 0; i < orig_providers.size(); ++i) {
    EXPECT_EQ(copy_providers[i].name, orig_providers[i].name);
    EXPECT_EQ(copy_providers[i].privacy_level,
              orig_providers[i].privacy_level);
    EXPECT_EQ(copy_providers[i].virtual_ids, orig_providers[i].virtual_ids);
  }
  // Clients + auth survive.
  Result<PrivacyLevel> auth = copy.authenticate("Bob", "Ty7e");
  ASSERT_TRUE(auth.ok());
  EXPECT_EQ(auth.value(), PrivacyLevel::kHigh);
  EXPECT_FALSE(copy.authenticate("Bob", "wrong").ok());
  // Chunk linkage + full entry fields.
  const auto ref = copy.find_chunk("Bob", "file1", 0);
  ASSERT_TRUE(ref.has_value());
  Result<core::ChunkEntry> entry = copy.chunk_entry(ref->chunk_index);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry.value().stripe.size(), 4u);
  EXPECT_EQ(entry.value().stripe[1].virtual_id, 10986u);
  EXPECT_EQ(entry.value().misleading, (std::vector<std::uint32_t>{12, 32, 57}));
  EXPECT_EQ(entry.value().padded_size, 4096u);
  EXPECT_TRUE(entry.value().has_snapshot);
  EXPECT_EQ(entry.value().snapshot_padded_size, 4000u);
  EXPECT_EQ(entry.value().shard_digests[0],
            crypto::sha256(to_bytes("shard")));
  // Protection transform parameters (v2 wire fields) survive.
  EXPECT_EQ(entry.value().protection, ProtectionMode::kFragmentation);
  EXPECT_EQ(entry.value().protect_nonce, 0xF4A6E57A61EULL);
  EXPECT_EQ(entry.value().protect_bytes, 4096u);
  EXPECT_EQ(entry.value().snapshot_protection, ProtectionMode::kPartialAes);
  EXPECT_EQ(entry.value().snapshot_protect_nonce, 0x5A45u);
  EXPECT_EQ(entry.value().snapshot_protect_bytes, 1000u);
  // Tombstone preserved (indices stay stable).
  Result<core::ChunkEntry> tomb = copy.chunk_entry(1);
  ASSERT_TRUE(tomb.ok());
  EXPECT_TRUE(tomb.value().deleted);
}

TEST(MetadataIoTest, RejectsGarbageAndTruncation) {
  EXPECT_FALSE(core::deserialize_metadata(to_bytes("nonsense")).ok());
  EXPECT_FALSE(core::deserialize_metadata({}).ok());
  core::MetadataStore store;
  populate_store(store);
  Bytes image = core::serialize_metadata(store);
  for (std::size_t cut : {std::size_t{4}, std::size_t{16}, image.size() / 2,
                          image.size() - 1}) {
    Bytes truncated(image.begin(),
                    image.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(core::deserialize_metadata(truncated).ok())
        << "cut=" << cut;
  }
}

TEST(MetadataIoTest, FuzzTruncationAtEveryByteOffset) {
  // A crash can cut a checkpoint image anywhere. Every proper prefix must
  // come back as a clean error -- never a crash, hang, or huge allocation
  // (ci runs this under ASan; the codec's plausibility guards cap every
  // length field by the bytes actually remaining).
  core::MetadataStore store;
  populate_store(store);
  const Bytes image = core::serialize_metadata(store);
  ASSERT_GT(image.size(), 64u);
  for (std::size_t len = 0; len < image.size(); ++len) {
    Result<std::shared_ptr<core::MetadataStore>> r =
        core::deserialize_metadata(BytesView(image.data(), len));
    EXPECT_FALSE(r.ok()) << "accepted a " << len << "-byte prefix of "
                         << image.size();
  }
}

TEST(MetadataIoTest, FuzzSingleByteFlipNeverCrashes) {
  // Flip one byte at every offset of a valid image. Structural fields
  // (magic, counts, tags) must produce errors; flips inside opaque payload
  // bytes (names, digests, ids) may legitimately still parse -- the
  // contract is ok-or-error, never a crash, and whatever parses must be a
  // usable store.
  core::MetadataStore store;
  populate_store(store);
  const Bytes image = core::serialize_metadata(store);
  std::size_t parsed = 0;
  for (std::size_t off = 0; off < image.size(); ++off) {
    Bytes mutated = image;
    mutated[off] ^= 0x5A;
    Result<std::shared_ptr<core::MetadataStore>> r =
        core::deserialize_metadata(mutated);
    if (!r.ok()) continue;
    ++parsed;
    // Exercise the restored store: a silently-corrupt one must still be
    // internally consistent enough to walk.
    (void)r.value()->provider_table();
    (void)r.value()->client_table();
    for (std::size_t i = 0; i < r.value()->total_chunks(); ++i) {
      (void)r.value()->chunk_entry(i);
    }
  }
  // The magic alone guarantees some flips fail; some payload flips parse.
  EXPECT_LT(parsed, image.size());
}

// --- chunk-row wire format ----------------------------------------------------

/// A current-format chunk row with every section populated.
Bytes sample_chunk_row() {
  core::ChunkEntry entry;
  entry.privacy_level = PrivacyLevel::kModerate;
  entry.layout = raid::StripeLayout::make(raid::RaidLevel::kRaid5, 3);
  entry.stripe = {{0, 41367}, {1, 10986}, {2, 7}, {3, 8}};
  entry.misleading = {12};
  entry.padded_size = 4096;
  entry.shard_digests = {crypto::sha256(to_bytes("shard"))};
  entry.has_snapshot = true;
  entry.snapshot = {{4, 9}};
  entry.snapshot_padded_size = 1024;
  entry.snapshot_digests = {crypto::sha256(to_bytes("snap"))};
  entry.protection = ProtectionMode::kFragmentation;
  entry.protect_nonce = 77;
  entry.protect_bytes = 4096;
  Bytes row;
  wire::Writer w(row);
  core::write_chunk_entry(w, entry);
  return row;
}

TEST(MetadataIoTest, ChunkRowWithoutMarkerIsRejected) {
  // Every row leads with the 0xF2 marker. A row without it -- the layout
  // chunk rows had before protection modes, which led with the privacy
  // level -- is not a row of this format.
  const Bytes row = sample_chunk_row();
  ASSERT_EQ(row[0], 0xF2);
  {
    wire::Reader r(row);
    core::ChunkEntry entry;
    EXPECT_TRUE(core::read_chunk_entry(r, entry));
  }
  const Bytes unmarked(row.begin() + 1, row.end());
  wire::Reader r(unmarked);
  core::ChunkEntry entry;
  EXPECT_FALSE(core::read_chunk_entry(r, entry));
}

TEST(MetadataIoTest, ChunkRowFuzzEveryPrefixAndByteFlip) {
  // Every proper prefix of a row errors out cleanly, and no single-byte
  // flip crashes the reader (flips may parse -- payload bytes are opaque --
  // but a row that parses must carry a legal protection mode).
  const Bytes row = sample_chunk_row();
  for (std::size_t len = 0; len < row.size(); ++len) {
    wire::Reader r(BytesView(row.data(), len));
    core::ChunkEntry entry;
    EXPECT_FALSE(core::read_chunk_entry(r, entry)) << "prefix len=" << len;
  }
  for (std::size_t off = 0; off < row.size(); ++off) {
    Bytes mutated = row;
    mutated[off] ^= 0x5A;
    wire::Reader r(mutated);
    core::ChunkEntry entry;
    if (core::read_chunk_entry(r, entry)) {
      EXPECT_LT(static_cast<int>(entry.protection), kNumProtectionModes);
    }
  }
}

TEST(MetadataIoTest, V2ChunkRowRejectsBadModeAndOversizedPrefix) {
  core::ChunkEntry entry;
  entry.privacy_level = PrivacyLevel::kLow;
  entry.layout = raid::StripeLayout::make(raid::RaidLevel::kRaid5, 3);
  entry.stripe = {{0, 1}, {1, 2}, {0, 3}, {1, 4}};
  entry.padded_size = 2048;
  entry.protection = ProtectionMode::kFragmentation;
  entry.protect_nonce = 99;
  entry.protect_bytes = 2048;
  Bytes row;
  wire::Writer w(row);
  core::write_chunk_entry(w, entry);

  // Trailing v2 fields: mode u8 | nonce u64 | bytes u64 | snap mode u8 |
  // snap nonce u64 | snap bytes u64 -- the mode byte sits 34 from the end.
  const std::size_t mode_off = row.size() - 34;
  ASSERT_EQ(row[mode_off],
            static_cast<std::uint8_t>(ProtectionMode::kFragmentation));
  for (std::uint8_t bad : {std::uint8_t{3}, std::uint8_t{7},
                           std::uint8_t{0xFF}}) {
    Bytes mutated = row;
    mutated[mode_off] = bad;
    wire::Reader r(mutated);
    core::ChunkEntry decoded;
    EXPECT_FALSE(core::read_chunk_entry(r, decoded)) << int(bad);
  }
  // protect_bytes > padded_size is a flipped bit, not a legal row: the
  // prefix would walk the unprotect path off the payload.
  Bytes oversized = row;
  oversized[row.size() - 25] = 0xFF;  // low bytes of protect_bytes
  oversized[row.size() - 24] = 0xFF;
  wire::Reader r(oversized);
  core::ChunkEntry decoded;
  EXPECT_FALSE(core::read_chunk_entry(r, decoded));
  // And the untouched row round-trips its protection parameters.
  wire::Reader ok(row);
  ASSERT_TRUE(core::read_chunk_entry(ok, decoded));
  EXPECT_EQ(decoded.protection, ProtectionMode::kFragmentation);
  EXPECT_EQ(decoded.protect_nonce, 99u);
  EXPECT_EQ(decoded.protect_bytes, 2048u);
}

TEST(MetadataIoTest, EmptyStoreRoundTrips) {
  core::MetadataStore empty;
  Result<std::shared_ptr<core::MetadataStore>> restored =
      core::deserialize_metadata(core::serialize_metadata(empty));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value()->total_chunks(), 0u);
  EXPECT_TRUE(restored.value()->provider_table().empty());
}

// --- distributor restart -----------------------------------------------------------

TEST(DistributorRestartTest, NewDistributorServesOldFilesFromImage) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  core::DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.1;

  const Bytes data = payload_of(20000, 77);
  Bytes image;
  {
    core::CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("Bob").ok());
    ASSERT_TRUE(cdd.add_password("Bob", "pw", PrivacyLevel::kHigh).ok());
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    ASSERT_TRUE(cdd.put_file("Bob", "pw", "persisted", data, opts).ok());
    image = core::serialize_metadata(cdd.metadata());
    // The first distributor instance is destroyed here -- a "crash".
  }

  Result<std::shared_ptr<core::MetadataStore>> restored =
      core::deserialize_metadata(image);
  ASSERT_TRUE(restored.ok());
  core::DistributorConfig config2 = config;
  config2.seed = 0xD1FFE12E47;  // different instance identity
  std::vector<core::MetadataPlane::Partition> parts(1);
  parts[0].store = restored.value();
  config2.plane = std::make_shared<core::MetadataPlane>(std::move(parts));
  core::CloudDataDistributor revived(registry, config2);

  Result<Bytes> back = revived.get_file("Bob", "pw", "persisted");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));

  // The revived distributor can keep writing without id collisions.
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kLow;
  ASSERT_TRUE(
      revived.put_file("Bob", "pw", "fresh", payload_of(5000, 78), opts).ok());
  EXPECT_TRUE(revived.get_file("Bob", "pw", "fresh").ok());
  // And remove the pre-crash file cleanly.
  ASSERT_TRUE(revived.remove_file("Bob", "pw", "persisted").ok());
}

}  // namespace
}  // namespace cshield
