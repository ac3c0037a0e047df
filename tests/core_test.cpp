// Tests for the core library: chunker, misleading codec, metadata tables,
// placement policy, the CloudDataDistributor end-to-end (upload, access
// control, retrieval, snapshots, removal, outage recovery, repair), the
// multi-distributor group and the client-side DHT distributor.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "core/chunker.hpp"
#include "core/client_side.hpp"
#include "core/distributor.hpp"
#include "core/misleading.hpp"
#include "core/multi_distributor.hpp"
#include "core/partial_encryption.hpp"
#include "core/placement.hpp"
#include "core/reputation.hpp"
#include "core/tables.hpp"
#include "crypto/sha256.hpp"
#include "storage/provider_registry.hpp"

namespace cshield::core {
namespace {

Bytes payload_of(std::size_t n, std::uint64_t seed = 99) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// --- chunker ------------------------------------------------------------------

TEST(ChunkerTest, HigherPrivacyMeansSmallerChunks) {
  const ChunkSizePolicy policy;
  EXPECT_GT(policy.chunk_size(PrivacyLevel::kPublic),
            policy.chunk_size(PrivacyLevel::kLow));
  EXPECT_GT(policy.chunk_size(PrivacyLevel::kLow),
            policy.chunk_size(PrivacyLevel::kModerate));
  EXPECT_GT(policy.chunk_size(PrivacyLevel::kModerate),
            policy.chunk_size(PrivacyLevel::kHigh));
}

TEST(ChunkerTest, SplitJoinRoundTrip) {
  const ChunkSizePolicy policy;
  for (std::size_t n : {0u, 1u, 1023u, 1024u, 1025u, 70000u}) {
    const Bytes data = payload_of(n, n);
    for (int pl = 0; pl < kNumPrivacyLevels; ++pl) {
      const auto chunks =
          split_file(data, privacy_level_from_int(pl), policy);
      EXPECT_TRUE(equal(join_chunks(chunks), data))
          << "n=" << n << " pl=" << pl;
    }
  }
}

TEST(ChunkerTest, ChunkCountMatchesSchedule) {
  const ChunkSizePolicy policy;
  const Bytes data = payload_of(10 * 1024);
  EXPECT_EQ(split_file(data, PrivacyLevel::kPublic, policy).size(), 1u);
  EXPECT_EQ(split_file(data, PrivacyLevel::kHigh, policy).size(), 10u);
}

TEST(ChunkerTest, SerialsAreSequential) {
  const ChunkSizePolicy policy;
  const auto chunks =
      split_file(payload_of(5000), PrivacyLevel::kHigh, policy);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].serial, i);
  }
}

TEST(ChunkerTest, RecordAlignmentNeverSplitsRecords) {
  const ChunkSizePolicy policy;
  const std::size_t record = 48;  // 6 doubles
  const Bytes data = payload_of(record * 100);
  const auto chunks =
      split_file(data, PrivacyLevel::kHigh, policy, record);
  for (const auto& c : chunks) {
    EXPECT_EQ(c.data.size() % record, 0u) << "chunk " << c.serial;
  }
  EXPECT_TRUE(equal(join_chunks(chunks), data));
}

TEST(ChunkerTest, RecordLargerThanChunkStillWorks) {
  const ChunkSizePolicy policy;
  const std::size_t record = 3000;  // larger than the PL3 chunk of 1024
  const Bytes data = payload_of(record * 4);
  const auto chunks = split_file(data, PrivacyLevel::kHigh, policy, record);
  EXPECT_EQ(chunks.size(), 4u);
  for (const auto& c : chunks) EXPECT_EQ(c.data.size(), record);
}

TEST(ChunkerTest, EmptyFileYieldsOneEmptyChunk) {
  const auto chunks = split_file({}, PrivacyLevel::kLow, ChunkSizePolicy{});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_TRUE(chunks[0].data.empty());
}

TEST(ChunkerTest, OutOfOrderJoinThrows) {
  std::vector<RawChunk> chunks;
  chunks.push_back({1, to_bytes("b")});
  chunks.push_back({0, to_bytes("a")});
  EXPECT_THROW((void)join_chunks(chunks), std::invalid_argument);
}

// --- misleading codec ------------------------------------------------------------

TEST(MisleadingTest, InjectStripRoundTrip) {
  Rng rng(1);
  for (double fraction : {0.0, 0.05, 0.25, 0.5, 1.0}) {
    for (std::size_t n : {1u, 10u, 1000u}) {
      const Bytes data = payload_of(n, n + 7);
      const auto enc = MisleadingCodec::inject(data, fraction, rng);
      EXPECT_TRUE(equal(MisleadingCodec::strip(enc.data, enc.positions), data))
          << "fraction=" << fraction << " n=" << n;
    }
  }
}

TEST(MisleadingTest, ChaffCountMatchesFraction) {
  Rng rng(2);
  const Bytes data = payload_of(1000);
  const auto enc = MisleadingCodec::inject(data, 0.25, rng);
  EXPECT_EQ(enc.positions.size(), 250u);
  EXPECT_EQ(enc.data.size(), 1250u);
}

TEST(MisleadingTest, ZeroFractionIsIdentity) {
  Rng rng(3);
  const Bytes data = payload_of(100);
  const auto enc = MisleadingCodec::inject(data, 0.0, rng);
  EXPECT_TRUE(equal(enc.data, data));
  EXPECT_TRUE(enc.positions.empty());
}

TEST(MisleadingTest, PositionsAreSortedAndUnique) {
  Rng rng(4);
  const auto enc = MisleadingCodec::inject(payload_of(500), 0.3, rng);
  for (std::size_t i = 1; i < enc.positions.size(); ++i) {
    EXPECT_LT(enc.positions[i - 1], enc.positions[i]);
  }
  for (std::uint32_t p : enc.positions) {
    EXPECT_LT(p, enc.data.size());
  }
}

TEST(MisleadingTest, EmptyPayloadStaysEmpty) {
  Rng rng(5);
  const auto enc = MisleadingCodec::inject({}, 0.5, rng);
  EXPECT_TRUE(enc.data.empty());
  EXPECT_TRUE(enc.positions.empty());
}

TEST(MisleadingTest, ChaffedBufferDiffersFromRawConcatenation) {
  Rng rng(6);
  const Bytes data = payload_of(400);
  const auto enc = MisleadingCodec::inject(data, 0.2, rng);
  EXPECT_NE(enc.data.size(), data.size());
  EXPECT_FALSE(equal(enc.data, data));
}

// Pins the codec's exact output over a seed x size x fraction grid: the
// digest covers every chaff position, every chaffed byte and the chunk RNG's
// next draw after inject, so a change to the sampled positions, the chaff
// bytes, or the number or order of rng draws all move it. The golden value
// was computed with the original sampler (std::unordered_set + std::sort and
// a byte-at-a-time copy loop), before the bitmap sampler replaced it. The
// chaos suite's retry/mode invariance rests on this stream being stable.
TEST(MisleadingTest, OutputIsPinnedToOriginalSampler) {
  crypto::Sha256 h;
  const auto put_le = [&h](std::uint64_t v, int width) {
    std::array<std::uint8_t, 8> b{};
    for (int i = 0; i < width; ++i) {
      b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    h.update(BytesView(b.data(), static_cast<std::size_t>(width)));
  };
  for (std::uint64_t seed : {1ull, 0xC10D5EEDull, 0x9E3779B97F4A7C15ull}) {
    for (std::size_t n : {1u, 10u, 1024u, 16384u, 65536u}) {
      for (double fraction : {0.01, 0.1, 0.5, 1.0}) {
        Rng rng(seed ^ n);
        const auto enc =
            MisleadingCodec::inject(payload_of(n, seed + n), fraction, rng);
        put_le(enc.positions.size(), 8);
        for (std::uint32_t p : enc.positions) put_le(p, 4);
        h.update(enc.data);
        put_le(rng.next(), 8);
      }
    }
  }
  EXPECT_EQ(crypto::digest_hex(h.finish()),
            "2fbc2a251fdf8dd025fb170d7ff06e08d1e316f102e36824f542468b3181ca17");
}

TEST(MisleadingTest, StripRejectsMalformedPositions) {
  const Bytes data = payload_of(16);
  // Unsorted.
  EXPECT_THROW((void)MisleadingCodec::strip(data, {5, 2}),
               std::invalid_argument);
  // Duplicate.
  EXPECT_THROW((void)MisleadingCodec::strip(data, {3, 3}),
               std::invalid_argument);
  // Past the end, alone and after valid positions.
  EXPECT_THROW((void)MisleadingCodec::strip(data, {16}),
               std::invalid_argument);
  EXPECT_THROW((void)MisleadingCodec::strip(data, {0, 7, 40}),
               std::invalid_argument);
  // More positions than bytes.
  EXPECT_THROW((void)MisleadingCodec::strip(payload_of(2), {0, 1, 2}),
               std::invalid_argument);
  // The boundary cases stay legal: first and last byte, and every byte.
  EXPECT_EQ(MisleadingCodec::strip(data, {0, 15}).size(), 14u);
  EXPECT_TRUE(MisleadingCodec::strip(payload_of(3), {0, 1, 2}).empty());
}

// --- metadata tables -------------------------------------------------------------

TEST(MetadataTest, ClientRegistrationAndAuth) {
  MetadataStore meta;
  ASSERT_TRUE(meta.register_client("Bob").ok());
  EXPECT_EQ(meta.register_client("Bob").code(), ErrorCode::kAlreadyExists);
  ASSERT_TRUE(meta.add_password("Bob", "x9pr", PrivacyLevel::kLow).ok());
  ASSERT_TRUE(meta.add_password("Bob", "Ty7e", PrivacyLevel::kHigh).ok());
  EXPECT_EQ(meta.add_password("Bob", "x9pr", PrivacyLevel::kHigh).code(),
            ErrorCode::kAlreadyExists);

  Result<PrivacyLevel> pl = meta.authenticate("Bob", "x9pr");
  ASSERT_TRUE(pl.ok());
  EXPECT_EQ(pl.value(), PrivacyLevel::kLow);
  EXPECT_EQ(meta.authenticate("Bob", "wrong").status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(meta.authenticate("Eve", "x9pr").status().code(),
            ErrorCode::kNotFound);
}

TEST(MetadataTest, ChunkLinkage) {
  MetadataStore meta;
  ASSERT_TRUE(meta.register_client("CL1").ok());
  ChunkEntry e;
  e.privacy_level = PrivacyLevel::kModerate;
  Result<std::size_t> idx0 = meta.add_chunk("CL1", "cf11", 0, e);
  Result<std::size_t> idx1 = meta.add_chunk("CL1", "cf11", 1, e);
  ASSERT_TRUE(idx0.ok() && idx1.ok());
  const auto refs = meta.file_chunks("CL1", "cf11");
  ASSERT_EQ(refs.size(), 2u);
  EXPECT_EQ(refs[0].serial, 0u);
  EXPECT_EQ(refs[1].serial, 1u);
  EXPECT_TRUE(meta.find_chunk("CL1", "cf11", 1).has_value());
  EXPECT_FALSE(meta.find_chunk("CL1", "cf11", 2).has_value());
  ASSERT_TRUE(meta.unlink_chunk("CL1", "cf11", 0).ok());
  EXPECT_EQ(meta.file_chunks("CL1", "cf11").size(), 1u);
  EXPECT_EQ(meta.total_chunks(), 2u);  // table rows are stable tombstones
}

TEST(MetadataTest, ProviderPlacementBookkeeping) {
  MetadataStore meta;
  meta.register_provider("CP1", PrivacyLevel::kHigh, CostLevel::kPremium);
  meta.record_placement(0, 41367);
  meta.record_placement(0, 57643);
  meta.record_removal(0, 41367);
  const auto table = meta.provider_table();
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].count(), 1u);
  EXPECT_EQ(table[0].virtual_ids[0], 57643u);
}

// --- placement policy ------------------------------------------------------------

TEST(PlacementTest, RespectsTrustEligibility) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  PlacementPolicy policy(1);
  for (int trial = 0; trial < 50; ++trial) {
    Result<std::vector<ProviderIndex>> chosen =
        policy.choose(reg, PrivacyLevel::kHigh, 2);
    ASSERT_TRUE(chosen.ok());
    for (ProviderIndex p : chosen.value()) {
      EXPECT_EQ(level_index(reg.at(p).descriptor().privacy_level), 3);
    }
  }
}

TEST(PlacementTest, ProvidersAreDistinct) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  PlacementPolicy policy(2);
  Result<std::vector<ProviderIndex>> chosen =
      policy.choose(reg, PrivacyLevel::kPublic, 6);
  ASSERT_TRUE(chosen.ok());
  std::set<ProviderIndex> unique(chosen.value().begin(),
                                 chosen.value().end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(PlacementTest, PrefersCheaperProviders) {
  storage::ProviderRegistry reg;
  storage::ProviderDescriptor cheap;
  cheap.name = "Cheap";
  cheap.privacy_level = PrivacyLevel::kHigh;
  cheap.cost_level = CostLevel::kCheapest;
  storage::ProviderDescriptor pricey;
  pricey.name = "Pricey";
  pricey.privacy_level = PrivacyLevel::kHigh;
  pricey.cost_level = CostLevel::kPremium;
  reg.add(std::move(pricey));
  reg.add(std::move(cheap));
  PlacementPolicy policy(3);
  for (int trial = 0; trial < 20; ++trial) {
    Result<std::vector<ProviderIndex>> chosen =
        policy.choose(reg, PrivacyLevel::kHigh, 1);
    ASSERT_TRUE(chosen.ok());
    EXPECT_EQ(reg.at(chosen.value()[0]).descriptor().name, "Cheap");
  }
}

TEST(PlacementTest, FailsWhenTooFewTrustedProviders) {
  storage::ProviderRegistry reg = storage::make_default_registry(4);
  PlacementPolicy policy(4);
  // Only 2 of 4 default providers are PL3.
  EXPECT_EQ(policy.choose(reg, PrivacyLevel::kHigh, 3).status().code(),
            ErrorCode::kResourceExhausted);
}

TEST(PlacementTest, RandomizesWithinCostTier) {
  storage::ProviderRegistry reg = storage::make_default_registry(16);
  PlacementPolicy policy(5);
  std::set<ProviderIndex> first_picks;
  for (int trial = 0; trial < 40; ++trial) {
    Result<std::vector<ProviderIndex>> chosen =
        policy.choose(reg, PrivacyLevel::kPublic, 1);
    ASSERT_TRUE(chosen.ok());
    first_picks.insert(chosen.value()[0]);
  }
  EXPECT_GT(first_picks.size(), 1u) << "placement should be randomized";
}

// --- distributor end-to-end --------------------------------------------------------

struct DistFixture {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  std::unique_ptr<CloudDataDistributor> cdd;

  explicit DistFixture(raid::RaidLevel level = raid::RaidLevel::kRaid5,
                       double misleading = 0.0) {
    config.default_raid = level;
    config.stripe_data_shards = 3;
    config.misleading_fraction = misleading;
    config.worker_threads = 4;
    cdd = std::make_unique<CloudDataDistributor>(registry, config);
    EXPECT_TRUE(cdd->register_client("Bob").ok());
    EXPECT_TRUE(cdd->add_password("Bob", "aB1c", PrivacyLevel::kPublic).ok());
    EXPECT_TRUE(cdd->add_password("Bob", "x9pr", PrivacyLevel::kLow).ok());
    EXPECT_TRUE(cdd->add_password("Bob", "6S4r", PrivacyLevel::kModerate).ok());
    EXPECT_TRUE(cdd->add_password("Bob", "Ty7e", PrivacyLevel::kHigh).ok());
  }
};

TEST(DistributorTest, PutGetRoundTripAllLevels) {
  DistFixture f;
  for (int pl = 0; pl < kNumPrivacyLevels; ++pl) {
    const Bytes data = payload_of(20000 + static_cast<std::size_t>(pl));
    PutOptions opts;
    opts.privacy_level = privacy_level_from_int(pl);
    const std::string name = "file_pl" + std::to_string(pl);
    ASSERT_TRUE(
        f.cdd->put_file("Bob", "Ty7e", name, data, opts).ok());
    Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", name);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data));
  }
}

TEST(DistributorTest, ReportCountsChunksAndShards) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;  // 1 KiB chunks
  OpReport report;
  const Bytes data = payload_of(4096);
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "r.bin", data, opts, &report).ok());
  EXPECT_EQ(report.chunks, 4u);
  EXPECT_EQ(report.shards, 4u * 4u);  // raid5 k=3 -> 4 shards per chunk
  EXPECT_EQ(report.bytes_logical, 4096u);
  EXPECT_GT(report.bytes_stored, 4096u);  // parity overhead
  EXPECT_GT(report.sim_time_parallel.count(), 0);
  EXPECT_GE(report.sim_time_serial.count(),
            report.sim_time_parallel.count());
}

TEST(DistributorTest, AccessControlMatrix) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  ASSERT_TRUE(f.cdd->put_file("Bob", "6S4r", "secret.db",
                              payload_of(3000), opts).ok());
  // SV: privilege >= chunk PL passes; below is denied.
  EXPECT_TRUE(f.cdd->get_file("Bob", "Ty7e", "secret.db").ok());
  EXPECT_TRUE(f.cdd->get_file("Bob", "6S4r", "secret.db").ok());
  EXPECT_EQ(f.cdd->get_file("Bob", "x9pr", "secret.db").status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(f.cdd->get_file("Bob", "aB1c", "secret.db").status().code(),
            ErrorCode::kPermissionDenied);
  // Bad password / unknown client.
  EXPECT_EQ(f.cdd->get_file("Bob", "nope", "secret.db").status().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(f.cdd->get_file("Eve", "Ty7e", "secret.db").status().code(),
            ErrorCode::kNotFound);
}

TEST(DistributorTest, UploadRequiresPrivilege) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  EXPECT_EQ(f.cdd->put_file("Bob", "x9pr", "f.bin", payload_of(10), opts)
                .code(),
            ErrorCode::kPermissionDenied);
}

TEST(DistributorTest, DuplicateFilenameRejected) {
  DistFixture f;
  PutOptions opts;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "dup", payload_of(10), opts).ok());
  EXPECT_EQ(f.cdd->put_file("Bob", "Ty7e", "dup", payload_of(10), opts).code(),
            ErrorCode::kAlreadyExists);
}

TEST(DistributorTest, GetChunkBySerial) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;  // 1 KiB chunks
  const Bytes data = payload_of(2500);
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "c.bin", data, opts).ok());
  Result<Bytes> c0 = f.cdd->get_chunk("Bob", "Ty7e", "c.bin", 0);
  Result<Bytes> c2 = f.cdd->get_chunk("Bob", "Ty7e", "c.bin", 2);
  ASSERT_TRUE(c0.ok() && c2.ok());
  EXPECT_TRUE(equal(c0.value(), slice(data, 0, 1024)));
  EXPECT_TRUE(equal(c2.value(), slice(data, 2048, 1024)));
  EXPECT_EQ(f.cdd->get_chunk("Bob", "Ty7e", "c.bin", 9).status().code(),
            ErrorCode::kNotFound);
}

TEST(DistributorTest, MisleadingBytesAreTransparentToClients) {
  DistFixture f(raid::RaidLevel::kRaid5, /*misleading=*/0.3);
  const Bytes data = payload_of(5000);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  OpReport report;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "chaffed", data, opts, &report).ok());
  EXPECT_GT(report.bytes_stored, data.size() * 5 / 4);  // chaff + parity
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "chaffed");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(DistributorTest, Raid5SurvivesSingleProviderOutage) {
  DistFixture f(raid::RaidLevel::kRaid5);
  const Bytes data = payload_of(30000);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kPublic;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "hot", data, opts).ok());
  f.registry.at(0).install_fault_plan(storage::FaultPlan::outage(0), 0);
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "hot");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(DistributorTest, Raid6SurvivesDoubleProviderOutage) {
  DistFixture f(raid::RaidLevel::kRaid6);
  const Bytes data = payload_of(30000);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kPublic;
  opts.raid = raid::RaidLevel::kRaid6;  // "higher assurance" path
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "hot6", data, opts).ok());
  f.registry.at(0).install_fault_plan(storage::FaultPlan::outage(0), 0);
  f.registry.at(1).install_fault_plan(storage::FaultPlan::outage(1), 1);
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "hot6");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(DistributorTest, CorruptionIsDetectedAndRecovered) {
  DistFixture f(raid::RaidLevel::kRaid5);
  const Bytes data = payload_of(8000);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kPublic;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "tampered", data, opts).ok());
  // Corrupt one stored shard at every provider that has objects (only one
  // shard per stripe lands per provider, so RAID-5 still decodes).
  bool corrupted = false;
  for (ProviderIndex p = 0; p < f.registry.size() && !corrupted; ++p) {
    for (VirtualId id : f.registry.at(p).list_ids()) {
      ASSERT_TRUE(f.registry.at(p).corrupt_object(id, 0).ok());
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "tampered");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(DistributorTest, UpdateChunkKeepsSnapshot) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes v1 = payload_of(900, 1);
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "doc", v1, opts).ok());
  EXPECT_EQ(f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0).status().code(),
            ErrorCode::kNotFound);

  const Bytes v2 = payload_of(800, 2);
  ASSERT_TRUE(f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, v2).ok());
  Result<Bytes> now = f.cdd->get_chunk("Bob", "Ty7e", "doc", 0);
  Result<Bytes> snap = f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0);
  ASSERT_TRUE(now.ok() && snap.ok());
  EXPECT_TRUE(equal(now.value(), v2));
  EXPECT_TRUE(equal(snap.value(), v1));

  // Second update: snapshot rolls forward to v2.
  const Bytes v3 = payload_of(850, 3);
  ASSERT_TRUE(f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, v3).ok());
  EXPECT_TRUE(equal(f.cdd->get_chunk("Bob", "Ty7e", "doc", 0).value(), v3));
  EXPECT_TRUE(
      equal(f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0).value(), v2));
}

TEST(DistributorTest, UpdatePromotesCurrentStripeToSnapshot) {
  // An update reads no stripe and writes one: the current stripe becomes
  // the snapshot where it lies, and only the superseded snapshot goes.
  DistFixture f;
  auto objects = [&f] {
    std::size_t n = 0;
    for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
      n += f.registry.at(p).object_count();
    }
    return n;
  };
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "doc", payload_of(900, 1), opts)
                  .ok());
  const std::size_t index =
      f.cdd->metadata().file_chunks("Bob", "doc").front().chunk_index;
  const std::size_t stripe_shards =
      f.cdd->metadata().chunk_entry(index).value().layout.total_shards();
  const std::size_t put_objects = objects();

  for (std::uint64_t round = 0; round < 3; ++round) {
    SCOPED_TRACE("update " + std::to_string(round));
    const ChunkEntry before = f.cdd->metadata().chunk_entry(index).value();
    OpReport report;
    ASSERT_TRUE(f.cdd->update_chunk("Bob", "Ty7e", "doc", 0,
                                    payload_of(800, 2 + round), &report)
                    .ok());
    const ChunkEntry after = f.cdd->metadata().chunk_entry(index).value();
    ASSERT_TRUE(after.has_snapshot);
    ASSERT_EQ(after.snapshot.size(), before.stripe.size());
    for (std::size_t s = 0; s < before.stripe.size(); ++s) {
      EXPECT_EQ(after.snapshot[s].provider, before.stripe[s].provider);
      EXPECT_EQ(after.snapshot[s].virtual_id, before.stripe[s].virtual_id);
    }
    EXPECT_EQ(after.snapshot_padded_size, before.padded_size);
    EXPECT_EQ(after.snapshot_protect_nonce, before.protect_nonce);
    EXPECT_EQ(report.shards, stripe_shards);
    EXPECT_EQ(report.parity_reads, 0u);
    EXPECT_EQ(objects(), put_objects + stripe_shards);
  }
}

TEST(DistributorTest, UpdateReportsStoredBytesLikePut) {
  // bytes_stored is the bytes at providers (chaff + parity) for every op:
  // an update with a payload the put's size stores the same stripe size.
  DistFixture f(raid::RaidLevel::kRaid5, /*misleading=*/0.1);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  OpReport put;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "doc", payload_of(900, 1), opts, &put)
          .ok());
  ASSERT_EQ(put.chunks, 1u);
  OpReport update;
  ASSERT_TRUE(
      f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, payload_of(900, 2), &update)
          .ok());
  EXPECT_EQ(update.bytes_stored, put.bytes_stored);
  EXPECT_GT(update.bytes_stored, 900u);
}

TEST(DistributorTest, CleanReadsFetchOnlyDataShards) {
  // The one read strategy: data shards first, parity only on a loss. A
  // clean read of a RAID-5 k=3 stripe is three provider gets, whichever
  // client read issues it.
  DistFixture f(raid::RaidLevel::kRaid5);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;  // 1 KiB chunks: one stripe
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "doc", payload_of(900, 1), opts)
                  .ok());
  ASSERT_TRUE(
      f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, payload_of(800, 2)).ok());
  auto provider_gets = [&f] {
    std::uint64_t n = 0;
    for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
      n += f.registry.at(p).counters().gets.load();
    }
    return n;
  };
  auto parity_shard_reads = [&f] {
    return f.cdd->telemetry()->metrics().counter("cdd.parity_shard_reads")
        .value();
  };
  const std::uint64_t parity_before = parity_shard_reads();

  std::uint64_t before = provider_gets();
  OpReport chunk_report;
  ASSERT_TRUE(f.cdd->get_chunk("Bob", "Ty7e", "doc", 0, &chunk_report).ok());
  EXPECT_EQ(provider_gets() - before, 3u) << "get_chunk";
  EXPECT_EQ(chunk_report.parity_reads, 0u);

  before = provider_gets();
  ASSERT_TRUE(f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0).ok());
  EXPECT_EQ(provider_gets() - before, 3u) << "get_chunk_snapshot";

  before = provider_gets();
  OpReport file_report;
  ASSERT_TRUE(f.cdd->get_file("Bob", "Ty7e", "doc", &file_report).ok());
  EXPECT_EQ(provider_gets() - before, 3u) << "one-chunk get_file";
  EXPECT_EQ(file_report.chunks, 1u);
  EXPECT_EQ(file_report.parity_reads, 0u);

  EXPECT_EQ(parity_shard_reads(), parity_before);
}

TEST(DistributorTest, RowWithDisagreeingCountsReadsAsCorrupted) {
  // A checkpoint image has no checksum, so a row whose stripe or digest
  // count disagrees with its layout can arrive unchecked. Reads answer it
  // with an error and the maintenance walker counts it, neither throws.
  DistFixture f(raid::RaidLevel::kRaid5);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "doc", payload_of(900, 1), opts)
                  .ok());
  ASSERT_TRUE(
      f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, payload_of(800, 2)).ok());
  const std::size_t index =
      f.cdd->metadata().file_chunks("Bob", "doc").front().chunk_index;
  const ChunkEntry good = f.cdd->metadata().chunk_entry(index).value();
  ASSERT_TRUE(good.has_snapshot);
  MetadataStore& md = f.cdd->plane()->store(0);

  struct Variant {
    const char* name;
    void (*mangle)(ChunkEntry&);
    bool current;  ///< the current stripe (else only the snapshot) is bad
  };
  const std::vector<Variant> variants = {
      {"short stripe", [](ChunkEntry& e) { e.stripe.pop_back(); }, true},
      {"long stripe",
       [](ChunkEntry& e) {
         e.stripe.push_back(e.stripe.front());
         e.shard_digests.push_back(e.shard_digests.front());
       },
       true},
      {"short digests", [](ChunkEntry& e) { e.shard_digests.pop_back(); },
       true},
      {"short snapshot digests",
       [](ChunkEntry& e) { e.snapshot_digests.pop_back(); }, false},
      {"short snapshot", [](ChunkEntry& e) { e.snapshot.pop_back(); }, false},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    ChunkEntry bad = good;
    v.mangle(bad);
    md.set_chunk(index, bad);
    if (v.current) {
      Result<Bytes> chunk = f.cdd->get_chunk("Bob", "Ty7e", "doc", 0);
      EXPECT_EQ(chunk.status().code(), ErrorCode::kCorrupted);
      EXPECT_FALSE(f.cdd->get_file("Bob", "Ty7e", "doc").ok());
    } else {
      EXPECT_EQ(f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0)
                    .status()
                    .code(),
                ErrorCode::kCorrupted);
    }
    Result<std::size_t> repaired = Status::Internal("repair not run");
    EXPECT_NO_THROW(repaired = f.cdd->repair());
    EXPECT_FALSE(repaired.ok()) << "the malformed stripe counts as an error";
    md.set_chunk(index, good);
  }
  Result<std::size_t> clean = f.cdd->repair();
  ASSERT_TRUE(clean.ok()) << clean.status().to_string();
  EXPECT_EQ(clean.value(), 0u);
  EXPECT_TRUE(f.cdd->get_chunk("Bob", "Ty7e", "doc", 0).ok());
  EXPECT_TRUE(f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0).ok());
}

TEST(DistributorTest, EveryProtectionModeRoundTripsAllOps) {
  // Put / get_file / get_chunk / update_chunk / snapshot under each
  // protection transform, at every PL: the mode is sticky across updates
  // and the snapshot keeps the pre-state's own transform parameters.
  for (ProtectionMode mode :
       {ProtectionMode::kPartialAes, ProtectionMode::kMisleadingBytes,
        ProtectionMode::kFragmentation}) {
    DistFixture f(raid::RaidLevel::kRaid5, 0.1);
    for (int pl = 0; pl < kNumPrivacyLevels; ++pl) {
      const std::string name = "p" + std::to_string(pl);
      const Bytes v1 = payload_of(6000 + static_cast<std::size_t>(pl), 91);
      PutOptions opts;
      opts.privacy_level = privacy_level_from_int(pl);
      opts.protection = mode;
      ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", name, v1, opts).ok());
      Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", name);
      ASSERT_TRUE(back.ok()) << back.status().to_string();
      EXPECT_TRUE(equal(back.value(), v1))
          << protection_mode_name(mode) << " pl=" << pl;
    }
    // Update + snapshot: pre-state (protected under the old nonce) must
    // come back plaintext from the snapshot stripe.
    const Bytes w1 = payload_of(900, 92);
    const Bytes w2 = payload_of(800, 93);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    opts.protection = mode;
    ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "doc", w1, opts).ok());
    ASSERT_TRUE(f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, w2).ok());
    EXPECT_TRUE(equal(f.cdd->get_chunk("Bob", "Ty7e", "doc", 0).value(), w2));
    EXPECT_TRUE(equal(
        f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0).value(), w1));
  }
}

TEST(DistributorTest, FragmentationHidesPlaintextFromEveryProvider) {
  // A recognizable ASCII motif must not appear in any stored object when
  // the chunk is entangled -- each provider's shard is whitened + mixed.
  DistFixture f;
  Bytes data;
  const std::string motif = "TOP-SECRET-BIDDING-RECORD-";
  while (data.size() < 8000) append(data, to_bytes(motif));
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  opts.protection = ProtectionMode::kFragmentation;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "secret", data, opts).ok());
  const Bytes needle = to_bytes(motif);
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    for (VirtualId id : f.registry.at(p).list_ids()) {
      const Bytes obj = f.registry.at(p).raw_store().get(id).value();
      const auto it = std::search(obj.begin(), obj.end(), needle.begin(),
                                  needle.end());
      EXPECT_EQ(it, obj.end()) << "plaintext motif leaked to provider " << p;
    }
  }
  // And the round trip still works.
  EXPECT_TRUE(equal(f.cdd->get_file("Bob", "Ty7e", "secret").value(), data));
}

TEST(DistributorTest, ConfigProtectionByPlSelectsModePerLevel) {
  // Per-PL defaults: PL0/PL1 keep misleading bytes, PL2/PL3 entangle. The
  // recorded chunk entries carry the negotiated mode.
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  config.stripe_data_shards = 3;
  config.protection_by_pl = {
      ProtectionMode::kMisleadingBytes, ProtectionMode::kMisleadingBytes,
      ProtectionMode::kFragmentation, ProtectionMode::kFragmentation};
  CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("Bob").ok());
  ASSERT_TRUE(cdd.add_password("Bob", "pw", PrivacyLevel::kHigh).ok());
  for (int pl = 0; pl < kNumPrivacyLevels; ++pl) {
    PutOptions opts;
    opts.privacy_level = privacy_level_from_int(pl);
    const std::string name = "f" + std::to_string(pl);
    const Bytes data = payload_of(3000, static_cast<std::uint64_t>(pl) + 50);
    ASSERT_TRUE(cdd.put_file("Bob", "pw", name, data, opts).ok());
    const auto refs = cdd.metadata().file_chunks("Bob", name);
    ASSERT_FALSE(refs.empty());
    Result<core::ChunkEntry> entry =
        cdd.metadata().chunk_entry(refs.front().chunk_index);
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(entry.value().protection, config.protection_by_pl[
                                            static_cast<std::size_t>(pl)])
        << "pl=" << pl;
    EXPECT_TRUE(equal(cdd.get_file("Bob", "pw", name).value(), data));
  }
}

TEST(DistributorTest, RemoveFileDeletesAllShards) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "gone", payload_of(9000), opts).ok());
  std::size_t stored = 0;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    stored += f.registry.at(p).object_count();
  }
  EXPECT_GT(stored, 0u);
  ASSERT_TRUE(f.cdd->remove_file("Bob", "Ty7e", "gone").ok());
  stored = 0;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    stored += f.registry.at(p).object_count();
  }
  EXPECT_EQ(stored, 0u);
  EXPECT_EQ(f.cdd->get_file("Bob", "Ty7e", "gone").status().code(),
            ErrorCode::kNotFound);
}

TEST(DistributorTest, BadPasswordCannotProbeTheNamespace) {
  // A wrong password gets PERMISSION_DENIED whether or not the name exists.
  // Answering NOT_FOUND for a missing name would let anyone without
  // credentials map a client's files and chunk serials.
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "real", payload_of(3000), opts).ok());
  // A modified chunk, so the existing name also has a snapshot.
  ASSERT_TRUE(
      f.cdd->update_chunk("Bob", "Ty7e", "real", 0, payload_of(100)).ok());

  using Probe = ErrorCode (*)(CloudDataDistributor&, const std::string&);
  const std::vector<std::pair<const char*, Probe>> ops = {
      {"get_chunk",
       [](CloudDataDistributor& c, const std::string& n) {
         return c.get_chunk("Bob", "wrong", n, 0).status().code();
       }},
      {"get_file",
       [](CloudDataDistributor& c, const std::string& n) {
         return c.get_file("Bob", "wrong", n).status().code();
       }},
      {"update_chunk",
       [](CloudDataDistributor& c, const std::string& n) {
         return c.update_chunk("Bob", "wrong", n, 0, payload_of(10)).code();
       }},
      {"get_chunk_snapshot",
       [](CloudDataDistributor& c, const std::string& n) {
         return c.get_chunk_snapshot("Bob", "wrong", n, 0).status().code();
       }},
      {"remove_chunk",
       [](CloudDataDistributor& c, const std::string& n) {
         return c.remove_chunk("Bob", "wrong", n, 0).code();
       }},
      {"remove_file",
       [](CloudDataDistributor& c, const std::string& n) {
         return c.remove_file("Bob", "wrong", n).code();
       }},
  };
  for (const auto& [op, probe] : ops) {
    for (const char* name : {"real", "missing"}) {
      EXPECT_EQ(probe(*f.cdd, name), ErrorCode::kPermissionDenied)
          << op << " on " << name;
    }
  }
  EXPECT_TRUE(f.cdd->get_file("Bob", "Ty7e", "real").ok());
}

TEST(DistributorTest, PartialPutFailureRollsBackAllStripes) {
  for (std::size_t workers : {8, 1}) {
    storage::ProviderRegistry registry;
    for (int i = 0; i < 5; ++i) {
      storage::ProviderDescriptor d;
      d.name = "P" + std::to_string(i);
      d.privacy_level = PrivacyLevel::kHigh;
      d.cost_level = CostLevel::kCheapest;
      registry.add(std::move(d));
    }
    DistributorConfig config;
    config.stripe_data_shards = 3;
    config.worker_threads = workers;
    CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("Bob").ok());
    ASSERT_TRUE(cdd.add_password("Bob", "Ty7e", PrivacyLevel::kHigh).ok());

    // Two of the five eligible providers are down. Eligibility is trust,
    // not availability, so placement keeps selecting them -- and with only
    // one provider outside each 4-wide stripe, the write-quarantine
    // re-placement path cannot rescue a stripe that lost two shards (or
    // whose only spare is the other dead provider): every stripe fails.
    registry.at(3).install_fault_plan(storage::FaultPlan::outage(3), 3);
    registry.at(4).install_fault_plan(storage::FaultPlan::outage(4), 4);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;  // 1 KiB chunks -> 64 chunks
    const Bytes data = payload_of(64 * 1024, workers == 8 ? 11 : 12);
    EXPECT_FALSE(cdd.put_file("Bob", "Ty7e", "wedge", data, opts).ok())
        << "workers=" << workers;

    // No orphans: every shard of every stripe written before the failure
    // must have been dropped again.
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      EXPECT_EQ(registry.at(p).object_count(), 0u)
          << "workers=" << workers << " provider " << p;
    }
    for (const auto& row : cdd.metadata().provider_table()) {
      EXPECT_EQ(row.count(), 0u) << row.name;
    }
    EXPECT_TRUE(cdd.metadata().file_chunks("Bob", "wedge").empty());

    // The filename claim was released with the rollback: a retry once the
    // providers recover succeeds and round-trips. The retries against the
    // dead providers opened their breakers; recovery resets them (the
    // operator's "provider is back" action -- organic half-open healing is
    // chaos_test territory).
    registry.at(3).install_fault_plan(nullptr, 3);
    registry.at(4).install_fault_plan(nullptr, 4);
    registry.breaker(3).reset();
    registry.breaker(4).reset();
    ASSERT_TRUE(cdd.put_file("Bob", "Ty7e", "wedge", data, opts).ok());
    Result<Bytes> back = cdd.get_file("Bob", "Ty7e", "wedge");
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data));
  }
}

TEST(DistributorTest, SingleWorkerMatchesPooled) {
  // One worker walks a file's stripes one at a time -- the per-stripe
  // barrier baseline bench_throughput gates against. It must stay
  // behaviorally identical to the pooled engine.
  for (std::size_t workers : {8, 1}) {
    storage::ProviderRegistry registry = storage::make_default_registry(12);
    DistributorConfig config;
    config.stripe_data_shards = 3;
    config.misleading_fraction = 0.2;
    config.worker_threads = workers;
    CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("Bob").ok());
    ASSERT_TRUE(cdd.add_password("Bob", "Ty7e", PrivacyLevel::kHigh).ok());
    const Bytes data = payload_of(50000, 77);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    ASSERT_TRUE(cdd.put_file("Bob", "Ty7e", "ab.bin", data, opts).ok());
    Result<Bytes> back = cdd.get_file("Bob", "Ty7e", "ab.bin");
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data)) << "workers=" << workers;
    ASSERT_TRUE(cdd.remove_file("Bob", "Ty7e", "ab.bin").ok());
    std::size_t stored = 0;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      stored += registry.at(p).object_count();
    }
    EXPECT_EQ(stored, 0u) << "workers=" << workers;
  }
}

TEST(DistributorTest, RepairRestoresLostShards) {
  DistFixture f(raid::RaidLevel::kRaid5);
  const Bytes data = payload_of(20000);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kPublic;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "durable", data, opts).ok());

  // A provider goes out of business: its shards are gone for good.
  ProviderIndex victim = kNoProvider;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    if (f.registry.at(p).object_count() > 0) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoProvider);
  f.registry.at(victim).go_out_of_business();

  Result<std::size_t> repaired = f.cdd->repair();
  ASSERT_TRUE(repaired.ok()) << repaired.status().to_string();
  EXPECT_GT(repaired.value(), 0u);

  // Now a SECOND provider can fail and the file still reads (full
  // redundancy was restored).
  ProviderIndex second = kNoProvider;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    if (p != victim && f.registry.at(p).object_count() > 0) {
      second = p;
      break;
    }
  }
  ASSERT_NE(second, kNoProvider);
  f.registry.at(second).install_fault_plan(
      storage::FaultPlan::outage(second), second);
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "durable");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));

  // Idempotence: nothing left to repair once the second provider returns.
  // The degraded read tripped its breaker; reset it with the recovery,
  // otherwise repair (correctly) treats the quarantined provider's shards
  // as broken and re-homes them.
  f.registry.at(second).install_fault_plan(nullptr, second);
  f.registry.breaker(second).reset();
  Result<std::size_t> again = f.cdd->repair();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST(DistributorTest, VirtualIdsConcealClientIdentity) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  const Bytes data = payload_of(5000);
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "veiled.doc", data, opts).ok());
  // Providers see only 64-bit ids; ids must not embed the client name or
  // filename bytes, and must all be distinct.
  std::set<VirtualId> all_ids;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    for (VirtualId id : f.registry.at(p).list_ids()) {
      EXPECT_TRUE(all_ids.insert(id).second) << "duplicate virtual id";
    }
  }
  EXPECT_GT(all_ids.size(), 0u);
}

TEST(DistributorTest, ProviderTableMirrorsPlacement) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kPublic;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "ledger", payload_of(70000), opts).ok());
  const auto table = f.cdd->metadata().provider_table();
  ASSERT_EQ(table.size(), f.registry.size());
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    EXPECT_EQ(table[p].count(), f.registry.at(p).object_count())
        << "provider " << table[p].name;
  }
}

TEST(DistributorTest, HighSensitivityOnlyOnTrustedProviders) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "top", payload_of(4000), opts).ok());
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    if (f.registry.at(p).object_count() > 0) {
      EXPECT_EQ(level_index(f.registry.at(p).descriptor().privacy_level), 3)
          << "PL3 chunk landed on untrusted provider "
          << f.registry.at(p).descriptor().name;
    }
  }
}

TEST(DistributorTest, ListFilesFiltersByPrivilege) {
  DistFixture f;
  PutOptions low;
  low.privacy_level = PrivacyLevel::kLow;
  PutOptions high;
  high.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "memo.txt", payload_of(20000),
                              low).ok());
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "vault.key", payload_of(2000),
                              high).ok());

  // High-privilege password sees both; low-privilege password cannot even
  // learn the sensitive file's name.
  Result<std::vector<CloudDataDistributor::FileInfo>> all =
      f.cdd->list_files("Bob", "Ty7e");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), 2u);
  Result<std::vector<CloudDataDistributor::FileInfo>> some =
      f.cdd->list_files("Bob", "x9pr");
  ASSERT_TRUE(some.ok());
  ASSERT_EQ(some.value().size(), 1u);
  EXPECT_EQ(some.value()[0].filename, "memo.txt");
  EXPECT_EQ(some.value()[0].privacy_level, PrivacyLevel::kLow);
  EXPECT_GT(some.value()[0].chunks, 0u);
  // Bad credentials are rejected before any listing.
  EXPECT_FALSE(f.cdd->list_files("Bob", "nope").ok());
  EXPECT_FALSE(f.cdd->list_files("Eve", "Ty7e").ok());
}

TEST(DistributorTest, EmptyFileRoundTrips) {
  DistFixture f;
  PutOptions opts;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "empty", {}, opts).ok());
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "empty");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

// --- multi-distributor (Fig. 2) ------------------------------------------------------

TEST(DistributorGroupTest, SecondariesSeePrimaryUploads) {
  storage::ProviderRegistry reg = storage::make_default_registry(12);
  DistributorConfig config;
  config.stripe_data_shards = 3;
  DistributorGroup group(reg, config, 3);
  ASSERT_TRUE(group.register_client("Roy").ok());
  ASSERT_TRUE(group.add_password("Roy", "eV2t", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(12000);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  ASSERT_TRUE(group.put_file("Roy", "eV2t", "shared", data, opts).ok());
  // Every front-end can serve the read -- they share one namespace.
  for (std::size_t i = 0; i < group.size(); ++i) {
    Result<Bytes> back = group.at(i).get_file("Roy", "eV2t", "shared");
    ASSERT_TRUE(back.ok()) << "distributor " << i;
    EXPECT_TRUE(equal(back.value(), data));
  }
}

TEST(DistributorGroupTest, PrimaryIsStablePerClient) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  DistributorGroup group(reg, DistributorConfig{}, 4);
  auto& p1 = group.primary_for("Alice");
  auto& p2 = group.primary_for("Alice");
  EXPECT_EQ(&p1, &p2);
}

TEST(DistributorGroupTest, RoundRobinReadsRotate) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  DistributorGroup group(reg, DistributorConfig{}, 3);
  std::set<CloudDataDistributor*> seen;
  for (int i = 0; i < 3; ++i) seen.insert(&group.any());
  EXPECT_EQ(seen.size(), 3u);
}

// --- client-side DHT distributor (SIV-C) ----------------------------------------------

TEST(ClientSideTest, PutGetRemoveFlow) {
  storage::ProviderRegistry reg = storage::make_default_registry(12);
  ClientSideConfig cfg;
  cfg.replicas = 2;
  ClientSideDistributor client(reg, cfg);
  const Bytes data = payload_of(50000);
  ASSERT_TRUE(client.put_file("report.pdf", data, PrivacyLevel::kLow).ok());
  Result<Bytes> back = client.get_file("report.pdf");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), data));
  ASSERT_TRUE(client.remove_file("report.pdf").ok());
  EXPECT_EQ(client.get_file("report.pdf").status().code(),
            ErrorCode::kNotFound);
}

TEST(ClientSideTest, ReplicationSurvivesOneProviderLoss) {
  storage::ProviderRegistry reg = storage::make_default_registry(12);
  ClientSideConfig cfg;
  cfg.replicas = 2;
  ClientSideDistributor client(reg, cfg);
  const Bytes data = payload_of(20000);
  ASSERT_TRUE(client.put_file("ha.bin", data, PrivacyLevel::kPublic).ok());
  // Kill one provider holding objects.
  for (ProviderIndex p = 0; p < reg.size(); ++p) {
    if (reg.at(p).object_count() > 0) {
      reg.at(p).install_fault_plan(storage::FaultPlan::outage(p), p);
      break;
    }
  }
  Result<Bytes> back = client.get_file("ha.bin");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(ClientSideTest, HighPlacementRespectsTrust) {
  storage::ProviderRegistry reg = storage::make_default_registry(12);
  ClientSideDistributor client(reg, ClientSideConfig{});
  ASSERT_TRUE(
      client.put_file("vault", payload_of(6000), PrivacyLevel::kHigh).ok());
  for (ProviderIndex p = 0; p < reg.size(); ++p) {
    if (reg.at(p).object_count() > 0) {
      EXPECT_EQ(level_index(reg.at(p).descriptor().privacy_level), 3);
    }
  }
}

TEST(ClientSideTest, LocalTableMemoryIsTracked) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  ClientSideDistributor client(reg, ClientSideConfig{});
  EXPECT_EQ(client.local_table_bytes(), 0u);
  ASSERT_TRUE(
      client.put_file("m.bin", payload_of(50000), PrivacyLevel::kLow).ok());
  EXPECT_GT(client.local_table_bytes(), 0u);
}

TEST(ClientSideTest, DuplicateFilenameRejected) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  ClientSideDistributor client(reg, ClientSideConfig{});
  ASSERT_TRUE(
      client.put_file("d", payload_of(10), PrivacyLevel::kPublic).ok());
  EXPECT_EQ(client.put_file("d", payload_of(10), PrivacyLevel::kPublic).code(),
            ErrorCode::kAlreadyExists);
}

TEST(ClientSideTest, GetChunkBySerial) {
  storage::ProviderRegistry reg = storage::make_default_registry(8);
  ClientSideConfig cfg;
  ClientSideDistributor client(reg, cfg);
  const Bytes data = payload_of(3000);
  ASSERT_TRUE(client.put_file("c", data, PrivacyLevel::kHigh).ok());
  Result<Bytes> c1 = client.get_chunk("c", 1);
  ASSERT_TRUE(c1.ok());
  EXPECT_TRUE(equal(c1.value(), slice(data, 1024, 1024)));
}

// --- makespan model --------------------------------------------------------------------

TEST(MakespanTest, SerialEqualsSumParallelEqualsMax) {
  std::vector<SimDuration> times{SimDuration(100), SimDuration(200),
                                 SimDuration(300)};
  EXPECT_EQ(parallel_makespan(times, 1).count(), 600);
  EXPECT_EQ(parallel_makespan(times, 3).count(), 300);
  EXPECT_EQ(parallel_makespan(times, 100).count(), 300);
}

TEST(MakespanTest, GreedySchedulingPacks) {
  // Channels: {100}, {60, 50} -> makespan 110.
  std::vector<SimDuration> times{SimDuration(100), SimDuration(60),
                                 SimDuration(50)};
  EXPECT_EQ(parallel_makespan(times, 2).count(), 110);
}

TEST(MakespanTest, EmptyIsZero) {
  EXPECT_EQ(parallel_makespan({}, 4).count(), 0);
}

// --- partial encryption (SVII-E) ------------------------------------------------------

crypto::AesKey test_key() {
  return {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 11, 12, 13, 14, 15, 16};
}

TEST(PartialEncryptionTest, SelfInverse) {
  PartialEncryptor enc({"a", "b", "c"}, {"b"}, test_key());
  Bytes data = payload_of(enc.record_size() * 10, 1);
  Result<Bytes> ct = enc.apply(data);
  ASSERT_TRUE(ct.ok());
  EXPECT_FALSE(equal(ct.value(), data));
  Result<Bytes> pt = enc.apply(ct.value());
  ASSERT_TRUE(pt.ok());
  EXPECT_TRUE(equal(pt.value(), data));
}

TEST(PartialEncryptionTest, OnlySensitiveFieldsChange) {
  PartialEncryptor enc({"a", "b", "c"}, {"b"}, test_key());
  const std::size_t rec = enc.record_size();
  const Bytes data = payload_of(rec * 5, 2);
  const Bytes ct = enc.apply(data).value();
  for (std::size_t r = 0; r < 5; ++r) {
    // Column a (bytes 0..7) and c (16..23) untouched; b (8..15) encrypted.
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(ct[r * rec + b], data[r * rec + b]);
      EXPECT_EQ(ct[r * rec + 16 + b], data[r * rec + 16 + b]);
    }
    bool b_changed = false;
    for (std::size_t b = 8; b < 16; ++b) {
      b_changed |= ct[r * rec + b] != data[r * rec + b];
    }
    EXPECT_TRUE(b_changed) << "record " << r;
  }
}

TEST(PartialEncryptionTest, RecordsEncryptIndependently) {
  // Decrypting a suffix with the right base_record index works: random
  // access by row, the property the paper's query-overhead argument needs.
  PartialEncryptor enc({"a", "b"}, {"a", "b"}, test_key());
  const std::size_t rec = enc.record_size();
  const Bytes data = payload_of(rec * 8, 3);
  const Bytes ct = enc.apply(data).value();
  const Bytes tail_ct = slice(ct, rec * 5, rec * 3);
  Result<Bytes> tail_pt = enc.apply(tail_ct, /*base_record=*/5);
  ASSERT_TRUE(tail_pt.ok());
  EXPECT_TRUE(equal(tail_pt.value(), BytesView(data.data() + rec * 5,
                                               rec * 3)));
}

TEST(PartialEncryptionTest, RejectsPartialRecords) {
  PartialEncryptor enc({"a"}, {"a"}, test_key());
  EXPECT_FALSE(enc.apply(Bytes(enc.record_size() + 1, 0)).ok());
}

TEST(PartialEncryptionTest, UnknownColumnThrows) {
  EXPECT_THROW(PartialEncryptor({"a"}, {"zz"}, test_key()),
               std::invalid_argument);
}

TEST(PartialEncryptionTest, NoSensitiveColumnsIsIdentity) {
  PartialEncryptor enc({"a", "b"}, {}, test_key());
  const Bytes data = payload_of(enc.record_size() * 3, 4);
  EXPECT_TRUE(equal(enc.apply(data).value(), data));
}

// --- reputation (SIV-A reliability) ---------------------------------------------------

TEST(ReputationTest, StartsTrusted) {
  ReputationTracker tracker(4);
  for (ProviderIndex p = 0; p < 4; ++p) {
    EXPECT_EQ(tracker.tier(p), PrivacyLevel::kHigh);
  }
}

TEST(ReputationTest, FailuresDemoteSuccessesRestore) {
  ReputationTracker tracker(2);
  // Hammer provider 0 with failures until it loses PL3 trust.
  int failures = 0;
  while (tracker.tier(0) == PrivacyLevel::kHigh && failures < 1000) {
    tracker.record(0, false);
    ++failures;
  }
  EXPECT_GT(failures, 0);
  EXPECT_LT(failures, 100);
  EXPECT_LT(level_index(tracker.tier(0)), 3);
  EXPECT_EQ(tracker.tier(1), PrivacyLevel::kHigh);  // untouched peer
  // A long run of successes restores trust.
  for (int i = 0; i < 500; ++i) tracker.record(0, true);
  EXPECT_EQ(tracker.tier(0), PrivacyLevel::kHigh);
}

TEST(ReputationTest, ScoreIsBoundedEwma) {
  ReputationTracker tracker(1);
  for (int i = 0; i < 100; ++i) tracker.record(0, false);
  EXPECT_GE(tracker.score(0), 0.0);
  EXPECT_LT(tracker.score(0), 0.05);
  for (int i = 0; i < 1000; ++i) tracker.record(0, true);
  EXPECT_LE(tracker.score(0), 1.0);
  EXPECT_GT(tracker.score(0), 0.95);
}

TEST(ReputationTest, DemotionSpeedMatchesConfig) {
  ReputationTracker tracker(1);
  const int expected = tracker.failures_to_demote_from_high();
  ReputationTracker fresh(1, ReputationConfig{1.0, 0.05, {0.5, 0.75, 0.9}});
  int n = 0;
  while (fresh.tier(0) == PrivacyLevel::kHigh && n < 1000) {
    fresh.record(0, false);
    ++n;
  }
  EXPECT_EQ(n, expected);
}

// --- rebalance (trust-driven migration) ------------------------------------------------

TEST(RebalanceTest, MigratesShardsOffDemotedProvider) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Bytes data = payload_of(6000);
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "crown", data, opts).ok());

  // Find a provider holding PL3 shards and demote it to PL1 (reputation
  // collapse).
  ProviderIndex demoted = kNoProvider;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    if (f.registry.at(p).object_count() > 0) {
      demoted = p;
      break;
    }
  }
  ASSERT_NE(demoted, kNoProvider);
  // Another PL3 provider must be free to take the shards: promote one of
  // the lower-tier providers to PL3 first (re-rating goes both ways).
  ProviderIndex promoted = kNoProvider;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    if (level_index(f.registry.at(p).descriptor().privacy_level) < 3) {
      promoted = p;
      f.registry.at(p).set_privacy_level(PrivacyLevel::kHigh);
      break;
    }
  }
  ASSERT_NE(promoted, kNoProvider);
  f.registry.at(demoted).set_privacy_level(PrivacyLevel::kLow);

  Result<std::size_t> moved = f.cdd->rebalance();
  ASSERT_TRUE(moved.ok()) << moved.status().to_string();
  EXPECT_GT(moved.value(), 0u);
  EXPECT_EQ(f.registry.at(demoted).object_count(), 0u)
      << "demoted provider must hold no sensitive shards";

  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "crown");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));

  // Idempotent once trust is consistent.
  Result<std::size_t> again = f.cdd->rebalance();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST(RebalanceTest, NoopWhenAllProvidersTrusted) {
  DistFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "calm", payload_of(3000), opts).ok());
  Result<std::size_t> moved = f.cdd->rebalance();
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 0u);
}

}  // namespace
}  // namespace cshield::core
