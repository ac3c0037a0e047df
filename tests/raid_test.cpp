// Tests for the RAID/erasure-coding layer. The heart is a parameterized
// sweep proving decode() recovers the payload for EVERY erasure pattern each
// level claims to tolerate, and refuses (rather than mis-decodes) beyond.
// The sweep and the reconstruct tests also run under both kernel dispatch
// arms (forced scalar vs the widest SIMD the host has) and require
// bit-identical stripes from each.
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "crypto/gf256_kernels.hpp"
#include "raid/raid.hpp"
#include "util/random.hpp"

namespace cshield::raid {
namespace {

namespace kern = gf256::kernels;

Bytes random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

std::vector<std::optional<Bytes>> to_optional(const EncodedStripe& stripe) {
  return shard_copies(stripe);
}

/// Restores the dispatch arm a test overrode, even on assertion exit.
class ScopedArm {
 public:
  explicit ScopedArm(kern::Arm arm) : prev_(kern::set_active_arm(arm)) {}
  ~ScopedArm() { kern::set_active_arm(prev_); }
  ScopedArm(const ScopedArm&) = delete;
  ScopedArm& operator=(const ScopedArm&) = delete;

 private:
  kern::Arm prev_;
};

// --- StripeLayout -------------------------------------------------------------

TEST(StripeLayoutTest, MakeDerivesParityCounts) {
  EXPECT_EQ(StripeLayout::make(RaidLevel::kNone, 1).total_shards(), 1u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid0, 4).total_shards(), 4u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid1, 1, 2).total_shards(), 3u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid5, 4).total_shards(), 5u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid6, 4).total_shards(), 6u);
}

TEST(StripeLayoutTest, FaultToleranceByLevel) {
  EXPECT_EQ(StripeLayout::make(RaidLevel::kNone, 1).fault_tolerance(), 0u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid0, 3).fault_tolerance(), 0u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid1, 1, 2).fault_tolerance(), 2u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid5, 3).fault_tolerance(), 1u);
  EXPECT_EQ(StripeLayout::make(RaidLevel::kRaid6, 3).fault_tolerance(), 2u);
}

TEST(StripeLayoutTest, OverheadFactors) {
  EXPECT_DOUBLE_EQ(StripeLayout::make(RaidLevel::kNone, 1).overhead_factor(),
                   1.0);
  EXPECT_DOUBLE_EQ(StripeLayout::make(RaidLevel::kRaid1, 1, 1).overhead_factor(),
                   2.0);
  EXPECT_DOUBLE_EQ(StripeLayout::make(RaidLevel::kRaid5, 4).overhead_factor(),
                   1.25);
  EXPECT_DOUBLE_EQ(StripeLayout::make(RaidLevel::kRaid6, 4).overhead_factor(),
                   1.5);
}

TEST(StripeLayoutTest, StoredBytesMatchEncodedArena) {
  const Bytes payload = random_payload(1001, 3);  // deliberately not divisible
  for (const StripeLayout layout :
       {StripeLayout::make(RaidLevel::kNone, 1),
        StripeLayout::make(RaidLevel::kRaid0, 4),
        StripeLayout::make(RaidLevel::kRaid1, 1, 2),
        StripeLayout::make(RaidLevel::kRaid5, 3),
        StripeLayout::make(RaidLevel::kRaid6, 4)}) {
    EXPECT_EQ(layout.stored_bytes(payload.size()),
              encode(layout, payload).arena.size());
  }
  StripeLayout malformed;
  malformed.data_shards = 0;  // as a corrupt checkpoint row can carry
  EXPECT_EQ(malformed.stored_bytes(payload.size()), 0u);
}

TEST(StripeLayoutTest, InvalidShapesThrow) {
  EXPECT_THROW((void)StripeLayout::make(RaidLevel::kRaid5, 1), std::invalid_argument);
  EXPECT_THROW((void)StripeLayout::make(RaidLevel::kRaid1, 1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)StripeLayout::make(RaidLevel::kRaid6, 300),
               std::invalid_argument);
}

// --- encode shape ---------------------------------------------------------------

TEST(EncodeTest, ShardsAreEqualLength) {
  const Bytes payload = random_payload(1001, 1);  // deliberately not divisible
  for (auto level : {RaidLevel::kRaid0, RaidLevel::kRaid5, RaidLevel::kRaid6}) {
    const StripeLayout layout = StripeLayout::make(level, 4);
    const EncodedStripe stripe = encode(layout, payload);
    ASSERT_EQ(stripe.shard_count, layout.total_shards());
    EXPECT_EQ(stripe.arena.size(), stripe.shard_count * stripe.shard_size);
    for (std::size_t i = 0; i < stripe.shard_count; ++i) {
      EXPECT_EQ(stripe.shard(i).size(), stripe.shard_size);
    }
    EXPECT_EQ(stripe.original_size, payload.size());
    EXPECT_GE(stripe.shard_size * layout.data_shards, payload.size());
  }
}

TEST(EncodeTest, Raid1ShardsAreFullCopies) {
  const Bytes payload = random_payload(100, 2);
  const EncodedStripe stripe =
      encode(StripeLayout::make(RaidLevel::kRaid1, 1, 2), payload);
  ASSERT_EQ(stripe.shard_count, 3u);
  for (std::size_t i = 0; i < stripe.shard_count; ++i) {
    EXPECT_TRUE(equal(stripe.shard(i), payload));
  }
}

TEST(EncodeTest, Raid5ParityIsXorOfData) {
  const Bytes payload = random_payload(64, 3);
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid5, 4);
  const EncodedStripe stripe = encode(layout, payload);
  Bytes x(stripe.shard_size, 0);
  for (std::size_t i = 0; i < 4; ++i) xor_into(x, stripe.shard(i));
  EXPECT_TRUE(equal(x, stripe.shard(4)));
}

TEST(EncodeTest, EmptyPayloadProducesEmptyShards) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid5, 3);
  const EncodedStripe stripe = encode(layout, {});
  EXPECT_EQ(stripe.original_size, 0u);
  Result<Bytes> r = decode(layout, to_optional(stripe), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

// --- parameterized erasure sweeps -----------------------------------------------
//
// For each (level, k, payload size) we hit every single- and double-erasure
// pattern and check exact recovery within tolerance / clean failure beyond.

struct ErasureCase {
  RaidLevel level;
  std::size_t k;          // data shards (or replicas-1 for raid1)
  std::size_t payload;    // bytes
};

class ErasureSweep : public ::testing::TestWithParam<ErasureCase> {};

TEST_P(ErasureSweep, RecoversWithinToleranceFailsBeyond) {
  const auto& p = GetParam();
  const StripeLayout layout =
      p.level == RaidLevel::kRaid1
          ? StripeLayout::make(p.level, 1, p.k)
          : StripeLayout::make(p.level, p.k);
  const Bytes payload = random_payload(p.payload, 0xE1A5 + p.payload);
  const EncodedStripe stripe = encode(layout, payload);
  const std::size_t n = layout.total_shards();
  const std::size_t tolerance = layout.fault_tolerance();

  // No erasures: always decodes.
  {
    Result<Bytes> r = decode(layout, to_optional(stripe),
                             stripe.original_size);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(equal(r.value(), payload));
  }
  // Every single erasure.
  for (std::size_t e = 0; e < n; ++e) {
    auto shards = to_optional(stripe);
    shards[e].reset();
    Result<Bytes> r = decode(layout, shards, stripe.original_size);
    if (tolerance >= 1) {
      ASSERT_TRUE(r.ok()) << "erasure " << e;
      EXPECT_TRUE(equal(r.value(), payload)) << "erasure " << e;
    } else if (layout.level == RaidLevel::kRaid0 ||
               layout.level == RaidLevel::kNone) {
      EXPECT_FALSE(r.ok()) << "erasure " << e;
    }
  }
  // Every double erasure.
  for (std::size_t e1 = 0; e1 < n; ++e1) {
    for (std::size_t e2 = e1 + 1; e2 < n; ++e2) {
      auto shards = to_optional(stripe);
      shards[e1].reset();
      shards[e2].reset();
      Result<Bytes> r = decode(layout, shards, stripe.original_size);
      if (tolerance >= 2) {
        ASSERT_TRUE(r.ok()) << "erasures " << e1 << "," << e2;
        EXPECT_TRUE(equal(r.value(), payload))
            << "erasures " << e1 << "," << e2;
      } else if (layout.level == RaidLevel::kRaid5) {
        EXPECT_FALSE(r.ok()) << "erasures " << e1 << "," << e2;
      }
    }
  }
  // One more erasure than tolerated: must fail cleanly (never mis-decode).
  if (tolerance + 1 <= n) {
    auto shards = to_optional(stripe);
    for (std::size_t e = 0; e <= tolerance; ++e) shards[e].reset();
    Result<Bytes> r = decode(layout, shards, stripe.original_size);
    if (layout.level != RaidLevel::kRaid1 || tolerance + 1 == n) {
      EXPECT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), ErrorCode::kResourceExhausted);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, ErasureSweep,
    ::testing::Values(
        ErasureCase{RaidLevel::kNone, 1, 100},
        ErasureCase{RaidLevel::kRaid0, 3, 1000},
        ErasureCase{RaidLevel::kRaid0, 5, 17},
        ErasureCase{RaidLevel::kRaid1, 1, 256},
        ErasureCase{RaidLevel::kRaid1, 2, 999},
        ErasureCase{RaidLevel::kRaid5, 2, 64},
        ErasureCase{RaidLevel::kRaid5, 3, 1000},
        ErasureCase{RaidLevel::kRaid5, 4, 1},
        ErasureCase{RaidLevel::kRaid5, 7, 4096},
        ErasureCase{RaidLevel::kRaid6, 2, 100},
        ErasureCase{RaidLevel::kRaid6, 3, 1023},
        ErasureCase{RaidLevel::kRaid6, 4, 4097},
        ErasureCase{RaidLevel::kRaid6, 8, 257},
        ErasureCase{RaidLevel::kRaid6, 16, 1024}),
    [](const ::testing::TestParamInfo<ErasureCase>& info) {
      return std::string(raid_level_name(info.param.level)) + "_k" +
             std::to_string(info.param.k) + "_n" +
             std::to_string(info.param.payload);
    });

// --- reconstruct_shard -----------------------------------------------------------

TEST(ReconstructTest, RebuildsEveryShardOfRaid6) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, 5);
  const Bytes payload = random_payload(2048, 10);
  const EncodedStripe stripe = encode(layout, payload);
  for (std::size_t target = 0; target < layout.total_shards(); ++target) {
    auto shards = to_optional(stripe);
    shards[target].reset();
    Result<Bytes> r = reconstruct_shard(layout, shards, target);
    ASSERT_TRUE(r.ok()) << "target " << target;
    EXPECT_TRUE(equal(r.value(), stripe.shard(target))) << "target " << target;
  }
}

TEST(ReconstructTest, RebuildsUnderDoubleErasureRaid6) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, 4);
  const Bytes payload = random_payload(777, 11);
  const EncodedStripe stripe = encode(layout, payload);
  auto shards = to_optional(stripe);
  shards[1].reset();
  shards[3].reset();
  Result<Bytes> r = reconstruct_shard(layout, shards, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(r.value(), stripe.shard(1)));
}

TEST(ReconstructTest, FailsWhenNothingSurvives) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid5, 2);
  std::vector<std::optional<Bytes>> shards(3);
  EXPECT_FALSE(reconstruct_shard(layout, shards, 0).ok());
}

TEST(ReconstructTest, Raid1RebuildsReplica) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid1, 1, 2);
  const Bytes payload = random_payload(300, 12);
  const EncodedStripe stripe = encode(layout, payload);
  auto shards = to_optional(stripe);
  shards[0].reset();
  Result<Bytes> r = reconstruct_shard(layout, shards, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(r.value(), payload));
}

// --- dispatch arms -----------------------------------------------------------------
//
// The whole erasure pipeline must be bit-identical under the forced-scalar
// arm and the widest SIMD arm the host has: same stripes out of encode, same
// payloads out of decode, same rebuilt shards.

TEST(DispatchArmTest, EncodeDecodeReconstructIdenticalAcrossArms) {
  const kern::Arm best = cpu::preferred_level();
  const std::vector<std::pair<RaidLevel, std::size_t>> shapes = {
      {RaidLevel::kRaid5, 3}, {RaidLevel::kRaid6, 4}, {RaidLevel::kRaid6, 9}};
  for (const auto& [level, k] : shapes) {
    const StripeLayout layout = StripeLayout::make(level, k);
    for (std::size_t n : {1ul, 63ul, 1000ul, 4097ul}) {
      const Bytes payload = random_payload(n, 0xA7 + n + k);

      EncodedStripe scalar_stripe;
      Bytes scalar_decoded;
      Bytes scalar_rebuilt;
      {
        ScopedArm arm(kern::Arm::kScalar);
        scalar_stripe = encode(layout, payload);
        auto shards = to_optional(scalar_stripe);
        shards[0].reset();
        Result<Bytes> d = decode(layout, shards, payload.size());
        ASSERT_TRUE(d.ok());
        scalar_decoded = std::move(d).value();
        Result<Bytes> r = reconstruct_shard(layout, shards, 0);
        ASSERT_TRUE(r.ok());
        scalar_rebuilt = std::move(r).value();
      }
      {
        ScopedArm arm(best);
        const EncodedStripe simd_stripe = encode(layout, payload);
        EXPECT_TRUE(equal(simd_stripe.arena, scalar_stripe.arena))
            << raid_level_name(level) << " k=" << k << " n=" << n;
        auto shards = to_optional(simd_stripe);
        shards[0].reset();
        Result<Bytes> d = decode(layout, shards, payload.size());
        ASSERT_TRUE(d.ok());
        EXPECT_TRUE(equal(d.value(), scalar_decoded));
        EXPECT_TRUE(equal(d.value(), payload));
        Result<Bytes> r = reconstruct_shard(layout, shards, 0);
        ASSERT_TRUE(r.ok());
        EXPECT_TRUE(equal(r.value(), scalar_rebuilt));
      }
    }
  }
}

// --- targeted rebuild work accounting ----------------------------------------------
//
// reconstruct_shard must recompute only the asked-for shard: the old path
// (full decode + full re-encode) always paid the Q sweep's mul_add work even
// when rebuilding P or a data shard under RAID-5 semantics. The kernel work
// counters make that observable: rebuilding P or a data shard via P must do
// zero multiply bytes, and every rebuild stays within O(k * shard) bytes.

TEST(ReconstructWorkTest, ParityPRebuildDoesNoFieldMultiplies) {
  const std::size_t k = 8;
  const std::size_t payload_size = 8 * 4096;
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, k);
  const EncodedStripe stripe = encode(layout, random_payload(payload_size, 21));
  auto shards = to_optional(stripe);
  shards[k].reset();  // P erased
  kern::reset_work_stats();
  Result<Bytes> r = reconstruct_shard(layout, shards, k);
  const kern::WorkStats w = kern::work_stats();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(r.value(), stripe.shard(k)));
  EXPECT_EQ(w.mul_bytes, 0u) << "P rebuild re-encoded Q";
  EXPECT_EQ(w.xor_bytes, k * stripe.shard_size);
}

TEST(ReconstructWorkTest, DataRebuildViaPDoesNoFieldMultiplies) {
  const std::size_t k = 8;
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, k);
  const EncodedStripe stripe = encode(layout, random_payload(8 * 4096, 22));
  auto shards = to_optional(stripe);
  shards[2].reset();
  kern::reset_work_stats();
  Result<Bytes> r = reconstruct_shard(layout, shards, 2);
  const kern::WorkStats w = kern::work_stats();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(r.value(), stripe.shard(2)));
  EXPECT_EQ(w.mul_bytes, 0u) << "data rebuild re-encoded Q";
  // P is copied, then the k-1 surviving data shards are XORed into it.
  EXPECT_EQ(w.xor_bytes, (k - 1) * stripe.shard_size);
}

TEST(ReconstructWorkTest, ParityQRebuildIsOneMulAddSweep) {
  const std::size_t k = 8;
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, k);
  const EncodedStripe stripe = encode(layout, random_payload(8 * 4096, 23));
  auto shards = to_optional(stripe);
  shards[k + 1].reset();  // Q erased
  kern::reset_work_stats();
  Result<Bytes> r = reconstruct_shard(layout, shards, k + 1);
  const kern::WorkStats w = kern::work_stats();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(r.value(), stripe.shard(k + 1)));
  // The g^0 = 1 term routes through the XOR path; the rest are multiplies.
  // Old path additionally paid the k-shard P XOR sweep.
  EXPECT_EQ(w.mul_bytes, (k - 1) * stripe.shard_size);
  EXPECT_LE(w.xor_bytes, stripe.shard_size);
}

TEST(ReconstructWorkTest, PresentTargetIsPureCopy) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, 4);
  const EncodedStripe stripe = encode(layout, random_payload(4096, 24));
  auto shards = to_optional(stripe);
  shards[1].reset();  // unrelated erasure
  kern::reset_work_stats();
  Result<Bytes> r = reconstruct_shard(layout, shards, 3);
  const kern::WorkStats w = kern::work_stats();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(equal(r.value(), stripe.shard(3)));
  EXPECT_EQ(w.mul_bytes + w.xor_bytes, 0u);
}

// --- corrupt input ----------------------------------------------------------------

TEST(DecodeTest, ShortShardIsAnErrorNotGarbage) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid6, 4);
  const EncodedStripe stripe = encode(layout, random_payload(4096, 25));
  auto shards = to_optional(stripe);
  shards[2]->pop_back();  // provider returned a truncated shard
  Result<Bytes> r = decode(layout, shards, stripe.original_size);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  EXPECT_FALSE(reconstruct_shard(layout, shards, 5).ok());
}

// --- arity misuse -----------------------------------------------------------------

TEST(DecodeTest, WrongShardArityThrows) {
  const StripeLayout layout = StripeLayout::make(RaidLevel::kRaid5, 3);
  std::vector<std::optional<Bytes>> shards(2);
  EXPECT_THROW((void)decode(layout, shards, 10), std::invalid_argument);
}

}  // namespace
}  // namespace cshield::raid
