// Robustness suite: exhaustive parameter sweeps over the distributor's
// configuration space, concurrent multi-client stress, and fuzz-style
// garbage-input tests for every deserializer.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <tuple>

#include "core/distributor.hpp"
#include "core/metadata_io.hpp"
#include "core/misleading.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"
#include "workload/records.hpp"

namespace cshield {
namespace {

using core::CloudDataDistributor;
using core::DistributorConfig;
using core::PutOptions;

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

// --- parameterized end-to-end round trip -------------------------------------
//
// Every combination of RAID level x privacy level x chaff fraction x file
// size must round-trip byte-identically, survive the number of provider
// outages its code tolerates, and fail closed one outage beyond.

struct RoundTripCase {
  raid::RaidLevel level;
  int privacy;        // 0..3
  double misleading;  // chaff fraction
  std::size_t size;   // file bytes
};

class DistributorRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(DistributorRoundTrip, ExactRecoveryUnderToleratedOutages) {
  const RoundTripCase& p = GetParam();
  // All providers PL3 so every privacy level has a full fleet.
  storage::ProviderRegistry registry;
  for (int i = 0; i < 8; ++i) {
    storage::ProviderDescriptor d;
    d.name = "P" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = static_cast<CostLevel>(i % 4);
    registry.add(std::move(d));
  }
  DistributorConfig config;
  config.default_raid = p.level;
  config.stripe_data_shards = 3;
  config.replication = 2;
  config.misleading_fraction = p.misleading;
  CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());

  const Bytes data = payload_of(p.size, p.size + 31 * p.privacy);
  PutOptions opts;
  opts.privacy_level = privacy_level_from_int(p.privacy);
  ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts).ok());

  // Healthy read.
  {
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data));
  }
  // Reads under exactly-tolerated outages.
  const raid::StripeLayout layout =
      p.level == raid::RaidLevel::kRaid1
          ? raid::StripeLayout::make(p.level, 1, config.replication)
          : raid::StripeLayout::make(p.level, config.stripe_data_shards);
  const std::size_t tolerance = layout.fault_tolerance();
  for (std::size_t down = 0; down < tolerance; ++down) {
    registry.at(down).install_fault_plan(storage::FaultPlan::outage(down),
                                         down);
  }
  {
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    ASSERT_TRUE(back.ok())
        << "with " << tolerance << " providers down: "
        << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data));
  }
  // One more outage than tolerated: reads must fail closed (never return
  // wrong bytes) whenever the extra-down provider actually held shards.
  registry.at(tolerance).install_fault_plan(
      storage::FaultPlan::outage(tolerance), tolerance);
  {
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    if (back.ok()) {
      EXPECT_TRUE(equal(back.value(), data))
          << "a successful read must still be correct";
    }
  }
}

std::string round_trip_name(
    const ::testing::TestParamInfo<RoundTripCase>& info) {
  const auto& p = info.param;
  std::string s{raid::raid_level_name(p.level)};
  s += "_pl" + std::to_string(p.privacy);
  s += "_m" + std::to_string(static_cast<int>(p.misleading * 100));
  s += "_n" + std::to_string(p.size);
  return s;
}

std::vector<RoundTripCase> round_trip_cases() {
  std::vector<RoundTripCase> cases;
  for (auto level : {raid::RaidLevel::kNone, raid::RaidLevel::kRaid0,
                     raid::RaidLevel::kRaid1, raid::RaidLevel::kRaid5,
                     raid::RaidLevel::kRaid6}) {
    for (int pl : {0, 3}) {
      for (double m : {0.0, 0.15}) {
        for (std::size_t n : {0u, 1u, 3000u, 70001u}) {
          cases.push_back({level, pl, m, n});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, DistributorRoundTrip,
                         ::testing::ValuesIn(round_trip_cases()),
                         round_trip_name);

// --- fault-episode sweep -------------------------------------------------------
//
// Every RAID level x every FaultPlan episode kind: the operation either
// succeeds with byte-identical data or fails with a clean typed error --
// never wrong bytes, never a partially-registered file. Bounded faults
// (crash/slow/flaky on 2 of 8 providers) must be absorbed outright: the
// request layer retries transients, re-places shards off crashed
// providers, and rides out flaky bursts shorter than its attempt budget.

struct FaultSweepCase {
  raid::RaidLevel level;
  const char* kind;
};

class DistributorFaultSweep : public ::testing::TestWithParam<FaultSweepCase> {
};

std::shared_ptr<storage::FaultPlan> fault_plan_for(const std::string& kind) {
  auto plan = std::make_shared<storage::FaultPlan>();
  plan->seed = 0xFA5EED;
  if (kind == "crash_all") {
    storage::FaultEpisode ep;
    ep.kind = storage::FaultKind::kCrash;  // provider defaults to wildcard
    plan->episodes.push_back(ep);
    return plan;
  }
  for (ProviderIndex p = 0; p < 2; ++p) {  // providers 0 and 1 misbehave
    storage::FaultEpisode ep;
    ep.provider = p;
    if (kind == "transient") {
      ep.kind = storage::FaultKind::kTransient;
      ep.probability = 0.5;
    } else if (kind == "crash") {
      ep.kind = storage::FaultKind::kCrash;
    } else if (kind == "slow") {
      ep.kind = storage::FaultKind::kSlow;
      ep.slow_factor = 6.0;
    } else {
      ep.kind = storage::FaultKind::kFlaky;
      ep.period = 4;
      ep.burst = 2;  // 2 consecutive failures < the 4-attempt budget
    }
    plan->episodes.push_back(ep);
  }
  return plan;
}

TEST_P(DistributorFaultSweep, SucceedsOrFailsCleanNeverPartial) {
  const FaultSweepCase& p = GetParam();
  storage::ProviderRegistry registry;
  for (int i = 0; i < 8; ++i) {
    storage::ProviderDescriptor d;
    d.name = "P" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = static_cast<CostLevel>(i % 4);
    registry.add(std::move(d));
  }
  DistributorConfig config;
  config.default_raid = p.level;
  config.stripe_data_shards = 3;
  config.replication = 2;
  config.worker_threads = 1;  // deterministic request order per provider
  config.io_threads = 1;
  CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  registry.apply_fault_plan(fault_plan_for(p.kind));

  const Bytes data = payload_of(9000, 0xF0 + static_cast<int>(p.level));
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  const Status put = cdd.put_file("C", "pw", "f", data, opts);

  if (!put.ok()) {
    // A failed put must be a clean typed error with all-or-nothing
    // metadata: no chunk refs, and reads say the file does not exist.
    EXPECT_TRUE(put.code() == ErrorCode::kUnavailable ||
                put.code() == ErrorCode::kResourceExhausted)
        << put.to_string();
    EXPECT_TRUE(cdd.metadata().file_chunks("C", "f").empty());
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), ErrorCode::kNotFound);
    if (std::string(p.kind) == "crash_all") {
      // Crashes fire before anything lands in the object store.
      for (ProviderIndex i = 0; i < registry.size(); ++i) {
        EXPECT_EQ(registry.at(i).object_count(), 0u);
      }
    }
    return;
  }
  ASSERT_STRNE(p.kind, "crash_all") << "an all-provider crash cannot succeed";

  Result<Bytes> back = cdd.get_file("C", "pw", "f");
  if (back.ok()) {
    EXPECT_TRUE(equal(back.value(), data));
  } else {
    EXPECT_TRUE(back.status().code() == ErrorCode::kUnavailable ||
                back.status().code() == ErrorCode::kResourceExhausted ||
                back.status().code() == ErrorCode::kCorrupted)
        << back.status().to_string();
  }
  // Only unbounded random noise may fail at all; scripted crash/slow/flaky
  // on 2 of 8 providers must be fully absorbed.
  if (std::string(p.kind) != "transient") {
    EXPECT_TRUE(put.ok());
    EXPECT_TRUE(back.ok()) << back.status().to_string();
  }
}

std::string fault_sweep_name(
    const ::testing::TestParamInfo<FaultSweepCase>& info) {
  return std::string(raid::raid_level_name(info.param.level)) + "_" +
         info.param.kind;
}

std::vector<FaultSweepCase> fault_sweep_cases() {
  std::vector<FaultSweepCase> cases;
  for (auto level : {raid::RaidLevel::kRaid0, raid::RaidLevel::kRaid1,
                     raid::RaidLevel::kRaid5, raid::RaidLevel::kRaid6}) {
    for (const char* kind :
         {"transient", "crash", "slow", "flaky", "crash_all"}) {
      cases.push_back({level, kind});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Faults, DistributorFaultSweep,
                         ::testing::ValuesIn(fault_sweep_cases()),
                         fault_sweep_name);

// --- concurrency stress --------------------------------------------------------

TEST(ConcurrencyTest, ParallelClientsDoNotInterfere) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.05;
  config.worker_threads = 4;
  CloudDataDistributor cdd(registry, config);

  constexpr int kThreads = 8;
  constexpr int kFilesPerThread = 6;
  // Register clients up front (registration itself is also thread-safe,
  // but this test focuses on the data path).
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(cdd.register_client("client" + std::to_string(t)).ok());
    ASSERT_TRUE(cdd.add_password("client" + std::to_string(t), "pw",
                                 PrivacyLevel::kHigh)
                    .ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string client = "client" + std::to_string(t);
      for (int f = 0; f < kFilesPerThread; ++f) {
        const Bytes data =
            payload_of(500 + static_cast<std::size_t>(f) * 997,
                       static_cast<std::uint64_t>(t * 100 + f));
        const std::string name = "f" + std::to_string(f);
        PutOptions opts;
        opts.privacy_level = PrivacyLevel::kModerate;
        if (!cdd.put_file(client, "pw", name, data, opts).ok()) {
          failures.fetch_add(1);
          continue;
        }
        Result<Bytes> back = cdd.get_file(client, "pw", name);
        if (!back.ok() || !equal(back.value(), data)) {
          failures.fetch_add(1);
        }
        if (f % 2 == 0) {
          if (!cdd.remove_file(client, "pw", name).ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Remaining files all still read correctly after the storm.
  for (int t = 0; t < kThreads; ++t) {
    const std::string client = "client" + std::to_string(t);
    for (int f = 1; f < kFilesPerThread; f += 2) {
      const Bytes expected =
          payload_of(500 + static_cast<std::size_t>(f) * 997,
                     static_cast<std::uint64_t>(t * 100 + f));
      Result<Bytes> back =
          cdd.get_file(client, "pw", "f" + std::to_string(f));
      ASSERT_TRUE(back.ok()) << client << "/f" << f;
      EXPECT_TRUE(equal(back.value(), expected));
    }
  }
}

TEST(ConcurrencyTest, ParallelReadsOfOneFile) {
  storage::ProviderRegistry registry = storage::make_default_registry(8);
  CloudDataDistributor cdd(registry, DistributorConfig{});
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(60000, 1);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kLow;
  ASSERT_TRUE(cdd.put_file("C", "pw", "hot", data, opts).ok());

  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        Result<Bytes> back = cdd.get_file("C", "pw", "hot");
        if (!back.ok() || !equal(back.value(), data)) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

// --- fuzz-style garbage input ----------------------------------------------------

TEST(FuzzTest, MetadataDeserializerNeverCrashesOnGarbage) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes garbage(rng.below(300));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    // Must return an error (or, astronomically unlikely, parse) -- never
    // crash or hang.
    (void)core::deserialize_metadata(garbage);
  }
}

TEST(FuzzTest, MetadataDeserializerSurvivesBitFlips) {
  core::MetadataStore store;
  store.register_provider("P", PrivacyLevel::kHigh, CostLevel::kCheap);
  (void)store.register_client("C");
  (void)store.add_password("C", "pw", PrivacyLevel::kHigh);
  core::ChunkEntry e;
  e.stripe = {{0, 1}};
  e.shard_digests.resize(1);
  (void)store.add_chunk("C", "f", 0, e);
  const Bytes image = core::serialize_metadata(store);

  Rng rng(0xF1B);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes mutated = image;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t i = 0; i < flips; ++i) {
      mutated[rng.below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.below(8));
    }
    Result<std::shared_ptr<core::MetadataStore>> r =
        core::deserialize_metadata(mutated);
    // Either rejected or parsed into *some* store; both fine, no crash.
    (void)r;
  }
}

TEST(FuzzTest, DatasetDeserializerNeverCrashes) {
  Rng rng(0xF0D5);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes garbage(rng.below(200));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    (void)workload::deserialize_dataset(garbage);
  }
}

TEST(FuzzTest, MisleadingStripRejectsCorruptPositions) {
  // Positions beyond the buffer violate the codec's contract; the codec
  // must throw (precondition), not read out of bounds.
  const Bytes data = payload_of(100, 9);
  EXPECT_THROW(
      (void)core::MisleadingCodec::strip(data, {50, 200}),
      std::invalid_argument);
  EXPECT_THROW(
      (void)core::MisleadingCodec::strip(Bytes{}, {0}),
      std::invalid_argument);
}

TEST(FuzzTest, RecordDecodePrefixHandlesArbitraryBytes) {
  workload::RecordCodec codec({"a", "b", "c"});
  Rng rng(0xF0AD);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes garbage(rng.below(codec.record_size() * 10));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng.below(256));
    const mining::Dataset rows = codec.decode_prefix(garbage);
    EXPECT_EQ(rows.num_rows(), garbage.size() / codec.record_size());
  }
}

}  // namespace
}  // namespace cshield
