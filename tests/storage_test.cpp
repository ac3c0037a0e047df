// Tests for the simulated cloud-provider substrate: MemoryStore semantics,
// provider latency/fault models, registry eligibility and cost accounting.
#include <gtest/gtest.h>

#include <algorithm>

#include "storage/object_store.hpp"
#include "util/stats.hpp"
#include "storage/provider.hpp"
#include "storage/provider_registry.hpp"

namespace cshield::storage {
namespace {

// --- MemoryStore ------------------------------------------------------------

TEST(MemoryStoreTest, PutGetRoundTrip) {
  MemoryStore store;
  ASSERT_TRUE(store.put(42, to_bytes("payload")).ok());
  Result<Bytes> r = store.get(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(r.value()), "payload");
}

TEST(MemoryStoreTest, GetMissingIsNotFound) {
  MemoryStore store;
  EXPECT_EQ(store.get(1).status().code(), ErrorCode::kNotFound);
}

TEST(MemoryStoreTest, PutOverwrites) {
  MemoryStore store;
  ASSERT_TRUE(store.put(1, to_bytes("old")).ok());
  ASSERT_TRUE(store.put(1, to_bytes("newer")).ok());
  EXPECT_EQ(to_string(store.get(1).value()), "newer");
  EXPECT_EQ(store.object_count(), 1u);
  EXPECT_EQ(store.bytes_stored(), 5u);
}

TEST(MemoryStoreTest, RemoveDeletes) {
  MemoryStore store;
  ASSERT_TRUE(store.put(1, to_bytes("x")).ok());
  ASSERT_TRUE(store.remove(1).ok());
  EXPECT_FALSE(store.contains(1));
  EXPECT_EQ(store.remove(1).code(), ErrorCode::kNotFound);
  EXPECT_EQ(store.bytes_stored(), 0u);
}

TEST(MemoryStoreTest, ListIdsReturnsAll) {
  MemoryStore store;
  for (VirtualId id : {5u, 9u, 2u}) {
    ASSERT_TRUE(store.put(id, to_bytes("d")).ok());
  }
  auto ids = store.list_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<VirtualId>{2, 5, 9}));
}

TEST(MemoryStoreTest, WipeDropsEverything) {
  MemoryStore store;
  ASSERT_TRUE(store.put(1, to_bytes("abc")).ok());
  store.wipe();
  EXPECT_EQ(store.object_count(), 0u);
  EXPECT_EQ(store.bytes_stored(), 0u);
}

TEST(MemoryStoreTest, FlipByteCorruptsInPlace) {
  MemoryStore store;
  ASSERT_TRUE(store.put(1, to_bytes("abc")).ok());
  ASSERT_TRUE(store.flip_byte(1, 1).ok());
  EXPECT_NE(to_string(store.get(1).value()), "abc");
  EXPECT_EQ(store.flip_byte(1, 99).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(store.flip_byte(2, 0).code(), ErrorCode::kNotFound);
}

TEST(MemoryStoreTest, BatchedPutAndGetMatchPerOpSemantics) {
  MemoryStore store;
  ASSERT_TRUE(store.put(2, to_bytes("stale")).ok());
  // BatchPut holds views: the payloads must outlive the call.
  const Bytes one = to_bytes("one");
  const Bytes two = to_bytes("two");
  const Bytes three = to_bytes("three");
  const std::vector<BatchPut> batch = {{1, one}, {2, two}, {3, three}};
  const std::vector<Status> statuses = store.put_many(batch);
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& st : statuses) EXPECT_TRUE(st.ok());
  EXPECT_EQ(store.object_count(), 3u);
  EXPECT_EQ(to_string(store.get(2).value()), "two");  // overwrite, like put()

  const std::vector<Result<Bytes>> results = store.get_many({3, 99, 1});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(to_string(results[0].value()), "three");
  EXPECT_EQ(results[1].status().code(), ErrorCode::kNotFound);  // item-level miss
  EXPECT_EQ(to_string(results[2].value()), "one");
}

// --- LatencyModel -----------------------------------------------------------

TEST(LatencyModelTest, ServiceTimeScalesWithBytes) {
  LatencyModel model;
  model.base_latency = SimDuration(std::chrono::microseconds(100));
  model.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  model.jitter_mean = SimDuration(0);
  Rng rng(1);
  const SimDuration small = model.service_time(1000, rng);
  const SimDuration large = model.service_time(1000000, rng);
  // 1 MB at 1 MB/s = 1 s transfer; 1 KB = 1 ms.
  EXPECT_NEAR(static_cast<double>(small.count()), 100e3 + 1e6, 1e3);
  EXPECT_NEAR(static_cast<double>(large.count()), 100e3 + 1e9, 1e6);
}

TEST(LatencyModelTest, JitterIsNonNegativeAndVaries) {
  LatencyModel model;
  model.base_latency = SimDuration(0);
  model.bandwidth_bytes_per_sec = 0.0;  // isolate jitter
  model.jitter_mean = SimDuration(std::chrono::microseconds(100));
  Rng rng(2);
  RunningStats s;
  for (int i = 0; i < 5000; ++i) {
    const auto t = model.service_time(0, rng);
    EXPECT_GE(t.count(), 0);
    s.add(static_cast<double>(t.count()));
  }
  EXPECT_NEAR(s.mean(), 100e3, 10e3);  // mean ~ jitter_mean
  EXPECT_GT(s.stddev(), 0.0);
}

// --- SimCloudProvider --------------------------------------------------------

ProviderDescriptor test_descriptor() {
  ProviderDescriptor d;
  d.name = "TestCloud";
  d.privacy_level = PrivacyLevel::kModerate;
  d.cost_level = CostLevel::kCheap;
  d.price_per_gb_month = 0.02;
  return d;
}

TEST(ProviderTest, PutGetRemoveFlow) {
  SimCloudProvider p(test_descriptor());
  SimDuration t{0};
  ASSERT_TRUE(p.put(7, to_bytes("chunk"), &t).ok());
  EXPECT_GT(t.count(), 0);
  Result<Bytes> r = p.get(7, &t);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(to_string(r.value()), "chunk");
  ASSERT_TRUE(p.remove(7).ok());
  EXPECT_FALSE(p.contains(7));
}

TEST(ProviderTest, OutageMakesRequestsUnavailable) {
  SimCloudProvider p(test_descriptor());
  ASSERT_TRUE(p.put(1, to_bytes("x")).ok());
  p.set_online(false);
  EXPECT_EQ(p.put(2, to_bytes("y")).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(p.get(1).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(p.remove(1).code(), ErrorCode::kUnavailable);
  p.set_online(true);
  // Data survives a temporary outage.
  EXPECT_TRUE(p.get(1).ok());
}

TEST(ProviderTest, GoOutOfBusinessLosesData) {
  SimCloudProvider p(test_descriptor());
  ASSERT_TRUE(p.put(1, to_bytes("x")).ok());
  p.go_out_of_business();
  EXPECT_FALSE(p.online());
  EXPECT_EQ(p.object_count(), 0u);
}

TEST(ProviderTest, TransientFailuresFollowProbability) {
  SimCloudProvider p(test_descriptor());
  ASSERT_TRUE(p.put(1, to_bytes("x")).ok());
  FaultPlan plan;
  plan.episodes.push_back({0, FaultKind::kTransient, 0, kNoSeqEnd, 0.5});
  p.install_fault_plan(std::make_shared<const FaultPlan>(plan), 0);
  int failures = 0;
  for (int i = 0; i < 2000; ++i) {
    if (!p.get(1).ok()) ++failures;
  }
  EXPECT_GT(failures, 800);
  EXPECT_LT(failures, 1200);
}

TEST(ProviderTest, CountersTrackTraffic) {
  SimCloudProvider p(test_descriptor());
  ASSERT_TRUE(p.put(1, to_bytes("12345")).ok());
  ASSERT_TRUE(p.get(1).ok());
  ASSERT_TRUE(p.get(1).ok());
  EXPECT_EQ(p.counters().puts.load(), 1u);
  EXPECT_EQ(p.counters().gets.load(), 2u);
  EXPECT_EQ(p.counters().bytes_in.load(), 5u);
  EXPECT_EQ(p.counters().bytes_out.load(), 10u);
}

TEST(ProviderTest, BatchedPutCostsOneProviderRequest) {
  SimCloudProvider p(test_descriptor());
  const Bytes a = to_bytes("aaaa");
  const Bytes b = to_bytes("bb");
  const Bytes c = to_bytes("c");
  SimDuration t{0};
  const std::vector<Status> statuses =
      p.put_many({{10, a}, {11, b}, {12, c}}, &t);
  ASSERT_EQ(statuses.size(), 3u);
  for (const Status& st : statuses) EXPECT_TRUE(st.ok());
  EXPECT_GT(t.count(), 0);
  // One round trip, one fault-sequence tick -- but per-object traffic still
  // counts item by item, exactly as three put() calls would.
  EXPECT_EQ(p.fault_requests(), 1u);
  EXPECT_EQ(p.counters().batch_requests.load(), 1u);
  EXPECT_EQ(p.counters().puts.load(), 3u);
  EXPECT_EQ(p.counters().bytes_in.load(), 7u);

  const std::vector<Result<Bytes>> results = p.get_many({10, 11, 12});
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(to_string(results[0].value()), "aaaa");
  EXPECT_EQ(to_string(results[1].value()), "bb");
  EXPECT_EQ(to_string(results[2].value()), "c");
  EXPECT_EQ(p.fault_requests(), 2u);
  EXPECT_EQ(p.counters().batch_requests.load(), 2u);
  EXPECT_EQ(p.counters().gets.load(), 3u);
  EXPECT_EQ(p.counters().bytes_out.load(), 7u);
}

TEST(ProviderTest, BatchLevelFaultFailsEveryItem) {
  SimCloudProvider p(test_descriptor());
  const Bytes x = to_bytes("x");
  ASSERT_TRUE(p.put(1, x).ok());
  p.set_online(false);
  const std::vector<Status> statuses = p.put_many({{2, x}, {3, x}});
  ASSERT_EQ(statuses.size(), 2u);
  for (const Status& st : statuses) {
    EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  }
  // The whole batch was one rejected request: one injected failure, no
  // accepted puts, nothing stored.
  EXPECT_EQ(p.counters().injected_failures.load(), 1u);
  EXPECT_EQ(p.counters().puts.load(), 1u);
  EXPECT_FALSE(p.contains(2));

  const std::vector<Result<Bytes>> results = p.get_many({1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status().code(), ErrorCode::kUnavailable);
  p.set_online(true);
  EXPECT_TRUE(p.get_many({1})[0].ok());
}

TEST(ProviderTest, MonthlyCostTracksBytes) {
  auto d = test_descriptor();
  d.price_per_gb_month = 1.0;
  SimCloudProvider p(std::move(d));
  const Bytes gb_ish(1024 * 1024, 0);  // 1 MiB
  ASSERT_TRUE(p.put(1, gb_ish).ok());
  EXPECT_NEAR(p.monthly_cost_usd(), 1.0 / 1024.0, 1e-9);
}

TEST(ProviderTest, CorruptObjectFlipsStoredByte) {
  SimCloudProvider p(test_descriptor());
  ASSERT_TRUE(p.put(1, to_bytes("abcd")).ok());
  ASSERT_TRUE(p.corrupt_object(1, 2).ok());
  EXPECT_NE(to_string(p.get(1).value()), "abcd");
}

// --- ProviderRegistry ----------------------------------------------------------

TEST(RegistryTest, EligibilityRespectsPrivacyLevels) {
  ProviderRegistry reg;
  ProviderDescriptor high;
  high.name = "High";
  high.privacy_level = PrivacyLevel::kHigh;
  ProviderDescriptor low;
  low.name = "Low";
  low.privacy_level = PrivacyLevel::kLow;
  reg.add(std::move(high));
  reg.add(std::move(low));

  EXPECT_EQ(reg.eligible_for(PrivacyLevel::kHigh).size(), 1u);
  EXPECT_EQ(reg.eligible_for(PrivacyLevel::kLow).size(), 2u);
  EXPECT_EQ(reg.eligible_for(PrivacyLevel::kPublic).size(), 2u);
}

TEST(RegistryTest, FindByName) {
  ProviderRegistry reg = make_default_registry(4);
  EXPECT_EQ(reg.find("AWS"), 1u);
  EXPECT_EQ(reg.find("Nowhere"), kNoProvider);
}

TEST(RegistryTest, DefaultRegistryCoversAllLevelsWhenLarge) {
  ProviderRegistry reg = make_default_registry(8);
  EXPECT_EQ(reg.size(), 8u);
  for (int pl = 0; pl < kNumPrivacyLevels; ++pl) {
    EXPECT_FALSE(reg.eligible_for(privacy_level_from_int(pl)).empty())
        << "no provider for PL" << pl;
  }
  // High-sensitivity data has strictly fewer homes than public data.
  EXPECT_LT(reg.eligible_for(PrivacyLevel::kHigh).size(),
            reg.eligible_for(PrivacyLevel::kPublic).size());
}

TEST(RegistryTest, IndicesAreStable) {
  ProviderRegistry reg = make_default_registry(4);
  const std::string name0 = reg.at(0).descriptor().name;
  reg.add(ProviderDescriptor{"Extra", PrivacyLevel::kLow, CostLevel::kCheap,
                             0.01});
  EXPECT_EQ(reg.at(0).descriptor().name, name0);
  EXPECT_EQ(reg.size(), 5u);
}

TEST(RegistryTest, TotalCostAggregates) {
  ProviderRegistry reg = make_default_registry(3);
  const Bytes mb(1024 * 1024, 1);
  ASSERT_TRUE(reg.at(0).put(1, mb).ok());
  ASSERT_TRUE(reg.at(1).put(2, mb).ok());
  EXPECT_GT(reg.total_monthly_cost_usd(), 0.0);
}

TEST(RegistryTest, AtOutOfRangeThrows) {
  ProviderRegistry reg = make_default_registry(2);
  EXPECT_THROW((void)reg.at(5), std::invalid_argument);
}

}  // namespace
}  // namespace cshield::storage
