// End-to-end integration tests across every layer: a client distributes a
// real workload through the CloudDataDistributor, providers fail and are
// repaired, adversaries attack, and the privacy/availability story of the
// paper holds together.
#include <gtest/gtest.h>

#include <set>

#include "attack/adversary.hpp"
#include "attack/harness.hpp"
#include "core/distributor.hpp"
#include "core/multi_distributor.hpp"
#include "crypto/aes.hpp"
#include "storage/provider_registry.hpp"
#include "workload/bidding.hpp"
#include "workload/gps.hpp"
#include "workload/records.hpp"

namespace cshield {
namespace {

using core::CloudDataDistributor;
using core::DistributorConfig;
using core::PutOptions;

TEST(IntegrationTest, FullLifecycleWithOutagesAndRepair) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  config.default_raid = raid::RaidLevel::kRaid5;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.1;
  CloudDataDistributor cdd(registry, config);

  ASSERT_TRUE(cdd.register_client("Hercules").ok());
  ASSERT_TRUE(
      cdd.add_password("Hercules", "lion", PrivacyLevel::kHigh).ok());

  // Upload three files at different sensitivities.
  Rng rng(77);
  std::map<std::string, Bytes> files;
  int pl = 1;
  for (const char* name : {"ledger.db", "contracts.tbl", "notes.txt"}) {
    Bytes data(8000 + rng.below(20000));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
    PutOptions opts;
    opts.privacy_level = privacy_level_from_int(pl++);
    ASSERT_TRUE(cdd.put_file("Hercules", "lion", name, data, opts).ok());
    files[name] = std::move(data);
  }

  // Outage + permanent loss, then repair, then read everything back.
  registry.at(2).install_fault_plan(storage::FaultPlan::outage(2), 2);
  Result<std::size_t> repaired = cdd.repair();
  // repair() skips offline shards it can't probe but can still be blocked;
  // with RAID-5 and one provider down every file must still read.
  ASSERT_TRUE(repaired.ok()) << repaired.status().to_string();
  for (const auto& [name, data] : files) {
    Result<Bytes> back = cdd.get_file("Hercules", "lion", name);
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data)) << name;
  }

  // Update + snapshot + remove on one file.
  const Bytes v2 = to_bytes("fresh chunk contents");
  ASSERT_TRUE(cdd.update_chunk("Hercules", "lion", "notes.txt", 0, v2).ok());
  EXPECT_TRUE(
      equal(cdd.get_chunk("Hercules", "lion", "notes.txt", 0).value(), v2));
  ASSERT_TRUE(cdd.get_chunk_snapshot("Hercules", "lion", "notes.txt", 0).ok());
  ASSERT_TRUE(cdd.remove_file("Hercules", "lion", "notes.txt").ok());
  EXPECT_EQ(cdd.get_file("Hercules", "lion", "notes.txt").status().code(),
            ErrorCode::kNotFound);
}

TEST(IntegrationTest, InsiderLearnsLessAsProvidersMultiply) {
  // The paper's core quantitative claim: more providers -> each insider
  // holds a smaller data fraction -> worse mining. Sweep n in {1, 3, 12}
  // with the synthetic bidding workload.
  workload::BiddingGenerator gen(5);
  const mining::Dataset table = gen.generate(1200, 100.0);
  const workload::RecordCodec codec{workload::bidding_columns()};
  Result<mining::LinearModel> reference = mining::fit_linear(
      table, workload::bidding_features(), "Bid");
  ASSERT_TRUE(reference.ok());

  for (std::size_t n : {1u, 3u, 12u}) {
    storage::ProviderRegistry registry = storage::make_default_registry(n);
    DistributorConfig config;
    config.default_raid = raid::RaidLevel::kNone;
    for (auto& s : config.chunk_sizes.size_bytes) {
      s = 4 * codec.record_size();
    }
    CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("Victim").ok());
    ASSERT_TRUE(
        cdd.add_password("Victim", "pw", PrivacyLevel::kPublic).ok());
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kPublic;
    opts.record_align = codec.record_size();
    ASSERT_TRUE(cdd.put_file("Victim", "pw", "bids", codec.encode(table),
                             opts)
                    .ok());

    // Best insider = the provider holding the most rows.
    double best_coverage = 0.0;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      const mining::Dataset rows =
          attack::reconstruct_rows(attack::insider(registry, p), codec);
      best_coverage = std::max(
          best_coverage, attack::coverage(rows, table.num_rows()));
    }
    if (n == 1) {
      EXPECT_DOUBLE_EQ(best_coverage, 1.0);
    } else {
      EXPECT_LT(best_coverage, 1.0);
      EXPECT_LE(best_coverage, 2.0 / static_cast<double>(n) + 0.2);
    }
  }
}

TEST(IntegrationTest, EncryptionBaselineInteroperatesWithDistribution) {
  // SVII-E: "Concerned clients can also use encryption along with
  // fragmentation." Encrypt client-side, distribute ciphertext, read back,
  // decrypt.
  // 16 providers so the PL3 tier has enough members for a 4-shard stripe.
  storage::ProviderRegistry registry = storage::make_default_registry(16);
  CloudDataDistributor cdd(registry, DistributorConfig{});
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "k", PrivacyLevel::kHigh).ok());

  Rng rng(9);
  crypto::AesKey key{};
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
  Bytes plaintext(5000);
  for (auto& b : plaintext) b = static_cast<std::uint8_t>(rng.below(256));

  const Bytes ciphertext = crypto::aes128_ctr(key, 42, plaintext);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(cdd.put_file("C", "k", "enc.bin", ciphertext, opts).ok());
  Result<Bytes> back = cdd.get_file("C", "k", "enc.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(crypto::aes128_ctr(key, 42, back.value()), plaintext));

  // An insider sees only ciphertext shards: no stored object equals any
  // plaintext slice.
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    const attack::AdversaryView view = attack::insider(registry, p);
    for (const Bytes& obj : view.objects) {
      EXPECT_FALSE(equal(obj, BytesView(plaintext.data(),
                                        std::min(obj.size(),
                                                 plaintext.size()))));
    }
  }
}

TEST(IntegrationTest, MultiDistributorServesConcurrentClients) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  config.stripe_data_shards = 3;
  core::DistributorGroup group(registry, config, 3);

  // Several clients, several files each, all readable from any front-end.
  std::map<std::pair<std::string, std::string>, Bytes> expected;
  Rng rng(11);
  for (const char* client : {"A", "B", "C", "D"}) {
    ASSERT_TRUE(group.register_client(client).ok());
    ASSERT_TRUE(group.add_password(client, "pw", PrivacyLevel::kHigh).ok());
    for (int fnum = 0; fnum < 3; ++fnum) {
      Bytes data(1000 + rng.below(9000));
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
      const std::string fname = "f" + std::to_string(fnum);
      PutOptions opts;
      opts.privacy_level = PrivacyLevel::kModerate;
      ASSERT_TRUE(group.put_file(client, "pw", fname, data, opts).ok());
      expected[{client, fname}] = std::move(data);
    }
  }
  for (const auto& [key, data] : expected) {
    Result<Bytes> back = group.get_file(key.first, "pw", key.second);
    ASSERT_TRUE(back.ok()) << key.first << "/" << key.second;
    EXPECT_TRUE(equal(back.value(), data));
  }

  // Clients are isolated: A's password does not open B's namespace --
  // B's files simply don't exist under A.
  EXPECT_EQ(group.get_file("A", "pw", "zzz").status().code(),
            ErrorCode::kNotFound);
}

TEST(IntegrationTest, GpsWorkloadThroughDistributorMatchesDirectFragments) {
  // Distribute the GPS observation table through the real system, then
  // reconstruct what one insider sees and verify it equals a contiguous
  // row fragment -- tying the storage path to the mining experiments.
  workload::GpsConfig cfg;
  cfg.num_users = 10;
  cfg.observations_per_user = 300;
  const workload::GpsTraces traces = workload::generate_gps(cfg);
  const workload::RecordCodec codec{
      traces.observations.column_names()};

  storage::ProviderRegistry registry = storage::make_default_registry(6);
  DistributorConfig config;
  config.default_raid = raid::RaidLevel::kNone;
  for (auto& s : config.chunk_sizes.size_bytes) {
    s = 100 * codec.record_size();
  }
  CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("lbs-app").ok());
  ASSERT_TRUE(cdd.add_password("lbs-app", "pw", PrivacyLevel::kHigh).ok());
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  opts.record_align = codec.record_size();
  ASSERT_TRUE(cdd.put_file("lbs-app", "pw", "gps.tbl",
                           codec.encode(traces.observations), opts)
                  .ok());

  std::size_t pooled_rows = 0;
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    const mining::Dataset rows =
        attack::reconstruct_rows(attack::insider(registry, p), codec);
    pooled_rows += rows.num_rows();
    if (rows.num_rows() == 0) continue;
    // Whole records only: every row must carry a valid user id / hour.
    for (std::size_t r = 0; r < rows.num_rows(); ++r) {
      const double u = rows.at(r, rows.column_index("user"));
      EXPECT_GE(u, 0.0);
      EXPECT_LT(u, 10.0);
    }
  }
  EXPECT_EQ(pooled_rows, traces.observations.num_rows());
}

}  // namespace
}  // namespace cshield
