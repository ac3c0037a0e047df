// E11 -- reputation dynamics and trust-driven migration (SIV-A).
//
// The paper defines a provider's privacy level as "its reliability ...
// in terms of its reputation" but never operationalizes it. This bench
// closes the loop: providers develop an observed reliability score from
// request outcomes, scores map to trust tiers, a provider that degrades is
// demoted, and rebalance() moves sensitive shards off it. Reported: the
// demotion latency (requests to react), migration volume, and the privacy
// outcome (does the flaky provider still hold PL3 data?).
#include <iostream>

#include "core/distributor.hpp"
#include "core/reputation.hpp"
#include "storage/provider_registry.hpp"
#include "util/table.hpp"

namespace {

using namespace cshield;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::PutOptions;

Bytes make_payload(std::size_t n) {
  Rng rng(0xE11);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return data;
}

}  // namespace

int main() {
  std::cout << "=== E11a: demotion latency vs observed failure rate "
               "(EWMA decay 0.05, PL3 floor 0.90) ===\n";
  {
    TextTable t({"failure rate", "requests to lose PL3", "requests to lose "
                 "PL2"});
    for (double rate : {1.0, 0.5, 0.25, 0.10}) {
      core::ReputationTracker tracker(1);
      Rng rng(static_cast<std::uint64_t>(rate * 1000));
      int to_pl2 = -1;
      int to_pl1 = -1;
      for (int i = 1; i <= 5000; ++i) {
        tracker.record(0, !rng.chance(rate));
        const int tier = level_index(tracker.tier(0));
        if (to_pl2 < 0 && tier < 3) to_pl2 = i;
        if (to_pl1 < 0 && tier < 2) to_pl1 = i;
        if (to_pl1 >= 0) break;
      }
      t.add(TextTable::fmt(rate, 2),
            to_pl2 > 0 ? std::to_string(to_pl2) : ">5000",
            to_pl1 > 0 ? std::to_string(to_pl1) : ">5000");
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E11b: end-to-end trust-driven migration ===\n"
            << "workload: 2 MiB PL3 file on 8 trusted providers (RAID-5 "
               "k=3); one turns flaky, the operator demotes it per the "
               "tracker, rebalance() migrates.\n";
  {
    // All-PL3 fleet so a demotion leaves enough trusted homes.
    storage::ProviderRegistry registry;
    for (int i = 0; i < 8; ++i) {
      storage::ProviderDescriptor d;
      d.name = "Trusted" + std::to_string(i);
      d.privacy_level = PrivacyLevel::kHigh;
      d.cost_level = static_cast<CostLevel>(i % 4);
      registry.add(std::move(d));
    }
    DistributorConfig config;
    config.stripe_data_shards = 3;
    CloudDataDistributor cdd(registry, config);
    (void)cdd.register_client("C");
    (void)cdd.add_password("C", "pw", PrivacyLevel::kHigh);
    const Bytes data = make_payload(2 * 1024 * 1024);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    Status st = cdd.put_file("C", "pw", "crown-jewels", data, opts);
    CS_REQUIRE(st.ok(), st.to_string());

    // The PL3 provider holding the most shards turns flaky.
    ProviderIndex flaky = kNoProvider;
    std::size_t most = 0;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      if (registry.at(p).object_count() > most) {
        most = registry.at(p).object_count();
        flaky = p;
      }
    }
    CS_REQUIRE(flaky != kNoProvider, "no shards placed");
    storage::FaultPlan plan;
    plan.episodes.push_back(
        {flaky, storage::FaultKind::kTransient, 0, storage::kNoSeqEnd, 0.4});
    registry.at(flaky).install_fault_plan(
        std::make_shared<const storage::FaultPlan>(plan), flaky);

    // Health probes feed the tracker until the tier drops.
    core::ReputationTracker tracker(registry.size());
    int probes = 0;
    while (tracker.tier(flaky) == PrivacyLevel::kHigh && probes < 5000) {
      ++probes;
      // One probe per provider (only the flaky one ever fails here).
      for (ProviderIndex p = 0; p < registry.size(); ++p) {
        const bool up = registry.at(p).online() &&
                        registry.at(p)
                            .get(0)  // probe id; NotFound still means "up"
                            .status()
                            .code() != ErrorCode::kUnavailable;
        tracker.record(p, up);
      }
    }
    registry.at(flaky).set_privacy_level(tracker.tier(flaky));

    // The provider is demoted for its *past* flakiness but is currently
    // responsive -- migration (including the deletes at the demoted
    // provider) must fully drain it.
    registry.at(flaky).install_fault_plan(nullptr, flaky);
    const std::size_t before = registry.at(flaky).object_count();
    Stopwatch sw;
    Result<std::size_t> moved = cdd.rebalance();
    CS_REQUIRE(moved.ok(), moved.status().to_string());
    Result<Bytes> back = cdd.get_file("C", "pw", "crown-jewels");

    TextTable t({"metric", "value"});
    t.add("probe rounds to demote", probes);
    t.add("tracker score at demotion",
          TextTable::fmt(tracker.score(flaky), 3));
    t.add("new tier",
          std::string(privacy_level_name(registry.at(flaky)
                                              .descriptor()
                                              .privacy_level)));
    t.add("PL3 shards at flaky provider before", before);
    t.add("shards migrated", moved.value());
    t.add("PL3 shards at flaky provider after",
          registry.at(flaky).object_count());
    t.add("rebalance wall ms", TextTable::fmt(sw.elapsed_seconds() * 1e3, 2));
    t.add("file intact after migration",
          back.ok() && equal(back.value(), data) ? "yes" : "NO");
    t.print(std::cout);
  }
  std::cout << "expected shape: higher failure rates demote in fewer probes "
               "(EWMA halving); migration clears every sensitive shard off "
               "the demoted provider without data loss.\n";
  return 0;
}
