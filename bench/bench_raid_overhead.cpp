// E8 -- SIII-B / SIV-A RAID availability: "RAID level 6 ... guarantees
// successful retrieval of data in case of a cloud provider being blocked by
// any unlikely event or going out of business" and "the distributed
// approach ... ensures the greater availability of data".
//
// Measured: for each RAID level, (a) storage overhead, (b) encode/decode
// CPU throughput, (c) read availability under 0/1/2 provider failures, and
// (d) repair cost after a permanent provider loss.
#include <iostream>

#include "core/distributor.hpp"
#include "harness.hpp"
#include "raid/raid.hpp"
#include "storage/provider_registry.hpp"
#include "util/sim_clock.hpp"
#include "util/table.hpp"

namespace {

using namespace cshield;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;

/// Availability: fraction of `trials` where the file reads back intact with
/// `kill` random providers offline.
double availability(raid::RaidLevel level, std::size_t kill,
                    std::uint64_t seed) {
  const Bytes payload = bench::make_payload(256 * 1024, 0xE8);
  Rng rng(seed);
  int ok = 0;
  constexpr int kTrials = 20;
  for (int trial = 0; trial < kTrials; ++trial) {
    storage::ProviderRegistry registry = storage::make_default_registry(8);
    DistributorConfig config;
    config.default_raid = level;
    config.stripe_data_shards = 3;
    config.replication = 1;
    CloudDataDistributor cdd(registry, config);
    (void)cdd.register_client("C");
    (void)cdd.add_password("C", "pw", PrivacyLevel::kHigh);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kPublic;
    Status st = cdd.put_file("C", "pw", "f", payload, opts);
    CS_REQUIRE(st.ok(), st.to_string());
    // Kill `kill` distinct random providers.
    std::vector<ProviderIndex> all;
    for (ProviderIndex p = 0; p < registry.size(); ++p) all.push_back(p);
    rng.shuffle(all);
    for (std::size_t k = 0; k < kill; ++k) {
      registry.at(all[k]).install_fault_plan(
          storage::FaultPlan::outage(all[k]), all[k]);
    }
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    if (back.ok() && equal(back.value(), payload)) ++ok;
  }
  return static_cast<double>(ok) / kTrials;
}

}  // namespace

int main() {
  std::cout << "=== E8a: storage overhead and code throughput by RAID level "
               "(k=4 data shards, 4 MiB payload) ===\n";
  {
    const Bytes payload = bench::make_payload(4 * 1024 * 1024, 0xE8);
    TextTable t({"raid", "overhead x", "tolerance", "encode MB/s",
                 "decode-2-erasures MB/s"});
    for (auto level : {raid::RaidLevel::kNone, raid::RaidLevel::kRaid0,
                       raid::RaidLevel::kRaid1, raid::RaidLevel::kRaid5,
                       raid::RaidLevel::kRaid6}) {
      const raid::StripeLayout layout =
          level == raid::RaidLevel::kRaid1
              ? raid::StripeLayout::make(level, 1, 2)
              : raid::StripeLayout::make(level, 4);
      Stopwatch sw;
      raid::EncodedStripe stripe;
      constexpr int kReps = 8;
      for (int i = 0; i < kReps; ++i) stripe = raid::encode(layout, payload);
      const double enc_mbs = kReps * static_cast<double>(payload.size()) /
                             (1024 * 1024) / sw.elapsed_seconds();
      // Worst-case decode: as many erasures as tolerated.
      std::vector<std::optional<Bytes>> shards = raid::shard_copies(stripe);
      for (std::size_t e = 0; e < layout.fault_tolerance() && e < shards.size();
           ++e) {
        shards[e].reset();
      }
      sw.restart();
      double dec_mbs = 0.0;
      for (int i = 0; i < kReps; ++i) {
        Result<Bytes> r = raid::decode(layout, shards, stripe.original_size);
        CS_REQUIRE(r.ok(), r.status().to_string());
      }
      dec_mbs = kReps * static_cast<double>(payload.size()) / (1024 * 1024) /
                sw.elapsed_seconds();
      t.add(raid_level_name(level),
            TextTable::fmt(layout.overhead_factor(), 2),
            layout.fault_tolerance(), TextTable::fmt(enc_mbs, 0),
            TextTable::fmt(dec_mbs, 0));
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E8b: read availability under random provider outages "
               "(8 providers, k=3, 20 trials per cell) ===\n";
  {
    TextTable t({"raid", "0 down", "1 down", "2 down", "3 down"});
    for (auto level : {raid::RaidLevel::kRaid0, raid::RaidLevel::kRaid1,
                       raid::RaidLevel::kRaid5, raid::RaidLevel::kRaid6}) {
      std::vector<std::string> row{std::string(raid_level_name(level))};
      for (std::size_t kill = 0; kill <= 3; ++kill) {
        row.push_back(TextTable::fmt(
            availability(level, kill, 0xE8B + kill), 2));
      }
      t.add_row(row);
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E8c: repair after a provider exits the market "
               "(RAID-5 vs RAID-6, 1 MiB file, 12 providers) ===\n";
  {
    TextTable t({"raid", "shards repaired", "file intact after repair",
                 "survives second failure"});
    for (auto level : {raid::RaidLevel::kRaid5, raid::RaidLevel::kRaid6}) {
      const Bytes payload = bench::make_payload(1024 * 1024, 0xE8);
      storage::ProviderRegistry registry = storage::make_default_registry(12);
      DistributorConfig config;
      config.default_raid = level;
      config.stripe_data_shards = 3;
      CloudDataDistributor cdd(registry, config);
      (void)cdd.register_client("C");
      (void)cdd.add_password("C", "pw", PrivacyLevel::kHigh);
      PutOptions opts;
      opts.privacy_level = PrivacyLevel::kPublic;
      Status st = cdd.put_file("C", "pw", "f", payload, opts);
      CS_REQUIRE(st.ok(), st.to_string());
      ProviderIndex victim = 0;
      for (ProviderIndex p = 0; p < registry.size(); ++p) {
        if (registry.at(p).object_count() > 0) {
          victim = p;
          break;
        }
      }
      registry.at(victim).go_out_of_business();
      Result<std::size_t> repaired = cdd.repair();
      const bool intact =
          repaired.ok() &&
          equal(cdd.get_file("C", "pw", "f").value_or(Bytes{}), payload);
      // Second failure after repair.
      bool survives_second = false;
      for (ProviderIndex p = 0; p < registry.size(); ++p) {
        if (p != victim && registry.at(p).object_count() > 0) {
          registry.at(p).install_fault_plan(storage::FaultPlan::outage(p), p);
          Result<Bytes> back = cdd.get_file("C", "pw", "f");
          survives_second = back.ok() && equal(back.value(), payload);
          registry.at(p).install_fault_plan(nullptr, p);
          break;
        }
      }
      t.add(raid_level_name(level),
            repaired.ok() ? std::to_string(repaired.value()) : "FAILED",
            intact ? "yes" : "NO", survives_second ? "yes" : "NO");
    }
    t.print(std::cout);
  }
  std::cout << "expected shape: raid0 dies with any outage; raid5 rides out "
               "1, raid6 rides out 2; repair restores full redundancy so a "
               "further failure is survivable; parity costs 1.25-1.5x "
               "storage vs 2-3x for replication.\n";
  return 0;
}
