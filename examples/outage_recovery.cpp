// Availability walkthrough (SIII-A/B): the April 2011 EC2 outage scenario.
//
// The paper motivates multi-cloud distribution partly by availability: "On
// April 21, 2011, EC2's northern Virginia data center was affected by an
// outage and brought several websites down." Here a client stores data with
// RAID-6 striping, two providers fail (one temporarily, one for good), the
// data stays readable, repair() restores full redundancy, and a corrupted
// shard is caught by its integrity digest.
#include <iostream>

#include "core/distributor.hpp"
#include "storage/provider_registry.hpp"

using namespace cshield;

int main() {
  storage::ProviderRegistry providers = storage::make_default_registry(10);
  core::DistributorConfig config;
  config.default_raid = raid::RaidLevel::kRaid6;  // "higher assurance"
  config.stripe_data_shards = 3;                  // 3 data + P + Q per chunk
  core::CloudDataDistributor cdd(providers, config);
  (void)cdd.register_client("webshop");
  (void)cdd.add_password("webshop", "pw", PrivacyLevel::kHigh);

  Bytes catalogue(256 * 1024);
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    catalogue[i] = static_cast<std::uint8_t>(i ^ (i >> 8));
  }
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kLow;
  core::OpReport report;
  CS_REQUIRE(cdd.put_file("webshop", "pw", "catalogue.db", catalogue, opts,
                          &report)
                 .ok(),
             "upload failed");
  std::cout << "stored catalogue.db: " << report.chunks << " chunks x 5 "
            << "shards (RAID-6 k=3), " << report.bytes_stored
            << " B across " << providers.size() << " providers ("
            << raid::StripeLayout::make(raid::RaidLevel::kRaid6, 3)
                   .overhead_factor()
            << "x overhead)\n\n";

  auto check_read = [&](const char* when) {
    Result<Bytes> back = cdd.get_file("webshop", "pw", "catalogue.db");
    std::cout << when << ": read "
              << (back.ok() && equal(back.value(), catalogue)
                      ? "OK, byte-identical"
                      : "FAILED: " + back.status().to_string())
              << "\n";
  };
  check_read("all providers healthy    ");

  // The EC2-style outage: one provider goes dark.
  providers.at(1).install_fault_plan(storage::FaultPlan::outage(1), 1);
  std::cout << "\n>> " << providers.at(1).descriptor().name
            << " suffers an outage (temporary)\n";
  check_read("one provider down        ");

  // A second provider exits the market and takes its disks with it.
  providers.at(2).go_out_of_business();
  std::cout << ">> " << providers.at(2).descriptor().name
            << " goes out of business (data gone)\n";
  check_read("two providers down       ");

  // Repair while degraded: rebuild lost shards onto healthy providers.
  Result<std::size_t> repaired = cdd.repair();
  CS_REQUIRE(repaired.ok(), repaired.status().to_string());
  std::cout << "\nrepair(): rebuilt " << repaired.value()
            << " shards onto healthy providers\n";

  // The outage ends but full redundancy no longer depends on it.
  providers.at(1).install_fault_plan(nullptr, 1);
  std::cout << ">> " << providers.at(1).descriptor().name
            << " comes back online\n";

  // Silent corruption: the digest catches it and RAID routes around it.
  for (ProviderIndex p = 0; p < providers.size(); ++p) {
    const auto ids = providers.at(p).list_ids();
    if (!ids.empty() && providers.at(p).online()) {
      (void)providers.at(p).corrupt_object(ids.front(), 3);
      std::cout << ">> a shard at " << providers.at(p).descriptor().name
                << " is silently corrupted\n";
      break;
    }
  }
  check_read("after silent corruption  ");

  std::cout << "\nper-provider state:\n";
  for (ProviderIndex p = 0; p < providers.size(); ++p) {
    const auto& prov = providers.at(p);
    std::cout << "  " << prov.descriptor().name << ": "
              << (prov.online() ? "online " : "OFFLINE") << "  objects="
              << prov.object_count() << "  injected_failures="
              << prov.counters().injected_failures.load() << "\n";
  }
  return 0;
}
