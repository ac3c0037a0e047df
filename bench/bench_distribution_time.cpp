// E4 -- "Distribution time" (SVIII: "we have ... monitored its performance
// (Distribution time)").
//
// The paper monitors how long the Cloud Data Distributor takes to upload
// files but reports no numbers, so the reproduction is the full series:
// distribution time vs file size, privacy level (chunk size), provider
// count, RAID level, and parallel channel count. We report both the
// executed wall time of the distributor pipeline (split/chaff/parity/table
// updates) and the modeled provider time (5 ms base latency, 100 MB/s
// links), serial vs parallel.
#include <iostream>

#include "core/distributor.hpp"
#include "harness.hpp"
#include "storage/provider_registry.hpp"
#include "util/table.hpp"

namespace {

using namespace cshield;
using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;

double ms(SimDuration d) { return static_cast<double>(d.count()) / 1e6; }

OpReport run_put(std::size_t file_size, PrivacyLevel pl,
                 raid::RaidLevel level, std::size_t providers,
                 std::size_t threads) {
  storage::ProviderRegistry registry =
      storage::make_default_registry(providers);
  DistributorConfig config;
  config.default_raid = level;
  config.stripe_data_shards = 3;
  config.worker_threads = threads;
  CloudDataDistributor cdd(registry, config);
  (void)cdd.register_client("bench");
  (void)cdd.add_password("bench", "pw", PrivacyLevel::kHigh);
  PutOptions opts;
  opts.privacy_level = pl;
  opts.raid = level;
  OpReport report;
  Status st =
      cdd.put_file("bench", "pw", "payload.bin",
                   bench::make_payload(file_size, file_size), opts, &report);
  CS_REQUIRE(st.ok(), st.to_string());
  return report;
}

}  // namespace

int main() {
  std::cout << "=== E4a: distribution time vs file size (PL1, RAID-5 k=3, "
               "12 providers, 8 channels) ===\n";
  {
    TextTable t({"file size (KiB)", "chunks", "shards", "wall ms (executed)",
                 "model ms (parallel)", "model ms (serial)", "speedup"});
    for (std::size_t kib : {1u, 16u, 256u, 1024u, 4096u, 16384u, 65536u}) {
      const OpReport r = run_put(kib * 1024, PrivacyLevel::kLow,
                                 raid::RaidLevel::kRaid5, 12, 8);
      t.add(kib, r.chunks, r.shards, TextTable::fmt(r.wall_seconds * 1e3, 2),
            TextTable::fmt(ms(r.sim_time_parallel), 2),
            TextTable::fmt(ms(r.sim_time_serial), 2),
            TextTable::fmt(static_cast<double>(r.sim_time_serial.count()) /
                               std::max<double>(
                                   1.0,
                                   static_cast<double>(
                                       r.sim_time_parallel.count())),
                           2));
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E4b: distribution time vs privacy level "
               "(4 MiB file; higher PL -> smaller chunks -> more requests) "
               "===\n";
  {
    TextTable t({"privacy level", "chunk size (B)", "chunks",
                 "model ms (parallel)", "model ms (serial)"});
    const core::ChunkSizePolicy sizes;
    for (int pl = 0; pl < kNumPrivacyLevels; ++pl) {
      const OpReport r =
          run_put(4 * 1024 * 1024, privacy_level_from_int(pl),
                  raid::RaidLevel::kRaid5, 16, 8);
      t.add(privacy_level_name(privacy_level_from_int(pl)),
            sizes.chunk_size(privacy_level_from_int(pl)), r.chunks,
            TextTable::fmt(ms(r.sim_time_parallel), 2),
            TextTable::fmt(ms(r.sim_time_serial), 2));
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E4c: distribution time vs provider count "
               "(4 MiB, PL1, RAID-5) ===\n";
  {
    TextTable t({"providers", "model ms (parallel)", "model ms (serial)"});
    for (std::size_t n : {4u, 6u, 8u, 12u, 16u}) {
      const OpReport r = run_put(4 * 1024 * 1024, PrivacyLevel::kLow,
                                 raid::RaidLevel::kRaid5, n, 8);
      t.add(n, TextTable::fmt(ms(r.sim_time_parallel), 2),
            TextTable::fmt(ms(r.sim_time_serial), 2));
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E4d: distribution time vs RAID level (4 MiB, PL1, "
               "12 providers) ===\n";
  {
    TextTable t({"raid", "shards", "stored bytes", "model ms (parallel)"});
    for (auto level : {raid::RaidLevel::kNone, raid::RaidLevel::kRaid0,
                       raid::RaidLevel::kRaid1, raid::RaidLevel::kRaid5,
                       raid::RaidLevel::kRaid6}) {
      const OpReport r = run_put(4 * 1024 * 1024, PrivacyLevel::kLow, level,
                                 12, 8);
      t.add(raid_level_name(level), r.shards, r.bytes_stored,
            TextTable::fmt(ms(r.sim_time_parallel), 2));
    }
    t.print(std::cout);
  }

  std::cout << "\n=== E4e: parallel channels (SVII-E \"parallel query "
               "processing\"; 16 MiB, PL1, RAID-5, 12 providers) ===\n";
  {
    TextTable t({"channels", "model ms (parallel)", "speedup vs 1"});
    double base = 0.0;
    for (std::size_t threads : {1u, 2u, 4u, 8u, 16u}) {
      const OpReport r = run_put(16 * 1024 * 1024, PrivacyLevel::kLow,
                                 raid::RaidLevel::kRaid5, 12, threads);
      const double p = ms(r.sim_time_parallel);
      if (threads == 1) base = p;
      t.add(threads, TextTable::fmt(p, 2), TextTable::fmt(base / p, 2));
    }
    t.print(std::cout);
  }
  std::cout << "expected shape: time linear in file size; higher PL costs "
               "more requests (per-request latency dominates); parity adds "
               "proportional overhead; channels give near-linear speedup "
               "until provider count binds.\n";
  return 0;
}
