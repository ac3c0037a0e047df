// E20: dynamic-topology migration gates.
//
// Measures how much data a single fleet change actually moves, and whether
// the fleet stays available while it moves:
//
//   1. Join gate: add a 9th provider to an 8-provider fleet holding a
//      multi-file corpus. The consistent-hash ring must relocate at most
//      35% of the live shard slots (fair share is 1/9 ~= 11%; a naive
//      `key % n` rehash moves ~100%). Every file must read back
//      byte-identical afterwards.
//   2. Drain gate: drain the most-loaded provider of the now-9-wide fleet.
//      Moved fraction <= 35% again (exactly the subject's share), reads
//      byte-identical, subject left empty.
//   3. Availability gate: a throttled background drain under a 5% seeded
//      transient fault plan while a client hammers get_file. Zero read
//      failures tolerated.
//
// Results land in BENCH_migration.json through the bench harness envelope
// (default; first CLI arg overrides). Exit status is non-zero when any gate
// fails, so CI can gate on it.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/distributor.hpp"
#include "core/migrator.hpp"
#include "harness.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"
#include "util/status.hpp"

namespace cshield {
namespace {

using core::CloudDataDistributor;
using core::MigrationKind;
using core::Migrator;

constexpr double kMovedLimit = 0.35;

using bench::make_payload;

storage::ProviderRegistry flat_registry(std::size_t n) {
  storage::ProviderRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    storage::ProviderDescriptor d;
    d.name = "P" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = static_cast<CostLevel>(i % 4);
    registry.add(std::move(d), storage::LatencyModel{}, 0xB16'0000ULL + i);
  }
  return registry;
}

core::DistributorConfig bench_config(std::uint64_t seed) {
  core::DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.05;
  config.worker_threads = 2;
  config.seed = seed;
  return config;
}

std::size_t total_shards(const core::MetadataStore& metadata) {
  std::size_t n = 0;
  for (const core::ChunkEntry& entry : metadata.chunk_table()) {
    if (!entry.deleted) n += entry.stripe.size();
  }
  return n;
}

std::size_t shards_on(const core::MetadataStore& metadata, ProviderIndex p) {
  std::size_t n = 0;
  for (const core::ChunkEntry& entry : metadata.chunk_table()) {
    if (entry.deleted) continue;
    for (const core::ShardLocation& loc : entry.stripe) {
      if (loc.provider == p) ++n;
    }
  }
  return n;
}

struct MoveGate {
  std::string kind;
  std::size_t fleet = 0;
  std::size_t shard_slots = 0;
  std::uint64_t shards_moved = 0;
  std::uint64_t bytes_moved = 0;
  bool reads_ok = false;

  [[nodiscard]] double fraction() const {
    return shard_slots == 0
               ? 0.0
               : static_cast<double>(shards_moved) /
                     static_cast<double>(shard_slots);
  }
  [[nodiscard]] bool pass() const {
    return reads_ok && shards_moved > 0 && fraction() <= kMovedLimit;
  }
};

struct AvailabilityGate {
  std::uint64_t reads = 0;
  std::uint64_t failures = 0;
  bool drained = false;

  [[nodiscard]] bool pass() const {
    return drained && reads > 0 && failures == 0;
  }
};

/// Records a move gate and returns its JSON row.
bench::Json record(bench::Report& report, const MoveGate& g) {
  report.gate(g.kind + ".moved_fraction", "shards moved / live shard slots",
              g.fraction(), kMovedLimit,
              "value <= bound, > 0 shards moved, every file byte-identical",
              g.pass());
  return bench::Json::object()
      .set("fleet", g.fleet)
      .set("shard_slots", g.shard_slots)
      .set("shards_moved", g.shards_moved)
      .set("bytes_moved", g.bytes_moved)
      .set("moved_fraction", g.fraction())
      .set("reads_ok", g.reads_ok);
}

}  // namespace
}  // namespace cshield

int main(int argc, char** argv) {
  using namespace cshield;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_migration.json";

  // --- corpus + join gate ---------------------------------------------------
  storage::ProviderRegistry registry = flat_registry(8);
  CloudDataDistributor cdd(registry, bench_config(0xE20));
  CS_REQUIRE(cdd.register_client("bench").ok(), "register");
  CS_REQUIRE(cdd.add_password("bench", "pw", PrivacyLevel::kHigh).ok(), "pw");
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  std::vector<Bytes> corpus;
  for (std::uint64_t i = 0; i < 4; ++i) {
    corpus.push_back(make_payload(20000 + 3000 * i, 0xC0 + i));
    const Status st = cdd.put_file("bench", "pw", "f" + std::to_string(i),
                                   corpus.back(), opts);
    CS_REQUIRE(st.ok(), st.to_string());
  }
  auto verify_corpus = [&] {
    for (std::uint64_t i = 0; i < corpus.size(); ++i) {
      Result<Bytes> back =
          cdd.get_file("bench", "pw", "f" + std::to_string(i));
      if (!back.ok() || back.value() != corpus[i]) return false;
    }
    return true;
  };

  MoveGate join_gate;
  join_gate.kind = "join";
  join_gate.fleet = registry.size();
  join_gate.shard_slots = total_shards(cdd.metadata());
  storage::ProviderDescriptor newcomer;
  newcomer.name = "Newcomer";
  newcomer.privacy_level = PrivacyLevel::kHigh;
  newcomer.cost_level = CostLevel::kCheap;
  Result<ProviderIndex> added = cdd.add_provider(newcomer);
  CS_REQUIRE(added.ok(), added.status().to_string());
  {
    Migrator migrator(cdd);
    Result<Migrator::Report> report =
        migrator.run(MigrationKind::kJoin, added.value());
    CS_REQUIRE(report.ok(), report.status().to_string());
    CS_REQUIRE(report.value().committed, "join did not commit");
    join_gate.shards_moved = report.value().shards_moved;
    join_gate.bytes_moved = report.value().bytes_moved;
  }
  join_gate.reads_ok = verify_corpus();
  std::cout << "join:  moved " << join_gate.shards_moved << "/"
            << join_gate.shard_slots << " shard slots ("
            << join_gate.fraction() * 100 << "%, limit "
            << kMovedLimit * 100 << "%) -> "
            << (join_gate.pass() ? "PASS" : "FAIL") << "\n";

  // --- drain gate -----------------------------------------------------------
  MoveGate drain_gate;
  drain_gate.kind = "drain";
  drain_gate.fleet = registry.size();
  drain_gate.shard_slots = total_shards(cdd.metadata());
  ProviderIndex subject = 0;
  for (ProviderIndex p = 1; p < registry.size(); ++p) {
    if (shards_on(cdd.metadata(), p) > shards_on(cdd.metadata(), subject)) {
      subject = p;
    }
  }
  {
    Migrator migrator(cdd);
    Result<Migrator::Report> report =
        migrator.run(MigrationKind::kDrain, subject);
    CS_REQUIRE(report.ok(), report.status().to_string());
    CS_REQUIRE(report.value().committed, "drain did not commit");
    drain_gate.shards_moved = report.value().shards_moved;
    drain_gate.bytes_moved = report.value().bytes_moved;
  }
  drain_gate.reads_ok =
      verify_corpus() && shards_on(cdd.metadata(), subject) == 0;
  std::cout << "drain: moved " << drain_gate.shards_moved << "/"
            << drain_gate.shard_slots << " shard slots ("
            << drain_gate.fraction() * 100 << "%, limit "
            << kMovedLimit * 100 << "%) -> "
            << (drain_gate.pass() ? "PASS" : "FAIL") << "\n";

  // --- availability under a throttled drain + fault plan --------------------
  AvailabilityGate avail;
  {
    storage::ProviderRegistry fleet = flat_registry(8);
    CloudDataDistributor live(fleet, bench_config(0xE21));
    CS_REQUIRE(live.register_client("bench").ok(), "register");
    CS_REQUIRE(live.add_password("bench", "pw", PrivacyLevel::kHigh).ok(),
               "pw");
    const Bytes data = make_payload(24000, 0xAA);
    CS_REQUIRE(live.put_file("bench", "pw", "hot", data, opts).ok(), "put");
    fleet.apply_fault_plan(std::make_shared<const storage::FaultPlan>(
        storage::FaultPlan::transient(0x5EED, 0.05)));

    ProviderIndex victim = 0;
    for (ProviderIndex p = 1; p < fleet.size(); ++p) {
      if (shards_on(live.metadata(), p) >
          shards_on(live.metadata(), victim)) {
        victim = p;
      }
    }
    Migrator::Config mconfig;
    mconfig.stripes_per_sec = 75.0;
    mconfig.max_in_flight = 2;
    Migrator migrator(live, mconfig);
    migrator.start(MigrationKind::kDrain, victim);
    while (migrator.progress().running) {
      Result<Bytes> back = live.get_file("bench", "pw", "hot");
      ++avail.reads;
      if (!back.ok() || back.value() != data) ++avail.failures;
    }
    Result<Migrator::Report> report = migrator.wait();
    bool committed = report.ok() && report.value().committed;
    for (int pass = 0; pass < 5 && !committed; ++pass) {
      report = migrator.run(MigrationKind::kDrain, victim);
      committed = report.ok() && report.value().committed;
    }
    avail.drained = committed && shards_on(live.metadata(), victim) == 0;
    Result<Bytes> final_read = live.get_file("bench", "pw", "hot");
    if (!final_read.ok() || final_read.value() != data) ++avail.failures;
    ++avail.reads;
  }
  std::cout << "availability: " << avail.reads << " reads during drain, "
            << avail.failures << " failures -> "
            << (avail.pass() ? "PASS" : "FAIL") << "\n";

  bench::Report report("migration");
  report.config.set("fleet", 8)
      .set("files", 4)
      .set("data_shards", 3)
      .set("misleading_fraction", 0.05)
      .set("fault_rate", 0.05)
      .set("drain_stripes_per_sec", 75.0)
      .set("drain_max_in_flight", 2);
  report.rows.set("join", record(report, join_gate))
      .set("drain", record(report, drain_gate));
  report.gate("availability.read_failures", "failed reads during the drain",
              static_cast<double>(avail.failures), 0.0,
              "value <= bound, > 0 reads, drain committed and subject empty",
              avail.pass());
  report.rows.set("availability", bench::Json::object()
                                      .set("reads", avail.reads)
                                      .set("failures", avail.failures)
                                      .set("drained", avail.drained));
  std::cout << "\n";
  return report.finish(out_path);
}
