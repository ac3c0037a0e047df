// Concurrency stress for the pipelined stripe engine and the indexed
// MetadataStore: 8 client threads interleave put/get/update/remove through
// two distributor front-ends that share one MetadataPlane over one provider
// registry (the Fig. 2 multi-distributor topology). Every operation's result
// is integrity-checked, so the test catches lost updates and torn reads as
// well as data races. Run under -fsanitize=thread (CSHIELD_SANITIZE=thread)
// to certify the locking.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/tables.hpp"
#include "obs/telemetry.hpp"
#include "storage/provider_registry.hpp"

namespace cshield::core {
namespace {

constexpr std::size_t kThreads = 8;
constexpr int kItersPerThread = 24;

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

struct SharedFixture {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  std::shared_ptr<MetadataPlane> plane = MetadataPlane::make_in_memory(1);
  std::vector<std::unique_ptr<CloudDataDistributor>> frontends;

  SharedFixture() {
    for (std::size_t i = 0; i < 2; ++i) {
      DistributorConfig config;
      config.stripe_data_shards = 3;
      config.misleading_fraction = 0.15;
      config.worker_threads = 4;
      // Distinct seeds: each front-end must mint its own virtual-id stream.
      config.seed = 0xC10D0D15ULL + 0x9E3779B9ULL * (i + 1);
      config.plane = plane;
      frontends.push_back(
          std::make_unique<CloudDataDistributor>(registry, config));
    }
  }

  CloudDataDistributor& frontend(std::size_t n) {
    return *frontends[n % frontends.size()];
  }
};

TEST(ConcurrencyTest, InterleavedFileLifecyclesStayConsistent) {
  SharedFixture f;
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string client = "C" + std::to_string(t);
    ASSERT_TRUE(f.frontend(t).register_client(client).ok());
    ASSERT_TRUE(
        f.frontend(t).add_password(client, "pw7Q", PrivacyLevel::kHigh).ok());
  }

  std::atomic<int> failures{0};
  auto worker = [&](std::size_t t) {
    const std::string client = "C" + std::to_string(t);
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    for (int i = 0; i < kItersPerThread; ++i) {
      // Writes go through one front-end, reads through the other -- the
      // shared store is the only thing keeping them coherent.
      CloudDataDistributor& writer = f.frontend(t + i);
      CloudDataDistributor& reader = f.frontend(t + i + 1);
      const std::string name = "f" + std::to_string(i);
      const std::uint64_t seed = t * 1000 + i;
      const Bytes v1 = payload_of(2500 + t * 13 + i, seed);

      if (!writer.put_file(client, "pw7Q", name, v1, opts).ok()) {
        ++failures;
        continue;
      }
      Result<Bytes> back = reader.get_file(client, "pw7Q", name);
      if (!back.ok() || !equal(back.value(), v1)) ++failures;

      const Bytes v2 = payload_of(900, seed ^ 0xBEEF);
      if (!writer.update_chunk(client, "pw7Q", name, 0, v2).ok()) ++failures;
      Result<Bytes> chunk0 = reader.get_chunk(client, "pw7Q", name, 0);
      if (!chunk0.ok() || !equal(chunk0.value(), v2)) ++failures;
      Result<Bytes> snap = reader.get_chunk_snapshot(client, "pw7Q", name, 0);
      if (!snap.ok()) ++failures;

      Result<std::vector<CloudDataDistributor::FileInfo>> listed =
          reader.list_files(client, "pw7Q");
      if (!listed.ok() || listed.value().empty()) ++failures;

      if (!writer.remove_file(client, "pw7Q", name).ok()) ++failures;
      if (reader.get_file(client, "pw7Q", name).status().code() !=
          ErrorCode::kNotFound) {
        ++failures;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  // Everything was removed; no shard may survive at any provider.
  std::size_t stored = 0;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    stored += f.registry.at(p).object_count();
  }
  EXPECT_EQ(stored, 0u);
}

TEST(ConcurrencyTest, DuplicateFilenameRaceAdmitsExactlyOneWriter) {
  SharedFixture f;
  ASSERT_TRUE(f.frontend(0).register_client("Shared").ok());
  ASSERT_TRUE(f.frontend(0)
                  .add_password("Shared", "pw7Q", PrivacyLevel::kHigh)
                  .ok());

  // All threads race to claim the same filename; the claim must admit
  // exactly one and every loser must roll back to zero footprint.
  std::atomic<int> winners{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &winners, t] {
      PutOptions opts;
      opts.privacy_level = PrivacyLevel::kModerate;
      const Bytes data = payload_of(4000, 0xD00D + t);
      if (f.frontend(t).put_file("Shared", "pw7Q", "contested", data, opts)
              .ok()) {
        ++winners;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(winners.load(), 1);

  Result<Bytes> back = f.frontend(1).get_file("Shared", "pw7Q", "contested");
  ASSERT_TRUE(back.ok()) << back.status().to_string();

  // The winner's file reads back intact and is one of the candidates.
  bool matches_some_candidate = false;
  for (std::size_t t = 0; t < kThreads; ++t) {
    if (equal(back.value(), payload_of(4000, 0xD00D + t))) {
      matches_some_candidate = true;
    }
  }
  EXPECT_TRUE(matches_some_candidate);
}

TEST(ConcurrencyTest, ParallelReadersShareOneFile) {
  SharedFixture f;
  ASSERT_TRUE(f.frontend(0).register_client("Reader").ok());
  ASSERT_TRUE(f.frontend(0)
                  .add_password("Reader", "pw7Q", PrivacyLevel::kHigh)
                  .ok());
  const Bytes data = payload_of(60000, 0xCAFE);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kLow;
  ASSERT_TRUE(
      f.frontend(0).put_file("Reader", "pw7Q", "hot.bin", data, opts).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, &data, &failures, t] {
      for (int i = 0; i < 8; ++i) {
        Result<Bytes> back =
            f.frontend(t + i).get_file("Reader", "pw7Q", "hot.bin");
        if (!back.ok() || !equal(back.value(), data)) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// End-to-end hammer over the two perf paths this layer grew: shard puts
// coalesced into cross-op put_many RPCs (ShardBatcher) and metadata appends
// folded into group commits. Eight clients write, verify, and the totals
// must stay exact -- run under TSan this certifies the batcher lanes and
// the journal's leader/waiter protocol.
TEST(ConcurrencyTest, BatchedRpcAndGroupCommitSurviveClientHammer) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("cshield_gc_hammer_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  {
    auto opened = MetadataPlane::open(
        dir / "metadata.bin", dir / "j.wal", 1,
        GroupCommitConfig{32, std::chrono::milliseconds(2)});
    ASSERT_TRUE(opened.ok());
    const Journal& journal = *opened.value()->journal(0);

    storage::ProviderRegistry registry = storage::make_default_registry(12);
    DistributorConfig config;
    config.stripe_data_shards = 3;
    config.misleading_fraction = 0.1;
    config.worker_threads = 4;
    config.seed = 0xBA7C11;
    config.plane = opened.value();
    config.rpc_batch_shards = 8;
    config.rpc_batch_wait = std::chrono::microseconds(300);
    CloudDataDistributor cdd(registry, config);

    for (std::size_t t = 0; t < kThreads; ++t) {
      const std::string client = "B" + std::to_string(t);
      ASSERT_TRUE(cdd.register_client(client).ok());
      ASSERT_TRUE(
          cdd.add_password(client, "pw7Q", PrivacyLevel::kHigh).ok());
    }

    constexpr int kFiles = 12;
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const std::string client = "B" + std::to_string(t);
        PutOptions opts;
        opts.privacy_level = PrivacyLevel::kModerate;
        for (int i = 0; i < kFiles; ++i) {
          const std::string name = "s" + std::to_string(i);
          const Bytes data = payload_of(1024 + t * 211 + i * 97, t * 100 + i);
          if (!cdd.put_file(client, "pw7Q", name, data, opts).ok()) {
            ++failures;
            continue;
          }
          Result<Bytes> back = cdd.get_file(client, "pw7Q", name);
          if (!back.ok() || !equal(back.value(), data)) ++failures;
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(failures.load(), 0);

    // The batched data path actually carried the shards...
    std::uint64_t batch_rpcs = 0;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      batch_rpcs += registry.at(p).counters().batch_requests.load();
    }
    EXPECT_GT(batch_rpcs, 0u);
    // ...and every metadata mutation reached the journal (1 begin + 1
    // commit per successful put, plus client/password registrations).
    EXPECT_GE(journal.total_appended(),
              static_cast<std::uint64_t>(kThreads) * (2 + 2 * kFiles));
  }

  // The group-committed journal replays cleanly after "the process" exits.
  auto reopened = Journal::open(dir / "j.wal");
  ASSERT_TRUE(reopened.ok());
  EXPECT_GT(reopened.value()->record_count(), 0u);

  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Hammers one Telemetry sink from many writer threads (counters, gauges,
// histograms, spans) while a reader thread continuously snapshots and
// renders it. Verifies nothing is lost: counter totals, histogram counts
// and the tracer's recorded() tally must all equal the work submitted.
TEST(ConcurrencyTest, TelemetryHammerKeepsExactTotals) {
  constexpr std::size_t kWriters = 8;
  constexpr int kOpsPerWriter = 2000;
  obs::Telemetry tel(true, /*span_capacity=*/256);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tel.metrics().snapshot();
      (void)tel.metrics().to_prometheus();
      (void)tel.metrics().to_json();
      (void)tel.tracer().snapshot();
      (void)tel.tracer().to_jsonl();
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t t = 0; t < kWriters; ++t) {
    writers.emplace_back([&tel, t] {
      // Shared metric plus a per-thread one: exercises both contended RMWs
      // and the shared-lock name lookup from many threads at once.
      obs::Counter& shared = tel.metrics().counter("hammer.shared_total");
      obs::Counter& mine =
          tel.metrics().counter("hammer.t" + std::to_string(t) + "_total");
      obs::Histogram& lat = tel.metrics().histogram("hammer.lat_ns");
      obs::Gauge& depth = tel.metrics().gauge("hammer.depth");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        depth.add(1);
        shared.inc();
        mine.inc();
        lat.observe(1e3 * static_cast<double>(i % 1000 + 1));
        obs::SpanRecord proto;
        proto.op_id = tel.tracer().next_id();
        proto.name = "hammer";
        obs::ScopedSpan span(&tel, std::move(proto));
        span.rec().sim_ns = i;
        depth.add(-1);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  constexpr std::uint64_t kTotal = kWriters * kOpsPerWriter;
  const obs::MetricsRegistry::Snapshot s = tel.metrics().snapshot();
  EXPECT_EQ(s.counters.at("hammer.shared_total"), kTotal);
  for (std::size_t t = 0; t < kWriters; ++t) {
    EXPECT_EQ(s.counters.at("hammer.t" + std::to_string(t) + "_total"),
              static_cast<std::uint64_t>(kOpsPerWriter));
  }
  const auto& lat = s.histograms.at("hammer.lat_ns");
  EXPECT_EQ(lat.count, kTotal);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t c : lat.counts) bucket_sum += c;
  EXPECT_EQ(bucket_sum, kTotal);
  EXPECT_EQ(s.gauges.at("hammer.depth"), 0);
  EXPECT_EQ(tel.tracer().recorded(), kTotal);
  EXPECT_EQ(tel.tracer().snapshot().size(), tel.tracer().capacity());
}

}  // namespace
}  // namespace cshield::core
