// Chaos suite for the fault-tolerant request layer: FaultPlan decision
// semantics, circuit-breaker state machine, scripted end-to-end scenarios
// (flaky-recovers-mid-put, slow-is-not-failure, breaker-opens-then-heals,
// repair-heals-quarantine), and the acceptance property -- 5% transient
// noise over a 256-chunk put/get with zero client-visible errors and
// byte-for-byte replayable retry counts and trace spans.
//
// Every scenario runs the replay harness configuration: one worker thread
// and one I/O thread. The pools drain FIFO, so each provider's request
// sequence -- the FaultPlan's clock -- is a pure function of the workload,
// and two runs with the same plan seed produce identical faults, retries,
// and span streams.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "core/distributor.hpp"
#include "core/migrator.hpp"
#include "core/request_layer.hpp"
#include "obs/telemetry.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"

namespace cshield {
namespace {

using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;
using storage::CircuitBreaker;
using storage::FaultEpisode;
using storage::FaultKind;
using storage::FaultPlan;

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

/// All-PL3 fleet with deterministic latency seeds so every scenario's
/// modeled times replay exactly.
storage::ProviderRegistry flat_registry(std::size_t n) {
  storage::ProviderRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    storage::ProviderDescriptor d;
    d.name = "P" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = static_cast<CostLevel>(i % 4);
    registry.add(std::move(d), storage::LatencyModel{}, 0xBEEF0000ULL + i);
  }
  return registry;
}

/// Deterministic-replay distributor config: single-threaded pools (FIFO
/// request order), private telemetry sink.
DistributorConfig replay_config(std::shared_ptr<obs::Telemetry> sink) {
  DistributorConfig config;
  config.stripe_data_shards = 3;
  config.worker_threads = 1;
  config.io_threads = 1;
  config.telemetry = true;
  config.telemetry_sink = std::move(sink);
  config.seed = 0xC405;
  return config;
}

// --- FaultPlan decision semantics -------------------------------------------

TEST(FaultPlanTest, DecisionsArePureFunctions) {
  const FaultPlan plan = FaultPlan::transient(0x5EED, 0.3);
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    const storage::FaultDecision first = plan.decide(2, seq);
    for (int again = 0; again < 3; ++again) {
      EXPECT_EQ(plan.decide(2, seq).fail, first.fail) << seq;
    }
  }
}

TEST(FaultPlanTest, TransientRateTracksProbability) {
  const FaultPlan plan = FaultPlan::transient(0xAB, 0.3);
  int failed = 0;
  constexpr int kTrials = 10000;
  for (std::uint64_t seq = 0; seq < kTrials; ++seq) {
    if (plan.decide(0, seq).fail) ++failed;
  }
  const double rate = static_cast<double>(failed) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.03);
}

TEST(FaultPlanTest, SeedChangesTransientPattern) {
  const FaultPlan a = FaultPlan::transient(1, 0.5);
  const FaultPlan b = FaultPlan::transient(2, 0.5);
  int differ = 0;
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    if (a.decide(0, seq).fail != b.decide(0, seq).fail) ++differ;
  }
  EXPECT_GT(differ, 0);
}

TEST(FaultPlanTest, CrashWindowIsHalfOpen) {
  FaultPlan plan;
  FaultEpisode ep;
  ep.provider = 1;
  ep.kind = FaultKind::kCrash;
  ep.begin = 5;
  ep.end = 8;
  plan.episodes.push_back(ep);
  EXPECT_FALSE(plan.decide(1, 4).fail);
  EXPECT_TRUE(plan.decide(1, 5).fail);
  EXPECT_TRUE(plan.decide(1, 7).fail);
  EXPECT_FALSE(plan.decide(1, 8).fail);
  // Scoped to provider 1 only.
  EXPECT_FALSE(plan.decide(0, 6).fail);
}

TEST(FaultPlanTest, FlakyBurstsFollowPeriod) {
  FaultPlan plan;
  FaultEpisode ep;
  ep.kind = FaultKind::kFlaky;
  ep.begin = 10;
  ep.end = storage::kNoSeqEnd;
  ep.period = 4;
  ep.burst = 2;
  plan.episodes.push_back(ep);
  // First `burst` requests of every `period` cycle fail, aligned to begin.
  for (std::uint64_t seq = 10; seq < 30; ++seq) {
    EXPECT_EQ(plan.decide(0, seq).fail, (seq - 10) % 4 < 2) << seq;
  }
  EXPECT_FALSE(plan.decide(0, 9).fail);  // before the window
}

TEST(FaultPlanTest, OverlappingSlowEpisodesMultiply) {
  FaultPlan plan;
  FaultEpisode a;
  a.kind = FaultKind::kSlow;
  a.slow_factor = 2.0;
  FaultEpisode b;
  b.kind = FaultKind::kSlow;
  b.slow_factor = 3.0;
  plan.episodes = {a, b};
  const storage::FaultDecision d = plan.decide(0, 0);
  EXPECT_FALSE(d.fail);
  EXPECT_DOUBLE_EQ(d.slow_factor, 6.0);
}

TEST(FaultPlanTest, ProviderReplaysIdenticalFaultsAfterReinstall) {
  auto plan = std::make_shared<FaultPlan>(FaultPlan::transient(0xF00, 0.5));
  storage::ProviderDescriptor d;
  d.name = "replay";
  storage::SimCloudProvider prov(std::move(d), storage::LatencyModel{}, 77);
  auto pattern = [&] {
    std::string out;
    for (int i = 0; i < 100; ++i) {
      out += prov.put(static_cast<VirtualId>(i + 1), Bytes{1, 2, 3}).ok()
                 ? 'o'
                 : 'x';
    }
    return out;
  };
  prov.install_fault_plan(plan, 0);
  const std::string first = pattern();
  EXPECT_NE(first.find('x'), std::string::npos);
  EXPECT_NE(first.find('o'), std::string::npos);
  // Reinstall resets the sequence clock: the same request stream replays
  // the exact same fault pattern.
  prov.install_fault_plan(plan, 0);
  EXPECT_EQ(pattern(), first);
}

// --- circuit breaker state machine ------------------------------------------

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresOnly) {
  CircuitBreaker b(CircuitBreaker::Config{3, 4});
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  b.on_success();  // breaks the streak
  EXPECT_FALSE(b.on_failure());
  EXPECT_FALSE(b.on_failure());
  EXPECT_TRUE(b.on_failure());  // third consecutive: the trip event
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, OpenRejectsUntilCountBasedProbe) {
  CircuitBreaker b(CircuitBreaker::Config{1, 3});
  EXPECT_TRUE(b.on_failure());
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kReject);
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kReject);
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kProbe);  // every 3rd
  // While the probe is in flight the breaker stays half-open and admits
  // nothing else.
  EXPECT_EQ(b.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kReject);
}

TEST(CircuitBreakerTest, ProbeOutcomeHealsOrReopens) {
  CircuitBreaker b(CircuitBreaker::Config{1, 2});
  EXPECT_TRUE(b.on_failure());
  (void)b.admit();
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kProbe);
  // Failed probe re-opens without counting as a fresh trip.
  EXPECT_FALSE(b.on_failure());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kOpen);
  (void)b.admit();
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kProbe);
  // Successful probe closes: the heal event.
  EXPECT_TRUE(b.on_success());
  EXPECT_EQ(b.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(b.admit(), CircuitBreaker::Decision::kProceed);
}

// --- batched request layer ---------------------------------------------------

TEST(RequestLayerBatchTest, BatchLevelFaultRetriesWholeBatchOnce) {
  storage::ProviderRegistry registry = flat_registry(2);
  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode ep;
  ep.provider = 0;
  ep.kind = FaultKind::kCrash;
  ep.begin = 0;
  ep.end = 1;  // exactly the first request fails
  plan->episodes.push_back(ep);
  registry.apply_fault_plan(plan);

  core::RequestLayer rt(registry, core::RetryPolicy{}, nullptr, 0xBA7C);
  const Bytes a = payload_of(100, 1);
  const Bytes b = payload_of(200, 2);
  const Bytes c = payload_of(300, 3);
  const core::RequestLayer::BatchOutcome out =
      rt.put_many(0, {{1, a}, {2, b}, {3, c}});
  ASSERT_EQ(out.statuses.size(), 3u);
  for (const Status& st : out.statuses) EXPECT_TRUE(st.ok());
  // The batch-level fault failed the whole first RPC; one retry re-sent
  // the batch -- two round trips total, never one per item.
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.retries, 1u);
  EXPECT_FALSE(out.fail_fast);
  EXPECT_GT(out.time.count(), 0);
  EXPECT_EQ(registry.at(0).fault_requests(), 2u);
  EXPECT_EQ(registry.at(0).counters().puts.load(), 3u);
}

TEST(RequestLayerBatchTest, DefinitiveItemAnswersAreFinal) {
  storage::ProviderRegistry registry = flat_registry(1);
  core::RequestLayer rt(registry, core::RetryPolicy{}, nullptr, 0xD00D);
  const Bytes a = payload_of(64, 9);
  ASSERT_TRUE(rt.put_many(0, {{5, a}}).statuses[0].ok());
  const core::RequestLayer::BatchGetOutcome got = rt.get_many(0, {5, 404});
  // A per-item miss is a definitive answer, not a provider failure: the
  // retry budget must not be burned re-asking for it.
  EXPECT_EQ(got.attempts, 1u);
  EXPECT_EQ(got.retries, 0u);
  ASSERT_EQ(got.statuses.size(), 2u);
  ASSERT_TRUE(got.statuses[0].ok());
  ASSERT_TRUE(got.results[0].has_value());
  EXPECT_TRUE(equal(*got.results[0], a));
  EXPECT_EQ(got.statuses[1].code(), ErrorCode::kNotFound);
  EXPECT_FALSE(got.results[1].has_value());
}

TEST(RequestLayerBatchTest, OpenBreakerFailsBatchFast) {
  storage::ProviderRegistry registry = flat_registry(1);
  registry.set_breaker_config(storage::CircuitBreaker::Config{2, 8});
  registry.at(0).install_fault_plan(storage::FaultPlan::outage(0), 0);
  core::RetryPolicy policy;
  policy.max_attempts = 2;
  core::RequestLayer rt(registry, policy, nullptr, 0x0DD);
  const Bytes a = payload_of(32, 5);
  // Two failed batch RPCs trip the breaker...
  const core::RequestLayer::BatchOutcome first = rt.put_many(0, {{1, a}});
  EXPECT_EQ(first.attempts, 2u);
  EXPECT_TRUE(registry.quarantined(0));
  // ...and the next batch is rejected before any provider I/O.
  const core::RequestLayer::BatchOutcome second = rt.put_many(0, {{2, a}});
  EXPECT_TRUE(second.fail_fast);
  EXPECT_EQ(second.attempts, 0u);
  ASSERT_EQ(second.statuses.size(), 1u);
  EXPECT_EQ(second.statuses[0].code(), ErrorCode::kUnavailable);
  // Only the first call's two RPCs ever reached the provider.
  EXPECT_EQ(registry.at(0).fault_requests(), 2u);
}

// --- scripted end-to-end scenarios ------------------------------------------

TEST(ChaosScenarioTest, FlakyProvidersRecoverMidPut) {
  auto sink = std::make_shared<obs::Telemetry>(true);
  storage::ProviderRegistry registry = flat_registry(8);
  // Every provider's first request fails, its second succeeds: one flaky
  // burst that recovers mid-put.
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 0x5EED;
  FaultEpisode ep;
  ep.provider = storage::kEveryProvider;
  ep.kind = FaultKind::kFlaky;
  ep.begin = 0;
  ep.end = 2;
  ep.period = 2;
  ep.burst = 1;
  plan->episodes.push_back(ep);
  registry.apply_fault_plan(plan);

  CloudDataDistributor cdd(registry, replay_config(sink));
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(800, 42);  // one PL3 chunk -> one stripe
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  OpReport report;
  ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts, &report).ok());

  // RAID-5 over k=3: exactly 4 shards on 4 distinct fresh providers, each
  // failing its first request -- exactly 4 retries, nothing re-placed.
  EXPECT_EQ(report.retries, 4u);
  EXPECT_EQ(report.replaced_shards, 0u);
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(sink->metrics().counter("rt.retries").value(), 4u);
  EXPECT_EQ(sink->metrics().counter("rt.giveups").value(), 0u);
  std::uint64_t injected = 0;
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    injected += registry.at(p).counters().injected_failures.load();
  }
  EXPECT_EQ(injected, 4u);

  Result<Bytes> back = cdd.get_file("C", "pw", "f");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

TEST(ChaosScenarioTest, SlowProviderIsNotAFailure) {
  // A slow provider delays a read but does not change it: the read waits
  // for its data shards and fetches nothing else, whether or not
  // telemetry is on.
  std::vector<std::uint64_t> slow_read_gets;
  for (const bool telemetry : {true, false}) {
    SCOPED_TRACE(telemetry ? "telemetry on" : "telemetry off");
    auto sink = std::make_shared<obs::Telemetry>(true);
    storage::ProviderRegistry registry = flat_registry(8);
    DistributorConfig config = replay_config(sink);
    config.telemetry = telemetry;
    CloudDataDistributor cdd(registry, config);
    ASSERT_TRUE(cdd.register_client("C").ok());
    ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
    const Bytes data = payload_of(3 * 1024, 7);  // 3 chunks
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts).ok());

    // A deep fault-free latency history on every provider, so a read that
    // compared the slow fetch against its provider's own percentiles would
    // have the samples to do so.
    for (int i = 0; i < 64; ++i) {
      Result<Bytes> warm = cdd.get_file("C", "pw", "f");
      ASSERT_TRUE(warm.ok()) << warm.status().to_string();
    }

    // Find where chunk 0's first data shard lives and make that provider
    // 8x slower than its own history.
    const auto refs = cdd.metadata().file_chunks("C", "f");
    ASSERT_FALSE(refs.empty());
    Result<core::ChunkEntry> entry =
        cdd.metadata().chunk_entry(refs.front().chunk_index);
    ASSERT_TRUE(entry.ok());
    const ProviderIndex laggard = entry.value().stripe.front().provider;
    auto plan = std::make_shared<FaultPlan>();
    FaultEpisode ep;
    ep.provider = laggard;
    ep.kind = FaultKind::kSlow;
    ep.slow_factor = 8.0;
    plan->episodes.push_back(ep);
    registry.apply_fault_plan(plan);

    auto provider_gets = [&registry] {
      std::uint64_t n = 0;
      for (ProviderIndex p = 0; p < registry.size(); ++p) {
        n += registry.at(p).counters().gets.load();
      }
      return n;
    };
    const std::uint64_t before = provider_gets();
    OpReport report;
    Result<Bytes> back = cdd.get_file("C", "pw", "f", &report);
    ASSERT_TRUE(back.ok()) << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data));
    // Slowness is not failure: no retry, no parity, no extra fetch.
    const std::uint64_t served = provider_gets() - before;
    EXPECT_EQ(served, entry.value().layout.data_shards * report.chunks);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(report.parity_reads, 0u);
    EXPECT_EQ(sink->metrics().counter("cdd.parity_fallbacks").value(), 0u);
    slow_read_gets.push_back(served);
  }
  EXPECT_EQ(slow_read_gets.front(), slow_read_gets.back());
}

TEST(ChaosScenarioTest, BreakerOpensThenHalfOpenProbeHeals) {
  auto sink = std::make_shared<obs::Telemetry>(true);
  storage::ProviderRegistry registry = flat_registry(8);
  registry.set_breaker_config(CircuitBreaker::Config{2, 4});
  CloudDataDistributor cdd(registry, replay_config(sink));
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(800, 9);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts).ok());

  const auto refs = cdd.metadata().file_chunks("C", "f");
  ASSERT_FALSE(refs.empty());
  Result<core::ChunkEntry> entry =
      cdd.metadata().chunk_entry(refs.front().chunk_index);
  ASSERT_TRUE(entry.ok());
  const ProviderIndex victim = entry.value().stripe.front().provider;

  // The victim crashes for its next 4 requests (sequence space), then
  // recovers. Breaker: trip after 2 consecutive failures, probe every 4th
  // rejection.
  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode ep;
  ep.provider = victim;
  ep.kind = FaultKind::kCrash;
  ep.begin = 0;
  ep.end = 4;
  plan->episodes.push_back(ep);
  registry.apply_fault_plan(plan);  // also resets breaker state

  // Every read succeeds throughout -- parity covers the quarantined shard
  // -- and the breaker walks trip -> rejections -> failed probes ->
  // successful probe -> closed, entirely driven by request counts.
  int healed_at = -1;
  for (int i = 0; i < 20; ++i) {
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    ASSERT_TRUE(back.ok()) << "read " << i << ": "
                           << back.status().to_string();
    EXPECT_TRUE(equal(back.value(), data));
    if (sink->metrics().counter("rt.breaker_closes").value() == 1) {
      healed_at = i;
      break;
    }
  }
  ASSERT_NE(healed_at, -1) << "breaker never healed";
  EXPECT_EQ(sink->metrics().counter("rt.breaker_trips").value(), 1u);
  EXPECT_EQ(sink->metrics().counter("rt.probes").value(), 3u);
  EXPECT_EQ(sink->metrics().counter("rt.breaker_closes").value(), 1u);
  EXPECT_GT(sink->metrics().counter("rt.fail_fast").value(), 0u);
  EXPECT_EQ(sink->metrics().gauge("rt.open_breakers").value(), 0);
  EXPECT_FALSE(registry.quarantined(victim));
}

TEST(ChaosScenarioTest, RepairHealsQuarantinedStripes) {
  auto sink = std::make_shared<obs::Telemetry>(true);
  storage::ProviderRegistry registry = flat_registry(8);
  registry.set_breaker_config(CircuitBreaker::Config{2, 4});
  CloudDataDistributor cdd(registry, replay_config(sink));
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(800, 11);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts).ok());

  const auto refs = cdd.metadata().file_chunks("C", "f");
  ASSERT_FALSE(refs.empty());
  Result<core::ChunkEntry> entry =
      cdd.metadata().chunk_entry(refs.front().chunk_index);
  ASSERT_TRUE(entry.ok());
  const ProviderIndex victim = entry.value().stripe.front().provider;

  // Permanent crash. One degraded read trips the breaker (2 consecutive
  // failures) -- the provider is quarantined.
  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode ep;
  ep.provider = victim;
  ep.kind = FaultKind::kCrash;
  plan->episodes.push_back(ep);
  registry.apply_fault_plan(plan);
  Result<Bytes> degraded = cdd.get_file("C", "pw", "f");
  ASSERT_TRUE(degraded.ok()) << degraded.status().to_string();
  EXPECT_TRUE(equal(degraded.value(), data));
  ASSERT_TRUE(registry.quarantined(victim));

  // Repair treats the quarantined provider's shards as lost (its open
  // breaker fails the single-attempt probe fast), reconstructs them from
  // the stripe, and re-homes them on healthy providers.
  Result<std::size_t> repaired = cdd.repair();
  ASSERT_TRUE(repaired.ok()) << repaired.status().to_string();
  EXPECT_EQ(repaired.value(), 1u);
  EXPECT_EQ(sink->metrics().counter("cdd.repaired_shards").value(), 1u);
  Result<core::ChunkEntry> healed =
      cdd.metadata().chunk_entry(refs.front().chunk_index);
  ASSERT_TRUE(healed.ok());
  for (const auto& loc : healed.value().stripe) {
    EXPECT_NE(loc.provider, victim);
  }
  // Full redundancy is back even though the victim never recovers.
  Result<Bytes> back = cdd.get_file("C", "pw", "f");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

// --- acceptance: 5% noise, zero client errors, byte-for-byte replay ---------

/// Everything the acceptance run must reproduce across replays. Spans are
/// normalized by stripping the two wall-clock fields (start_ns, wall_ns);
/// all modeled fields must match exactly.
struct AcceptanceRun {
  std::uint64_t rt_retries = 0;
  std::size_t put_retries = 0;
  std::size_t get_retries = 0;
  std::size_t put_replaced = 0;
  std::uint64_t injected = 0;
  std::string spans;
};

std::string normalize_spans(const std::string& jsonl) {
  static const std::regex kWallClock("\"(start_ns|wall_ns)\":-?[0-9]+,?");
  return std::regex_replace(jsonl, kWallClock, "");
}

AcceptanceRun run_acceptance(std::uint64_t fault_seed,
                             std::optional<ProtectionMode> protection = {}) {
  auto sink = std::make_shared<obs::Telemetry>(true);
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  registry.apply_fault_plan(
      std::make_shared<FaultPlan>(FaultPlan::transient(fault_seed, 0.05)));
  CloudDataDistributor cdd(registry, replay_config(sink));
  EXPECT_TRUE(cdd.register_client("C").ok());
  EXPECT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());

  // 256 PL2 chunks (4 KiB each) under 5% transient noise: the layer must
  // absorb every fault -- zero client-visible errors.
  const Bytes data = payload_of(256 * 4096, 2026);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  opts.protection = protection;
  OpReport put_report;
  const Status put = cdd.put_file("C", "pw", "big", data, opts, &put_report);
  EXPECT_TRUE(put.ok()) << put.to_string();
  OpReport get_report;
  Result<Bytes> back = cdd.get_file("C", "pw", "big", &get_report);
  EXPECT_TRUE(back.ok()) << back.status().to_string();
  if (back.ok()) {
    EXPECT_TRUE(equal(back.value(), data));
  }
  EXPECT_EQ(sink->metrics().counter("cdd.put_file_errors").value(), 0u);
  EXPECT_EQ(sink->metrics().counter("cdd.get_file_errors").value(), 0u);

  AcceptanceRun run;
  run.rt_retries = sink->metrics().counter("rt.retries").value();
  run.put_retries = put_report.retries;
  run.get_retries = get_report.retries;
  run.put_replaced = put_report.replaced_shards;
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    run.injected += registry.at(p).counters().injected_failures.load();
  }
  run.spans = normalize_spans(sink->tracer().to_jsonl());
  return run;
}

TEST(ChaosAcceptanceTest, TransientNoiseAbsorbedAndReplaysByteForByte) {
  const AcceptanceRun first = run_acceptance(0xACCE97);
  // The faults really happened and the layer really worked.
  EXPECT_GT(first.injected, 0u);
  EXPECT_GT(first.rt_retries, 0u);
  EXPECT_GT(first.put_retries + first.get_retries, 0u);

  // Same seed: identical retry counts and an identical span stream modulo
  // wall-clock fields.
  const AcceptanceRun replay = run_acceptance(0xACCE97);
  EXPECT_EQ(replay.rt_retries, first.rt_retries);
  EXPECT_EQ(replay.put_retries, first.put_retries);
  EXPECT_EQ(replay.get_retries, first.get_retries);
  EXPECT_EQ(replay.put_replaced, first.put_replaced);
  EXPECT_EQ(replay.injected, first.injected);
  EXPECT_EQ(replay.spans, first.spans);

  // Different seed: a different fault pattern (the seed is live).
  const AcceptanceRun other = run_acceptance(0x0DD5EED);
  EXPECT_NE(other.spans, first.spans);
}

// --- protection-mode axis (PR 8) --------------------------------------------
//
// The protection transform is length-preserving and its nonce is drawn from
// the chunk RNG in every mode, so the fault-plan clock -- provider request
// sequences, latency draws, retry decisions -- is byte-identical whichever
// transform a chunk carries. These tests pin that invariant: chaos behavior
// must never depend on the protection mode.

constexpr ProtectionMode kAllModes[] = {ProtectionMode::kPartialAes,
                                        ProtectionMode::kMisleadingBytes,
                                        ProtectionMode::kFragmentation};

TEST(ChaosProtectionModeTest, TransientNoiseRetriesIdenticalAcrossModes) {
  const AcceptanceRun baseline =
      run_acceptance(0xACCE97, ProtectionMode::kPartialAes);
  EXPECT_GT(baseline.injected, 0u);
  for (ProtectionMode mode : kAllModes) {
    const AcceptanceRun run = run_acceptance(0xACCE97, mode);
    const char* name = protection_mode_name(mode).data();
    EXPECT_EQ(run.rt_retries, baseline.rt_retries) << name;
    EXPECT_EQ(run.put_retries, baseline.put_retries) << name;
    EXPECT_EQ(run.get_retries, baseline.get_retries) << name;
    EXPECT_EQ(run.put_replaced, baseline.put_replaced) << name;
    EXPECT_EQ(run.injected, baseline.injected) << name;
    // The whole modeled span stream replays byte-for-byte too: same shard
    // sizes, same providers, same outcomes -- only payload bytes differ.
    EXPECT_EQ(run.spans, baseline.spans) << name;
  }
}

TEST(ChaosProtectionModeTest, FlakyAndCrashScenarioSurvivesEveryMode) {
  // Scripted plan: every provider's first request fails (flaky burst that
  // recovers), and provider 2 is crashed for a window covering the put.
  // Fragmentation puts must ride it out exactly like partial-AES ones.
  struct Outcome {
    std::size_t retries = 0;
    std::size_t replaced = 0;
    std::uint64_t injected = 0;
    bool round_trip = false;
  };
  auto run_mode = [&](ProtectionMode mode) {
    auto sink = std::make_shared<obs::Telemetry>(true);
    storage::ProviderRegistry registry = flat_registry(8);
    auto plan = std::make_shared<FaultPlan>();
    plan->seed = 0x5EED;
    FaultEpisode flaky;
    flaky.provider = storage::kEveryProvider;
    flaky.kind = FaultKind::kFlaky;
    flaky.begin = 0;
    flaky.end = 2;
    flaky.period = 2;
    flaky.burst = 1;
    plan->episodes.push_back(flaky);
    FaultEpisode crash;
    crash.provider = 2;
    crash.kind = FaultKind::kCrash;
    crash.begin = 0;
    crash.end = 64;
    plan->episodes.push_back(crash);
    registry.apply_fault_plan(plan);

    CloudDataDistributor cdd(registry, replay_config(sink));
    EXPECT_TRUE(cdd.register_client("C").ok());
    EXPECT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
    const Bytes data = payload_of(800, 42);  // one PL3 chunk -> one stripe
    PutOptions opts;
    opts.privacy_level = PrivacyLevel::kHigh;
    opts.protection = mode;
    OpReport report;
    Outcome out;
    const Status put = cdd.put_file("C", "pw", "f", data, opts, &report);
    EXPECT_TRUE(put.ok()) << put.to_string();
    out.retries = report.retries;
    out.replaced = report.replaced_shards;
    for (ProviderIndex p = 0; p < registry.size(); ++p) {
      out.injected += registry.at(p).counters().injected_failures.load();
    }
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    EXPECT_TRUE(back.ok()) << back.status().to_string();
    out.round_trip = back.ok() && equal(back.value(), data);
    return out;
  };

  const Outcome baseline = run_mode(ProtectionMode::kPartialAes);
  EXPECT_TRUE(baseline.round_trip);
  EXPECT_GT(baseline.injected, 0u);
  for (ProtectionMode mode : kAllModes) {
    const Outcome out = run_mode(mode);
    const char* name = protection_mode_name(mode).data();
    EXPECT_TRUE(out.round_trip) << name;
    EXPECT_EQ(out.retries, baseline.retries) << name;
    EXPECT_EQ(out.replaced, baseline.replaced) << name;
    EXPECT_EQ(out.injected, baseline.injected) << name;
  }
}

TEST(ChaosScenarioTest, ProviderLossDuringDrainMigration) {
  // A bystander provider crashes permanently while another provider is
  // being drained. The invariants: no read ever fails or returns wrong
  // bytes (RAID absorbs the loss), the migrator reports the shards it
  // could not place instead of committing a half-done drain, and once the
  // bystander is healed the re-run converges and empties the subject --
  // the copy-commit-delete ordering means the interrupted pass left
  // duplicates at worst, never holes.
  auto sink = std::make_shared<obs::Telemetry>(true);
  storage::ProviderRegistry registry = flat_registry(8);
  CloudDataDistributor cdd(registry, replay_config(sink));
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(6000, 77);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts).ok());

  auto shards_on = [&cdd](ProviderIndex p) {
    std::size_t n = 0;
    for (const core::ChunkEntry& entry : cdd.metadata().chunk_table()) {
      if (entry.deleted) continue;
      for (const core::ShardLocation& loc : entry.stripe) {
        if (loc.provider == p) ++n;
      }
    }
    return n;
  };
  ProviderIndex subject = 0;
  for (ProviderIndex p = 1; p < registry.size(); ++p) {
    if (shards_on(p) > shards_on(subject)) subject = p;
  }
  ASSERT_GT(shards_on(subject), 0u);
  const ProviderIndex bystander = (subject + 1) % registry.size();

  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode ep;
  ep.provider = bystander;
  ep.kind = FaultKind::kCrash;
  plan->episodes.push_back(ep);
  registry.apply_fault_plan(plan);

  // Drain with the fleet degraded: a pass either commits (the ring routed
  // every shard around the dead provider) or pauses with the remainder.
  core::Migrator migrator(cdd);
  Result<core::Migrator::Report> pass =
      migrator.run(core::MigrationKind::kDrain, subject);
  if (!pass.ok()) {
    EXPECT_EQ(pass.status().code(), ErrorCode::kResourceExhausted)
        << pass.status().to_string();
  }
  EXPECT_EQ(registry.lifecycle(subject), ProviderLifecycle::kDraining);

  // Availability during the degraded drain.
  Result<Bytes> degraded = cdd.get_file("C", "pw", "f");
  ASSERT_TRUE(degraded.ok()) << degraded.status().to_string();
  EXPECT_TRUE(equal(degraded.value(), data));

  // Heal the bystander and converge.
  registry.clear_fault_plan();
  registry.breaker(bystander).reset();
  bool committed = pass.ok() && pass.value().committed;
  for (int attempt = 0; attempt < 4 && !committed; ++attempt) {
    pass = migrator.run(core::MigrationKind::kDrain, subject);
    committed = pass.ok() && pass.value().committed;
  }
  ASSERT_TRUE(committed) << "drain did not converge after heal";
  EXPECT_EQ(shards_on(subject), 0u);
  Result<Bytes> back = cdd.get_file("C", "pw", "f");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
}

}  // namespace
}  // namespace cshield
