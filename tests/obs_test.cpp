// Tests for the telemetry subsystem (src/obs): metric semantics and bucket
// boundaries, registry export formats, tracer ring behavior and span
// parenting, and the distributor integration -- per-provider histograms,
// root-span coverage of an op's sim time, parity-fallback and rollback
// accounting, and OpReport/span consistency.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/distributor.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "storage/provider_registry.hpp"

namespace cshield::obs {
namespace {

// --- counters & gauges -------------------------------------------------------

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, SetAddGoesNegative) {
  Gauge g;
  g.set(5);
  g.add(-8);
  EXPECT_EQ(g.value(), -3);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// --- histograms --------------------------------------------------------------

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h(std::vector<double>{10.0, 100.0});
  h.observe(5.0);     // <= 10        -> bucket 0
  h.observe(10.0);    // == bound     -> bucket 0 (le semantics)
  h.observe(10.5);    // (10, 100]    -> bucket 1
  h.observe(100.0);   // == bound     -> bucket 1
  h.observe(101.0);   // > last bound -> overflow bucket
  const Histogram::Snapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 3u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 2u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.sum, 226.5);
  EXPECT_DOUBLE_EQ(s.min, 5.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_DOUBLE_EQ(s.mean(), 226.5 / 5.0);
}

TEST(HistogramTest, PercentilesMonotoneAndClamped) {
  Histogram h(Histogram::exponential_bounds());
  for (int i = 1; i <= 1000; ++i) h.observe(1e4 * i);  // 10 us .. 10 ms
  const Histogram::Snapshot s = h.snapshot();
  const double p50 = s.percentile(0.50);
  const double p95 = s.percentile(0.95);
  const double p99 = s.percentile(0.99);
  EXPECT_LE(s.min, p50);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, s.max);
  // Geometric x2 buckets bound the interpolation error by the bucket width.
  EXPECT_NEAR(p50, 5e6, 5e6);
  EXPECT_GT(p99, p50);
}

TEST(HistogramTest, EmptySnapshotIsZeroed) {
  Histogram h(std::vector<double>{1.0});
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 0.0);
}

TEST(HistogramTest, ResetZeroesEverything) {
  Histogram h(std::vector<double>{10.0});
  h.observe(3.0);
  h.observe(30.0);
  h.reset();
  const Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.counts[0] + s.counts[1], 0u);
}

// --- registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesAreStable) {
  MetricsRegistry m;
  Counter& a = m.counter("x.hits");
  Counter& b = m.counter("x.hits");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = m.histogram("x.lat_ns");
  Histogram& h2 = m.histogram("x.lat_ns");
  EXPECT_EQ(&h1, &h2);
  EXPECT_NE(static_cast<void*>(&m.gauge("x.depth")),
            static_cast<void*>(nullptr));
}

TEST(MetricsRegistryTest, SnapshotSeesAllMetrics) {
  MetricsRegistry m;
  m.counter("a.total").inc(7);
  m.gauge("a.depth").set(-2);
  m.histogram("a.ns").observe(5e3);
  const MetricsRegistry::Snapshot s = m.snapshot();
  EXPECT_EQ(s.counters.at("a.total"), 7u);
  EXPECT_EQ(s.gauges.at("a.depth"), -2);
  EXPECT_EQ(s.histograms.at("a.ns").count, 1u);
}

TEST(MetricsRegistryTest, PrometheusSanitizesDots) {
  MetricsRegistry m;
  m.counter("provider.AWS.requests").inc(3);
  m.histogram("provider.AWS.put_ns").observe(2e3);
  const std::string text = m.to_prometheus();
  EXPECT_NE(text.find("# TYPE provider_AWS_requests counter"),
            std::string::npos);
  EXPECT_NE(text.find("provider_AWS_requests 3"), std::string::npos);
  EXPECT_NE(text.find("provider_AWS_put_ns_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("provider_AWS_put_ns_count 1"), std::string::npos);
  EXPECT_EQ(text.find("provider.AWS"), std::string::npos);
}

TEST(MetricsRegistryTest, JsonExportRoundTripsKnownFields) {
  MetricsRegistry m;
  m.counter("c.total").inc(11);
  m.gauge("g.now").set(4);
  Histogram& h = m.histogram("h.ns");
  h.observe(1.5e3);
  h.observe(3e3);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"counters\":{\"c.total\":11}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"g.now\":4}"), std::string::npos);
  EXPECT_NE(json.find("\"h.ns\":{\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[["), std::string::npos);
  // Overflow bucket serializes with a null upper bound.
  EXPECT_NE(json.find("[null,"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetKeepsAddressesZerosValues) {
  MetricsRegistry m;
  Counter& c = m.counter("z.total");
  c.inc(9);
  m.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&m.counter("z.total"), &c);
}

// --- tracer ------------------------------------------------------------------

TEST(TracerTest, RingWrapsKeepingNewestOldestFirst) {
  Tracer tr(4);
  for (int i = 1; i <= 6; ++i) {
    SpanRecord r;
    r.span_id = static_cast<std::uint64_t>(i);
    r.name = "s" + std::to_string(i);
    tr.record(std::move(r));
  }
  EXPECT_EQ(tr.capacity(), 4u);
  EXPECT_EQ(tr.recorded(), 6u);
  const std::vector<SpanRecord> spans = tr.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(spans[i].span_id, i + 3) << "oldest-first order";
  }
}

TEST(TracerTest, IdsAreUniqueAndNonZero) {
  Tracer tr;
  std::uint64_t last = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = tr.next_id();
    EXPECT_NE(id, 0u);
    EXPECT_GT(id, last);
    last = id;
  }
}

TEST(TracerTest, JsonEscapesAndOmitsEmptyFields) {
  SpanRecord r;
  r.op_id = 1;
  r.span_id = 2;
  r.name = "we\"ird\n";
  const std::string json = Tracer::to_json(r);
  EXPECT_NE(json.find("\"name\":\"we\\\"ird\\n\""), std::string::npos);
  EXPECT_EQ(json.find("\"client\""), std::string::npos);
  EXPECT_EQ(json.find("\"chunk\""), std::string::npos);
  EXPECT_EQ(json.find("\"provider\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"OK\""), std::string::npos);
}

TEST(TracerTest, CountsUnexportedOverwritesAsDrops) {
  Tracer tr(4);
  auto record_named = [&tr](const char* name) {
    SpanRecord r;
    r.span_id = tr.next_id();
    r.name = name;
    tr.record(std::move(r));
  };
  for (int i = 0; i < 4; ++i) record_named("fill");
  EXPECT_EQ(tr.dropped_spans(), 0u);  // ring full but nothing overwritten
  record_named("wrap1");
  record_named("wrap2");
  EXPECT_EQ(tr.dropped_spans(), 2u);  // two unexported spans lost

  // Exported spans are fair game: overwriting them is not a drop.
  tr.mark_exported();
  for (int i = 0; i < 4; ++i) record_named("post-export");
  EXPECT_EQ(tr.dropped_spans(), 2u);

  tr.clear();
  EXPECT_EQ(tr.dropped_spans(), 0u);
  record_named("fresh");
  EXPECT_EQ(tr.dropped_spans(), 0u);
}

TEST(TracerTest, DropHookMirrorsIntoRegistryCounter) {
  Telemetry tel(true, /*span_capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    SpanRecord r;
    r.span_id = tel.tracer().next_id();
    r.name = "s";
    tel.tracer().record(std::move(r));
  }
  EXPECT_EQ(tel.tracer().dropped_spans(), 3u);
  EXPECT_EQ(tel.metrics().counter("trace.dropped_spans").value(), 3u);
  // The counter is lazy: a quiet instance never interns it.
  Telemetry quiet(true, 2);
  EXPECT_TRUE(quiet.metrics().snapshot().counters.empty());
}

TEST(TracerTest, JsonEscapesControlAndHighBitBytes) {
  SpanRecord r;
  r.op_id = 1;
  r.span_id = 2;
  r.name = std::string("a\x01" "b\x7f" "\xc3\xa9");  // control, DEL, UTF-8 e-acute
  const std::string json = Tracer::to_json(r);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  // High-bit bytes pass through verbatim (they are not C0 controls) -- the
  // signed-char regression printed ￿ff.. garbage for them.
  EXPECT_EQ(json.find("\\uffffff"), std::string::npos);
  EXPECT_NE(json.find("\xc3\xa9"), std::string::npos);
}

TEST(ScopedSpanTest, ParentingLinksChildToRoot) {
  Telemetry tel(true);
  {
    SpanRecord root_proto;
    root_proto.op_id = tel.tracer().next_id();
    root_proto.name = "op";
    ScopedSpan root(&tel, std::move(root_proto));
    ASSERT_TRUE(root.armed());
    SpanRecord child_proto;
    child_proto.op_id = root.ctx().op_id;
    child_proto.parent_id = root.ctx().parent;
    child_proto.name = "stage";
    ScopedSpan child(&tel, std::move(child_proto));
    ASSERT_TRUE(child.armed());
    EXPECT_NE(child.id(), root.id());
  }  // child records before root (reverse destruction order)
  const std::vector<SpanRecord> spans = tel.tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "stage");
  EXPECT_EQ(spans[1].name, "op");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[0].op_id, spans[1].op_id);
  EXPECT_EQ(spans[1].parent_id, 0u) << "root has no parent";
}

TEST(ScopedSpanTest, InertWhenDisabledOrNull) {
  Telemetry tel(false);
  {
    SpanRecord r;
    r.name = "never";
    ScopedSpan s(&tel, std::move(r));
    EXPECT_FALSE(s.armed());
    SpanRecord r2;
    ScopedSpan s2(nullptr, std::move(r2));
    EXPECT_FALSE(s2.armed());
  }
  EXPECT_EQ(tel.tracer().recorded(), 0u);
#ifndef CSHIELD_NO_TELEMETRY
  tel.set_enabled(true);
  EXPECT_TRUE(tel.enabled());
#endif
}

// --- distributor integration -------------------------------------------------

using core::CloudDataDistributor;
using core::DistributorConfig;
using core::OpReport;
using core::PutOptions;

Bytes payload_of(std::size_t n, std::uint64_t seed = 7) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

struct ObsFixture {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  std::shared_ptr<Telemetry> sink = std::make_shared<Telemetry>();
  DistributorConfig config;
  std::unique_ptr<CloudDataDistributor> cdd;

  ObsFixture() {
    config.default_raid = raid::RaidLevel::kRaid5;
    config.stripe_data_shards = 3;
    config.worker_threads = 4;
    config.telemetry_sink = sink;  // isolated from the process-global sink
    cdd = std::make_unique<CloudDataDistributor>(registry, config);
    EXPECT_TRUE(cdd->register_client("Bob").ok());
    EXPECT_TRUE(cdd->add_password("Bob", "Ty7e", PrivacyLevel::kHigh).ok());
  }
};

TEST(DistributorTelemetryTest, PerProviderHistogramsCoverEveryProviderUsed) {
  ObsFixture f;
  // PL3 chunks are 1 KiB -> 64 chunks.
  const Bytes data = payload_of(64 * 1024);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  OpReport put_report;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "big", data, opts, &put_report).ok());
  Result<Bytes> back = f.cdd->get_file("Bob", "Ty7e", "big");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(put_report.chunks, 64u);

  const MetricsRegistry::Snapshot s = f.sink->metrics().snapshot();
  std::size_t used = 0;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    const auto& prov = f.registry.at(p);
    const std::string prefix = "provider." + prov.descriptor().name + ".";
    if (prov.counters().puts.load() > 0) {
      ++used;
      ASSERT_TRUE(s.histograms.count(prefix + "put_ns")) << prefix;
      EXPECT_GT(s.histograms.at(prefix + "put_ns").count, 0u) << prefix;
      EXPECT_GT(s.counters.at(prefix + "requests"), 0u) << prefix;
      EXPECT_GT(s.counters.at(prefix + "bytes_in"), 0u) << prefix;
    }
    if (prov.counters().gets.load() > 0) {
      ASSERT_TRUE(s.histograms.count(prefix + "get_ns")) << prefix;
      EXPECT_GT(s.histograms.at(prefix + "get_ns").count, 0u) << prefix;
    }
  }
  EXPECT_GT(used, 0u);
  // Placement instrumented: one decision per chunk for the put.
  EXPECT_GE(s.counters.at("placement.decisions"), 64u);
  // Ops counted, nothing left in flight.
  EXPECT_EQ(s.counters.at("cdd.put_file_total"), 1u);
  EXPECT_EQ(s.counters.at("cdd.get_file_total"), 1u);
  EXPECT_EQ(s.gauges.at("cdd.inflight_ops"), 0);
}

TEST(ProviderTelemetryTest, SplitsInjectedFailuresFromIoErrors) {
  auto sink = std::make_shared<Telemetry>();
  storage::ProviderDescriptor d;
  d.name = "Split";
  storage::SimCloudProvider prov(std::move(d), storage::LatencyModel{}, 5);
  prov.attach_telemetry(sink);
  ASSERT_TRUE(prov.put(1, Bytes{1, 2, 3}).ok());

  // A fault-model failure is the environment misbehaving: it lands in
  // injected_failures, never in io_errors.
  storage::FaultPlan plan;
  plan.episodes.push_back(
      {0, storage::FaultKind::kTransient, 0, storage::kNoSeqEnd, 1.0});
  prov.install_fault_plan(std::make_shared<const storage::FaultPlan>(plan),
                          0);
  EXPECT_FALSE(prov.get(1).ok());
  EXPECT_EQ(prov.counters().injected_failures.load(), 1u);
  EXPECT_EQ(prov.counters().io_errors.load(), 0u);

  // A store miss is the provider's own I/O failing: io_errors only.
  prov.install_fault_plan(nullptr, 0);
  EXPECT_FALSE(prov.get(999).ok());
  EXPECT_EQ(prov.counters().io_errors.load(), 1u);
  EXPECT_EQ(prov.counters().injected_failures.load(), 1u);

  // Both legs export under the provider's metric prefix.
  const MetricsRegistry::Snapshot s = sink->metrics().snapshot();
  EXPECT_EQ(s.counters.at("provider.Split.injected_failures"), 1u);
  EXPECT_EQ(s.counters.at("provider.Split.io_errors"), 1u);
  EXPECT_EQ(s.counters.at("provider.Split.errors"), 2u);
}

TEST(DistributorTelemetryTest, SnapshotReadIsATracedOp) {
  // get_chunk_snapshot is a client op like get_chunk: counted, timed and
  // traced as a root span with one shard_get child per snapshot shard.
  ObsFixture f;
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "doc", payload_of(900), opts).ok());
  ASSERT_TRUE(
      f.cdd->update_chunk("Bob", "Ty7e", "doc", 0, payload_of(800, 9)).ok());
  ASSERT_TRUE(f.cdd->get_chunk_snapshot("Bob", "Ty7e", "doc", 0).ok());

  const MetricsRegistry::Snapshot s = f.sink->metrics().snapshot();
  EXPECT_EQ(s.counters.at("cdd.get_chunk_snapshot_total"), 1u);
  EXPECT_EQ(s.counters.count("cdd.get_chunk_snapshot_errors"), 0u);
  EXPECT_EQ(s.histograms.at("cdd.get_chunk_snapshot_wall_ns").count, 1u);
  EXPECT_EQ(s.gauges.at("cdd.inflight_ops"), 0);
  const std::vector<SpanRecord> spans = f.sink->tracer().snapshot();
  const SpanRecord* root = nullptr;
  for (const SpanRecord& sp : spans) {
    if (sp.name == "get_chunk_snapshot" && sp.parent_id == 0) root = &sp;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->outcome, ErrorCode::kOk);
  std::size_t shard_gets = 0;
  for (const SpanRecord& sp : spans) {
    if (sp.op_id == root->op_id && sp.name == "shard_get") ++shard_gets;
  }
  EXPECT_EQ(shard_gets, 4u);  // RAID-5 over 3 data shards
}

TEST(DistributorTelemetryTest, ChildSpansCoverRootSimTime) {
  ObsFixture f;
  const Bytes data = payload_of(64 * 1024);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  OpReport report;
  ASSERT_TRUE(
      f.cdd->put_file("Bob", "Ty7e", "cover", data, opts, &report).ok());

  const std::vector<SpanRecord> spans = f.sink->tracer().snapshot();
  const SpanRecord* root = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == "put_file" && s.parent_id == 0) root = &s;
  }
  ASSERT_NE(root, nullptr);
  std::int64_t child_sim = 0;
  std::size_t chunk_children = 0;
  for (const SpanRecord& s : spans) {
    if (s.parent_id == root->span_id && s.op_id == root->op_id) {
      child_sim += s.sim_ns;
      ++chunk_children;
    }
  }
  EXPECT_EQ(chunk_children, 64u) << "one chunk span per chunk";
  ASSERT_GT(root->sim_ns, 0);
  EXPECT_GE(static_cast<double>(child_sim),
            0.95 * static_cast<double>(root->sim_ns));
  // Report derives from the same accumulator as the root span.
  EXPECT_EQ(report.sim_time_serial.count(), root->sim_ns);
  EXPECT_EQ(report.bytes_logical, root->bytes);
  EXPECT_FALSE(report.rolled_back);
  EXPECT_EQ(root->outcome, ErrorCode::kOk);
}

TEST(DistributorTelemetryTest, ShardSpansCarryProviderAndKind) {
  ObsFixture f;
  const Bytes data = payload_of(4 * 1024);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "kinds", data, opts).ok());
  std::size_t data_shards = 0;
  std::size_t parity_shards = 0;
  for (const SpanRecord& s : f.sink->tracer().snapshot()) {
    if (s.name != "shard_put") continue;
    EXPECT_NE(s.provider, kNoProvider);
    if (s.shard_kind == ShardKind::kData) ++data_shards;
    if (s.shard_kind == ShardKind::kParity) ++parity_shards;
  }
  // 4 chunks x RAID-5 (k=3, p=1).
  EXPECT_EQ(data_shards, 12u);
  EXPECT_EQ(parity_shards, 4u);
}

TEST(DistributorTelemetryTest, CorruptDataShardTripsParityFallback) {
  ObsFixture f;
  const Bytes data = payload_of(900);  // single chunk
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(f.cdd->put_file("Bob", "Ty7e", "dmg", data, opts).ok());
  const auto ref = f.cdd->metadata().find_chunk("Bob", "dmg", 0);
  ASSERT_TRUE(ref.has_value());
  Result<core::ChunkEntry> entry =
      f.cdd->metadata().chunk_entry(ref->chunk_index);
  ASSERT_TRUE(entry.ok());
  // stripe[0] is a data shard (encode lays shards out data-first).
  const core::ShardLocation loc = entry.value().stripe[0];
  ASSERT_TRUE(f.registry.at(loc.provider)
                  .corrupt_object(loc.virtual_id, 0)
                  .ok());

  EXPECT_EQ(f.sink->metrics().counter("cdd.parity_fallbacks").value(), 0u);
  OpReport report;
  Result<Bytes> back = f.cdd->get_chunk("Bob", "Ty7e", "dmg", 0, &report);
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_TRUE(equal(back.value(), data));
  EXPECT_EQ(f.sink->metrics().counter("cdd.parity_fallbacks").value(), 1u);
  EXPECT_GT(report.parity_reads, 0u);
}

TEST(DistributorTelemetryTest, FailedPutRollsBackAndCountsIt) {
  ObsFixture f;
  for (ProviderIndex p = 0; p < f.registry.size(); ++p) {
    f.registry.at(p).install_fault_plan(storage::FaultPlan::outage(p), p);
  }
  const Bytes data = payload_of(4 * 1024);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  OpReport report;
  Status st = f.cdd->put_file("Bob", "Ty7e", "doomed", data, opts, &report);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(report.rolled_back);
  EXPECT_EQ(f.sink->metrics().counter("cdd.rollbacks").value(), 1u);
  EXPECT_EQ(f.sink->metrics().counter("cdd.put_file_errors").value(), 1u);
  EXPECT_EQ(f.sink->metrics().gauge("cdd.inflight_ops").value(), 0);
  // The root span carries the failure outcome.
  bool saw_failed_root = false;
  for (const SpanRecord& s : f.sink->tracer().snapshot()) {
    if (s.name == "put_file" && s.parent_id == 0) {
      saw_failed_root = true;
      EXPECT_NE(s.outcome, ErrorCode::kOk);
    }
  }
  EXPECT_TRUE(saw_failed_root);
}

TEST(DistributorTelemetryTest, DisabledTelemetryRecordsNothingButReports) {
  storage::ProviderRegistry registry = storage::make_default_registry(12);
  DistributorConfig config;
  config.stripe_data_shards = 3;
  config.worker_threads = 2;
  config.telemetry = false;
  CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("Bob").ok());
  ASSERT_TRUE(cdd.add_password("Bob", "Ty7e", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(4 * 1024);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  OpReport report;
  ASSERT_TRUE(cdd.put_file("Bob", "Ty7e", "quiet", data, opts, &report).ok());
  // OpReport still works off the shared accumulator...
  EXPECT_EQ(report.chunks, 4u);
  EXPECT_GT(report.sim_time_serial.count(), 0);
  // ...but the (private, disabled) sink stays empty.
  EXPECT_EQ(cdd.telemetry()->tracer().recorded(), 0u);
  EXPECT_TRUE(cdd.telemetry()->metrics().snapshot().counters.empty());
}

TEST(DistributorTelemetryTest, AuthFailuresAreCounted) {
  ObsFixture f;
  const Bytes data = payload_of(100);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  EXPECT_FALSE(f.cdd->put_file("Bob", "wrong", "x", data, opts).ok());
  EXPECT_EQ(f.sink->metrics().counter("cdd.auth_failures").value(), 1u);
  // A bad password on a name that does not exist, and on the inventory,
  // counts the same way.
  EXPECT_FALSE(f.cdd->get_file("Bob", "wrong", "missing").ok());
  EXPECT_EQ(f.sink->metrics().counter("cdd.auth_failures").value(), 2u);
  EXPECT_FALSE(f.cdd->list_files("Bob", "wrong").ok());
  EXPECT_EQ(f.sink->metrics().counter("cdd.auth_failures").value(), 3u);
}

}  // namespace
}  // namespace cshield::obs
