// Ops-plane tests: the metrics exporter's sample ring and windowed views,
// Prometheus exposition format (promtool-style line validation), the stall
// watchdog's one-shot diagnostic, and the rolling SLO/health engine --
// including the acceptance scenario: a deterministic FaultPlan outage whose
// exact health-transition sequence (healthy -> degraded -> critical ->
// degraded -> healthy) is asserted transition by transition.
//
// The chaos scenario reuses chaos_test.cpp's replay harness (single-
// threaded pools, fixed seeds) so the breaker walk --
// trip, rejections, failed probes, healing probe -- is a pure function of
// the read count, and the engine's transition log replays byte-for-byte.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/distributor.hpp"
#include "obs/exporter.hpp"
#include "obs/health.hpp"
#include "obs/process.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "storage/fault_plan.hpp"
#include "storage/provider_registry.hpp"

namespace cshield {
namespace {

namespace fs = std::filesystem;

using core::CloudDataDistributor;
using core::DistributorConfig;
using core::PutOptions;
using obs::HealthEngine;
using obs::HealthReport;
using obs::HealthState;
using obs::MetricsExporter;
using obs::SloPolicy;
using obs::SloStatus;
using obs::StallWatchdog;
using obs::Telemetry;
using storage::CircuitBreaker;
using storage::FaultEpisode;
using storage::FaultKind;
using storage::FaultPlan;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("cshield_health_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

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

DistributorConfig replay_config(std::shared_ptr<Telemetry> sink) {
  DistributorConfig config;
  config.stripe_data_shards = 3;
  config.worker_threads = 1;
  config.io_threads = 1;
  config.telemetry = true;
  config.telemetry_sink = std::move(sink);
  config.seed = 0xC405;
  return config;
}

MetricsExporter::Config window_config(std::size_t window) {
  MetricsExporter::Config cfg;
  cfg.window = window;
  return cfg;
}

const SloStatus& slo_named(const HealthReport& report, const std::string& n) {
  for (const SloStatus& s : report.slos) {
    if (s.name == n) return s;
  }
  ADD_FAILURE() << "missing SLO " << n;
  static const SloStatus empty;
  return empty;
}

// --- exporter: ring / deltas / windows ---------------------------------------

TEST(ExporterTest, RingIsBoundedAndOrdered) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(4));
  obs::Counter& c = tel->metrics().counter("work.items");
  for (int i = 0; i < 10; ++i) {
    c.inc();
    exp.sample_now();
  }
  EXPECT_EQ(exp.samples(), 4u);
  EXPECT_EQ(exp.total_samples(), 10u);
  const std::vector<MetricsExporter::Sample> ring = exp.ring();
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring[i].t_ns, ring[i - 1].t_ns) << "oldest first";
    EXPECT_GE(ring[i].snap.counters.at("work.items"),
              ring[i - 1].snap.counters.at("work.items"));
  }
  EXPECT_EQ(ring.back().snap.counters.at("work.items"), 10u);
}

TEST(ExporterTest, CounterDeltaRateAndLatestValues) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(8));
  tel->metrics().counter("work.items").inc(3);
  exp.sample_now();
  tel->metrics().counter("work.items").inc(5);
  tel->metrics().gauge("work.depth").set(-7);
  exp.sample_now();
  EXPECT_EQ(exp.counter_delta("work.items"), 5u);
  EXPECT_GT(exp.counter_rate_per_sec("work.items"), 0.0);
  ASSERT_TRUE(exp.counter_last("work.items").has_value());
  EXPECT_EQ(*exp.counter_last("work.items"), 8u);
  ASSERT_TRUE(exp.gauge_last("work.depth").has_value());
  EXPECT_EQ(*exp.gauge_last("work.depth"), -7);
  // Absent metrics: zero delta, empty latest.
  EXPECT_EQ(exp.counter_delta("no.such"), 0u);
  EXPECT_FALSE(exp.counter_last("no.such").has_value());
  EXPECT_FALSE(exp.gauge_last("no.such").has_value());
}

TEST(ExporterTest, HistogramWindowCountsOnlyNewObservations) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(8));
  obs::Histogram& h = tel->metrics().histogram("op.ns");
  for (int i = 0; i < 10; ++i) h.observe(100);
  exp.sample_now();
  EXPECT_FALSE(exp.histogram_window("no.such").has_value());
  for (int i = 0; i < 5; ++i) h.observe(900);
  exp.sample_now();
  const auto w = exp.histogram_window("op.ns");
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->count, 5u);   // the 10 pre-window observations subtracted
  EXPECT_EQ(w->sum, 4500.0);
  EXPECT_GT(w->percentile(0.99), 100.0);  // window p99 sees only the 900s
}

TEST(ExporterTest, ZeroCostWhenTelemetryDisabled) {
  auto tel = std::make_shared<Telemetry>(false);
  MetricsExporter exp(tel, window_config(4));
  exp.sample_now();
  exp.sample_now();
  EXPECT_EQ(exp.samples(), 0u);
  EXPECT_EQ(exp.total_samples(), 0u);
  EXPECT_NE(exp.to_prometheus().find("telemetry=\"off\""), std::string::npos);
}

TEST(ExporterTest, JsonlStreamAppendsOneLinePerSample) {
  TempDir dir;
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter::Config cfg = window_config(8);
  cfg.jsonl_path = (dir.path() / "samples.jsonl").string();
  MetricsExporter exp(tel, cfg);
  tel->metrics().counter("work.items").inc();
  exp.sample_now();
  tel->metrics().counter("work.items").inc();
  exp.sample_now();

  std::ifstream in(cfg.jsonl_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  const std::regex shape(
      R"(^\{"t_ns":[0-9]+,"counters":\{.*\},"gauges":\{.*\},"histograms":\{.*\}\}$)");
  for (const std::string& line : lines) {
    EXPECT_TRUE(std::regex_match(line, shape)) << line;
  }
  EXPECT_NE(lines[0].find("\"work.items\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"work.items\":2"), std::string::npos);
}

TEST(ExporterTest, BackgroundSamplerTicksAndStops) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter::Config cfg = window_config(64);
  cfg.interval = std::chrono::milliseconds(1);
  MetricsExporter exp(tel, cfg);
  exp.start();
  EXPECT_TRUE(exp.running());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (exp.total_samples() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  exp.stop();
  EXPECT_FALSE(exp.running());
  EXPECT_GE(exp.total_samples(), 3u);
  const std::uint64_t after_stop = exp.total_samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(exp.total_samples(), after_stop);
  // The sampler refreshed the process gauges along the way.
  ASSERT_TRUE(exp.gauge_last("process.telemetry_enabled").has_value());
  EXPECT_EQ(*exp.gauge_last("process.telemetry_enabled"), 1);
}

// Snapshot-delta consistency with metric writers racing the sampler: both a
// background sampler thread and a foreground sample_now() caller walk the
// registry while writer threads hammer it. Run under TSan in ci.sh.
TEST(ExporterTest, ConcurrentWritersYieldConsistentSnapshots) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter::Config cfg = window_config(16);
  cfg.interval = std::chrono::milliseconds(1);
  MetricsExporter exp(tel, cfg);
  exp.start();

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tel, w] {
      obs::Counter& ops = tel->metrics().counter("hammer.ops");
      obs::Gauge& depth = tel->metrics().gauge("hammer.depth");
      obs::Histogram& lat = tel->metrics().histogram("hammer.ns");
      for (int i = 0; i < kOpsPerWriter; ++i) {
        ops.inc();
        depth.set(i);
        lat.observe(static_cast<double>((w + 1) * 100));
      }
    });
  }
  for (int i = 0; i < 50; ++i) exp.sample_now();
  for (std::thread& t : writers) t.join();
  exp.stop();
  exp.sample_now();  // final sample sees every writer's last increment

  ASSERT_TRUE(exp.counter_last("hammer.ops").has_value());
  EXPECT_EQ(*exp.counter_last("hammer.ops"),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
  const std::vector<MetricsExporter::Sample> ring = exp.ring();
  for (std::size_t i = 1; i < ring.size(); ++i) {
    auto prev = ring[i - 1].snap.counters.find("hammer.ops");
    auto next = ring[i].snap.counters.find("hammer.ops");
    if (prev == ring[i - 1].snap.counters.end() ||
        next == ring[i].snap.counters.end()) {
      continue;
    }
    EXPECT_LE(prev->second, next->second) << "counter went backwards";
  }
  EXPECT_LE(exp.counter_delta("hammer.ops"),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter);
}

// --- Prometheus exposition ---------------------------------------------------

// Promtool-style validation: every line of the exposition is either a
// `# TYPE` declaration or a `name{labels} value` sample.
TEST(PrometheusFormatTest, ExpositionIsWellFormedLineByLine) {
  auto tel = std::make_shared<Telemetry>(true);
  tel->metrics().counter("cdd.put_file_total").inc(3);
  tel->metrics().gauge("rt.open_breakers").set(-1);
  obs::Histogram& h = tel->metrics().histogram("cdd.put_file_wall_ns");
  h.observe(1.5e6);
  h.observe(3.2e9);
  MetricsExporter exp(tel, window_config(4));

  const std::string text = exp.to_prometheus();
  const std::regex type_line(
      R"(^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$)");
  const std::regex sample_line(
      R"(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?$)");
  std::istringstream in(text);
  std::size_t checked = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    EXPECT_TRUE(std::regex_match(line, type_line) ||
                std::regex_match(line, sample_line))
        << "malformed exposition line: " << line;
    ++checked;
  }
  EXPECT_GT(checked, 10u);

  // Golden fragments: build info with labels, sanitized metric names,
  // cumulative histogram buckets with an +Inf bound, process gauges.
  EXPECT_NE(text.find("# TYPE cshield_build_info gauge"), std::string::npos);
  const std::regex build_info(
      R"(cshield_build_info\{arch="[^"]+",kernel_arm="[^"]+",telemetry="on"\} 1)");
  EXPECT_TRUE(std::regex_search(text, build_info)) << text.substr(0, 200);
  EXPECT_NE(text.find("cdd_put_file_total 3"), std::string::npos);
  EXPECT_NE(text.find("rt_open_breakers -1"), std::string::npos);
  EXPECT_NE(text.find("cdd_put_file_wall_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cdd_put_file_wall_ns_count 2"), std::string::npos);
  EXPECT_NE(text.find("process_uptime_seconds"), std::string::npos);
  EXPECT_NE(text.find("process_telemetry_enabled 1"), std::string::npos);
  // Sanitized: no dotted metric names escape into the exposition.
  std::istringstream again(text);
  for (std::string line; std::getline(again, line);) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    EXPECT_EQ(line.substr(0, name_end).find('.'), std::string::npos) << line;
  }
}

// --- stall watchdog ----------------------------------------------------------

TEST(WatchdogTest, ArmedRaiiTracksInflightTable) {
  auto tel = std::make_shared<Telemetry>(true);
  StallWatchdog wd(tel);
  {
    StallWatchdog::Armed a(&wd, "op_a", 0);
    StallWatchdog::Armed b(&wd, "op_b", 1'000'000);
    EXPECT_EQ(wd.inflight(), 2u);
    EXPECT_EQ(tel->metrics().gauge("watchdog.inflight_ops").value(), 2);
    StallWatchdog::Armed moved(std::move(a));
    EXPECT_EQ(wd.inflight(), 2u);  // move transfers, does not disarm
  }
  EXPECT_EQ(wd.inflight(), 0u);
  EXPECT_EQ(tel->metrics().gauge("watchdog.inflight_ops").value(), 0);
}

TEST(WatchdogTest, InertWhenTelemetryDisabledOrNull) {
  auto off = std::make_shared<Telemetry>(false);
  StallWatchdog wd_off(off);
  EXPECT_EQ(wd_off.arm("op", 1), 0u);
  EXPECT_EQ(wd_off.inflight(), 0u);
  EXPECT_EQ(wd_off.poll(), 0u);

  StallWatchdog wd_null(nullptr);
  EXPECT_EQ(wd_null.arm("op", 1), 0u);
  EXPECT_EQ(wd_null.poll(), 0u);
  wd_null.disarm(0);  // safe no-op
}

TEST(WatchdogTest, StallFiresOneShotDiagnosticDump) {
  TempDir dir;
  auto tel = std::make_shared<Telemetry>(true);
  StallWatchdog::Config cfg;
  cfg.deadline_multiple = 1.0;
  cfg.fsync_stall = std::chrono::nanoseconds(1);
  cfg.dump_path = (dir.path() / "dump.txt").string();
  StallWatchdog wd(tel, cfg);
  wd.set_context_fn([] { return std::string("breaker P0: closed\n"); });

  // One retained span so the dump's trace section has something to show.
  obs::SpanRecord span;
  span.op_id = tel->tracer().next_id();
  span.span_id = tel->tracer().next_id();
  span.name = "wedged_put";
  tel->tracer().record(std::move(span));

  const std::uint64_t ok_token = wd.arm("fast_op", 0);  // no deadline: never stalls
  const std::uint64_t token = wd.arm("wedged_put", 1);  // 1 ns deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  wd.fsync_begin();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  EXPECT_FALSE(wd.fired());
  EXPECT_EQ(wd.poll(), 2u);  // the wedged op + the stuck fsync
  EXPECT_TRUE(wd.fired());
  EXPECT_EQ(tel->metrics().counter("watchdog.stalls").value(), 1u);
  EXPECT_EQ(tel->metrics().counter("watchdog.fsync_stalls").value(), 1u);

  const std::string report = wd.last_report();
  EXPECT_NE(report.find("stalled operations"), std::string::npos);
  EXPECT_NE(report.find("'wedged_put'"), std::string::npos);
  EXPECT_NE(report.find("journal fsync window open"), std::string::npos);
  EXPECT_NE(report.find("breaker P0: closed"), std::string::npos);
  EXPECT_NE(report.find("--- metrics ---"), std::string::npos);
  EXPECT_NE(report.find("watchdog_inflight_ops"), std::string::npos);
  EXPECT_NE(report.find("--- recent spans ---"), std::string::npos);
  EXPECT_NE(report.find("\"name\":\"wedged_put\""), std::string::npos);
  std::ifstream in(cfg.dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), report);

  // One-shot: the next poll counts the same stalls but keeps the first dump.
  EXPECT_EQ(wd.poll(), 2u);
  EXPECT_EQ(tel->metrics().counter("watchdog.stalls").value(), 2u);
  EXPECT_EQ(wd.last_report(), report);

  // Dumped spans are exported -- overwriting them later is not a drop.
  EXPECT_EQ(tel->tracer().dropped_spans(), 0u);

  wd.disarm(token);
  wd.disarm(ok_token);
  wd.fsync_end();
  EXPECT_EQ(wd.poll(), 0u);
  EXPECT_EQ(wd.inflight(), 0u);
}

// --- health engine: synthetic SLO states -------------------------------------

TEST(HealthEngineTest, EmptyRingReportsHealthyNothing) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(4));
  HealthEngine engine(exp);
  const HealthReport report = engine.evaluate();
  EXPECT_EQ(report.overall, HealthState::kHealthy);
  EXPECT_TRUE(report.providers.empty());
  EXPECT_TRUE(report.slos.empty());
  EXPECT_EQ(report.window_samples, 0u);
}

TEST(HealthEngineTest, SyntheticSignalsDriveSloStates) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(4));
  HealthEngine engine(exp);
  obs::MetricsRegistry& m = tel->metrics();
  (void)m.counter("provider.AWS.requests");  // discovered even before traffic
  exp.sample_now();

  // Window activity: 10% op failure rate, a 10%-error provider, four open
  // breakers, one scrub mismatch in 100 chunks.
  m.counter("cdd.op_total").inc(90);
  m.counter("cdd.op_errors").inc(10);
  m.counter("provider.AWS.requests").inc(10);
  m.counter("provider.AWS.errors").inc(1);
  m.gauge("rt.open_breakers").set(4);
  m.counter("scrub.chunks_scanned").inc(100);
  m.counter("scrub.digest_mismatches").inc(1);
  exp.sample_now();

  const HealthReport report = engine.evaluate();
  EXPECT_EQ(report.window_samples, 2u);
  ASSERT_EQ(report.providers.size(), 1u);
  EXPECT_EQ(report.providers[0].name, "AWS");
  EXPECT_EQ(report.providers[0].state, HealthState::kDegraded);
  EXPECT_EQ(report.providers[0].window_requests, 10u);
  EXPECT_EQ(report.providers[0].window_errors, 1u);

  const SloStatus& avail = slo_named(report, "availability");
  EXPECT_EQ(avail.state, HealthState::kDegraded);  // 0.10: past 0.01, at cap
  EXPECT_DOUBLE_EQ(avail.value, 0.10);
  EXPECT_DOUBLE_EQ(avail.budget_spent, 10.0);  // 10x the 1% objective

  const SloStatus& breakers = slo_named(report, "breakers");
  EXPECT_EQ(breakers.state, HealthState::kCritical);  // 4 > 3
  EXPECT_DOUBLE_EQ(breakers.budget_spent, 1.0);  // zero-tolerance objective

  const SloStatus& scrub = slo_named(report, "scrub.integrity");
  EXPECT_EQ(scrub.state, HealthState::kDegraded);  // any mismatch degrades
  EXPECT_DOUBLE_EQ(scrub.value, 0.01);

  EXPECT_EQ(slo_named(report, "batcher.queue").state, HealthState::kHealthy);
  EXPECT_EQ(report.overall, HealthState::kCritical);
  EXPECT_EQ(tel->metrics().gauge("health.overall").value(),
            static_cast<std::int64_t>(HealthState::kCritical));
}

TEST(HealthEngineTest, BreakerStateGaugeIsAuthoritative) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(4));
  HealthEngine engine(exp);
  obs::MetricsRegistry& m = tel->metrics();
  m.counter("provider.AWS.requests").inc(5);
  m.gauge("provider.AWS.breaker_state").set(obs::kBreakerClosed);
  exp.sample_now();
  EXPECT_EQ(engine.evaluate().providers.at(0).state, HealthState::kHealthy);

  m.gauge("provider.AWS.breaker_state").set(obs::kBreakerOpen);
  exp.sample_now();
  EXPECT_EQ(engine.evaluate().providers.at(0).state, HealthState::kCritical);

  m.gauge("provider.AWS.breaker_state").set(obs::kBreakerHalfOpen);
  exp.sample_now();
  EXPECT_EQ(engine.evaluate().providers.at(0).state, HealthState::kDegraded);

  // First sighting is not a transition; the two later flips are.
  const auto trans = engine.transitions_of("provider:AWS");
  ASSERT_EQ(trans.size(), 2u);
  EXPECT_EQ(trans[0].from, HealthState::kHealthy);
  EXPECT_EQ(trans[0].to, HealthState::kCritical);
  EXPECT_EQ(trans[1].from, HealthState::kCritical);
  EXPECT_EQ(trans[1].to, HealthState::kDegraded);
  EXPECT_EQ(tel->metrics().counter("health.transitions").value(), 4u);
  // provider + overall each flipped twice; no SLO ever left healthy.
  EXPECT_EQ(engine.transitions_of("overall").size(), 2u);
  EXPECT_TRUE(engine.transitions_of("slo:availability").empty());
}

TEST(HealthEngineTest, LatencySloUsesWindowedP99AgainstTarget) {
  auto tel = std::make_shared<Telemetry>(true);
  MetricsExporter exp(tel, window_config(4));
  SloPolicy policy;
  policy.put_p99_target_ns = 100.0;
  policy.latency_critical_multiple = 2.0;
  HealthEngine engine(exp, policy);
  obs::Histogram& h = tel->metrics().histogram("cdd.put_file_wall_ns");
  // Old fast samples ride out of the window; only the slow tail counts.
  for (int i = 0; i < 100; ++i) h.observe(10.0);
  exp.sample_now();
  for (int i = 0; i < 20; ++i) h.observe(5000.0);
  exp.sample_now();
  const HealthReport report = engine.evaluate();
  const SloStatus& put = slo_named(report, "latency.put");
  EXPECT_EQ(put.state, HealthState::kCritical);  // p99 > 2x the 100ns target
  EXPECT_GT(put.value, 200.0);
  EXPECT_GT(put.budget_spent, 2.0);
  // A quiet histogram is a healthy one.
  EXPECT_EQ(slo_named(report, "latency.get").state, HealthState::kHealthy);
  EXPECT_DOUBLE_EQ(slo_named(report, "latency.get").value, 0.0);
}

// --- the acceptance scenario -------------------------------------------------

// A scripted provider outage (deterministic FaultPlan, replay harness)
// must drive the victim provider through EXACTLY
//   healthy -> degraded -> critical -> degraded -> healthy
// as seen by the health engine:
//   degraded   first crash-window failure (error rate over threshold,
//              breaker still closed),
//   critical   second failure trips the breaker (gauge reads OPEN),
//   degraded   the healing probe closes the breaker while the failed
//              probe's error is still inside the rolling window,
//   healthy    the window drains.
TEST(HealthTransitionTest, ScriptedOutageWalksExactTransitionSequence) {
  auto sink = std::make_shared<Telemetry>(true);
  storage::ProviderRegistry registry = flat_registry(8);
  registry.set_breaker_config(CircuitBreaker::Config{3, 4});
  CloudDataDistributor cdd(registry, replay_config(sink));
  ASSERT_TRUE(cdd.register_client("C").ok());
  ASSERT_TRUE(cdd.add_password("C", "pw", PrivacyLevel::kHigh).ok());
  const Bytes data = payload_of(800, 9);
  PutOptions opts;
  opts.privacy_level = PrivacyLevel::kHigh;
  ASSERT_TRUE(cdd.put_file("C", "pw", "f", data, opts).ok());

  const auto refs = cdd.metadata().file_chunks("C", "f");
  ASSERT_EQ(refs.size(), 1u) << "single chunk: one victim RPC per read";
  Result<core::ChunkEntry> entry =
      cdd.metadata().chunk_entry(refs.front().chunk_index);
  ASSERT_TRUE(entry.ok());
  const ProviderIndex victim = entry.value().stripe.front().provider;
  const std::string victim_subject =
      "provider:P" + std::to_string(static_cast<unsigned>(victim));

  // Window of 6 samples: after the heal, the failed probe's error is still
  // inside the window for one evaluation (the degraded tail), then drains.
  MetricsExporter exp(sink, window_config(6));
  HealthEngine engine(exp);

  // Baseline before the outage: every subject is sighted healthy.
  exp.sample_now();
  HealthReport baseline = engine.evaluate();
  EXPECT_EQ(baseline.overall, HealthState::kHealthy);
  EXPECT_EQ(baseline.providers.size(), 8u);

  // Two scripted episodes against the victim, in its request-sequence
  // space. A degraded read retries a missing data shard at full budget
  // (4 attempts), so:
  //   [0,2)  blip: read 0 fails twice, the third attempt lands -- errors
  //          in the window, breaker (threshold 3) still CLOSED: degraded.
  //   [3,7)  outage: read 1 fails three times running and trips the
  //          breaker OPEN: critical. Probe 1 (seq 6) fails, probe 2
  //          (seq 7) heals it -- degraded while the window still holds
  //          the probe failure, healthy once it drains.
  auto plan = std::make_shared<FaultPlan>();
  FaultEpisode blip;
  blip.provider = victim;
  blip.kind = FaultKind::kCrash;
  blip.begin = 0;
  blip.end = 2;
  plan->episodes.push_back(blip);
  FaultEpisode outage;
  outage.provider = victim;
  outage.kind = FaultKind::kCrash;
  outage.begin = 3;
  outage.end = 7;
  plan->episodes.push_back(outage);
  registry.apply_fault_plan(plan);  // also resets breaker state

  // 18 reads, sampling + evaluating after each: enough for the breaker to
  // trip (read 1), reject, probe in vain once, heal on the second probe,
  // and for the window to drain afterwards. Every read succeeds -- parity
  // covers the quarantined shard; only the health state moves.
  std::vector<HealthState> observed;
  for (int i = 0; i < 18; ++i) {
    Result<Bytes> back = cdd.get_file("C", "pw", "f");
    ASSERT_TRUE(back.ok()) << "read " << i << ": "
                           << back.status().to_string();
    exp.sample_now();
    const HealthReport report = engine.evaluate();
    for (const obs::ProviderHealth& p : report.providers) {
      if (p.name == "P" + std::to_string(static_cast<unsigned>(victim))) {
        if (observed.empty() || observed.back() != p.state) {
          observed.push_back(p.state);
        }
      }
    }
  }

  // The replayable breaker walk underneath: one trip, one failed probe
  // (crash window still open), one healing probe.
  EXPECT_EQ(sink->metrics().counter("rt.breaker_trips").value(), 1u);
  EXPECT_EQ(sink->metrics().counter("rt.probes").value(), 2u);
  EXPECT_EQ(sink->metrics().counter("rt.breaker_closes").value(), 1u);

  // Exact distinct-state sequence the engine saw for the victim.
  const std::vector<HealthState> expected = {
      HealthState::kDegraded, HealthState::kCritical, HealthState::kDegraded,
      HealthState::kHealthy};
  EXPECT_EQ(observed, expected);

  // And the engine's own transition log: exactly four transitions, in
  // order, with strictly increasing evaluation stamps.
  const auto trans = engine.transitions_of(victim_subject);
  ASSERT_EQ(trans.size(), 4u);
  const HealthState walk[5] = {HealthState::kHealthy, HealthState::kDegraded,
                               HealthState::kCritical, HealthState::kDegraded,
                               HealthState::kHealthy};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trans[i].from, walk[i]) << "transition " << i;
    EXPECT_EQ(trans[i].to, walk[i + 1]) << "transition " << i;
    if (i > 0) {
      EXPECT_GT(trans[i].eval_seq, trans[i - 1].eval_seq);
    }
  }

  // The overall state mirrors the victim (it is the worst subject), and
  // the fleet-wide breaker SLO flipped degraded while the breaker was open.
  const auto overall = engine.transitions_of("overall");
  ASSERT_EQ(overall.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(overall[i].from, walk[i]);
    EXPECT_EQ(overall[i].to, walk[i + 1]);
  }
  const auto breakers = engine.transitions_of("slo:breakers");
  ASSERT_EQ(breakers.size(), 2u);
  EXPECT_EQ(breakers[0].to, HealthState::kDegraded);
  EXPECT_EQ(breakers[1].to, HealthState::kHealthy);

  // Bystander providers never left healthy; total transition count is the
  // victim's 4 + overall's 4 + the breaker SLO's 2.
  for (std::size_t i = 0; i < 8; ++i) {
    if (static_cast<ProviderIndex>(i) == victim) continue;
    EXPECT_TRUE(
        engine.transitions_of("provider:P" + std::to_string(i)).empty())
        << "P" << i;
  }
  EXPECT_EQ(sink->metrics().counter("health.transitions").value(), 10u);

  // Steady state: the final report is clean.
  exp.sample_now();
  const HealthReport last = engine.evaluate();
  EXPECT_EQ(last.overall, HealthState::kHealthy);
  EXPECT_EQ(sink->metrics().gauge("rt.open_breakers").value(), 0);
}

}  // namespace
}  // namespace cshield
