// Rolling SLO evaluation + per-provider / per-subsystem health states.
//
// Breakers, parity fallback, the scrubbing walker and group commit each
// publish their own degraded-mode signals. The HealthEngine folds them into
// "is this deployment healthy, and which provider or subsystem is the
// reason it isn't", continuously: every evaluate()
// reads the exporter's retained sample ring (never the live registry --
// the window IS the ring) and reduces it to one HealthReport.
//
// Provider states, in authority order:
//   critical  breaker OPEN (provider.<name>.breaker_state == 1): the
//             request layer has quarantined it -- the definitive signal.
//   degraded  breaker HALF-OPEN (probing), or breaker closed with a
//             windowed error rate above the policy threshold (the early
//             warning before the breaker trips, and the tail while a
//             healed provider's errors age out of the window).
//   healthy   otherwise.
//
// Subsystem SLOs (each with an error budget: how much of the objective the
// window consumed):
//   availability    definitive op failures / ops over the window (cdd.*)
//   latency.put     rolling p99 of cdd.put_file_wall_ns vs target
//   latency.get     rolling p99 of cdd.get_file_wall_ns vs target
//   journal.flush   rolling p99 of journal.flush_ns vs target
//   journal.shard.<k>.flush  same, per WAL commit lane of an N-shard
//                   metadata plane (discovered from the metric namespace;
//                   absent on a 1-shard journal)
//   scrub.integrity digest mismatches / chunks scanned over the window
//   breakers        open breakers right now (rt.open_breakers)
//   batcher.queue   pending shard puts right now (cdd.shard_batch_queue_depth)
//   migration       shards the topology migrator failed to move this window
//
// Every state change is logged as a Transition and counted in
// `health.transitions`; with a deterministic FaultPlan and test-driven
// sampling the exact transition sequence of a scripted outage is
// assertable (tests/health_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/exporter.hpp"

namespace cshield::obs {

enum class HealthState : int { kHealthy = 0, kDegraded = 1, kCritical = 2 };

[[nodiscard]] constexpr std::string_view health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegraded: return "degraded";
    case HealthState::kCritical: return "critical";
  }
  return "?";
}

/// Breaker-state gauge values (written by core/request_layer.hpp).
inline constexpr std::int64_t kBreakerClosed = 0;
inline constexpr std::int64_t kBreakerOpen = 1;
inline constexpr std::int64_t kBreakerHalfOpen = 2;

struct SloPolicy {
  // availability: definitive-failure fraction of window ops
  double availability_degraded = 0.01;
  double availability_critical = 0.10;
  // provider windowed error rate (failures the retry layer saw)
  double provider_error_degraded = 0.05;
  // latency objectives: rolling p99 targets, wall ns
  double put_p99_target_ns = 1e9;
  double get_p99_target_ns = 1e9;
  double flush_p99_target_ns = 250e6;
  /// p99 past target = degraded; past target * this = critical.
  double latency_critical_multiple = 2.0;
  // scrub: mismatching shards per chunk scanned in the window
  double scrub_error_degraded = 0.0;  ///< any mismatch degrades
  double scrub_error_critical = 0.05;
  // breakers open right now
  double breakers_degraded = 0.0;  ///< any open breaker degrades
  double breakers_critical = 3.0;
  // batcher queue depth right now
  double batcher_depth_degraded = 64.0;
  double batcher_depth_critical = 256.0;
  // topology migration: shards the migrator failed to move in the window
  double migration_errors_degraded = 0.0;  ///< any stuck shard degrades
  double migration_errors_critical = 16.0;
};

/// One SLO's verdict. `budget_spent` is value / objective: < 1 means inside
/// the error budget, >= 1 means the objective is blown (for zero-tolerance
/// objectives any violation reports 1).
struct SloStatus {
  std::string name;
  HealthState state = HealthState::kHealthy;
  double value = 0.0;
  double objective = 0.0;
  double budget_spent = 0.0;
};

struct ProviderHealth {
  std::string name;
  HealthState state = HealthState::kHealthy;
  std::int64_t breaker = kBreakerClosed;
  std::uint64_t window_requests = 0;
  std::uint64_t window_errors = 0;
  double error_rate = 0.0;
};

struct HealthReport {
  HealthState overall = HealthState::kHealthy;
  std::vector<ProviderHealth> providers;
  std::vector<SloStatus> slos;
  std::size_t window_samples = 0;
  std::int64_t window_span_ns = 0;

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << "overall: " << health_state_name(overall) << " (window "
       << window_samples << " samples, "
       << static_cast<double>(window_span_ns) * 1e-9 << " s)\n";
    os << "providers:\n";
    for (const ProviderHealth& p : providers) {
      os << "  " << p.name << ": " << health_state_name(p.state)
         << " breaker=" << breaker_name(p.breaker) << " window_err="
         << p.window_errors << "/" << p.window_requests << "\n";
    }
    os << "slos:\n";
    for (const SloStatus& s : slos) {
      os << "  " << s.name << ": " << health_state_name(s.state)
         << " value=" << s.value << " objective=" << s.objective
         << " budget_spent=" << s.budget_spent << "\n";
    }
    return os.str();
  }

  [[nodiscard]] std::string to_json() const {
    std::ostringstream os;
    os.precision(10);
    os << "{\"overall\":\"" << health_state_name(overall)
       << "\",\"window_samples\":" << window_samples
       << ",\"window_span_ns\":" << window_span_ns << ",\"providers\":[";
    bool first = true;
    for (const ProviderHealth& p : providers) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << p.name << "\",\"state\":\""
         << health_state_name(p.state) << "\",\"breaker\":\""
         << breaker_name(p.breaker) << "\",\"window_requests\":"
         << p.window_requests << ",\"window_errors\":" << p.window_errors
         << ",\"error_rate\":" << p.error_rate << "}";
    }
    os << "],\"slos\":[";
    first = true;
    for (const SloStatus& s : slos) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"" << s.name << "\",\"state\":\""
         << health_state_name(s.state) << "\",\"value\":" << s.value
         << ",\"objective\":" << s.objective
         << ",\"budget_spent\":" << s.budget_spent << "}";
    }
    os << "]}";
    return os.str();
  }

 private:
  [[nodiscard]] static std::string_view breaker_name(std::int64_t b) {
    switch (b) {
      case kBreakerOpen: return "open";
      case kBreakerHalfOpen: return "half-open";
      default: return "closed";
    }
  }
};

class HealthEngine {
 public:
  /// One state change of one tracked subject ("provider:AWS", "slo:...",
  /// "overall"), stamped with the evaluation ordinal that saw it.
  struct Transition {
    std::string subject;
    HealthState from = HealthState::kHealthy;
    HealthState to = HealthState::kHealthy;
    std::uint64_t eval_seq = 0;
  };

  /// `exporter` must outlive the engine; the policy is fixed at creation.
  explicit HealthEngine(const MetricsExporter& exporter,
                        SloPolicy policy = SloPolicy())
      : exporter_(exporter), policy_(policy) {}

  /// Evaluates every provider and SLO over the exporter's current ring.
  /// Also publishes health.overall (gauge) and health.transitions
  /// (counter) into the registry, and appends to the transition log. NOT
  /// thread-safe against itself -- one evaluator per engine (the intended
  /// topology: one CLI/ops thread asking).
  HealthReport evaluate() {
    ++evals_;
    const std::vector<MetricsExporter::Sample> ring = exporter_.ring();
    HealthReport report;
    report.window_samples = ring.size();
    if (!ring.empty()) {
      report.window_span_ns = ring.back().t_ns - ring.front().t_ns;
      eval_providers(ring, report);
      eval_slos(ring, report);
    }
    for (const ProviderHealth& p : report.providers) {
      report.overall = std::max(report.overall, p.state);
    }
    for (const SloStatus& s : report.slos) {
      report.overall = std::max(report.overall, s.state);
    }
    for (const ProviderHealth& p : report.providers) {
      note_state("provider:" + p.name, p.state);
    }
    for (const SloStatus& s : report.slos) note_state("slo:" + s.name, s.state);
    note_state("overall", report.overall);
    Telemetry& tel = exporter_.telemetry();
    if (tel.enabled()) {
      tel.metrics().gauge("health.overall")
          .set(static_cast<std::int64_t>(report.overall));
    }
    return report;
  }

  /// Every state change seen by evaluate() since construction, in order.
  [[nodiscard]] const std::vector<Transition>& transitions() const {
    return transitions_;
  }

  /// The transitions of one subject, e.g. "provider:P3".
  [[nodiscard]] std::vector<Transition> transitions_of(
      const std::string& subject) const {
    std::vector<Transition> out;
    for (const Transition& t : transitions_) {
      if (t.subject == subject) out.push_back(t);
    }
    return out;
  }

  [[nodiscard]] const SloPolicy& policy() const { return policy_; }

 private:
  using Sample = MetricsExporter::Sample;

  static std::int64_t gauge_latest(const std::vector<Sample>& ring,
                                   const std::string& name) {
    auto it = ring.back().snap.gauges.find(name);
    return it == ring.back().snap.gauges.end() ? 0 : it->second;
  }

  [[nodiscard]] static HealthState state_of(double value, double degraded,
                                            double critical) {
    if (value > critical) return HealthState::kCritical;
    if (value > degraded) return HealthState::kDegraded;
    return HealthState::kHealthy;
  }

  [[nodiscard]] static double budget_spent(double value, double objective) {
    if (objective > 0.0) return value / objective;
    return value > 0.0 ? 1.0 : 0.0;  // zero-tolerance objective
  }

  /// The `<middle>` of every `<prefix><middle><suffix>` key of `metrics`
  /// with a non-empty middle, in key order: how the engine discovers
  /// providers and journal lanes from the metric namespace itself.
  template <typename Map>
  [[nodiscard]] static std::vector<std::string> discover(
      const Map& metrics, std::string_view prefix, std::string_view suffix) {
    std::vector<std::string> out;
    for (const auto& entry : metrics) {
      const std::string& metric = entry.first;
      if (metric.size() <= prefix.size() + suffix.size()) continue;
      if (metric.compare(0, prefix.size(), prefix) != 0) continue;
      if (!ends_with(metric, suffix)) continue;
      out.push_back(metric.substr(
          prefix.size(), metric.size() - prefix.size() - suffix.size()));
    }
    return out;
  }

  void eval_providers(const std::vector<Sample>& ring, HealthReport& report) {
    // Providers are discovered from the metric namespace --
    // provider.<name>.requests -- so the engine needs no storage-layer
    // dependency and sees exactly the fleet that reported.
    for (std::string& name :
         discover(ring.back().snap.counters, "provider.", ".requests")) {
      ProviderHealth p;
      p.name = std::move(name);
      const std::string base = "provider." + p.name;
      p.window_requests = window_counter_delta(ring, base + ".requests");
      p.window_errors = window_counter_delta(ring, base + ".errors");
      p.error_rate = p.window_requests == 0
                         ? 0.0
                         : static_cast<double>(p.window_errors) /
                               static_cast<double>(p.window_requests);
      p.breaker = gauge_latest(ring, base + ".breaker_state");
      if (p.breaker == kBreakerOpen) {
        p.state = HealthState::kCritical;
      } else if (p.breaker == kBreakerHalfOpen ||
                 p.error_rate > policy_.provider_error_degraded) {
        p.state = HealthState::kDegraded;
      } else {
        p.state = HealthState::kHealthy;
      }
      report.providers.push_back(std::move(p));
    }
  }

  void eval_slos(const std::vector<Sample>& ring, HealthReport& report) {
    const SloPolicy& p = policy_;
    // availability: definitive client-visible failures over window ops.
    static constexpr std::string_view kCdd = "cdd.";
    std::uint64_t ok = 0;
    std::uint64_t bad = 0;
    for (const auto& entry : ring.back().snap.counters) {
      const std::string& metric = entry.first;
      if (metric.compare(0, kCdd.size(), kCdd) != 0) continue;
      if (ends_with(metric, "_total")) ok += window_counter_delta(ring, metric);
      if (ends_with(metric, "_errors")) {
        bad += window_counter_delta(ring, metric);
      }
    }
    push_slo(report, "availability", ratio(bad, ok + bad),
             p.availability_degraded, p.availability_critical);
    const double slow = p.latency_critical_multiple;
    push_slo(report, "latency.put", window_p99(ring, "cdd.put_file_wall_ns"),
             p.put_p99_target_ns, p.put_p99_target_ns * slow);
    push_slo(report, "latency.get", window_p99(ring, "cdd.get_file_wall_ns"),
             p.get_p99_target_ns, p.get_p99_target_ns * slow);
    push_slo(report, "journal.flush", window_p99(ring, "journal.flush_ns"),
             p.flush_p99_target_ns, p.flush_p99_target_ns * slow);
    // Per-shard journal flush lanes (N-way metadata plane only; a 1-shard
    // journal never emits these), discovered like providers, so one slow
    // fsync lane shows up even when the aggregate p99 hides behind
    // healthy shards.
    for (const std::string& shard :
         discover(ring.back().snap.histograms, "journal.shard.", ".flush_ns")) {
      push_slo(report, "journal.shard." + shard + ".flush",
               window_p99(ring, "journal.shard." + shard + ".flush_ns"),
               p.flush_p99_target_ns, p.flush_p99_target_ns * slow);
    }
    // scrub integrity: corrupt shards per chunk scanned in the window.
    push_slo(report, "scrub.integrity",
             ratio(window_counter_delta(ring, "scrub.digest_mismatches"),
                   window_counter_delta(ring, "scrub.chunks_scanned")),
             p.scrub_error_degraded, p.scrub_error_critical);
    // breaker / quarantine state, fleet-wide.
    push_slo(report, "breakers",
             static_cast<double>(std::max<std::int64_t>(
                 0, gauge_latest(ring, "rt.open_breakers"))),
             p.breakers_degraded, p.breakers_critical);
    // batcher backlog.
    push_slo(report, "batcher.queue",
             static_cast<double>(std::max<std::int64_t>(
                 0, gauge_latest(ring, "cdd.shard_batch_queue_depth"))),
             p.batcher_depth_degraded, p.batcher_depth_critical);
    // topology migration: shards the migrator could not move this window
    // (sources below RAID tolerance, no qualifying home, put failures).
    // Healthy-zero when no migration is running.
    const std::uint64_t stuck = window_counter_delta(ring, "migration.errors");
    push_slo(report, "migration", static_cast<double>(stuck),
             p.migration_errors_degraded, p.migration_errors_critical);
  }

  /// Appends one SLO verdict. The degraded threshold is also the
  /// objective its error budget is measured against.
  static void push_slo(HealthReport& report, std::string name, double value,
                       double degraded, double critical) {
    SloStatus s;
    s.name = std::move(name);
    s.value = value;
    s.objective = degraded;
    s.state = state_of(value, degraded, critical);
    s.budget_spent = budget_spent(value, degraded);
    report.slos.push_back(std::move(s));
  }

  /// Rolling p99 of a histogram over the window. A quiet (or absent)
  /// histogram reads 0: a silent subsystem is healthy.
  [[nodiscard]] static double window_p99(const std::vector<Sample>& ring,
                                         const std::string& metric) {
    const std::optional<Histogram::Snapshot> window =
        window_histogram(ring, metric);
    return window.has_value() ? window->percentile(0.99) : 0.0;
  }

  /// part / whole, 0 when nothing happened.
  [[nodiscard]] static double ratio(std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  }

  [[nodiscard]] static bool ends_with(std::string_view s,
                                      std::string_view suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  }

  void note_state(std::string subject, HealthState now) {
    auto [it, fresh] = last_.emplace(std::move(subject), now);
    if (fresh || it->second == now) {
      it->second = now;
      return;  // first sighting or no change -- not a transition
    }
    Transition t;
    t.subject = it->first;
    t.from = it->second;
    t.to = now;
    t.eval_seq = evals_;
    transitions_.push_back(std::move(t));
    it->second = now;
    Telemetry& tel = exporter_.telemetry();
    if (tel.enabled()) tel.metrics().counter("health.transitions").inc();
  }

  const MetricsExporter& exporter_;
  SloPolicy policy_;
  std::uint64_t evals_ = 0;
  std::map<std::string, HealthState> last_;
  std::vector<Transition> transitions_;
};

}  // namespace cshield::obs
