// Fault-tolerant request layer between the distributor and the providers.
//
// Every shard put/get/remove goes through RequestLayer, which wraps the
// raw provider RPC in:
//
//   - a RetryPolicy: capped exponential backoff with deterministic seeded
//     jitter, a per-op attempt budget, and a modeled deadline. Only
//     kUnavailable retries -- a definitive answer (kNotFound, kCorrupted)
//     means the provider is healthy and the erasure layer should handle it.
//   - the provider's circuit breaker (owned by the registry): an open
//     breaker fails fast without provider I/O; every `probe_after`-th
//     rejection is admitted as the half-open probe that can heal it.
//
// A slow provider is not a failure and gets no special path: a read waits
// for its data shards, and parity is fetched only when a data shard is
// missing or fails its digest (see CloudDataDistributor::read_stripe).
//
// Backoff jitter is hash-derived from (seed, provider, virtual id,
// attempt) -- no RNG stream that concurrent requests could perturb -- so a
// replayed FaultPlan scenario reproduces identical modeled times.
//
// Metrics (under `rt.`): retries, giveups, deadline_exceeded, fail_fast,
// probes, breaker_trips, breaker_closes, gauge open_breakers, histogram
// backoff_ns.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "storage/provider_registry.hpp"
#include "util/hash.hpp"
#include "util/sim_clock.hpp"

namespace cshield::core {

struct RetryPolicy {
  std::size_t max_attempts = 4;
  /// Attempt budget of a read's first round, its data shards, when the
  /// layout has parity: don't wait out the full budget on a slow or flaky
  /// provider when the erasure code can route around it.
  std::size_t degraded_attempts = 1;
  SimDuration base_backoff{std::chrono::milliseconds(2)};
  SimDuration max_backoff{std::chrono::milliseconds(64)};
  double backoff_multiplier = 2.0;
  /// Cap on one request's total modeled time (service + backoff waits);
  /// retries stop rather than cross it.
  SimDuration deadline{std::chrono::seconds(2)};
};

class RequestLayer {
 public:
  /// `watchdog` (optional) gets an armed in-flight entry per run()/
  /// run_batch(), carrying the policy deadline as the modeled bound the
  /// stall detector scales.
  RequestLayer(storage::ProviderRegistry& registry, const RetryPolicy& policy,
               obs::Telemetry* telemetry, std::uint64_t seed,
               obs::StallWatchdog* watchdog = nullptr)
      : registry_(registry),
        policy_(policy),
        telemetry_(telemetry),
        watchdog_(watchdog),
        seed_(mix64(seed ^ 0x5E7B9ULL)) {}

  struct Outcome {
    Status status = Status::Ok();
    SimDuration time{0};        ///< modeled: provider service + backoff waits
    std::uint32_t attempts = 0; ///< provider RPCs actually issued
    std::uint32_t retries = 0;  ///< attempts beyond the first
    bool fail_fast = false;     ///< breaker rejected before any provider I/O
  };
  struct GetOutcome : Outcome {
    std::optional<Bytes> data;
  };
  /// Outcome of one batched RPC. Per-item statuses align with the input
  /// batch; attempts/retries count batch RPCs, not items.
  struct BatchOutcome {
    std::vector<Status> statuses;
    SimDuration time{0};
    std::uint32_t attempts = 0;
    std::uint32_t retries = 0;
    bool fail_fast = false;
  };
  struct BatchGetOutcome : BatchOutcome {
    /// results[i] holds bytes iff statuses[i] is OK.
    std::vector<std::optional<Bytes>> results;
  };

  /// `attempt_budget` 0 = the policy's max_attempts.
  Outcome put(ProviderIndex p, VirtualId id, BytesView data,
              std::size_t attempt_budget = 0) {
    return run(p, id, attempt_budget, [&](SimDuration* t) {
      return registry_.at(p).put(id, data, t);
    });
  }

  GetOutcome get(ProviderIndex p, VirtualId id,
                 std::size_t attempt_budget = 0) {
    GetOutcome out;
    static_cast<Outcome&>(out) = run(p, id, attempt_budget,
                                     [&](SimDuration* t) {
      Result<Bytes> r = registry_.at(p).get(id, t);
      if (r.ok()) out.data = std::move(r).value();
      return r.status();
    });
    return out;
  }

  Outcome remove(ProviderIndex p, VirtualId id,
                 std::size_t attempt_budget = 0) {
    return run(p, id, attempt_budget, [&](SimDuration* t) {
      return registry_.at(p).remove(id, t);
    });
  }

  /// Batched put with the same retry/breaker discipline as run(), accounted
  /// per batch RPC: one breaker admit per attempt, one on_success /
  /// on_failure per attempt, one backoff between attempts. Partial-failure
  /// splitting: after each attempt only the items that came back
  /// kUnavailable stay pending -- a retry re-sends just that subset, and a
  /// definitive per-item answer (OK, kNotFound, kInternal...) is final.
  BatchOutcome put_many(ProviderIndex p,
                        const std::vector<storage::BatchPut>& batch) {
    return run_batch(
        p, batch.size(),
        [&](const std::vector<std::size_t>& pending, SimDuration* t) {
          std::vector<storage::BatchPut> subset;
          subset.reserve(pending.size());
          for (std::size_t i : pending) subset.push_back(batch[i]);
          return registry_.at(p).put_many(subset, t);
        },
        batch.empty() ? VirtualId{0} : batch.front().id);
  }

  /// Batched get; see put_many for the retry/breaker semantics.
  BatchGetOutcome get_many(ProviderIndex p,
                           const std::vector<VirtualId>& ids) {
    BatchGetOutcome out;
    out.results.resize(ids.size());
    static_cast<BatchOutcome&>(out) = run_batch(
        p, ids.size(),
        [&](const std::vector<std::size_t>& pending, SimDuration* t) {
          std::vector<VirtualId> subset;
          subset.reserve(pending.size());
          for (std::size_t i : pending) subset.push_back(ids[i]);
          std::vector<Result<Bytes>> got = registry_.at(p).get_many(subset, t);
          std::vector<Status> statuses;
          statuses.reserve(got.size());
          for (std::size_t s = 0; s < got.size(); ++s) {
            statuses.push_back(got[s].status());
            if (got[s].ok()) out.results[pending[s]] = std::move(got[s]).value();
          }
          return statuses;
        },
        ids.empty() ? VirtualId{0} : ids.front());
    return out;
  }

  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

 private:
  template <typename AttemptFn>
  Outcome run(ProviderIndex p, VirtualId id, std::size_t attempt_budget,
              AttemptFn&& attempt) {
    Outcome out;
    obs::StallWatchdog::Armed armed(watchdog_, "shard_rpc",
                                    policy_.deadline.count());
    const std::size_t budget = std::max<std::size_t>(
        1, attempt_budget != 0 ? attempt_budget : policy_.max_attempts);
    storage::CircuitBreaker& breaker = registry_.breaker(p);
    for (std::size_t a = 1; a <= budget; ++a) {
      const auto admitted = breaker.admit();
      if (admitted == storage::CircuitBreaker::Decision::kReject) {
        // Fail fast: no provider I/O, no time burned, and no point
        // retrying -- the breaker already knows this provider is down.
        out.status = Status::Unavailable(
            registry_.at(p).descriptor().name + " quarantined (breaker open)");
        out.fail_fast = out.attempts == 0;
        count("rt.fail_fast");
        publish_breaker_state(p, breaker);
        break;
      }
      if (admitted == storage::CircuitBreaker::Decision::kProbe) {
        count("rt.probes");
        publish_breaker_state(p, breaker);
      }
      ++out.attempts;
      SimDuration t{0};
      out.status = attempt(&t);
      out.time += t;
      if (out.status.ok() || out.status.code() != ErrorCode::kUnavailable) {
        // The provider answered -- success, or a definitive error that the
        // erasure layer owns. Either way it is healthy.
        if (breaker.on_success()) {
          count("rt.breaker_closes");
          gauge_add("rt.open_breakers", -1);
        }
        publish_breaker_state(p, breaker);
        break;
      }
      if (breaker.on_failure()) {
        count("rt.breaker_trips");
        gauge_add("rt.open_breakers", 1);
      }
      publish_breaker_state(p, breaker);
      if (a == budget) {
        count("rt.giveups");
        break;
      }
      const SimDuration pause = backoff(p, id, a);
      if (out.time + pause > policy_.deadline) {
        count("rt.deadline_exceeded");
        break;
      }
      out.time += pause;
      ++out.retries;
      count("rt.retries");
      if (telemetry_ != nullptr && telemetry_->enabled()) {
        telemetry_->metrics().histogram("rt.backoff_ns")
            .observe(static_cast<double>(pause.count()));
      }
    }
    return out;
  }

  /// Batched analogue of run(). `attempt` receives the indices (into the
  /// original batch) still pending and must return one Status per index,
  /// in order. `backoff_key` seeds the deterministic jitter (the first
  /// item's virtual id -- stable across retries of the same batch).
  template <typename BatchAttemptFn>
  BatchOutcome run_batch(ProviderIndex p, std::size_t n,
                         BatchAttemptFn&& attempt, VirtualId backoff_key) {
    BatchOutcome out;
    out.statuses.assign(n, Status::Ok());
    if (n == 0) return out;
    obs::StallWatchdog::Armed armed(watchdog_, "shard_batch_rpc",
                                    policy_.deadline.count());
    const std::size_t budget = std::max<std::size_t>(1, policy_.max_attempts);
    storage::CircuitBreaker& breaker = registry_.breaker(p);
    std::vector<std::size_t> pending(n);
    std::iota(pending.begin(), pending.end(), std::size_t{0});
    for (std::size_t a = 1; a <= budget; ++a) {
      const auto admitted = breaker.admit();
      if (admitted == storage::CircuitBreaker::Decision::kReject) {
        const Status quarantined = Status::Unavailable(
            registry_.at(p).descriptor().name + " quarantined (breaker open)");
        for (std::size_t i : pending) out.statuses[i] = quarantined;
        out.fail_fast = out.attempts == 0;
        count("rt.fail_fast");
        publish_breaker_state(p, breaker);
        break;
      }
      if (admitted == storage::CircuitBreaker::Decision::kProbe) {
        count("rt.probes");
        publish_breaker_state(p, breaker);
      }
      ++out.attempts;
      if (telemetry_ != nullptr && telemetry_->enabled()) {
        telemetry_->metrics().counter("rt.batch_rpcs").inc();
        telemetry_->metrics().histogram("rt.batch_size")
            .observe(static_cast<double>(pending.size()));
      }
      SimDuration t{0};
      const std::vector<Status> statuses = attempt(pending, &t);
      out.time += t;
      // Partial-failure split: only kUnavailable items remain pending; a
      // definitive per-item answer is final (same rule as run()).
      std::vector<std::size_t> still;
      for (std::size_t s = 0; s < pending.size(); ++s) {
        out.statuses[pending[s]] = statuses[s];
        if (statuses[s].code() == ErrorCode::kUnavailable) {
          still.push_back(pending[s]);
        }
      }
      if (still.empty()) {
        // The provider answered every remaining item -- it is healthy,
        // whatever the erasure layer makes of the individual answers.
        if (breaker.on_success()) {
          count("rt.breaker_closes");
          gauge_add("rt.open_breakers", -1);
        }
        publish_breaker_state(p, breaker);
        break;
      }
      if (breaker.on_failure()) {
        count("rt.breaker_trips");
        gauge_add("rt.open_breakers", 1);
      }
      publish_breaker_state(p, breaker);
      pending = std::move(still);
      if (a == budget) {
        count("rt.giveups");
        break;
      }
      const SimDuration pause = backoff(p, backoff_key, a);
      if (out.time + pause > policy_.deadline) {
        count("rt.deadline_exceeded");
        break;
      }
      out.time += pause;
      ++out.retries;
      count("rt.retries");
      if (telemetry_ != nullptr && telemetry_->enabled()) {
        telemetry_->metrics().histogram("rt.backoff_ns")
            .observe(static_cast<double>(pause.count()));
      }
    }
    return out;
  }

  /// Backoff before attempt `attempt + 1`: capped exponential with
  /// deterministic jitter in [0.5, 1.0) of the nominal step.
  [[nodiscard]] SimDuration backoff(ProviderIndex p, VirtualId id,
                                    std::size_t attempt) const {
    double step = static_cast<double>(policy_.base_backoff.count()) *
                  std::pow(policy_.backoff_multiplier,
                           static_cast<double>(attempt - 1));
    step = std::min(step, static_cast<double>(policy_.max_backoff.count()));
    std::uint64_t h = hash_combine(seed_, p);
    h = hash_combine(h, id);
    h = hash_combine(h, attempt);
    const double u = static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
    return SimDuration(
        static_cast<std::int64_t>(step * (0.5 + 0.5 * u)));
  }

  void count(const char* name) {
    if (telemetry_ != nullptr && telemetry_->enabled()) {
      telemetry_->metrics().counter(name).inc();
    }
  }

  void gauge_add(const char* name, std::int64_t delta) {
    if (telemetry_ != nullptr && telemetry_->enabled()) {
      telemetry_->metrics().gauge(name).add(delta);
    }
  }

  /// Mirrors the breaker's current state into a sample-able gauge
  /// (`provider.<name>.breaker_state`: 0 closed, 1 open, 2 half-open).
  /// Refreshed after every breaker interaction so a scrape always sees the
  /// post-RPC state; the health engine treats it as authoritative.
  void publish_breaker_state(ProviderIndex p,
                             storage::CircuitBreaker& breaker) {
    if (telemetry_ == nullptr || !telemetry_->enabled()) return;
    std::int64_t v = 0;
    switch (breaker.state()) {
      case storage::CircuitBreaker::State::kOpen: v = 1; break;
      case storage::CircuitBreaker::State::kHalfOpen: v = 2; break;
      case storage::CircuitBreaker::State::kClosed: v = 0; break;
    }
    telemetry_->metrics()
        .gauge("provider." + registry_.at(p).descriptor().name +
               ".breaker_state")
        .set(v);
  }

  storage::ProviderRegistry& registry_;
  RetryPolicy policy_;
  obs::Telemetry* telemetry_;
  obs::StallWatchdog* watchdog_ = nullptr;
  std::uint64_t seed_;
};

}  // namespace cshield::core
