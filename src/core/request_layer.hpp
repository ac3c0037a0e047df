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
// A single shard is a batch of one: put/get/remove and put_many run the
// same loop, which tracks the items of a request still pending.
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
#include <mutex>
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
  /// `watchdog` (optional) gets an armed in-flight entry per request,
  /// carrying the policy deadline as the modeled bound the stall detector
  /// scales.
  RequestLayer(storage::ProviderRegistry& registry, const RetryPolicy& policy,
               obs::Telemetry* telemetry, std::uint64_t seed,
               obs::StallWatchdog* watchdog = nullptr)
      : registry_(registry),
        policy_(policy),
        telemetry_(telemetry),
        watchdog_(watchdog),
        seed_(mix64(seed ^ 0x5E7B9ULL)) {}

  /// What a request cost, whatever it carried. For a batch, attempts and
  /// retries count batch RPCs, not items.
  struct Tally {
    SimDuration time{0};        ///< modeled: provider service + backoff waits
    std::uint32_t attempts = 0; ///< provider RPCs actually issued
    std::uint32_t retries = 0;  ///< attempts beyond the first
    bool fail_fast = false;     ///< breaker rejected before any provider I/O
  };
  struct Outcome : Tally {
    Status status = Status::Ok();
  };
  struct GetOutcome : Outcome {
    std::optional<Bytes> data;
  };
  /// Per-item statuses align with the input batch.
  struct BatchOutcome : Tally {
    std::vector<Status> statuses;
  };

  /// `attempt_budget` 0 = the policy's max_attempts.
  Outcome put(ProviderIndex p, VirtualId id, BytesView data,
              std::size_t attempt_budget = 0) {
    Outcome out;
    run_one(p, id, attempt_budget, out, [&](SimDuration* t) {
      return registry_.at(p).put(id, data, t);
    });
    return out;
  }

  GetOutcome get(ProviderIndex p, VirtualId id,
                 std::size_t attempt_budget = 0) {
    GetOutcome out;
    run_one(p, id, attempt_budget, out, [&](SimDuration* t) {
      Result<Bytes> r = registry_.at(p).get(id, t);
      if (r.ok()) out.data = std::move(r).value();
      return r.status();
    });
    return out;
  }

  Outcome remove(ProviderIndex p, VirtualId id,
                 std::size_t attempt_budget = 0) {
    Outcome out;
    run_one(p, id, attempt_budget, out, [&](SimDuration* t) {
      return registry_.at(p).remove(id, t);
    });
    return out;
  }

  /// Batched put: the same loop as a single request, accounted per batch
  /// RPC -- one breaker admit, one on_success / on_failure and one backoff
  /// per attempt. Partial-failure splitting: after each attempt only the
  /// items that came back kUnavailable stay pending -- a retry re-sends
  /// just that subset, and a definitive per-item answer (OK, kNotFound,
  /// kInternal...) is final.
  BatchOutcome put_many(ProviderIndex p,
                        const std::vector<storage::BatchPut>& batch) {
    BatchOutcome out;
    out.statuses.assign(batch.size(), Status::Ok());
    if (batch.empty()) return out;
    std::vector<std::size_t> pending(batch.size());
    std::iota(pending.begin(), pending.end(), std::size_t{0});
    std::vector<storage::BatchPut> subset;
    subset.reserve(batch.size());
    run(p, batch.front().id, 0, "shard_batch_rpc", out,
        [&](SimDuration* t) {
          if (telemetry_ != nullptr && telemetry_->enabled()) {
            telemetry_->metrics().counter("rt.batch_rpcs").inc();
            telemetry_->metrics().histogram("rt.batch_size")
                .observe(static_cast<double>(pending.size()));
          }
          subset.clear();
          for (std::size_t i : pending) subset.push_back(batch[i]);
          std::vector<Status> statuses = registry_.at(p).put_many(subset, t);
          std::size_t kept = 0;
          for (std::size_t s = 0; s < pending.size(); ++s) {
            const std::size_t i = pending[s];
            if (!answered(statuses[s])) pending[kept++] = i;
            out.statuses[i] = std::move(statuses[s]);
          }
          pending.resize(kept);
          return kept == 0;
        },
        [&](const Status& quarantined) {
          for (std::size_t i : pending) out.statuses[i] = quarantined;
        });
    return out;
  }

  [[nodiscard]] const RetryPolicy& policy() const { return policy_; }

 private:
  /// A definitive answer -- OK, kNotFound, kCorrupted... -- means the
  /// provider is healthy; only kUnavailable retries.
  [[nodiscard]] static bool answered(const Status& st) {
    return st.code() != ErrorCode::kUnavailable;
  }

  /// run() for a single item: `rpc(&t)` returns that item's status.
  template <typename RpcFn>
  void run_one(ProviderIndex p, VirtualId id, std::size_t attempt_budget,
               Outcome& out, RpcFn&& rpc) {
    run(p, id, attempt_budget, "shard_rpc", out,
        [&](SimDuration* t) {
          out.status = rpc(t);
          return answered(out.status);
        },
        [&](Status quarantined) { out.status = std::move(quarantined); });
  }

  /// The one breaker/retry/backoff/deadline loop, over the items of one
  /// request still pending. `attempt(&t)` issues one provider RPC for
  /// them, records each item's answer, keeps only the kUnavailable items
  /// pending, and returns true when none is left. `reject(status)` fails
  /// every pending item when the breaker turns the request away.
  /// `backoff_key` seeds the deterministic jitter (the item's virtual id,
  /// or a batch's first -- stable across retries).
  template <typename AttemptFn, typename RejectFn>
  void run(ProviderIndex p, VirtualId backoff_key, std::size_t attempt_budget,
           const char* what, Tally& out, AttemptFn&& attempt,
           RejectFn&& reject) {
    obs::StallWatchdog::Armed armed(watchdog_, what,
                                    policy_.deadline.count());
    const std::size_t budget = std::max<std::size_t>(
        1, attempt_budget != 0 ? attempt_budget : policy_.max_attempts);
    storage::CircuitBreaker& breaker = registry_.breaker(p);
    for (std::size_t a = 1; a <= budget; ++a) {
      const auto admitted = breaker.admit();
      if (admitted == storage::CircuitBreaker::Decision::kReject) {
        // Fail fast: no provider I/O, no time burned, and no point
        // retrying -- the breaker already knows this provider is down.
        reject(Status::Unavailable(registry_.at(p).descriptor().name +
                                   " quarantined (breaker open)"));
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
      const bool settled = attempt(&t);
      out.time += t;
      if (settled) {
        // The provider answered every item -- success, or a definitive
        // error that the erasure layer owns. Either way it is healthy.
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
    breaker_gauge(p).set(v);
  }

  /// Provider p's breaker_state gauge, looked up by name once per provider
  /// -- on its first publish, so a provider that joined at runtime gets
  /// one too -- and read from the handle table after.
  obs::Gauge& breaker_gauge(ProviderIndex p) {
    std::lock_guard<std::mutex> lock(gauges_mu_);
    if (p >= breaker_gauges_.size()) breaker_gauges_.resize(p + 1, nullptr);
    obs::Gauge*& gauge = breaker_gauges_[p];
    if (gauge == nullptr) {
      gauge = &telemetry_->metrics().gauge(
          "provider." + registry_.at(p).descriptor().name + ".breaker_state");
    }
    return *gauge;
  }

  storage::ProviderRegistry& registry_;
  RetryPolicy policy_;
  obs::Telemetry* telemetry_;
  std::mutex gauges_mu_;  ///< guards breaker_gauges_
  /// breaker_state handles by provider index; null until first published.
  std::vector<obs::Gauge*> breaker_gauges_;
  obs::StallWatchdog* watchdog_ = nullptr;
  std::uint64_t seed_;
};

}  // namespace cshield::core
