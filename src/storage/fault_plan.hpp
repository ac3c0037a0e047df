// FaultPlan -- a deterministic, seeded schedule of fault episodes.
//
// Replaces ad-hoc per-provider failure probabilities with a replayable
// script: each episode covers a window of a provider's request sequence
// (its 0-based count of requests served) and injects one fault kind inside
// that window. Decisions are pure functions of (plan seed, episode index,
// provider, request sequence number), so the same plan against the same
// request stream produces byte-for-byte identical failures -- the property
// the chaos harness (tests/chaos_test.cpp) is built on. Request sequence
// numbers, not wall time, index the windows precisely because wall time is
// not replayable.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "util/hash.hpp"

namespace cshield::storage {

/// Episode wildcard: applies to every provider in the registry.
inline constexpr ProviderIndex kEveryProvider = kNoProvider;

/// Window end meaning "never ends".
inline constexpr std::uint64_t kNoSeqEnd = ~std::uint64_t{0};

enum class FaultKind : std::uint8_t {
  kTransient,  ///< each request fails independently with `probability`
  kCrash,      ///< every request in the window fails (hard outage)
  kSlow,       ///< service time is multiplied by `slow_factor`
  kFlaky,      ///< deterministic bursts: the first `burst` requests of every
               ///  `period`-length cycle fail, then the provider recovers
               ///  when the window closes ("flaky then recover")
};

[[nodiscard]] constexpr std::string_view fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::kTransient: return "transient";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kSlow: return "slow";
    case FaultKind::kFlaky: return "flaky";
  }
  return "?";
}

/// One scripted episode. The window [begin, end) is in the target
/// provider's request-sequence space (see SimCloudProvider::fault_requests).
struct FaultEpisode {
  ProviderIndex provider = kEveryProvider;
  FaultKind kind = FaultKind::kTransient;
  std::uint64_t begin = 0;
  std::uint64_t end = kNoSeqEnd;
  double probability = 1.0;  ///< kTransient failure probability
  double slow_factor = 4.0;  ///< kSlow service-time multiplier
  std::uint64_t period = 4;  ///< kFlaky cycle length in requests
  std::uint64_t burst = 2;   ///< kFlaky failing requests per cycle
};

/// What the plan decided for one request.
struct FaultDecision {
  bool fail = false;
  double slow_factor = 1.0;  ///< product over overlapping kSlow episodes
};

struct FaultPlan {
  std::uint64_t seed = 0xFA177;
  std::vector<FaultEpisode> episodes;

  /// Pure decision function: no state, no RNG stream to corrupt, so
  /// concurrent requests cannot perturb each other's outcomes.
  [[nodiscard]] FaultDecision decide(ProviderIndex provider,
                                     std::uint64_t seq) const {
    FaultDecision d;
    for (std::size_t e = 0; e < episodes.size(); ++e) {
      const FaultEpisode& ep = episodes[e];
      if (ep.provider != kEveryProvider && ep.provider != provider) continue;
      if (seq < ep.begin || seq >= ep.end) continue;
      switch (ep.kind) {
        case FaultKind::kCrash:
          d.fail = true;
          break;
        case FaultKind::kSlow:
          d.slow_factor *= ep.slow_factor;
          break;
        case FaultKind::kFlaky:
          if (ep.period != 0 && (seq - ep.begin) % ep.period < ep.burst) {
            d.fail = true;
          }
          break;
        case FaultKind::kTransient:
          if (unit_draw(e, provider, seq) < ep.probability) d.fail = true;
          break;
      }
    }
    return d;
  }

  /// True when a kCrash episode covers `provider` at `seq`: its requests
  /// fail whatever the other episodes decide.
  [[nodiscard]] bool crashed(ProviderIndex provider, std::uint64_t seq) const {
    for (const FaultEpisode& ep : episodes) {
      if (ep.kind == FaultKind::kCrash &&
          (ep.provider == kEveryProvider || ep.provider == provider) &&
          seq >= ep.begin && seq < ep.end) {
        return true;
      }
    }
    return false;
  }

  /// A provider outage: one sticky kCrash episode on `provider` that never
  /// ends. Install it with SimCloudProvider::install_fault_plan(plan, p);
  /// the outage ends when the provider's plan is replaced or uninstalled.
  [[nodiscard]] static std::shared_ptr<const FaultPlan> outage(
      ProviderIndex provider) {
    auto plan = std::make_shared<FaultPlan>();
    plan->episodes.push_back(
        {provider, FaultKind::kCrash, 0, kNoSeqEnd});
    return plan;
  }

  /// Uniform 5%-style background noise: one transient episode covering
  /// every provider forever.
  [[nodiscard]] static FaultPlan transient(std::uint64_t seed,
                                           double probability) {
    FaultPlan plan;
    plan.seed = seed;
    FaultEpisode ep;
    ep.kind = FaultKind::kTransient;
    ep.probability = probability;
    plan.episodes.push_back(ep);
    return plan;
  }

 private:
  /// Deterministic U[0,1) keyed on (seed, episode, provider, seq).
  [[nodiscard]] double unit_draw(std::size_t episode, ProviderIndex provider,
                                 std::uint64_t seq) const {
    std::uint64_t h = hash_combine(seed, episode);
    h = hash_combine(h, provider);
    h = hash_combine(h, seq);
    return static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
  }
};

}  // namespace cshield::storage
