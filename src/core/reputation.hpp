// Provider reputation tracking (SIV-A).
//
// "Cloud Data Distributor maintains privacy level ... for each provider.
// Privacy level of a provider indicates its reliability. The higher the
// privacy level, the more trustworthy the provider." The paper leaves
// *how* reliability is established to deployment; this module makes it
// operational: an exponentially-weighted reliability score per provider,
// fed by observed request outcomes, mapped onto the four trust tiers. When
// a provider's tier drops below the sensitivity of chunks it holds, the
// distributor's rebalance() -- a walk of the demote maintenance policy --
// migrates those shards to providers that still qualify.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "util/status.hpp"

namespace cshield::core {

struct ReputationConfig {
  double initial_score = 0.95;  ///< optimistic prior
  double decay = 0.05;          ///< EWMA weight of each new observation
  /// Minimum score for tiers PL1 / PL2 / PL3 (below the first = PL0).
  std::array<double, 3> tier_floor = {0.50, 0.75, 0.90};
};

class ReputationTracker {
 public:
  explicit ReputationTracker(std::size_t providers,
                             ReputationConfig config = {})
      : config_(config), scores_(providers, config.initial_score) {
    CS_REQUIRE(config_.decay > 0.0 && config_.decay <= 1.0,
               "ReputationTracker: decay outside (0,1]");
  }

  [[nodiscard]] std::size_t size() const { return scores_.size(); }

  /// EWMA update: outcome 1.0 for a correct, timely response; 0.0 for an
  /// outage, refusal or integrity failure.
  void record(ProviderIndex p, bool success) {
    CS_REQUIRE(p < scores_.size(), "ReputationTracker: index out of range");
    scores_[p] = (1.0 - config_.decay) * scores_[p] +
                 config_.decay * (success ? 1.0 : 0.0);
  }

  [[nodiscard]] double score(ProviderIndex p) const {
    CS_REQUIRE(p < scores_.size(), "ReputationTracker: index out of range");
    return scores_[p];
  }

  /// Trust tier implied by the current score.
  [[nodiscard]] PrivacyLevel tier(ProviderIndex p) const {
    const double s = score(p);
    if (s >= config_.tier_floor[2]) return PrivacyLevel::kHigh;
    if (s >= config_.tier_floor[1]) return PrivacyLevel::kModerate;
    if (s >= config_.tier_floor[0]) return PrivacyLevel::kLow;
    return PrivacyLevel::kPublic;
  }

  /// Number of consecutive failures needed to drop a perfect score below
  /// the PL3 floor (diagnostic; used in tests to validate the dynamics).
  [[nodiscard]] int failures_to_demote_from_high() const {
    double s = 1.0;
    int n = 0;
    while (s >= config_.tier_floor[2] && n < 1000) {
      s *= (1.0 - config_.decay);
      ++n;
    }
    return n;
  }

 private:
  ReputationConfig config_;
  std::vector<double> scores_;
};

}  // namespace cshield::core
