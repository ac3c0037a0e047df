// Domain vocabulary shared by the storage, core and attack layers.
//
// The paper fixes a 4-level sensitivity scale for both data and providers
// (SIV-A): PL0 public, PL1 low, PL2 moderate, PL3 highly sensitive. Provider
// cost levels mirror that with "the higher the cost level, the more costly
// the provider". Virtual ids are the only name a provider ever sees for a
// chunk -- they carry no client identity.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/status.hpp"

namespace cshield {

/// Mining-sensitivity level of a file/chunk, or trustworthiness of a
/// provider. Ordered: higher = more sensitive / more trustworthy.
enum class PrivacyLevel : std::uint8_t {
  kPublic = 0,     ///< PL0 -- accessible to everyone including the adversary
  kLow = 1,        ///< PL1 -- no private info, but pattern-minable
  kModerate = 2,   ///< PL2 -- protected financial/legal/health data
  kHigh = 3,       ///< PL3 -- private data; leakage is disastrous
};

inline constexpr int kNumPrivacyLevels = 4;

[[nodiscard]] constexpr int level_index(PrivacyLevel pl) {
  return static_cast<int>(pl);
}

[[nodiscard]] inline PrivacyLevel privacy_level_from_int(int v) {
  CS_REQUIRE(v >= 0 && v < kNumPrivacyLevels, "privacy level outside 0..3");
  return static_cast<PrivacyLevel>(v);
}

[[nodiscard]] constexpr std::string_view privacy_level_name(PrivacyLevel pl) {
  switch (pl) {
    case PrivacyLevel::kPublic: return "PL0-public";
    case PrivacyLevel::kLow: return "PL1-low";
    case PrivacyLevel::kModerate: return "PL2-moderate";
    case PrivacyLevel::kHigh: return "PL3-high";
  }
  return "PL?-invalid";
}

/// A password at privilege p may read a chunk at level c iff p >= c (SV).
[[nodiscard]] constexpr bool privileged_for(PrivacyLevel password_level,
                                            PrivacyLevel chunk_level) {
  return level_index(password_level) >= level_index(chunk_level);
}

/// How a chunk's payload is protected against mining at the providers
/// beyond dispersal itself. Values are on-disk (Table III); append-only,
/// never renumber. kPartialAes is 0, the default of a fresh ChunkEntry.
enum class ProtectionMode : std::uint8_t {
  /// AES-128-CTR over a PL-dependent prefix of each chunk (the paper's
  /// "encrypt a portion of it"); the default wire value.
  kPartialAes = 0,
  /// Misleading-bytes chaff only (SVII-D) -- the pre-PR-8 behavior.
  kMisleadingBytes = 1,
  /// Key-less fragment entanglement (Kapusta-Memmi fast fragmentation):
  /// GF(256) mixing sweeps tie every data shard to every other, so no
  /// k-1-of-k provider coalition can invert its view.
  kFragmentation = 2,
};

inline constexpr int kNumProtectionModes = 3;

[[nodiscard]] constexpr std::string_view protection_mode_name(
    ProtectionMode m) {
  switch (m) {
    case ProtectionMode::kPartialAes: return "partial-aes";
    case ProtectionMode::kMisleadingBytes: return "misleading";
    case ProtectionMode::kFragmentation: return "fragmentation";
  }
  return "invalid";
}

[[nodiscard]] inline ProtectionMode protection_mode_from_int(int v) {
  CS_REQUIRE(v >= 0 && v < kNumProtectionModes,
             "protection mode outside 0..2");
  return static_cast<ProtectionMode>(v);
}

/// Provider storage-cost tier, 0 (cheapest) .. 3 (most expensive). The
/// distributor prefers the cheaper provider among equally-trusted ones.
enum class CostLevel : std::uint8_t { kCheapest = 0, kCheap = 1, kPricey = 2, kPremium = 3 };

inline constexpr int kNumCostLevels = 4;

[[nodiscard]] constexpr int level_index(CostLevel cl) {
  return static_cast<int>(cl);
}

/// Runtime membership state of a provider in the fleet (the dynamic
/// topology of §IV-C: providers join, drain and leave without a restart).
/// Values are on-disk (metadata image provider rows and kBeginMigrate /
/// kCommitMigrate journal records); append-only, never renumber.
enum class ProviderLifecycle : std::uint8_t {
  /// Registered but not yet placed: a joiner receives migrated shards while
  /// invisible to placement; activated once it holds its ring share.
  kJoining = 0,
  kActive = 1,  ///< full member: placement targets it, reads hit it
  /// Excluded from new placement but still readable while the migrator
  /// moves its shards off; the state a crash mid-drain persists.
  kDraining = 2,
  kDecommissioned = 3,  ///< fully out: holds no data, never addressed
};

inline constexpr int kNumProviderLifecycles = 4;

[[nodiscard]] constexpr std::string_view provider_lifecycle_name(
    ProviderLifecycle s) {
  switch (s) {
    case ProviderLifecycle::kJoining: return "joining";
    case ProviderLifecycle::kActive: return "active";
    case ProviderLifecycle::kDraining: return "draining";
    case ProviderLifecycle::kDecommissioned: return "decommissioned";
  }
  return "invalid";
}

[[nodiscard]] inline ProviderLifecycle provider_lifecycle_from_int(int v) {
  CS_REQUIRE(v >= 0 && v < kNumProviderLifecycles,
             "provider lifecycle outside 0..3");
  return static_cast<ProviderLifecycle>(v);
}

/// Opaque 64-bit chunk identity; the only key providers ever see.
using VirtualId = std::uint64_t;

/// Index of a provider row in the Cloud Provider Table / ProviderRegistry.
using ProviderIndex = std::size_t;

inline constexpr ProviderIndex kNoProvider = static_cast<ProviderIndex>(-1);

}  // namespace cshield
