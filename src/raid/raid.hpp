// RAID-style striping across cloud providers (SIII-B, SIV-A).
//
// The paper places chunks with "Redundant Array of Independent Disks (RAID)
// strategy ... The default choice is RAID level 5. In case of higher
// assurance, RAID level 6 is used", treating each cloud provider as one
// disk (after RACS). This module implements the byte-level codes:
//
//   kNone   -- single copy (the paper's baseline single-provider world)
//   kRaid0  -- striping only, no redundancy (pure distribution)
//   kRaid1  -- full replication, `parity_shards` extra copies
//   kRaid5  -- k data shards + 1 XOR parity; survives any 1 erasure
//   kRaid6  -- k data shards + P,Q Reed-Solomon parity over GF(2^8);
//              survives any 2 erasures
//
// A chunk payload is encoded into `total_shards()` equal-size shards, one
// per provider; decode() rebuilds the payload from any sufficient subset.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace cshield::raid {

enum class RaidLevel { kNone, kRaid0, kRaid1, kRaid5, kRaid6 };

[[nodiscard]] constexpr std::string_view raid_level_name(RaidLevel l) {
  switch (l) {
    case RaidLevel::kNone: return "none";
    case RaidLevel::kRaid0: return "raid0";
    case RaidLevel::kRaid1: return "raid1";
    case RaidLevel::kRaid5: return "raid5";
    case RaidLevel::kRaid6: return "raid6";
  }
  return "invalid";
}

/// Shape of a stripe: how many data and parity shards.
struct StripeLayout {
  RaidLevel level = RaidLevel::kRaid5;
  std::size_t data_shards = 4;    ///< k (for kRaid1: always 1 logical copy)
  std::size_t parity_shards = 1;  ///< derived from level except kRaid1

  /// Canonical layout for a level with `k` data shards. For kRaid1,
  /// `redundancy` is the number of *extra* replicas.
  [[nodiscard]] static StripeLayout make(RaidLevel level, std::size_t k,
                                         std::size_t redundancy = 1);

  [[nodiscard]] std::size_t total_shards() const {
    return data_shards + parity_shards;
  }

  /// Bytes one stripe of a `payload_size`-byte payload holds at its
  /// providers: total_shards() shards of ceil(payload / data_shards) bytes,
  /// the size encode() gives them (kNone and kRaid1 have one data shard, so
  /// each of their shards is the whole payload). 0 for a malformed layout
  /// without data shards.
  [[nodiscard]] std::size_t stored_bytes(std::size_t payload_size) const {
    if (data_shards == 0) return 0;
    return (payload_size + data_shards - 1) / data_shards * total_shards();
  }

  /// Storage blow-up factor relative to the raw payload.
  [[nodiscard]] double overhead_factor() const {
    if (level == RaidLevel::kRaid1) {
      return static_cast<double>(1 + parity_shards);
    }
    return static_cast<double>(total_shards()) /
           static_cast<double>(data_shards);
  }

  /// Max erasures decode() tolerates.
  [[nodiscard]] std::size_t fault_tolerance() const {
    switch (level) {
      case RaidLevel::kNone:
      case RaidLevel::kRaid0: return 0;
      case RaidLevel::kRaid1: return parity_shards;
      case RaidLevel::kRaid5: return 1;
      case RaidLevel::kRaid6: return 2;
    }
    return 0;
  }
};

/// Result of encoding one payload. Shards live back-to-back in a single
/// contiguous arena (`shard_count` slices of `shard_size` bytes); `shard(i)`
/// hands out zero-copy views over it. Data shards occupy slices [0, k), the
/// parity shards follow, so encoding a payload is one bulk copy into the
/// arena plus in-place parity sweeps -- no per-shard allocations.
struct EncodedStripe {
  Bytes arena;                    ///< shard_count * shard_size bytes
  std::size_t shard_size = 0;     ///< bytes per shard
  std::size_t shard_count = 0;    ///< == layout.total_shards()
  std::size_t original_size = 0;  ///< pre-padding payload length

  /// Read-only view of shard `i` (no copy).
  [[nodiscard]] BytesView shard(std::size_t i) const {
    return BytesView(arena.data() + i * shard_size, shard_size);
  }

  /// Mutable view of shard `i` (encode internals, tests).
  [[nodiscard]] MutBytesView shard_mut(std::size_t i) {
    return MutBytesView(arena.data() + i * shard_size, shard_size);
  }

  /// Owned copy of shard `i` (callers that must outlive the stripe).
  [[nodiscard]] Bytes shard_copy(std::size_t i) const {
    const BytesView v = shard(i);
    return Bytes(v.begin(), v.end());
  }
};

/// Copies every shard of an encoded stripe into the decode-side input format
/// (nullopt marks an erasure). Tests and benches use this to build erasure
/// patterns; the hot production paths hand the arena views around instead.
[[nodiscard]] inline std::vector<std::optional<Bytes>> shard_copies(
    const EncodedStripe& stripe) {
  std::vector<std::optional<Bytes>> out(stripe.shard_count);
  for (std::size_t i = 0; i < stripe.shard_count; ++i) {
    out[i] = stripe.shard_copy(i);
  }
  return out;
}

/// Encodes `data` under the layout. Data is zero-padded to a multiple of
/// data_shards; original_size records the true length for decode.
[[nodiscard]] EncodedStripe encode(const StripeLayout& layout, BytesView data);

/// Rebuilds the payload from the available shards (nullopt = erased).
/// `shards.size()` must equal layout.total_shards(). Fails with
/// kResourceExhausted when more shards are missing than the code tolerates.
[[nodiscard]] Result<Bytes> decode(const StripeLayout& layout,
                                   const std::vector<std::optional<Bytes>>& shards,
                                   std::size_t original_size);

/// Recomputes the single shard at `target` from the surviving shards
/// (repair path after a provider outage). Fails under the same conditions
/// as decode.
[[nodiscard]] Result<Bytes> reconstruct_shard(
    const StripeLayout& layout,
    const std::vector<std::optional<Bytes>>& shards, std::size_t target);

}  // namespace cshield::raid
