// Durable serialization of the Cloud Data Distributor's metadata tables.
//
// The three tables (SIV-A, Tables I-III) are the only state a distributor
// cannot recompute: losing them strands every stored chunk. This codec
// round-trips a MetadataStore through a versioned binary image so a
// distributor can restart against the same providers (the paper's
// architectural worry about the distributor being a single point of failure
// -- persistence plus the Fig. 2 group addresses it).
//
// Image layout (format v4, the only generation):
//   u32 magic | u32 version | u32 shard_index | u32 shard_count
//   provider rows | client rows | chunk rows
// Every image names its place in the metadata plane; an unsharded store is
// shard 0 of 1. Any other version is rejected as unsupported.
#pragma once

#include <cstdint>
#include <memory>

#include "core/tables.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/wire.hpp"

namespace cshield::core {

/// The on-disk format generation shared by the metadata image and the
/// journal header (see journal.hpp). Readers accept exactly this version.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Serializes the full table state as shard 0 of 1.
[[nodiscard]] Bytes serialize_metadata(const MetadataStore& store);

/// Serializes one partition of an N-way sharded metadata plane. The shard
/// stamp follows the version word, so a partition snapshot can never be
/// silently restored into the wrong plane shape.
[[nodiscard]] Bytes serialize_metadata(const MetadataStore& store,
                                       std::uint32_t shard_index,
                                       std::uint32_t shard_count);

/// Where a metadata image or journal sits in its plane: shard
/// `shard_index` of `shard_count` (an unsharded store is 0 of 1).
struct ShardStamp {
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  friend bool operator==(const ShardStamp&, const ShardStamp&) = default;
};

/// Rebuilds a store from an image produced by serialize_metadata. Rejects
/// bad magic, any version but kFormatVersion, and truncation. `stamp`
/// (optional) receives the image's shard stamp -- callers recovering a
/// plane member validate it against the expected shard.
[[nodiscard]] Result<std::shared_ptr<MetadataStore>> deserialize_metadata(
    BytesView image, ShardStamp* stamp = nullptr);

/// Writes one chunk-table row in the image's wire layout. Shared with the
/// journal's commit/update records, so a replayed entry is byte-identical
/// to a checkpointed one. Every row leads with a 0xF2 marker byte.
void write_chunk_entry(wire::Writer& w, const ChunkEntry& entry);

/// The exact number of bytes write_chunk_entry emits for `entry`, so a
/// writer can size its buffer before encoding.
[[nodiscard]] std::size_t chunk_entry_wire_size(const ChunkEntry& entry);

/// Reads one chunk-table row; false on a missing marker, truncation or an
/// implausible field (bad privacy level, unknown RAID level, unknown
/// protection mode, protected prefix past the payload, count past the
/// buffer end).
[[nodiscard]] bool read_chunk_entry(wire::Reader& r, ChunkEntry& entry);

}  // namespace cshield::core
