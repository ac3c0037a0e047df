// N-way sharded metadata/journal plane.
//
// The paper's Fig. 2 multi-distributor architecture exists because "a
// single data distributor can create a bottleneck" -- and a single
// MetadataStore behind one shared_mutex plus a single fsync lane *is* that
// bottleneck once tens of clients hammer small ops. MetadataPlane splits
// the namespace into N independent partitions by consistent hash of
// (client, filename): each partition is a full MetadataStore (its own
// lock, its own filename/serial/provider indices, its own per-row version
// counters) with its own CRC32-framed journal file (its own group-commit
// lane) and its own checkpoint image. Concurrent puts on different shards
// never touch the same lock or the same fsync.
//
// Shard map:
//   - per-(client, filename) state -- file claims, chunk refs, chunk rows,
//     and their journal records -- lives in the owning partition
//     shard_of(client, filename) only, with chunk indices local to it;
//   - client rows (register/add_password) and provider rows (register,
//     lifecycle, migration intents) are broadcast to every partition and
//     every shard journal, so each shard's checkpoint+journal pair is
//     self-contained and the N shards recover in parallel with no
//     cross-shard dependency.
//
// Maintenance loops address chunks through a *global* index space that
// interleaves the partitions: global = local * N + shard. N = 1 makes the
// mapping the identity and the single partition the whole namespace.
//
// The plane is the only way a distributor holds metadata: an unsharded
// deployment is the N = 1 plane, its files stamped shard 0 of 1 at the
// base paths.
#pragma once

#include <filesystem>
#include <memory>
#include <string_view>
#include <vector>

#include "core/journal.hpp"
#include "core/tables.hpp"
#include "util/status.hpp"

namespace cshield::core {

class MetadataPlane {
 public:
  /// One shard: its table partition, its journal (null = in-memory only)
  /// and where its checkpoint image goes (empty = no checkpointing).
  struct Partition {
    std::shared_ptr<MetadataStore> store;
    std::shared_ptr<Journal> journal;
    std::filesystem::path checkpoint_path;
  };

  /// Takes ownership of the partitions; at least one, each with a store.
  explicit MetadataPlane(std::vector<Partition> partitions);

  /// `shards` empty in-memory partitions (no journals, no checkpoints).
  [[nodiscard]] static std::shared_ptr<MetadataPlane> make_in_memory(
      std::size_t shards);

  /// A journaled `shards`-way plane: shard k's journal and checkpoint image
  /// at shard_file_path(journal_base / checkpoint_base, k), each journal
  /// opened with its shard stamp and `group_commit` installed. `stores`
  /// empty makes fresh partitions; otherwise it holds one recovered store
  /// per shard (e.g. recover_plane's).
  [[nodiscard]] static Result<std::shared_ptr<MetadataPlane>> open(
      const std::filesystem::path& checkpoint_base,
      const std::filesystem::path& journal_base, std::size_t shards,
      const GroupCommitConfig& group_commit = {},
      std::vector<std::shared_ptr<MetadataStore>> stores = {});

  /// Owning shard of a (client, filename) pair: a consistent hash, stable
  /// across processes and front-ends. Client-level records use an empty
  /// filename for a deterministic "home" shard, but are broadcast anyway.
  [[nodiscard]] static std::size_t shard_of(std::string_view client,
                                            std::string_view filename,
                                            std::size_t shard_count);

  [[nodiscard]] std::size_t shard_of(std::string_view client,
                                     std::string_view filename) const {
    return shard_of(client, filename, partitions_.size());
  }

  [[nodiscard]] std::size_t shard_count() const { return partitions_.size(); }

  [[nodiscard]] MetadataStore& store(std::size_t shard) {
    return *partitions_[shard].store;
  }
  [[nodiscard]] const MetadataStore& store(std::size_t shard) const {
    return *partitions_[shard].store;
  }
  [[nodiscard]] Journal* journal(std::size_t shard) const {
    return partitions_[shard].journal.get();
  }
  [[nodiscard]] const std::filesystem::path& checkpoint_path(
      std::size_t shard) const {
    return partitions_[shard].checkpoint_path;
  }

  // --- global chunk index space ---------------------------------------
  //
  // global = local * N + shard. Partition-local indices (what journal
  // records and client chunk refs carry) stay dense per shard; the global
  // space interleaves them so maintenance loops sweep all partitions with
  // one counter. Globals can be sparse: a global whose local slot does not
  // exist in its partition simply resolves to NotFound.

  [[nodiscard]] std::size_t to_global(std::size_t shard,
                                      std::size_t local) const {
    return local * partitions_.size() + shard;
  }
  [[nodiscard]] std::size_t shard_of_index(std::size_t global) const {
    return global % partitions_.size();
  }
  [[nodiscard]] std::size_t local_index(std::size_t global) const {
    return global / partitions_.size();
  }
  /// Exclusive upper bound of the live global index space:
  /// N * max_partition_total_chunks (every partition's rows fall below it).
  [[nodiscard]] std::size_t global_chunk_bound() const;

  // --- merged plane-wide views -----------------------------------------

  /// Provider rows with virtual-id placements unioned across partitions.
  /// Row identity (name/PL/CL/lifecycle) is broadcast-replicated, so any
  /// partition agrees; placements are per-partition and must be merged.
  [[nodiscard]] std::vector<ProviderEntry> provider_table() const;

  /// Sum of partition chunk-table sizes (tombstones included).
  [[nodiscard]] std::size_t total_chunks() const;

 private:
  std::vector<Partition> partitions_;
};

}  // namespace cshield::core
