// The Cloud Data Distributor's three metadata tables (Tables I-III).
//
// The paper's distributor "maintains three types of tables describing the
// providers, the clients and the chunks". MetadataStore is that state, kept
// behind one reader/writer lock so several distributor front-ends (the
// Fig. 2 multi-distributor extension) can share it. One generalization:
// because we implement the RAID placement the paper prescribes, a chunk's
// single "CP index" column becomes a stripe -- a list of
// (provider, virtual id) shard locations; a 1-shard stripe reproduces the
// paper's table exactly.
//
// Internally the store is indexed so lookups scale with namespace size:
//   - per client, a filename -> (serial -> ChunkRef) map backs find_chunk /
//     file_chunks / list_files in O(log n) instead of a linear ref scan;
//   - per provider, an unordered_set<VirtualId> holds the ids placed there,
//     so a row write's placement delta is O(1) per shard.
// Rows carry no version: the distributor changes a partition's rows only
// inside that partition's commit step (MetadataPlane::commit), which
// builds a journal record from the rows as they stand and applies it
// through apply_journal_record under one mutex, so writers never race a
// read-modify-write. A maintenance move made from an older read of the
// row lands by the move rule (apply_move).
// The Cloud Provider Table is the union of the live rows' shard locations
// (stripe + snapshot): every chunk-row writer applies its own row's delta
// -- ids that leave the row are erased, ids that enter it are inserted --
// under the exclusive lock it already holds for the row. A shard that is
// uploaded but not yet committed is in no row, so it is in no table; a
// checkpoint never sees one without the other. record_removal is left only
// for reconcile, which prunes the ids of never-committed uploads that
// images written by older builds can still hold.
// The public row structs (ProviderEntry, ClientEntry) keep their flat
// vector shape -- they are materialized on demand -- so the metadata_io
// wire format is unchanged; provider id vectors materialize sorted so
// serialization stays deterministic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "crypto/sha256.hpp"
#include "raid/raid.hpp"
#include "util/status.hpp"

namespace cshield::core {

/// Where one shard of a chunk's stripe lives.
struct ShardLocation {
  ProviderIndex provider = kNoProvider;
  VirtualId virtual_id = 0;
};

/// One row of the Chunk Table (Table III), RAID-generalized.
struct ChunkEntry {
  PrivacyLevel privacy_level = PrivacyLevel::kPublic;
  raid::StripeLayout layout;
  std::vector<ShardLocation> stripe;      ///< CP column, one per shard
  std::vector<ShardLocation> snapshot;    ///< SP column: pre-modification state
  std::vector<std::uint32_t> misleading;  ///< M column: chaff byte positions
  std::size_t padded_size = 0;   ///< payload length incl. misleading bytes
  std::vector<crypto::Digest> shard_digests;  ///< integrity per shard
  /// Protection transform applied to the padded payload before encoding.
  /// Every encoded row carries it with its nonce and prefix length.
  ProtectionMode protection = ProtectionMode::kPartialAes;
  std::uint64_t protect_nonce = 0;  ///< per-chunk CTR nonce / entangle nonce
  std::size_t protect_bytes = 0;    ///< AES-encrypted prefix length (partial-AES)
  bool has_snapshot = false;
  std::size_t snapshot_padded_size = 0;
  std::vector<std::uint32_t> snapshot_misleading;
  std::vector<crypto::Digest> snapshot_digests;
  /// Protection parameters of the snapshot stripe (the pre-update payload
  /// is stored still-protected, under its original transform).
  ProtectionMode snapshot_protection = ProtectionMode::kPartialAes;
  std::uint64_t snapshot_protect_nonce = 0;
  std::size_t snapshot_protect_bytes = 0;
  bool deleted = false;  ///< tombstone; indices stay stable after removal
};

/// The deleted form of `row`: marked deleted, with no shard locations
/// (current or snapshot) left, so indices stay stable after removal. Every
/// writer of a removed row -- remove_chunk, remove_file, the put rollback
/// and journal replay -- builds it here.
[[nodiscard]] inline ChunkEntry tombstone_of(const ChunkEntry& row) {
  ChunkEntry tombstone = row;
  tombstone.deleted = true;
  tombstone.stripe.clear();
  tombstone.snapshot.clear();
  tombstone.has_snapshot = false;
  return tombstone;
}

/// True when `row` references `loc` in its current or snapshot column.
[[nodiscard]] inline bool holds(const ChunkEntry& row,
                                const ShardLocation& loc) {
  for (const auto* stripe : {&row.stripe, &row.snapshot}) {
    for (const ShardLocation& l : *stripe) {
      if (l.provider == loc.provider && l.virtual_id == loc.virtual_id) {
        return true;
      }
    }
  }
  return false;
}

/// The shard locations `before` references and `after` does not: what
/// writing `after` over `before` retires from the provider tables. Every
/// MetadataStore row writer derives its provider-table delta here, and a
/// client row commit learns which shards to delete.
[[nodiscard]] inline std::vector<ShardLocation> retired_locations(
    const ChunkEntry& before, const ChunkEntry& after) {
  std::vector<ShardLocation> out;
  for (const auto* stripe : {&before.stripe, &before.snapshot}) {
    for (const ShardLocation& loc : *stripe) {
      if (!holds(after, loc)) out.push_back(loc);
    }
  }
  return out;
}

/// How one maintenance move fared against a row (apply_move).
enum class MoveOutcome : std::uint8_t {
  kApplied,   ///< `to` replaced `from` in the column that held it
  kGone,      ///< the row no longer holds `from`: the copy is surplus
  kCollides,  ///< another member of that column already lives on `to`'s
              ///< provider: the copy is surplus, and the move an error
};

/// The move rule of a maintenance rewrite's commit: replaces `from` by `to`
/// wherever `row` still holds it, in the current or the snapshot column,
/// unless another member of that column already lives on `to`'s provider
/// (a stripe keeps its members on distinct providers). A promotion keeps
/// slot order and digests, so a shard that an update moved into the
/// snapshot column is still that slot's shard, and the move lands there. A
/// removed row holds nothing: every move against it is kGone.
[[nodiscard]] inline MoveOutcome apply_move(ChunkEntry& row,
                                            const ShardLocation& from,
                                            const ShardLocation& to) {
  for (auto* stripe : {&row.stripe, &row.snapshot}) {
    for (ShardLocation& slot : *stripe) {
      if (slot.provider != from.provider ||
          slot.virtual_id != from.virtual_id) {
        continue;
      }
      for (const ShardLocation& other : *stripe) {
        if (&other != &slot && other.provider == to.provider) {
          return MoveOutcome::kCollides;
        }
      }
      slot = to;
      return MoveOutcome::kApplied;
    }
  }
  return MoveOutcome::kGone;
}

/// One chunk-table row at an explicit table index, with the serial its
/// client ref carries: what a put commits and every chunk-row journal
/// record carries. The index is explicit so that replay lands each row
/// exactly where the live commit put it.
struct JournalChunk {
  std::uint64_t serial = 0;
  std::uint64_t index = 0;
  ChunkEntry entry;  ///< unused (empty) for remove records
};

/// Chunk coordinate within a client's namespace.
struct ChunkRef {
  std::string filename;
  std::uint64_t serial = 0;
  PrivacyLevel privacy_level = PrivacyLevel::kPublic;
  std::size_t chunk_index = 0;  ///< index into the chunk table
};

/// One row of the Client Table (Table II).
struct ClientEntry {
  std::string name;
  std::vector<std::pair<std::string, PrivacyLevel>> passwords;
  std::vector<ChunkRef> chunks;

  [[nodiscard]] std::size_t chunk_count() const { return chunks.size(); }
};

/// One row of the Cloud Provider Table (Table I). The registry owns the
/// live provider objects; this row mirrors the paper's bookkeeping view
/// (name/PL/CL come from the registry descriptor at registration).
struct ProviderEntry {
  std::string name;
  PrivacyLevel privacy_level = PrivacyLevel::kPublic;
  CostLevel cost_level = CostLevel::kCheapest;
  /// Fleet membership state, persisted so a restart rebuilds the dynamic
  /// topology (a crash mid-drain must come back still draining).
  ProviderLifecycle lifecycle = ProviderLifecycle::kActive;
  std::vector<VirtualId> virtual_ids;  ///< chunks (shards) placed here

  [[nodiscard]] std::size_t count() const { return virtual_ids.size(); }
};

/// Per-file inventory row derived from the filename index (the data behind
/// the distributor's list_files, already privilege-filtered).
struct FileSummary {
  std::string filename;
  PrivacyLevel privacy_level = PrivacyLevel::kPublic;
  std::size_t chunks = 0;
};

/// Thread-safe store of the three tables. All distributor front-ends
/// sharing a store see a consistent namespace. Read-mostly accessors take a
/// shared lock so concurrent lookups from many front-ends do not serialize.
class MetadataStore {
 public:
  // --- Cloud Provider Table ------------------------------------------

  /// Registers provider bookkeeping rows 0..n-1 (must mirror the registry).
  void register_provider(std::string name, PrivacyLevel pl, CostLevel cl,
                         ProviderLifecycle lifecycle =
                             ProviderLifecycle::kActive) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    providers_.push_back(ProviderState{std::move(name), pl, cl, lifecycle,
                                       {}});
  }

  /// Records a lifecycle transition (journaled by the caller; replay and
  /// checkpoint both carry it, so recovery restores the fleet's state).
  void set_provider_lifecycle(ProviderIndex p, ProviderLifecycle s) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    CS_REQUIRE(p < providers_.size(),
               "set_provider_lifecycle: bad provider index");
    providers_[p].lifecycle = s;
  }

  [[nodiscard]] ProviderLifecycle provider_lifecycle(ProviderIndex p) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    CS_REQUIRE(p < providers_.size(),
               "provider_lifecycle: bad provider index");
    return providers_[p].lifecycle;
  }

  /// Erases one id from provider p's table. Row writers keep the table in
  /// step with the rows; reconcile uses this to prune ids no row holds.
  void record_removal(ProviderIndex p, VirtualId id) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    CS_REQUIRE(p < providers_.size(), "record_removal: bad provider index");
    providers_[p].virtual_ids.erase(id);
  }

  [[nodiscard]] std::size_t provider_count() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return providers_.size();
  }

  [[nodiscard]] std::vector<ProviderEntry> provider_table() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<ProviderEntry> out;
    out.reserve(providers_.size());
    for (const auto& p : providers_) out.push_back(materialize(p));
    return out;
  }

  // --- Client Table ---------------------------------------------------

  Status register_client(const std::string& name) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (clients_.count(name) != 0) {
      return Status::AlreadyExists("client " + name);
    }
    clients_[name];
    return Status::Ok();
  }

  Status add_password(const std::string& client, const std::string& password,
                      PrivacyLevel pl) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    for (const auto& [pw, _] : it->second.passwords) {
      if (pw == password) {
        return Status::AlreadyExists("password already registered");
      }
    }
    it->second.passwords.emplace_back(password, pl);
    return Status::Ok();
  }

  /// Validates a password and returns its privilege level (SV access check
  /// happens at the chunk-PL comparison in the distributor).
  [[nodiscard]] Result<PrivacyLevel> authenticate(
      const std::string& client, const std::string& password) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    for (const auto& [pw, pl] : it->second.passwords) {
      if (pw == password) return pl;
    }
    return Status::PermissionDenied("bad password for client " + client);
  }

  [[nodiscard]] Result<ClientEntry> client_entry(
      const std::string& client) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    return materialize(it->first, it->second);
  }

  // --- Chunk Table ------------------------------------------------------

  /// Reserves `filename` in the client's namespace so two concurrent
  /// put_file calls cannot both pass the duplicate check. A claim holds no
  /// chunks; readers see the file as nonexistent until put_chunks_at
  /// links refs under it. kAlreadyExists when the name is taken (claimed or
  /// populated).
  Status claim_file(const std::string& client, const std::string& filename) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    auto [_, inserted] = it->second.files.try_emplace(filename);
    if (!inserted) {
      return Status::AlreadyExists("file " + filename + " for client " +
                                   client);
    }
    return Status::Ok();
  }

  /// Drops a claim that never received chunks (put_file rollback). A file
  /// that holds chunk refs is left untouched.
  void release_file(const std::string& client, const std::string& filename) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return;
    auto fit = it->second.files.find(filename);
    if (fit != it->second.files.end() && fit->second.empty()) {
      it->second.files.erase(fit);
    }
  }

  /// Appends a chunk entry and links it into the client's file index.
  /// Returns the chunk-table index. kAlreadyExists when the (filename,
  /// serial) slot is already linked. No distributor path calls it (a put
  /// commits through put_chunks_at); bench_ledger's model of the metadata
  /// commit does.
  [[nodiscard]] Result<std::size_t> add_chunk(const std::string& client,
                                              const std::string& filename,
                                              std::uint64_t serial,
                                              ChunkEntry entry) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    auto& serials = it->second.files[filename];
    if (serials.count(serial) != 0) {
      return Status::AlreadyExists("chunk " + filename + "#" +
                                   std::to_string(serial));
    }
    const PrivacyLevel pl = entry.privacy_level;
    place_row(ChunkEntry{}, entry);
    chunks_.push_back(std::move(entry));
    const std::size_t idx = chunks_.size() - 1;
    serials.emplace(serial, ChunkRef{filename, serial, pl, idx});
    return idx;
  }

  /// The one commit of a put's rows, live and in replay: places each row
  /// at its explicit index (growing the table with deleted tombstones if
  /// needed) and links its client ref, all under one exclusive lock, so a
  /// reader sees every ref of the put or none. Idempotent: re-applying rows
  /// whose (filename, serial) slots already point at their indices (the
  /// checkpoint raced the journal append) rewrites them and succeeds; a
  /// slot bound to a *different* index is a real conflict and fails before
  /// any row is written. `rows` is taken by value: the caller's copy is
  /// made before the lock, so readers wait only for the moves.
  Status put_chunks_at(const std::string& client, const std::string& filename,
                       std::vector<JournalChunk> rows) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    auto& serials = it->second.files[filename];
    for (const JournalChunk& c : rows) {
      auto sit = serials.find(c.serial);
      if (sit != serials.end() && sit->second.chunk_index != c.index) {
        return Status::AlreadyExists(
            "chunk " + filename + "#" + std::to_string(c.serial) +
            " already bound to index " +
            std::to_string(sit->second.chunk_index));
      }
    }
    for (JournalChunk& c : rows) {
      serials.try_emplace(c.serial, ChunkRef{filename, c.serial,
                                             c.entry.privacy_level, c.index});
      write_row(c.index, std::move(c.entry));
    }
    return Status::Ok();
  }

  /// Journal-replay variant of update_chunk: overwrites the row at `index`,
  /// growing the table with deleted tombstones when the checkpoint predates
  /// the row. No ref linkage changes.
  void set_chunk(std::size_t index, ChunkEntry entry) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    write_row(index, std::move(entry));
  }

  [[nodiscard]] Result<ChunkEntry> chunk_entry(std::size_t index) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (index >= chunks_.size()) {
      return Status::NotFound("chunk index " + std::to_string(index));
    }
    return chunks_[index];
  }

  /// Overwrites the row at an existing `index`. Like add_chunk, kept for
  /// bench_ledger's model only: the distributor writes rows through
  /// apply_journal_record under its partition's commit step.
  Status update_chunk(std::size_t index, ChunkEntry entry) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    if (index >= chunks_.size()) {
      return Status::NotFound("chunk index " + std::to_string(index));
    }
    write_row(index, std::move(entry));
    return Status::Ok();
  }

  /// Finds the chunk refs of a client file, serial-ordered. Empty result =
  /// file unknown (or only claimed, never committed).
  [[nodiscard]] std::vector<ChunkRef> file_chunks(
      const std::string& client, const std::string& filename) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<ChunkRef> out;
    auto it = clients_.find(client);
    if (it == clients_.end()) return out;
    auto fit = it->second.files.find(filename);
    if (fit == it->second.files.end()) return out;
    out.reserve(fit->second.size());
    for (const auto& [_, ref] : fit->second) out.push_back(ref);
    return out;
  }

  [[nodiscard]] std::optional<ChunkRef> find_chunk(
      const std::string& client, const std::string& filename,
      std::uint64_t serial) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return std::nullopt;
    auto fit = it->second.files.find(filename);
    if (fit == it->second.files.end()) return std::nullopt;
    auto sit = fit->second.find(serial);
    if (sit == fit->second.end()) return std::nullopt;
    return sit->second;
  }

  /// Per-file inventory visible to a password at `privilege`: only chunks
  /// whose PL the privilege can read are counted, and a file none of whose
  /// chunks are readable is omitted entirely (a low-privilege password
  /// cannot even learn the names of more sensitive files).
  [[nodiscard]] std::vector<FileSummary> list_files(
      const std::string& client, PrivacyLevel privilege) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<FileSummary> out;
    auto it = clients_.find(client);
    if (it == clients_.end()) return out;
    for (const auto& [filename, serials] : it->second.files) {
      FileSummary info{filename, PrivacyLevel::kPublic, 0};
      for (const auto& [_, ref] : serials) {
        if (!privileged_for(privilege, ref.privacy_level)) continue;
        if (info.chunks == 0) info.privacy_level = ref.privacy_level;
        ++info.chunks;
      }
      if (info.chunks > 0) out.push_back(std::move(info));
    }
    return out;
  }

  /// Unlinks a chunk ref from the client (the chunk-table row stays as a
  /// tombstone; indices must remain stable). Unlinking a file's last chunk
  /// frees the filename for reuse.
  Status unlink_chunk(const std::string& client, const std::string& filename,
                      std::uint64_t serial) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = clients_.find(client);
    if (it == clients_.end()) return Status::NotFound("client " + client);
    auto fit = it->second.files.find(filename);
    if (fit == it->second.files.end() || fit->second.erase(serial) == 0) {
      return Status::NotFound("chunk " + filename + "#" +
                              std::to_string(serial));
    }
    if (fit->second.empty()) it->second.files.erase(fit);
    return Status::Ok();
  }

  [[nodiscard]] std::size_t total_chunks() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return chunks_.size();
  }

  // --- snapshot / restore (durability; see core/metadata_io.hpp) -------

  [[nodiscard]] std::vector<ClientEntry> client_table() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    std::vector<ClientEntry> out;
    out.reserve(clients_.size());
    for (const auto& [name, state] : clients_) {
      out.push_back(materialize(name, state));
    }
    return out;
  }

  [[nodiscard]] std::vector<ChunkEntry> chunk_table() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return chunks_;
  }

  /// Replaces the entire table state (only valid on a freshly constructed
  /// store, i.e. during deserialization). Rebuilds the indices from the
  /// flat wire rows.
  void restore(std::vector<ProviderEntry> providers,
               std::vector<ClientEntry> clients,
               std::vector<ChunkEntry> chunks) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    CS_REQUIRE(providers_.empty() && clients_.empty() && chunks_.empty(),
               "MetadataStore::restore on a non-empty store");
    providers_.reserve(providers.size());
    for (auto& p : providers) {
      ProviderState state{std::move(p.name), p.privacy_level, p.cost_level,
                          p.lifecycle, {}};
      state.virtual_ids.insert(p.virtual_ids.begin(), p.virtual_ids.end());
      providers_.push_back(std::move(state));
    }
    for (auto& c : clients) {
      ClientState& state = clients_[c.name];
      state.passwords = std::move(c.passwords);
      for (auto& ref : c.chunks) {
        auto& serials = state.files[ref.filename];
        serials.emplace(ref.serial, std::move(ref));
      }
    }
    chunks_ = std::move(chunks);
  }

 private:
  /// Writes `entry` over row `index`, growing the table with deleted
  /// tombstones when the index lies past its end, and applies the row's
  /// provider-table delta (callers hold mu_ exclusively).
  void write_row(std::size_t index, ChunkEntry entry) {
    while (chunks_.size() <= index) {
      ChunkEntry tombstone;
      tombstone.deleted = true;
      chunks_.push_back(std::move(tombstone));
    }
    place_row(chunks_[index], entry);
    chunks_[index] = std::move(entry);
  }

  /// The provider-table delta of writing `after` over `before`: ids that
  /// leave the row are erased, ids that enter it are inserted. Ids of
  /// providers the store does not know yet (a replay ahead of the
  /// provider's registration) are skipped. Set insert/erase makes
  /// re-applying a row a no-op. Callers hold mu_ exclusively.
  void place_row(const ChunkEntry& before, const ChunkEntry& after) {
    for (const ShardLocation& loc : retired_locations(before, after)) {
      if (loc.provider < providers_.size()) {
        providers_[loc.provider].virtual_ids.erase(loc.virtual_id);
      }
    }
    for (const ShardLocation& loc : retired_locations(after, before)) {
      if (loc.provider < providers_.size()) {
        providers_[loc.provider].virtual_ids.insert(loc.virtual_id);
      }
    }
  }

  /// Provider row with the id set as the O(1) membership index; the wire
  /// vector is materialized (sorted, so serialization is deterministic).
  struct ProviderState {
    std::string name;
    PrivacyLevel privacy_level = PrivacyLevel::kPublic;
    CostLevel cost_level = CostLevel::kCheapest;
    ProviderLifecycle lifecycle = ProviderLifecycle::kActive;
    std::unordered_set<VirtualId> virtual_ids;
  };

  /// Client row with the filename -> (serial -> ref) index replacing the
  /// wire format's flat ref vector.
  struct ClientState {
    std::vector<std::pair<std::string, PrivacyLevel>> passwords;
    std::map<std::string, std::map<std::uint64_t, ChunkRef>> files;
  };

  [[nodiscard]] static ProviderEntry materialize(const ProviderState& p) {
    ProviderEntry out{p.name, p.privacy_level, p.cost_level, p.lifecycle, {}};
    out.virtual_ids.assign(p.virtual_ids.begin(), p.virtual_ids.end());
    std::sort(out.virtual_ids.begin(), out.virtual_ids.end());
    return out;
  }

  [[nodiscard]] static ClientEntry materialize(const std::string& name,
                                               const ClientState& c) {
    ClientEntry out{name, c.passwords, {}};
    for (const auto& [_, serials] : c.files) {
      for (const auto& [__, ref] : serials) out.chunks.push_back(ref);
    }
    return out;
  }

  mutable std::shared_mutex mu_;
  std::vector<ProviderState> providers_;
  std::map<std::string, ClientState> clients_;
  std::vector<ChunkEntry> chunks_;
};

}  // namespace cshield::core
