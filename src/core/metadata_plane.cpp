#include "core/metadata_plane.hpp"

#include <algorithm>
#include <set>

#include "util/hash.hpp"
#include "util/status.hpp"

namespace cshield::core {

MetadataPlane::MetadataPlane(std::vector<Partition> partitions)
    : partitions_(std::move(partitions)),
      commit_mu_(std::make_unique<std::mutex[]>(partitions_.size())) {
  CS_REQUIRE(!partitions_.empty(), "MetadataPlane: no partitions");
  for (const Partition& p : partitions_) {
    CS_REQUIRE(p.store != nullptr, "MetadataPlane: partition without store");
  }
}

std::shared_ptr<MetadataPlane> MetadataPlane::make_in_memory(
    std::size_t shards) {
  if (shards == 0) shards = 1;
  std::vector<Partition> parts(shards);
  for (Partition& p : parts) p.store = std::make_shared<MetadataStore>();
  return std::make_shared<MetadataPlane>(std::move(parts));
}

Result<std::shared_ptr<MetadataPlane>> MetadataPlane::open(
    const std::filesystem::path& checkpoint_base,
    const std::filesystem::path& journal_base, std::size_t shards,
    const GroupCommitConfig& group_commit,
    std::vector<std::shared_ptr<MetadataStore>> stores) {
  if (shards == 0) shards = 1;
  if (!stores.empty() && stores.size() != shards) {
    return Status::InvalidArgument("metadata plane: " +
                                   std::to_string(stores.size()) +
                                   " stores for " + std::to_string(shards) +
                                   " shards");
  }
  std::vector<Partition> parts(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    Result<std::unique_ptr<Journal>> j =
        Journal::open(shard_file_path(journal_base, k),
                      static_cast<std::uint32_t>(k),
                      static_cast<std::uint32_t>(shards));
    CS_RETURN_IF_ERROR(j.status());
    j.value()->set_group_commit(group_commit);
    parts[k].journal = std::move(j).value();
    parts[k].store =
        stores.empty() ? std::make_shared<MetadataStore>() : stores[k];
    parts[k].checkpoint_path = shard_file_path(checkpoint_base, k);
  }
  return std::make_shared<MetadataPlane>(std::move(parts));
}

std::size_t MetadataPlane::shard_of(std::string_view client,
                                    std::string_view filename,
                                    std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  // Consistent hash of the pair: mix the two FNV streams asymmetrically so
  // ("ab", "c") and ("a", "bc") land independently.
  const std::uint64_t h =
      mix64(fnv1a64(client) ^ (fnv1a64(filename) * 0x9E3779B97F4A7C15ULL));
  return static_cast<std::size_t>(h % shard_count);
}

Status MetadataPlane::commit(std::size_t shard, const RecordBuilder& build) {
  const Partition& p = partitions_[shard];
  std::unique_lock<std::mutex> lock(commit_mu_[shard]);
  Result<JournalRecord> rec = build(*p.store);
  CS_RETURN_IF_ERROR(rec.status());
  CS_RETURN_IF_ERROR(apply_journal_record(*p.store, rec.value()));
  if (p.journal == nullptr) return Status::Ok();
  // append releases `lock` once the record is queued, before its fsync.
  return p.journal->append(rec.value(), &lock);
}

Status MetadataPlane::checkpoint(std::size_t shard) {
  const Partition& p = partitions_[shard];
  if (p.journal == nullptr || p.checkpoint_path.empty()) {
    return Status::InvalidArgument("checkpoint: no journal or image path");
  }
  std::lock_guard<std::mutex> lock(commit_mu_[shard]);
  return p.journal->checkpoint(
      [&] {
        return serialize_metadata(*p.store, static_cast<std::uint32_t>(shard),
                                  static_cast<std::uint32_t>(shard_count()));
      },
      p.checkpoint_path);
}

std::size_t MetadataPlane::global_chunk_bound() const {
  std::size_t max_local = 0;
  for (const Partition& p : partitions_) {
    max_local = std::max(max_local, p.store->total_chunks());
  }
  return max_local * partitions_.size();
}

std::vector<ProviderEntry> MetadataPlane::provider_table() const {
  // Broadcast registration keeps row identity replicated, but a crash mid-
  // broadcast can leave partitions with different row counts -- take the
  // widest partition as the base so no provider is dropped from the view.
  std::size_t base = 0;
  for (std::size_t s = 1; s < partitions_.size(); ++s) {
    if (partitions_[s].store->provider_count() >
        partitions_[base].store->provider_count()) {
      base = s;
    }
  }
  std::vector<ProviderEntry> out = partitions_[base].store->provider_table();
  if (partitions_.size() == 1) return out;
  std::vector<std::set<VirtualId>> merged(out.size());
  for (std::size_t p = 0; p < out.size(); ++p) {
    merged[p].insert(out[p].virtual_ids.begin(), out[p].virtual_ids.end());
  }
  for (std::size_t s = 0; s < partitions_.size(); ++s) {
    if (s == base) continue;
    const auto rows = partitions_[s].store->provider_table();
    for (std::size_t p = 0; p < rows.size() && p < merged.size(); ++p) {
      merged[p].insert(rows[p].virtual_ids.begin(),
                       rows[p].virtual_ids.end());
    }
  }
  for (std::size_t p = 0; p < out.size(); ++p) {
    out[p].virtual_ids.assign(merged[p].begin(), merged[p].end());
  }
  return out;
}

std::size_t MetadataPlane::total_chunks() const {
  std::size_t total = 0;
  for (const Partition& p : partitions_) total += p.store->total_chunks();
  return total;
}

}  // namespace cshield::core
