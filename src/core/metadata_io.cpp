#include "core/metadata_io.hpp"

#include "util/wire.hpp"

namespace cshield::core {
namespace {

constexpr std::uint32_t kMagic = 0xC5D47AB1;

// Leading marker of every chunk row; a row without it is rejected.
constexpr std::uint8_t kChunkEntryTag = 0xF2;

void write_shards(wire::Writer& w, const std::vector<ShardLocation>& shards) {
  w.u32(static_cast<std::uint32_t>(shards.size()));
  for (const auto& s : shards) {
    w.u64(s.provider);
    w.u64(s.virtual_id);
  }
}

bool read_shards(wire::Reader& r, std::vector<ShardLocation>& shards) {
  std::uint32_t n = 0;
  if (!r.u32(n) || static_cast<std::size_t>(n) > r.remaining()) return false;
  shards.resize(n);
  for (auto& s : shards) {
    std::uint64_t provider = 0;
    if (!r.u64(provider) || !r.u64(s.virtual_id)) return false;
    s.provider = static_cast<ProviderIndex>(provider);
  }
  return true;
}

void write_digests(wire::Writer& w, const std::vector<crypto::Digest>& ds) {
  w.u32(static_cast<std::uint32_t>(ds.size()));
  for (const auto& d : ds) {
    w.bytes(BytesView(d.data(), d.size()));
  }
}

bool read_digests(wire::Reader& r, std::vector<crypto::Digest>& ds) {
  std::uint32_t n = 0;
  if (!r.u32(n) || static_cast<std::size_t>(n) > r.remaining()) return false;
  ds.resize(n);
  for (auto& d : ds) {
    Bytes raw;
    if (!r.bytes(raw) || raw.size() != d.size()) return false;
    std::copy(raw.begin(), raw.end(), d.begin());
  }
  return true;
}

void write_positions(wire::Writer& w, const std::vector<std::uint32_t>& ps) {
  w.u32(static_cast<std::uint32_t>(ps.size()));
  for (std::uint32_t p : ps) w.u32(p);
}

bool read_positions(wire::Reader& r, std::vector<std::uint32_t>& ps) {
  std::uint32_t n = 0;
  if (!r.u32(n) || static_cast<std::size_t>(n) > r.remaining()) return false;
  ps.resize(n);
  for (auto& p : ps) {
    if (!r.u32(p)) return false;
  }
  return true;
}

}  // namespace

void write_chunk_entry(wire::Writer& w, const ChunkEntry& e) {
  w.u8(kChunkEntryTag);
  w.u8(static_cast<std::uint8_t>(e.privacy_level));
  w.u8(static_cast<std::uint8_t>(e.layout.level));
  w.u64(e.layout.data_shards);
  w.u64(e.layout.parity_shards);
  write_shards(w, e.stripe);
  write_shards(w, e.snapshot);
  write_positions(w, e.misleading);
  w.u64(e.padded_size);
  write_digests(w, e.shard_digests);
  w.u8(e.has_snapshot ? 1 : 0);
  w.u64(e.snapshot_padded_size);
  write_positions(w, e.snapshot_misleading);
  write_digests(w, e.snapshot_digests);
  w.u8(e.deleted ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(e.protection));
  w.u64(e.protect_nonce);
  w.u64(e.protect_bytes);
  w.u8(static_cast<std::uint8_t>(e.snapshot_protection));
  w.u64(e.snapshot_protect_nonce);
  w.u64(e.snapshot_protect_bytes);
}

bool read_chunk_entry(wire::Reader& r, ChunkEntry& e) {
  std::uint8_t tag = 0;
  std::uint8_t pl = 0;
  if (!r.u8(tag) || tag != kChunkEntryTag || !r.u8(pl)) return false;
  std::uint8_t level = 0;
  std::uint64_t data_shards = 0;
  std::uint64_t parity_shards = 0;
  if (!r.u8(level) || !r.u64(data_shards) || !r.u64(parity_shards)) {
    return false;
  }
  if (pl >= kNumPrivacyLevels ||
      level > static_cast<std::uint8_t>(raid::RaidLevel::kRaid6)) {
    return false;
  }
  e.privacy_level = static_cast<PrivacyLevel>(pl);
  e.layout.level = static_cast<raid::RaidLevel>(level);
  e.layout.data_shards = static_cast<std::size_t>(data_shards);
  e.layout.parity_shards = static_cast<std::size_t>(parity_shards);
  std::uint8_t has_snapshot = 0;
  std::uint8_t deleted = 0;
  std::uint64_t padded = 0;
  std::uint64_t snap_padded = 0;
  if (!read_shards(r, e.stripe) || !read_shards(r, e.snapshot) ||
      !read_positions(r, e.misleading) || !r.u64(padded) ||
      !read_digests(r, e.shard_digests) || !r.u8(has_snapshot) ||
      !r.u64(snap_padded) || !read_positions(r, e.snapshot_misleading) ||
      !read_digests(r, e.snapshot_digests) || !r.u8(deleted)) {
    return false;
  }
  e.padded_size = static_cast<std::size_t>(padded);
  e.snapshot_padded_size = static_cast<std::size_t>(snap_padded);
  e.has_snapshot = has_snapshot != 0;
  e.deleted = deleted != 0;
  std::uint8_t mode = 0;
  std::uint8_t snap_mode = 0;
  std::uint64_t protect_bytes = 0;
  std::uint64_t snap_protect_bytes = 0;
  if (!r.u8(mode) || !r.u64(e.protect_nonce) || !r.u64(protect_bytes) ||
      !r.u8(snap_mode) || !r.u64(e.snapshot_protect_nonce) ||
      !r.u64(snap_protect_bytes)) {
    return false;
  }
  if (mode >= kNumProtectionModes || snap_mode >= kNumProtectionModes) {
    return false;
  }
  // A protected prefix past its payload would walk the read path off the
  // decoded buffer -- a flipped bit, not a legal row.
  if (protect_bytes > padded || snap_protect_bytes > snap_padded) {
    return false;
  }
  e.protection = static_cast<ProtectionMode>(mode);
  e.protect_bytes = static_cast<std::size_t>(protect_bytes);
  e.snapshot_protection = static_cast<ProtectionMode>(snap_mode);
  e.snapshot_protect_bytes = static_cast<std::size_t>(snap_protect_bytes);
  return true;
}

Bytes serialize_metadata(const MetadataStore& store) {
  return serialize_metadata(store, 0, 1);
}

Bytes serialize_metadata(const MetadataStore& store,
                         std::uint32_t shard_index,
                         std::uint32_t shard_count) {
  Bytes out;
  wire::Writer w(out);
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u32(shard_index);
  w.u32(shard_count);

  const auto providers = store.provider_table();
  w.u32(static_cast<std::uint32_t>(providers.size()));
  for (const auto& p : providers) {
    w.str(p.name);
    w.u8(static_cast<std::uint8_t>(p.privacy_level));
    w.u8(static_cast<std::uint8_t>(p.cost_level));
    w.u8(static_cast<std::uint8_t>(p.lifecycle));
    w.u32(static_cast<std::uint32_t>(p.virtual_ids.size()));
    for (VirtualId id : p.virtual_ids) w.u64(id);
  }

  const auto clients = store.client_table();
  w.u32(static_cast<std::uint32_t>(clients.size()));
  for (const auto& c : clients) {
    w.str(c.name);
    w.u32(static_cast<std::uint32_t>(c.passwords.size()));
    for (const auto& [pw, pl] : c.passwords) {
      w.str(pw);
      w.u8(static_cast<std::uint8_t>(pl));
    }
    w.u32(static_cast<std::uint32_t>(c.chunks.size()));
    for (const auto& ref : c.chunks) {
      w.str(ref.filename);
      w.u64(ref.serial);
      w.u8(static_cast<std::uint8_t>(ref.privacy_level));
      w.u64(ref.chunk_index);
    }
  }

  const auto chunks = store.chunk_table();
  w.u32(static_cast<std::uint32_t>(chunks.size()));
  for (const auto& e : chunks) write_chunk_entry(w, e);
  return out;
}

Result<std::shared_ptr<MetadataStore>> deserialize_metadata(
    BytesView image, ShardStamp* stamp) {
  wire::Reader r(image);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!r.u32(magic) || magic != kMagic) {
    return Status::InvalidArgument("metadata image: bad magic");
  }
  if (!r.u32(version) || version != kFormatVersion) {
    return Status::InvalidArgument("metadata image: unsupported version");
  }
  ShardStamp shard;
  if (!r.u32(shard.shard_index) || !r.u32(shard.shard_count)) {
    return Status::InvalidArgument("metadata image: truncated shard stamp");
  }
  if (shard.shard_index >= shard.shard_count) {
    return Status::InvalidArgument("metadata image: implausible shard stamp");
  }
  if (stamp != nullptr) *stamp = shard;
  const Status truncated =
      Status::InvalidArgument("metadata image: truncated");
  // Every serialized element consumes at least one byte, so any count
  // exceeding the remaining input is corrupt -- reject it before resize()
  // turns a flipped bit into a multi-gigabyte allocation.
  auto plausible = [&r](std::uint32_t count) {
    return static_cast<std::size_t>(count) <= r.remaining();
  };

  std::vector<ProviderEntry> providers;
  std::uint32_t n = 0;
  if (!r.u32(n) || !plausible(n)) return truncated;
  providers.resize(n);
  for (auto& p : providers) {
    std::uint8_t pl = 0;
    std::uint8_t cl = 0;
    std::uint8_t lc = 0;
    if (!r.str(p.name) || !r.u8(pl) || !r.u8(cl) || !r.u8(lc)) {
      return truncated;
    }
    if (pl >= kNumPrivacyLevels || cl >= kNumCostLevels) {
      return Status::InvalidArgument("metadata image: bad level value");
    }
    if (lc >= kNumProviderLifecycles) {
      return Status::InvalidArgument("metadata image: bad lifecycle");
    }
    p.privacy_level = static_cast<PrivacyLevel>(pl);
    p.cost_level = static_cast<CostLevel>(cl);
    p.lifecycle = static_cast<ProviderLifecycle>(lc);
    std::uint32_t ids = 0;
    if (!r.u32(ids) || !plausible(ids)) return truncated;
    p.virtual_ids.resize(ids);
    for (auto& id : p.virtual_ids) {
      if (!r.u64(id)) return truncated;
    }
  }

  std::vector<ClientEntry> clients;
  if (!r.u32(n) || !plausible(n)) return truncated;
  clients.resize(n);
  for (auto& c : clients) {
    std::uint32_t pws = 0;
    if (!r.str(c.name) || !r.u32(pws) || !plausible(pws)) return truncated;
    c.passwords.resize(pws);
    for (auto& [pw, pl] : c.passwords) {
      std::uint8_t raw = 0;
      if (!r.str(pw) || !r.u8(raw)) return truncated;
      if (raw >= kNumPrivacyLevels) {
        return Status::InvalidArgument("metadata image: bad password PL");
      }
      pl = static_cast<PrivacyLevel>(raw);
    }
    std::uint32_t refs = 0;
    if (!r.u32(refs) || !plausible(refs)) return truncated;
    c.chunks.resize(refs);
    for (auto& ref : c.chunks) {
      std::uint8_t raw = 0;
      std::uint64_t idx = 0;
      if (!r.str(ref.filename) || !r.u64(ref.serial) || !r.u8(raw) ||
          !r.u64(idx)) {
        return truncated;
      }
      if (raw >= kNumPrivacyLevels) {
        return Status::InvalidArgument("metadata image: bad chunk-ref PL");
      }
      ref.privacy_level = static_cast<PrivacyLevel>(raw);
      ref.chunk_index = static_cast<std::size_t>(idx);
    }
  }

  std::vector<ChunkEntry> chunks;
  if (!r.u32(n) || !plausible(n)) return truncated;
  chunks.resize(n);
  for (auto& e : chunks) {
    if (!read_chunk_entry(r, e)) return truncated;
  }

  auto store = std::make_shared<MetadataStore>();
  store->restore(std::move(providers), std::move(clients), std::move(chunks));
  return store;
}

}  // namespace cshield::core
