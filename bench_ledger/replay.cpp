// Traced single-thread sample. Each op is issued once through the
// distributor inside a root span (wall time + process CPU time, plus the
// provider and journal counters it moved), then replayed call by call
// through the public functions of every layer it crosses -- chunker,
// placement, misleading codec, protection, RAID, SHA-256, provider RPCs,
// metadata tables, journal -- each call in its own span. Providers, tables
// and journal in the replay are scratch instances with the same settings,
// so the replay never touches the system under test.
//
// Layer spans are leaves, so their self time is their duration. A layer's
// number is thread CPU time; what the op's process CPU time has beyond the
// layers' sum is cdd.unattributed_cpu_ms, so the books balance by
// construction.
#include <ctime>
#include <fstream>
#include <stdexcept>

#include "core/chunker.hpp"
#include "core/journal.hpp"
#include "core/misleading.hpp"
#include "core/placement.hpp"
#include "crypto/aes.hpp"
#include "crypto/fragmentation.hpp"
#include "crypto/sha256.hpp"
#include "ledger.hpp"
#include "raid/raid.hpp"
#include "storage/provider.hpp"
#include "util/stats.hpp"

namespace ledger {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

namespace core = cshield::core;
namespace crypto = cshield::crypto;
namespace raid = cshield::raid;
namespace storage = cshield::storage;
using cshield::Rng;

struct Span {
  std::uint64_t op = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  OpKind kind = OpKind::kGet;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;
};

/// Spans kept in memory until the sample ends.
class Recorder {
 public:
  /// RAII span: opens on construction, records on destruction. Root spans
  /// take process CPU (the distributor's pools work for the op), replay
  /// spans the calling thread's.
  class Scope {
   public:
    Scope(Recorder& r, std::uint64_t op, std::uint64_t parent,
          const char* name, OpKind kind, bool process_cpu = false)
        : r_(r), clock_(process_cpu ? CLOCK_PROCESS_CPUTIME_ID
                                    : CLOCK_THREAD_CPUTIME_ID) {
      span_.op = op == 0 ? r.next_ : op;
      span_.id = r.next_++;
      span_.parent = parent;
      span_.name = name;
      span_.kind = kind;
      span_.start_ns = clock_ns(CLOCK_MONOTONIC);
      cpu0_ = clock_ns(clock_);
    }
    ~Scope() {
      span_.cpu_ns = clock_ns(clock_) - cpu0_;
      span_.end_ns = clock_ns(CLOCK_MONOTONIC);
      r_.spans.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return span_.id; }
    [[nodiscard]] std::uint64_t op() const { return span_.op; }

   private:
    Recorder& r_;
    clockid_t clock_;
    Span span_;
    std::int64_t cpu0_ = 0;
  };

  std::vector<Span> spans;

 private:
  std::uint64_t next_ = 1;
};

/// The distributor's protection transform, rebuilt from the public crypto
/// calls (core/distributor.cpp apply_protection / remove_protection).
std::size_t aes_prefix(std::size_t padded, PrivacyLevel pl) {
  static constexpr std::size_t kQuarters[] = {0, 1, 2, 4};
  return (padded * kQuarters[cshield::level_index(pl)] + 3) / 4;
}

std::size_t protect(Bytes& padded, ProtectionMode mode, PrivacyLevel pl,
                    std::uint64_t nonce, const crypto::AesKey& key) {
  switch (mode) {
    case ProtectionMode::kMisleadingBytes:
      return 0;
    case ProtectionMode::kPartialAes: {
      const std::size_t prefix = aes_prefix(padded.size(), pl);
      if (prefix == 0) return 0;
      const Bytes enc =
          crypto::aes128_ctr(key, nonce, BytesView(padded.data(), prefix));
      std::copy(enc.begin(), enc.end(), padded.begin());
      return prefix;
    }
    case ProtectionMode::kFragmentation:
      crypto::fragmentation::entangle(padded, kDataShards, nonce);
      return 0;
  }
  return 0;
}

void unprotect(Bytes& padded, ProtectionMode mode, std::uint64_t nonce,
               std::size_t prefix, const crypto::AesKey& key) {
  switch (mode) {
    case ProtectionMode::kMisleadingBytes:
      return;
    case ProtectionMode::kPartialAes: {
      if (prefix == 0) return;
      const Bytes dec =
          crypto::aes128_ctr(key, nonce, BytesView(padded.data(), prefix));
      std::copy(dec.begin(), dec.end(), padded.begin());
      return;
    }
    case ProtectionMode::kFragmentation:
      crypto::fragmentation::detangle(padded, kDataShards, nonce);
      return;
  }
}

/// Counters the real op moves: provider RPCs and bytes in, journal
/// records and bytes.
struct Counters {
  std::uint64_t rpcs = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t appends = 0;
  std::uint64_t journal_bytes = 0;

  static Counters read(System& sys) {
    Counters c;
    for (cshield::ProviderIndex p = 0; p < sys.registry.size(); ++p) {
      const storage::ProviderCounters& pc = sys.registry.at(p).counters();
      c.rpcs += pc.puts.load() + pc.gets.load() + pc.removes.load();
      c.bytes_in += pc.bytes_in.load();
    }
    for (std::size_t s = 0; s < sys.plane->shard_count(); ++s) {
      c.appends += sys.plane->journal(s)->total_appended();
      c.journal_bytes += sys.plane->journal(s)->bytes();
    }
    return c;
  }
};

/// What one sampled op measured.
struct OpSample {
  OpKind kind = OpKind::kGet;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double layer_cpu_us = 0.0;  ///< sum of the replay's leaf spans
  std::map<std::string, double> call_cpu_us;  ///< by span name
  double chunks = 0.0;
  double rpcs = 0.0;
  double bytes_in = 0.0;
  double logical = 0.0;
  double appends = 0.0;
  double journal_bytes = 0.0;
  double hashed_mb = 0.0;
  double positions = 0.0;
};

/// A chunk encoded and stored on the scratch provider (replay input).
struct StoredChunk {
  core::ChunkEntry row;
  std::vector<cshield::VirtualId> ids;
  std::vector<cshield::VirtualId> snapshot_ids;
};

class Replayer {
 public:
  Replayer(System& sys, const Payloads& pool, const fs::path& scratch)
      : sys_(sys),
        w_(*sys.spec),
        pool_(pool),
        key_(sys.cdd->config().protection_key),
        sizes_(sys.cdd->config().chunk_sizes),
        layout_(raid::StripeLayout::make(raid::RaidLevel::kRaid5, kDataShards)),
        provider_(storage::ProviderDescriptor{"scratch", PrivacyLevel::kHigh,
                                              cshield::CostLevel::kCheapest,
                                              0.02},
                  fleet_latency(w_), stream_seed(sys.seed, 0x5C4A7C4)),
        policy_(stream_seed(sys.seed, 0x91ACE)),
        rng_(stream_seed(sys.seed, 0xC4AFF)) {
    for (cshield::ProviderIndex p = 0; p < sys.registry.size(); ++p) {
      const storage::ProviderDescriptor& d = sys.registry.at(p).descriptor();
      md_.register_provider(d.name, d.privacy_level, d.cost_level);
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      (void)md_.register_client(client_name(c));
    }
    fs::create_directories(scratch);
    auto j = core::Journal::open(scratch / "replay.wal");
    if (!j.ok()) throw std::runtime_error("replay journal: " +
                                          j.status().to_string());
    journal_ = std::move(j.value());
    journal_->set_group_commit(
        core::GroupCommitConfig{64, std::chrono::microseconds(0)});
  }

  /// Replays `op` against the model state before it; spans go to `rec`
  /// under `root`.
  void replay(const Model& model, const Op& op, Recorder& rec,
              std::uint64_t op_id, std::uint64_t root, OpSample& out) {
    const std::string& client = client_name(op.client);
    const std::string name = "s" + std::to_string(++files_);
    const ClientFiles& cf = model.clients[op.client];
    std::vector<StoredChunk> stored;
    if (op.kind != OpKind::kPut) {
      stored = prepare(model, client, name, cf.files.at(op.file));
    }
    Recorder::Scope replay_span(rec, op_id, root, "replay", op.kind);
    const std::uint64_t parent = replay_span.id();
    const ScopeFn scope = [&](const char* call) {
      return std::make_unique<Recorder::Scope>(rec, op_id, parent, call,
                                               op.kind);
    };
    switch (op.kind) {
      case OpKind::kPut:
        replay_put(client, name, pool_.slice(op.offset, op.size), scope, out);
        break;
      case OpKind::kGet:
        replay_get(model, client, name, cf.files.at(op.file), stored, scope,
                   out);
        break;
      case OpKind::kUpdate:
        replay_update(client, name, op, stored.at(op.serial), scope, out);
        break;
      case OpKind::kRemove:
        replay_remove(client, name, stored, scope);
        break;
    }
  }

  std::vector<std::string> errors;

 private:
  using ScopeFn =
      std::function<std::unique_ptr<Recorder::Scope>(const char* call)>;

  cshield::VirtualId fresh_id() { return ++ids_; }

  raid::EncodedStripe encode_chunk(BytesView plain, core::ChunkEntry& row,
                                   const ScopeFn* scope, OpSample* out) {
    core::MisleadingCodec::Encoded enc;
    {
      auto s = scope ? (*scope)("misleading.inject") : nullptr;
      enc = core::MisleadingCodec::inject(plain, kMisleadingFraction, rng_);
    }
    const std::uint64_t nonce = rng_.next();
    std::size_t prefix = 0;
    {
      auto s = scope ? (*scope)("protection.apply") : nullptr;
      prefix = protect(enc.data, w_.protection, w_.pl, nonce, key_);
    }
    raid::EncodedStripe stripe;
    {
      auto s = scope ? (*scope)("raid.encode") : nullptr;
      stripe = raid::encode(layout_, enc.data);
    }
    row.privacy_level = w_.pl;
    row.layout = layout_;
    row.padded_size = enc.data.size();
    row.protection = w_.protection;
    row.protect_nonce = nonce;
    row.protect_bytes = prefix;
    if (out != nullptr) out->positions += enc.positions.size();
    row.misleading = std::move(enc.positions);
    return stripe;
  }

  /// Digests and uploads a stripe's shards under fresh ids.
  void store_stripe(const raid::EncodedStripe& stripe,
                    std::vector<crypto::Digest>& digests,
                    std::vector<core::ShardLocation>& locs,
                    std::vector<cshield::VirtualId>& ids,
                    const ScopeFn* scope, OpSample* out) {
    digests.resize(stripe.shard_count);
    for (std::size_t s = 0; s < stripe.shard_count; ++s) {
      auto sp = scope ? (*scope)("digest.sha256") : nullptr;
      digests[s] = crypto::sha256(stripe.shard(s));
      if (out != nullptr) out->hashed_mb += stripe.shard_size / 1e6;
    }
    for (std::size_t s = 0; s < stripe.shard_count; ++s) {
      const cshield::VirtualId id = fresh_id();
      auto sp = scope ? (*scope)("storage.put") : nullptr;
      if (!provider_.put(id, stripe.shard(s)).ok()) {
        errors.push_back("replay: scratch put failed");
      }
      locs.push_back(core::ShardLocation{s, id});
      ids.push_back(id);
    }
  }

  /// Fetches, verifies and decodes a stored stripe.
  Bytes read_stripe(const std::vector<cshield::VirtualId>& ids,
                    const std::vector<crypto::Digest>& digests,
                    std::size_t padded_size, bool data_only,
                    const ScopeFn& scope, OpSample& out) {
    std::vector<std::optional<Bytes>> shards(ids.size());
    const std::size_t fetch = data_only ? kDataShards : ids.size();
    for (std::size_t s = 0; s < fetch; ++s) {
      cshield::Result<Bytes> got = [&] {
        auto sp = scope("storage.get");
        return provider_.get(ids[s]);
      }();
      if (!got.ok()) {
        errors.push_back("replay: scratch get failed");
        continue;
      }
      auto sp = scope("digest.sha256");
      out.hashed_mb += got.value().size() / 1e6;
      if (crypto::sha256(got.value()) == digests[s]) {
        shards[s] = std::move(got).value();
      }
    }
    auto sp = scope("raid.decode");
    cshield::Result<Bytes> padded = raid::decode(layout_, shards, padded_size);
    if (!padded.ok()) {
      errors.push_back("replay: decode failed");
      return {};
    }
    return std::move(padded).value();
  }

  void remove_ids(const std::vector<cshield::VirtualId>& ids,
                  const ScopeFn& scope) {
    for (cshield::VirtualId id : ids) {
      auto sp = scope("storage.remove");
      (void)provider_.remove(id);
    }
  }

  /// Untimed: stores the file's current chunks (and any snapshots) on the
  /// scratch provider and their rows in the scratch tables.
  std::vector<StoredChunk> prepare(const Model& model,
                                   const std::string& client,
                                   const std::string& name,
                                   const FileState& f) {
    provider_.set_realtime_scale(0.0);
    std::vector<StoredChunk> out(f.chunk_off.size());
    (void)md_.claim_file(client, name);
    for (std::size_t s = 0; s < out.size(); ++s) {
      StoredChunk& sc = out[s];
      const BytesView plain = pool_.slice(f.chunk_off[s], model.chunk_len(f, s));
      raid::EncodedStripe stripe = encode_chunk(plain, sc.row, nullptr, nullptr);
      store_stripe(stripe, sc.row.shard_digests, sc.row.stripe, sc.ids,
                   nullptr, nullptr);
      if (f.snapshot[s] != 0) {
        core::ChunkEntry snap;
        raid::EncodedStripe old = encode_chunk(plain, snap, nullptr, nullptr);
        store_stripe(old, sc.row.snapshot_digests, sc.row.snapshot,
                     sc.snapshot_ids, nullptr, nullptr);
        sc.row.has_snapshot = true;
        sc.row.snapshot_padded_size = snap.padded_size;
        sc.row.snapshot_misleading = snap.misleading;
      }
      (void)md_.add_chunk(client, name, s, sc.row);
    }
    provider_.set_realtime_scale(w_.realtime ? 1.0 : 0.0);
    return out;
  }

  void replay_put(const std::string& client, const std::string& name,
                  BytesView data, const ScopeFn& scope, OpSample& out) {
    std::vector<core::RawChunk> chunks;
    {
      auto sp = scope("chunker.split");
      chunks = core::split_file(data, w_.pl, sizes_);
    }
    std::vector<core::ChunkEntry> rows(chunks.size());
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      {
        auto sp = scope("placement.choose");
        (void)policy_.choose(sys_.registry, w_.pl, layout_.total_shards());
      }
      raid::EncodedStripe stripe =
          encode_chunk(chunks[i].data, rows[i], &scope, &out);
      std::vector<cshield::VirtualId> ids;
      store_stripe(stripe, rows[i].shard_digests, rows[i].stripe, ids, &scope,
                   &out);
    }
    core::JournalRecord begin;
    begin.op = core::JournalOp::kBeginPut;
    begin.client = client;
    begin.filename = name;
    core::JournalRecord commit = begin;
    commit.op = core::JournalOp::kCommitPut;
    {
      auto sp = scope("metadata.commit");
      (void)md_.claim_file(client, name);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        cshield::Result<std::size_t> idx =
            md_.add_chunk(client, name, chunks[i].serial, rows[i]);
        commit.chunks.push_back(core::JournalChunk{
            chunks[i].serial, idx.value_or(0), std::move(rows[i])});
      }
    }
    append(begin, scope);
    append(commit, scope);
  }

  void replay_get(const Model& model, const std::string& client,
                  const std::string& name, const FileState& f,
                  const std::vector<StoredChunk>& stored, const ScopeFn& scope,
                  OpSample& out) {
    std::vector<core::ChunkEntry> rows;
    {
      auto sp = scope("metadata.lookup");
      for (const core::ChunkRef& ref : md_.file_chunks(client, name)) {
        rows.push_back(md_.chunk_entry(ref.chunk_index).value());
      }
    }
    // get_file reads multi-chunk files data-shards-first (lazy parity) and
    // single-chunk files eagerly.
    const bool lazy = stored.size() > 1;
    Bytes file;
    for (std::size_t s = 0; s < stored.size(); ++s) {
      const core::ChunkEntry& row = stored[s].row;
      Bytes padded = read_stripe(stored[s].ids, row.shard_digests,
                                 row.padded_size, lazy, scope, out);
      {
        auto sp = scope("protection.remove");
        unprotect(padded, row.protection, row.protect_nonce, row.protect_bytes,
                  key_);
      }
      Bytes plain;
      {
        auto sp = scope("misleading.strip");
        plain = core::MisleadingCodec::strip(padded, row.misleading);
      }
      cshield::append(file, plain);
    }
    if (!matches(model, f, pool_, file)) {
      errors.push_back("replay: get reassembled different bytes");
    }
  }

  void replay_update(const std::string& client, const std::string& name,
                     const Op& op, const StoredChunk& old,
                     const ScopeFn& scope, OpSample& out) {
    std::size_t index = 0;
    {
      auto sp = scope("metadata.lookup");
      std::optional<core::ChunkRef> ref = md_.find_chunk(client, name, op.serial);
      if (ref.has_value()) {
        index = ref->chunk_index;
        (void)md_.chunk_entry(index);
      }
    }
    // Pre-state read (eager), then the pre-state as the new snapshot.
    const Bytes pre = read_stripe(old.ids, old.row.shard_digests,
                                  old.row.padded_size, false, scope, out);
    core::ChunkEntry updated = old.row;
    updated.snapshot.clear();
    std::vector<cshield::VirtualId> ids;
    {
      auto sp = scope("placement.choose");
      (void)policy_.choose(sys_.registry, w_.pl, layout_.total_shards());
    }
    raid::EncodedStripe snap;
    {
      auto sp = scope("raid.encode");
      snap = raid::encode(layout_, pre);
    }
    store_stripe(snap, updated.snapshot_digests, updated.snapshot, ids, &scope,
                 &out);
    // The post-state under a fresh chaff draw and nonce.
    {
      auto sp = scope("placement.choose");
      (void)policy_.choose(sys_.registry, w_.pl, layout_.total_shards());
    }
    updated.stripe.clear();
    raid::EncodedStripe post = encode_chunk(pool_.slice(op.offset, op.size),
                                            updated, &scope, &out);
    store_stripe(post, updated.shard_digests, updated.stripe, ids, &scope,
                 &out);
    updated.has_snapshot = true;
    core::JournalRecord rec;
    rec.op = core::JournalOp::kUpdateChunk;
    rec.client = client;
    rec.filename = name;
    {
      auto sp = scope("metadata.commit");
      (void)md_.update_chunk(index, updated);
    }
    rec.chunks.push_back(core::JournalChunk{op.serial, index, updated});
    append(rec, scope);
    remove_ids(old.snapshot_ids, scope);
    remove_ids(old.ids, scope);
  }

  void replay_remove(const std::string& client, const std::string& name,
                     const std::vector<StoredChunk>& stored,
                     const ScopeFn& scope) {
    std::vector<core::ChunkRef> refs;
    {
      auto sp = scope("metadata.lookup");
      refs = md_.file_chunks(client, name);
      for (const core::ChunkRef& ref : refs) (void)md_.chunk_entry(ref.chunk_index);
    }
    core::JournalRecord rec;
    rec.op = core::JournalOp::kRemoveFile;
    rec.client = client;
    rec.filename = name;
    {
      auto sp = scope("metadata.commit");
      for (const core::ChunkRef& ref : refs) {
        core::ChunkEntry tomb;
        tomb.deleted = true;
        (void)md_.update_chunk(ref.chunk_index, std::move(tomb));
        (void)md_.unlink_chunk(client, name, ref.serial);
        rec.chunks.push_back(core::JournalChunk{ref.serial, ref.chunk_index, {}});
      }
    }
    append(rec, scope);
    for (const StoredChunk& sc : stored) {
      remove_ids(sc.ids, scope);
      remove_ids(sc.snapshot_ids, scope);
    }
  }

  void append(const core::JournalRecord& rec, const ScopeFn& scope) {
    auto sp = scope("journal.append");
    if (!journal_->append(rec).ok()) {
      errors.push_back("replay: journal append failed");
    }
  }

  System& sys_;
  const WorkloadSpec& w_;
  const Payloads& pool_;
  crypto::AesKey key_;
  core::ChunkSizePolicy sizes_;
  raid::StripeLayout layout_;
  storage::SimCloudProvider provider_;
  core::MetadataStore md_;
  std::unique_ptr<core::Journal> journal_;
  core::PlacementPolicy policy_;
  Rng rng_;
  cshield::VirtualId ids_ = 0;
  std::uint64_t files_ = 0;
};

double median_of(std::vector<double> v) {
  return v.empty() ? 0.0 : cshield::percentile(v, 0.5);
}

const char* kind_name(OpKind k) { return kOpNames[static_cast<std::size_t>(k)]; }

}  // namespace

void trace_sample(System& sys, Model& model, const Payloads& pool,
                  const std::vector<Op>& ops, const fs::path& scratch,
                  const fs::path& spans_path, MetricMap& metrics,
                  std::string& examples_json) {
  Recorder rec;
  rec.spans.reserve(ops.size() * 64);
  Replayer replayer(sys, pool, scratch);
  std::vector<OpSample> samples;
  std::vector<std::string> errors;
  Bytes got;
  for (const Op& op : ops) {
    OpSample s;
    s.kind = op.kind;
    const std::string file = file_name(op.file);
    const Counters before = Counters::read(sys);
    cshield::core::OpReport report;
    std::uint64_t op_id = 0;
    std::uint64_t root_id = 0;
    cshield::Status st;
    {
      Recorder::Scope root(rec, 0, 0,
                           op.kind == OpKind::kPut      ? "op.put"
                           : op.kind == OpKind::kGet    ? "op.get"
                           : op.kind == OpKind::kUpdate ? "op.update"
                                                        : "op.remove",
                           op.kind, /*process_cpu=*/true);
      op_id = root.op();
      root_id = root.id();
      st = issue(*sys.cdd, op, file, pool, *sys.spec,
                 op.kind == OpKind::kGet ? &got : nullptr, &report);
    }
    const Counters after = Counters::read(sys);
    if (!st.ok()) {
      errors.push_back(std::string("sampled ") + kind_name(op.kind) + ": " +
                       st.to_string());
      continue;
    }
    if (op.kind == OpKind::kGet &&
        !matches(model, model.clients[op.client].files.at(op.file), pool,
                 got)) {
      errors.push_back("sampled get returned different bytes");
    }
    const Span& root = rec.spans.back();
    s.wall_ms = static_cast<double>(root.end_ns - root.start_ns) / 1e6;
    s.cpu_ms = static_cast<double>(root.cpu_ns) / 1e6;
    s.chunks = static_cast<double>(report.chunks);
    s.rpcs = static_cast<double>(after.rpcs - before.rpcs);
    s.bytes_in = static_cast<double>(after.bytes_in - before.bytes_in);
    s.logical = op.size;
    s.appends = static_cast<double>(after.appends - before.appends);
    s.journal_bytes =
        static_cast<double>(after.journal_bytes - before.journal_bytes);

    const std::size_t first = rec.spans.size();
    replayer.replay(model, op, rec, op_id, root_id, s);
    for (std::size_t i = first; i < rec.spans.size(); ++i) {
      const Span& sp = rec.spans[i];
      if (std::string_view(sp.name) == "replay") continue;
      const double us = static_cast<double>(sp.cpu_ns) / 1e3;
      s.call_cpu_us[sp.name] += us;
      s.layer_cpu_us += us;
    }
    model.apply(op);
    samples.push_back(std::move(s));
  }
  errors.insert(errors.end(), replayer.errors.begin(), replayer.errors.end());
  if (!errors.empty()) throw std::runtime_error("trace sample: " + errors[0]);

  {
    std::ofstream out(spans_path);
    for (const Span& sp : rec.spans) {
      out << "{\"op\":" << sp.op << ",\"id\":" << sp.id
          << ",\"parent\":" << sp.parent << ",\"kind\":\"" << kind_name(sp.kind)
          << "\",\"name\":\"" << sp.name << "\",\"start_ns\":" << sp.start_ns
          << ",\"end_ns\":" << sp.end_ns << ",\"cpu_ns\":" << sp.cpu_ns
          << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write " + spans_path.string());
  }

  // Per-kind medians over the sampled ops.
  auto per_kind = [&](OpKind k, auto&& field) {
    std::vector<double> v;
    for (const OpSample& s : samples) {
      if (s.kind == k) v.push_back(field(s));
    }
    if (v.empty()) {
      throw std::runtime_error(std::string("trace sample has no ") +
                               kind_name(k));
    }
    return median_of(std::move(v));
  };
  auto call = [](const char* name) {
    return [name](const OpSample& s) {
      auto it = s.call_cpu_us.find(name);
      return it == s.call_cpu_us.end() ? 0.0 : it->second;
    };
  };
  auto put_metric = [&](const std::string& name, OpKind k, auto&& field,
                        const char* unit) {
    metrics[name + "." + kind_name(k)] = {per_kind(k, field), unit};
  };
  constexpr OpKind kAll[] = {OpKind::kPut, OpKind::kGet, OpKind::kUpdate,
                             OpKind::kRemove};
  constexpr OpKind kWrites[] = {OpKind::kPut, OpKind::kUpdate,
                                OpKind::kRemove};
  for (OpKind k : kAll) {
    put_metric("cdd.cpu_ms", k, [](const OpSample& s) { return s.cpu_ms; },
               "ms");
    put_metric("cdd.wall_ms", k, [](const OpSample& s) { return s.wall_ms; },
               "ms");
    put_metric("cdd.unattributed_cpu_ms", k,
               [](const OpSample& s) { return s.cpu_ms - s.layer_cpu_us / 1e3; },
               "ms");
    put_metric("storage.rpcs_per_op", k,
               [](const OpSample& s) { return s.rpcs; }, "count");
  }
  for (OpKind k : {OpKind::kPut, OpKind::kGet}) {
    put_metric("cdd.chunks_per_op", k,
               [](const OpSample& s) { return s.chunks; }, "count");
  }
  for (OpKind k : {OpKind::kPut, OpKind::kUpdate}) {
    put_metric("placement.choose_us", k, call("placement.choose"), "us");
    put_metric("misleading.inject_us", k, call("misleading.inject"), "us");
    put_metric("protection.apply_us", k, call("protection.apply"), "us");
    put_metric("raid.encode_us", k, call("raid.encode"), "us");
  }
  for (OpKind k : {OpKind::kGet, OpKind::kUpdate}) {
    put_metric("raid.decode_us", k, call("raid.decode"), "us");
  }
  for (OpKind k : {OpKind::kPut, OpKind::kGet, OpKind::kUpdate}) {
    put_metric("digest.sha256_us", k, call("digest.sha256"), "us");
    put_metric("digest.mb_per_op", k,
               [](const OpSample& s) { return s.hashed_mb; }, "MB");
  }
  for (OpKind k : kWrites) {
    put_metric("journal.appends_per_op", k,
               [](const OpSample& s) { return s.appends; }, "count");
    put_metric("journal.record_bytes_per_op", k,
               [](const OpSample& s) { return s.journal_bytes; }, "bytes");
    put_metric("journal.append_us", k, call("journal.append"), "us");
    put_metric("metadata.commit_us", k, call("metadata.commit"), "us");
  }
  put_metric("chunker.split_us", OpKind::kPut, call("chunker.split"), "us");
  put_metric("misleading.strip_us", OpKind::kGet, call("misleading.strip"),
             "us");
  put_metric("misleading.positions_per_op", OpKind::kPut,
             [](const OpSample& s) { return s.positions; }, "count");
  put_metric("protection.remove_us", OpKind::kGet, call("protection.remove"),
             "us");
  put_metric("storage.bytes_per_user_byte", OpKind::kPut,
             [](const OpSample& s) { return s.bytes_in / s.logical; },
             "ratio");

  std::vector<double> put_rpc_ms;
  std::vector<double> get_rpc_ms;
  double root_cpu = 0.0;
  double layer_cpu = 0.0;
  for (const Span& sp : rec.spans) {
    const std::string_view name(sp.name);
    const double ms = static_cast<double>(sp.end_ns - sp.start_ns) / 1e6;
    if (name == "storage.put") put_rpc_ms.push_back(ms);
    if (name == "storage.get") get_rpc_ms.push_back(ms);
  }
  for (const OpSample& s : samples) {
    root_cpu += s.cpu_ms * 1e3;
    layer_cpu += s.layer_cpu_us;
  }
  metrics["storage.put_rpc_ms_p50"] = {median_of(put_rpc_ms), "ms"};
  metrics["storage.get_rpc_ms_p50"] = {median_of(get_rpc_ms), "ms"};
  metrics["trace.coverage_pct"] = {100.0 * layer_cpu / root_cpu, "%"};

  // Per-layer breakdown of the first sampled put and get.
  std::string json = "[";
  for (OpKind k : {OpKind::kPut, OpKind::kGet}) {
    for (const OpSample& s : samples) {
      if (s.kind != k) continue;
      std::map<std::string, double> layers;
      for (const auto& [name, us] : s.call_cpu_us) {
        layers[name.substr(0, name.find('.'))] += us;
      }
      if (json.size() > 1) json += ",";
      json += "{\"kind\":\"" + std::string(kind_name(k)) +
              "\",\"wall_ms\":" + std::to_string(s.wall_ms) +
              ",\"cpu_ms\":" + std::to_string(s.cpu_ms) + ",\"layer_cpu_us\":{";
      bool first = true;
      for (const auto& [layer, us] : layers) {
        json += (first ? "\"" : ",\"") + layer + "\":" + std::to_string(us);
        first = false;
      }
      json += "},\"unattributed_cpu_us\":" +
              std::to_string(s.cpu_ms * 1e3 - s.layer_cpu_us) + "}";
      break;
    }
  }
  examples_json = json + "]";
}

}  // namespace ledger
