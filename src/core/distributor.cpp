#include "core/distributor.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "core/metadata_io.hpp"
#include "core/migrator.hpp"
#include "core/misleading.hpp"
#include "crypto/fragmentation.hpp"
#include "util/hash.hpp"

namespace cshield::core {
namespace {

/// Chaff ratio recorded implicitly by a chunk entry (positions / original).
double chaff_fraction_of(const ChunkEntry& entry) {
  const std::size_t original = entry.padded_size - entry.misleading.size();
  return original == 0 ? 0.0
                       : static_cast<double>(entry.misleading.size()) /
                             static_cast<double>(original);
}

/// Quarters of each chunk the partial-AES mode encrypts, per privacy level:
/// the paper's "partitioning data and encrypting a portion of it", scaled
/// with sensitivity. PL0 is public -- nothing to hide.
std::size_t aes_quarters_for(PrivacyLevel pl) {
  switch (pl) {
    case PrivacyLevel::kPublic: return 0;
    case PrivacyLevel::kLow: return 1;
    case PrivacyLevel::kModerate: return 2;
    case PrivacyLevel::kHigh: return 4;
  }
  return 4;
}

/// True when a stripe's shard count matches its layout and every shard has
/// a digest. A checkpoint image carries no checksum, so a row that breaks
/// this reaches the readers unchecked; they treat it as corrupt.
bool counts_agree(const raid::StripeLayout& layout,
                  const std::vector<ShardLocation>& stripe,
                  const std::vector<crypto::Digest>& digests) {
  return stripe.size() == layout.total_shards() &&
         digests.size() == stripe.size();
}

}  // namespace

SimDuration parallel_makespan(std::vector<SimDuration> times,
                              std::size_t channels) {
  if (times.empty()) return SimDuration{0};
  CS_REQUIRE(channels > 0, "parallel_makespan: zero channels");
  // Greedy list scheduling in submission order onto the earliest-free
  // channel -- matches how the thread pool drains its FIFO queue.
  std::priority_queue<std::int64_t, std::vector<std::int64_t>,
                      std::greater<>> ends;
  for (std::size_t c = 0; c < channels; ++c) ends.push(0);
  std::int64_t makespan = 0;
  for (const SimDuration& t : times) {
    const std::int64_t start = ends.top();
    ends.pop();
    const std::int64_t end = start + t.count();
    makespan = std::max(makespan, end);
    ends.push(end);
  }
  return SimDuration{makespan};
}

namespace {

/// Accumulates one client-visible operation's footprint and, at finish,
/// emits BOTH the op's root trace span and its OpReport from the same
/// numbers -- deriving the report from the root span's accumulator is what
/// keeps the two from ever disagreeing. Construct it after authentication
/// (auth failures are counted separately, not traced as pipeline ops) and
/// route every subsequent return through finish().
class OpScope {
 public:
  /// Arms the op on `cdd`'s telemetry and, when configured, registers it
  /// in the stall watchdog's in-flight table for its lifetime, carrying the
  /// request-layer deadline as the modeled bound the stall detector
  /// scales. The op's makespan is modeled over cdd's worker channels.
  OpScope(const CloudDataDistributor& cdd, const char* name,
          std::string_view client = {}, std::string_view file = {})
      : tel_(cdd.telemetry()->enabled() ? cdd.telemetry().get() : nullptr),
        name_(name),
        channels_(cdd.config().worker_threads) {
    if (tel_ == nullptr) return;
    armed_ = obs::StallWatchdog::Armed(cdd.config().watchdog.get(), name_,
                                       cdd.config().retry.deadline.count());
    obs::Tracer& tr = tel_->tracer();
    rec_.op_id = tr.next_id();
    rec_.span_id = tr.next_id();
    rec_.name = name_;
    rec_.client = client;
    rec_.file = file;
    rec_.start_ns = tr.now_ns();
    tel_->metrics().gauge("cdd.inflight_ops").add(1);
  }

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  ~OpScope() {
    // Belt-and-braces: a return path that skipped finish() still closes the
    // gauge and records the span, marked as an internal error.
    if (!finished_) (void)finish(Status::Internal(name_ + " left open"));
  }

  [[nodiscard]] bool armed() const { return tel_ != nullptr; }
  /// The sink child spans record into; null when the op is not armed.
  [[nodiscard]] obs::Telemetry* tel() const { return tel_; }

  /// Linkage for child spans (chunk stages, shard RPCs).
  [[nodiscard]] obs::SpanCtx ctx() const {
    return armed() ? obs::SpanCtx{rec_.op_id, rec_.span_id} : obs::SpanCtx{};
  }

  // Accumulators. Written by the op body -- either on the caller thread or
  // from pool tasks that are joined before finish() reads them.
  std::size_t chunks = 0;
  std::size_t shards = 0;
  std::size_t bytes_logical = 0;
  std::size_t bytes_stored = 0;
  std::size_t parity_reads = 0;
  std::size_t retries = 0;
  std::size_t replaced_shards = 0;
  bool rolled_back = false;
  std::uint64_t chunk_serial = obs::kNoChunk;  ///< for chunk-granularity ops
  std::vector<SimDuration> times;  ///< every provider request's service time

  /// Fills `report` (always -- error paths now report their footprint too,
  /// which is how rolled_back becomes observable), records the root span
  /// and per-op metrics, and passes `status` through.
  Status finish(Status status, OpReport* report = nullptr) {
    finished_ = true;
    armed_.release();  // the op is no longer in flight, whatever its status
    SimDuration serial{0};
    for (const SimDuration& t : times) serial += t;
    const SimDuration par = parallel_makespan(times, channels_);
    const double wall = wall_.elapsed_seconds();
    if (report != nullptr) {
      report->chunks = chunks;
      report->shards = shards;
      report->bytes_logical = bytes_logical;
      report->bytes_stored = bytes_stored;
      report->parity_reads = parity_reads;
      report->retries = retries;
      report->replaced_shards = replaced_shards;
      report->rolled_back = rolled_back;
      report->sim_time_parallel = par;
      report->sim_time_serial = serial;
      report->wall_seconds = wall;
    }
    if (tel_ != nullptr) {
      obs::MetricsRegistry& m = tel_->metrics();
      const std::string prefix = "cdd." + name_;
      m.counter(prefix + (status.ok() ? "_total" : "_errors")).inc();
      m.histogram(prefix + "_wall_ns").observe(wall * 1e9);
      m.histogram(prefix + "_sim_ns").observe(static_cast<double>(par.count()));
      if (rolled_back) m.counter("cdd.rollbacks").inc();
      m.gauge("cdd.inflight_ops").add(-1);
      rec_.wall_ns = static_cast<std::int64_t>(wall * 1e9);
      rec_.sim_ns = serial.count();  // children sum to this by construction
      rec_.bytes = bytes_logical;
      rec_.chunk = chunk_serial;
      rec_.outcome = status.code();
      tel_->tracer().record(std::move(rec_));
      tel_ = nullptr;
    }
    return status;
  }

 private:
  obs::Telemetry* tel_;
  std::string name_;
  std::size_t channels_;
  obs::SpanRecord rec_;
  obs::StallWatchdog::Armed armed_;
  Stopwatch wall_;
  bool finished_ = false;
};

/// Child span of one chunk's stripe work inside an op (chunk_put,
/// chunk_get). close() stamps it with the chunk's summed provider time,
/// payload bytes and outcome.
class ChunkSpan {
 public:
  ChunkSpan(const OpScope& op, const char* name, std::uint64_t serial)
      : span_(op.tel(), proto(op, name, serial)) {}

  [[nodiscard]] obs::SpanCtx ctx() const { return span_.ctx(); }

  void close(const std::vector<SimDuration>& times, std::size_t bytes,
             const Status& status) {
    if (!span_.armed()) return;
    SimDuration sim{0};
    for (const SimDuration& t : times) sim += t;
    span_.rec().sim_ns = sim.count();
    span_.rec().bytes = bytes;
    span_.rec().outcome = status.code();
  }

 private:
  static obs::SpanRecord proto(const OpScope& op, const char* name,
                               std::uint64_t serial) {
    obs::SpanRecord rec;
    rec.op_id = op.ctx().op_id;
    rec.parent_id = op.ctx().parent;
    rec.name = name;
    rec.chunk = serial;
    return rec;
  }

  obs::ScopedSpan span_;
};

/// Child span of one shard request inside a chunk span (shard_put,
/// shard_get), built only when that chunk span is armed. close() stamps
/// the request's provider time, attempts, bytes and outcome.
class ShardSpan {
 public:
  ShardSpan(obs::Telemetry* tel, const obs::SpanCtx& chunk, const char* name,
            ProviderIndex provider, bool data_shard) {
    if (!chunk.armed()) return;
    obs::SpanRecord rec;
    rec.op_id = chunk.op_id;
    rec.parent_id = chunk.parent;
    rec.name = name;
    rec.provider = provider;
    rec.shard_kind =
        data_shard ? obs::ShardKind::kData : obs::ShardKind::kParity;
    span_.emplace(tel, std::move(rec));
  }

  void close(SimDuration time, std::uint32_t attempts, std::size_t bytes,
             ErrorCode outcome) {
    if (!span_.has_value() || !span_->armed()) return;
    obs::SpanRecord& rec = span_->rec();
    rec.sim_ns = time.count();
    rec.attempts = std::max<std::uint32_t>(attempts, 1);
    rec.bytes = bytes;
    rec.outcome = outcome;
  }

 private:
  std::optional<obs::ScopedSpan> span_;
};

/// The kBeginMigrate / kCommitMigrate record for one fleet transition;
/// apply_journal_record maps (op, kind) to the partition lifecycle.
JournalRecord migration_record(JournalOp op, MigrationKind kind,
                               ProviderIndex subject, std::string name) {
  JournalRecord rec;
  rec.op = op;
  rec.provider_index = subject;
  rec.client = std::move(name);
  rec.level = static_cast<std::uint8_t>(kind);
  return rec;
}

}  // namespace

CloudDataDistributor::CloudDataDistributor(
    storage::ProviderRegistry& registry, DistributorConfig config)
    : registry_(registry),
      config_(std::move(config)),
      protection_cipher_(config_.protection_key),
      telemetry_(config_.telemetry
                     ? (config_.telemetry_sink ? config_.telemetry_sink
                                               : obs::Telemetry::global())
                     : std::make_shared<obs::Telemetry>(false)),
      plane_(config_.plane != nullptr ? config_.plane
                                      : MetadataPlane::make_in_memory(1)),
      rt_(registry_, config_.retry, telemetry_.get(), config_.seed,
          config_.watchdog.get()),
      placement_(config_.seed ^ 0x91ACE, config_.placement),
      pool_(config_.worker_threads),
      io_pool_(config_.io_threads != 0 ? config_.io_threads
                                       : 4 * config_.worker_threads),
      chaff_rng_(config_.seed ^ 0xC4AFF),
      id_key_(mix64(config_.seed ^ 0x1DFEED)) {
  if (config_.telemetry) {
    registry_.attach_telemetry(telemetry_);
    placement_.set_metrics(&telemetry_->metrics());
    for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
      if (plane_->journal(s) != nullptr) {
        plane_->journal(s)->attach_telemetry(telemetry_);
      }
    }
  }
  if (config_.watchdog != nullptr) {
    for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
      if (plane_->journal(s) != nullptr) {
        plane_->journal(s)->attach_watchdog(config_.watchdog.get());
      }
    }
    // Breaker/quarantine states for the diagnostic dump: obs cannot depend
    // on the storage layer, so the distributor injects the renderer.
    storage::ProviderRegistry* reg = &registry_;
    config_.watchdog->set_context_fn([reg] {
      std::string out;
      for (ProviderIndex i = 0; i < reg->size(); ++i) {
        const char* state = "closed";
        switch (reg->breaker(i).state()) {
          case storage::CircuitBreaker::State::kOpen: state = "open"; break;
          case storage::CircuitBreaker::State::kHalfOpen:
            state = "half-open";
            break;
          case storage::CircuitBreaker::State::kClosed: break;
        }
        out += "breaker " + reg->at(i).descriptor().name + ": " + state +
               (reg->quarantined(i) ? " (quarantined)\n" : "\n");
      }
      return out;
    });
  }
  if (config_.rpc_batch_shards > 1) {
    batcher_ = std::make_unique<ShardBatcher>(
        rt_, io_pool_, registry_.size(), config_.rpc_batch_shards,
        telemetry_.get());
  }
  // Mirror registry rows into every partition's Cloud Provider Table
  // (idempotent when a shared, already-populated plane is handed in). Each
  // partition is topped up independently -- a crash mid-broadcast leaves
  // some partitions a row short, and this loop heals them -- and each new
  // row is committed to that partition's own WAL: replay onto an empty
  // store must know the providers before any chunk row places shards on
  // them.
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    for (ProviderIndex i = plane_->store(s).provider_count();
         i < registry_.size(); ++i) {
      const Status st = commit(s, [&](const MetadataStore&) {
        return provider_record(i, registry_.lifecycle(i));
      });
      CS_REQUIRE(st.ok(), "provider top-up at startup: " + st.to_string());
    }
  }
  // Seed the topology ring with the placement-participating members. A
  // provider mid-join or mid-drain at construction time (crash-resume)
  // rejoins/stays off the ring when begin_migration re-runs.
  for (ProviderIndex i = 0; i < registry_.size(); ++i) {
    if (registry_.lifecycle(i) == ProviderLifecycle::kActive) {
      ring_insert(i, registry_.at(i).descriptor().name);
    }
  }
}

Status CloudDataDistributor::commit(std::size_t shard,
                                    const MetadataPlane::RecordBuilder& build) {
  CS_RETURN_IF_ERROR(plane_->commit(shard, build));
  // Auto-checkpoint folds only the shard whose journal hit the interval --
  // the other partitions' lanes are untouched.
  const Journal* j = plane_->journal(shard);
  if (j != nullptr && config_.checkpoint_interval > 0 &&
      !plane_->checkpoint_path(shard).empty() &&
      j->record_count() >= config_.checkpoint_interval) {
    return checkpoint_shard(shard);
  }
  return Status::Ok();
}

Status CloudDataDistributor::broadcast(
    const JournalRecord& rec,
    const std::function<Status(const MetadataStore&)>& guard) {
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    CS_RETURN_IF_ERROR(
        commit(s, [&](const MetadataStore& store) -> Result<JournalRecord> {
          if (s == 0 && guard) CS_RETURN_IF_ERROR(guard(store));
          return rec;
        }));
  }
  return Status::Ok();
}

JournalRecord CloudDataDistributor::provider_record(
    ProviderIndex p, ProviderLifecycle lifecycle) const {
  const storage::ProviderDescriptor& d = registry_.at(p).descriptor();
  JournalRecord rec;
  rec.op = JournalOp::kRegisterProvider;
  rec.provider_index = p;
  rec.client = d.name;
  rec.level = static_cast<std::uint8_t>(d.privacy_level);
  rec.cost = static_cast<std::uint8_t>(d.cost_level);
  rec.lifecycle = static_cast<std::uint8_t>(lifecycle);
  return rec;
}

Status CloudDataDistributor::checkpoint_shard(std::size_t shard) {
  const Status st = plane_->checkpoint(shard);
  if (st.ok() && telemetry_->enabled()) {
    telemetry_->metrics().counter("cdd.checkpoints").inc();
  }
  return st;
}

Status CloudDataDistributor::checkpoint() {
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    CS_RETURN_IF_ERROR(checkpoint_shard(s));
  }
  return Status::Ok();
}

Status CloudDataDistributor::register_client(const std::string& name) {
  if (name.empty()) return Status::InvalidArgument("empty client name");
  // Partition 0 is the guard (AlreadyExists before any record); the
  // broadcast then gives every partition the row, so any front-end can
  // authenticate against any shard and each shard journal stays
  // self-contained for parallel recovery.
  JournalRecord rec;
  rec.op = JournalOp::kRegisterClient;
  rec.client = name;
  return broadcast(rec, [&](const MetadataStore& store) {
    return store.client_entry(name).ok()
               ? Status::AlreadyExists("client " + name)
               : Status::Ok();
  });
}

Status CloudDataDistributor::add_password(const std::string& client,
                                          const std::string& password,
                                          PrivacyLevel pl) {
  if (password.empty()) return Status::InvalidArgument("empty password");
  JournalRecord rec;
  rec.op = JournalOp::kAddPassword;
  rec.client = client;
  rec.filename = password;
  rec.level = static_cast<std::uint8_t>(pl);
  return broadcast(rec, [&](const MetadataStore& store) {
    // Any registered password authenticates; only a new one may be added.
    const Status known = store.authenticate(client, password).status();
    if (known.ok()) return Status::AlreadyExists("password already registered");
    return known.code() == ErrorCode::kNotFound ? known : Status::Ok();
  });
}

Result<PrivacyLevel> CloudDataDistributor::authorize(
    const std::string& client, const std::string& password,
    PrivacyLevel required) const {
  Result<PrivacyLevel> granted = metadata().authenticate(client, password);
  if (!granted.ok()) {
    if (telemetry_->enabled()) {
      telemetry_->metrics().counter("cdd.auth_failures").inc();
    }
    return granted;
  }
  if (!privileged_for(granted.value(), required)) {
    if (telemetry_->enabled()) {
      telemetry_->metrics().counter("cdd.auth_failures").inc();
    }
    return Status::PermissionDenied(
        "password privilege " +
        std::string(privacy_level_name(granted.value())) +
        " below required " + std::string(privacy_level_name(required)));
  }
  return granted;
}

VirtualId CloudDataDistributor::next_virtual_id() {
  // Counter mixed with a per-distributor key: unique, and reveals neither
  // client identity nor upload order to providers.
  VirtualId id = 0;
  do {
    id = mix64(id_counter_.fetch_add(1, std::memory_order_relaxed) ^ id_key_);
  } while (id == 0);
  return id;
}

std::size_t CloudDataDistributor::apply_protection(
    Bytes& padded, ProtectionMode mode, PrivacyLevel pl,
    const raid::StripeLayout& layout, std::uint64_t nonce) const {
  switch (mode) {
    case ProtectionMode::kMisleadingBytes:
      // Chaff was already injected upstream; the payload itself is stored
      // as-is (the pre-ProtectionMode behavior).
      return 0;
    case ProtectionMode::kPartialAes: {
      const std::size_t prefix =
          (padded.size() * aes_quarters_for(pl) + 3) / 4;
      if (prefix == 0) return 0;
      protection_cipher_.ctr(nonce, padded.data(), prefix);
      return prefix;
    }
    case ProtectionMode::kFragmentation:
      // Entangle across the data-shard fragments raid::encode will slice
      // this payload into: each provider stores one full-rank mix of every
      // fragment. Digests and parity are computed over the entangled bytes,
      // so repair/scrub stay protection-agnostic.
      crypto::fragmentation::entangle(padded, layout.data_shards, nonce);
      return 0;
  }
  return 0;
}

void CloudDataDistributor::remove_protection(Bytes& padded,
                                             ProtectionMode mode,
                                             const raid::StripeLayout& layout,
                                             std::uint64_t nonce,
                                             std::size_t protect_bytes) const {
  switch (mode) {
    case ProtectionMode::kMisleadingBytes:
      return;
    case ProtectionMode::kPartialAes: {
      const std::size_t prefix = std::min(protect_bytes, padded.size());
      if (prefix == 0) return;  // nothing was encrypted
      protection_cipher_.ctr(nonce, padded.data(), prefix);
      return;
    }
    case ProtectionMode::kFragmentation:
      crypto::fragmentation::detangle(padded, layout.data_shards, nonce);
      return;
  }
}

Result<CloudDataDistributor::StripeWriteResult>
CloudDataDistributor::write_stripe(BytesView payload,
                                   const raid::StripeLayout& layout,
                                   PrivacyLevel pl,
                                   std::vector<SimDuration>& times,
                                   const obs::SpanCtx& span) {
  Result<std::vector<ProviderIndex>> placed = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    return placement_.choose(registry_, pl, layout.total_shards());
  }();
  if (!placed.ok()) return placed.status();
  const std::vector<ProviderIndex>& targets = placed.value();
  raid::EncodedStripe encoded = raid::encode(layout, payload);
  CS_REQUIRE(targets.size() == encoded.shard_count,
             "write_stripe: target/shard arity mismatch");

  StripeWriteResult result;
  result.locations.resize(encoded.shard_count);
  result.digests.resize(encoded.shard_count);
  for (std::size_t s = 0; s < encoded.shard_count; ++s) {
    result.locations[s] = ShardLocation{targets[s], next_virtual_id()};
    result.bytes_stored += encoded.shard_size;
  }

  struct ShardOutcome {
    Status status = Status::Ok();
    crypto::Digest digest{};
    SimDuration time{0};
    std::uint32_t retries = 0;
  };
  // The digest is computed with the upload, on whichever thread runs it.
  // Shard bytes stay in `encoded`'s arena (each upload reads only its own
  // zero-copy slice) so a failed shard can be re-placed below.
  auto upload = [this, &span, &encoded, &layout](std::size_t s,
                                                 ProviderIndex provider,
                                                 VirtualId id) {
    ShardSpan sp(telemetry_.get(), span, "shard_put", provider,
                 s < layout.data_shards);
    ShardOutcome outcome;
    outcome.digest = crypto::sha256(encoded.shard(s));
    RequestLayer::Outcome rpc = rt_.put(provider, id, encoded.shard(s));
    outcome.status = rpc.status;
    outcome.time = rpc.time;
    outcome.retries = rpc.retries;
    sp.close(rpc.time, rpc.attempts, encoded.shard_size, rpc.status.code());
    return outcome;
  };

  // Without a batcher every shard uploads directly. Batched-RPC mode hands
  // each shard to the cross-op batcher instead, which coalesces it with
  // shards of other in-flight stripes bound for the same provider.
  // Placement makes the stripe's own targets distinct, so within this call
  // each provider sees one shard -- the batching win is across concurrent
  // operations. Batched digests are computed here on the caller thread
  // (small-op path: the shards are small by construction). Providers joined
  // after the batcher was built have no lane; their shards upload directly
  // too, concurrently on the I/O pool when a target can wait and inline
  // otherwise. `encoded` outlives every upload: both paths join here.
  std::vector<ShardOutcome> outcomes(encoded.shard_count);
  std::vector<std::pair<std::size_t, std::future<ShardBatcher::PutResult>>>
      batched;
  std::vector<std::size_t> direct;
  for (std::size_t s = 0; s < encoded.shard_count; ++s) {
    if (batcher_ == nullptr || targets[s] >= batcher_->lanes()) {
      direct.push_back(s);
      continue;
    }
    outcomes[s].digest = crypto::sha256(encoded.shard(s));
    batched.emplace_back(s, batcher_->put(targets[s],
                                          result.locations[s].virtual_id,
                                          encoded.shard(s)));
  }
  io_pool_.for_each(direct.size(), any_waits(result.locations),
                    [&](std::size_t i) {
                      const std::size_t s = direct[i];
                      outcomes[s] = upload(s, targets[s],
                                           result.locations[s].virtual_id);
                    });
  // Every batched shard is sent before a get() can rethrow a batch's
  // exception: `encoded` backs the shards still queued.
  for (auto& [s, fut] : batched) fut.wait();
  for (auto& [s, fut] : batched) {
    ShardBatcher::PutResult r = fut.get();
    outcomes[s].status = std::move(r.status);
    outcomes[s].time = r.time;
    outcomes[s].retries = r.retries;
  }

  Status first_error = Status::Ok();
  for (std::size_t s = 0; s < outcomes.size(); ++s) {
    times.push_back(outcomes[s].time);
    result.digests[s] = outcomes[s].digest;
    result.retries += outcomes[s].retries;
    if (outcomes[s].status.ok()) continue;
    // Write quarantine: the target kept failing (its breaker has likely
    // opened by now), so re-place this shard on a healthy trust-eligible
    // provider outside the stripe rather than failing the whole write.
    const ProviderIndex home =
        replacement_target(pl, result.locations);
    if (home != kNoProvider) {
      const VirtualId fresh = next_virtual_id();
      result.locations[s] = ShardLocation{home, fresh};
      const ShardOutcome replaced = upload(s, home, fresh);
      times.push_back(replaced.time);
      result.retries += replaced.retries;
      if (replaced.status.ok()) {
        result.replaced += 1;
        outcomes[s].status = Status::Ok();
        if (telemetry_->enabled()) {
          telemetry_->metrics().counter("cdd.replaced_shards").inc();
        }
        continue;
      }
      outcomes[s].status = replaced.status;
    }
    if (first_error.ok()) first_error = outcomes[s].status;
  }
  if (!first_error.ok()) {
    // Best-effort rollback of the shards that did land (with the request
    // layer's retry budget, so a transient blip cannot orphan a shard).
    drop_stripe(result.locations, nullptr);
    return first_error;
  }
  return result;
}

ProviderIndex CloudDataDistributor::replacement_target(
    PrivacyLevel pl, const std::vector<ShardLocation>& stripe,
    std::optional<VirtualId> ring_key) const {
  const std::vector<ProviderIndex> eligible = registry_.eligible_for(pl);
  std::vector<ProviderIndex> candidates;
  if (ring_key.has_value()) {
    std::lock_guard<std::mutex> lock(ring_mu_);
    if (!ring_.empty()) {
      candidates = ring_.lookup_many(*ring_key, registry_.size());
    }
  }
  // Registry order last: small fleets and quarantine storms can exhaust the
  // ring.
  candidates.insert(candidates.end(), eligible.begin(), eligible.end());
  for (ProviderIndex cand : candidates) {
    auto held_by_cand = [cand](const ShardLocation& loc) {
      return loc.provider == cand;
    };
    if (std::find(eligible.begin(), eligible.end(), cand) != eligible.end() &&
        registry_.at(cand).online() && !registry_.quarantined(cand) &&
        std::none_of(stripe.begin(), stripe.end(), held_by_cand)) {
      return cand;
    }
  }
  return kNoProvider;
}

std::vector<CloudDataDistributor::ShardRead>
CloudDataDistributor::fetch_shards(const raid::StripeLayout& layout,
                                   const std::vector<ShardLocation>& stripe,
                                   const std::vector<crypto::Digest>& digests,
                                   const std::vector<std::size_t>& idxs,
                                   std::size_t attempts,
                                   const obs::SpanCtx& span) {
  // A shard that is unreachable OR fails its integrity digest counts as an
  // erasure; the caller's RAID decode recovers through it if it can.
  // `span`, `stripe` and `digests` outlive the fetches: for_each joins them.
  using Held = ShardRead::Held;
  auto fetch = [&](std::size_t s) {
    ShardSpan sp(telemetry_.get(), span, "shard_get", stripe[s].provider,
                 s < layout.data_shards);
    RequestLayer::GetOutcome r =
        rt_.get(stripe[s].provider, stripe[s].virtual_id, attempts);
    ShardRead out;
    out.time = r.time;
    out.retries = r.retries;
    if (r.data.has_value()) {
      out.held = crypto::sha256(*r.data) == digests[s] ? Held::kIntact
                                                       : Held::kCorrupt;
    }
    sp.close(r.time, r.attempts, r.data.has_value() ? r.data->size() : 0,
             out.held == Held::kIntact    ? ErrorCode::kOk
             : out.held == Held::kCorrupt ? ErrorCode::kCorrupted
                                          : r.status.code());
    if (out.held == Held::kIntact) out.data = std::move(r.data);
    return out;
  };
  std::vector<ShardRead> reads(idxs.size());
  io_pool_.for_each(idxs.size(), any_waits(stripe),
                    [&](std::size_t i) { reads[i] = fetch(idxs[i]); });
  return reads;
}

Result<Bytes> CloudDataDistributor::read_stripe(
    const raid::StripeLayout& layout, const std::vector<ShardLocation>& stripe,
    const std::vector<crypto::Digest>& digests, std::size_t padded_size,
    std::vector<SimDuration>& times, const obs::SpanCtx& span,
    StripeReadStats* stats) {
  if (!counts_agree(layout, stripe, digests)) {
    return Status::Corrupted("stripe row: shard or digest count disagrees "
                             "with its layout");
  }
  std::vector<std::optional<Bytes>> shards(stripe.size());
  std::size_t retries = 0;
  auto fetch = [&](const std::vector<std::size_t>& idxs,
                   std::size_t attempts) {
    std::vector<ShardRead> reads =
        fetch_shards(layout, stripe, digests, idxs, attempts, span);
    for (std::size_t i = 0; i < idxs.size(); ++i) {
      times.push_back(reads[i].time);
      retries += reads[i].retries;
      shards[idxs[i]] = std::move(reads[i].data);
    }
  };

  // Data shards first, at the degraded-read budget: waiting out the full
  // retry budget on a slow or flaky provider is pointless when parity can
  // reconstruct. encode() lays shards out data-first, so a clean read never
  // touches parity. On a miss, escalate -- re-fetch the missing data shards
  // at the full budget alongside all parity, so one transient blip per
  // shard never outnumbers the stripe's erasure tolerance.
  const bool has_parity = layout.parity_shards > 0;
  std::vector<std::size_t> data_idx(layout.data_shards);
  std::iota(data_idx.begin(), data_idx.end(), std::size_t{0});
  fetch(data_idx, has_parity ? config_.retry.degraded_attempts : 0);
  std::vector<std::size_t> missing;
  for (std::size_t s : data_idx) {
    if (!shards[s].has_value()) missing.push_back(s);
  }
  const bool fallback = !missing.empty();
  const std::size_t parity_fetched = fallback ? layout.parity_shards : 0;
  if (parity_fetched != 0) {
    std::vector<std::size_t> recover(layout.parity_shards);
    std::iota(recover.begin(), recover.end(), layout.data_shards);
    recover.insert(recover.end(), missing.begin(), missing.end());
    fetch(recover, 0);
  }
  if (telemetry_->enabled()) {
    obs::MetricsRegistry& m = telemetry_->metrics();
    if (fallback) m.counter("cdd.parity_fallbacks").inc();
    if (parity_fetched != 0) {
      m.counter("cdd.parity_shard_reads").inc(parity_fetched);
    }
  }
  if (stats != nullptr) {
    stats->parity_reads = parity_fetched;
    stats->retries = retries;
  }
  return raid::decode(layout, shards, padded_size);
}

void CloudDataDistributor::drop_stripe(const std::vector<ShardLocation>& stripe,
                                       std::vector<SimDuration>* times) {
  std::vector<SimDuration> took(stripe.size());
  io_pool_.for_each(stripe.size(), any_waits(stripe), [&](std::size_t s) {
    took[s] = rt_.remove(stripe[s].provider, stripe[s].virtual_id).time;
  });
  if (times != nullptr) times->insert(times->end(), took.begin(), took.end());
}

bool CloudDataDistributor::any_waits(
    const std::vector<ShardLocation>& stripe) const {
  return std::any_of(stripe.begin(), stripe.end(),
                     [this](const ShardLocation& loc) {
                       return registry_.at(loc.provider).waits();
                     });
}

Result<CloudDataDistributor::ChunkTarget> CloudDataDistributor::lookup_chunk(
    const std::string& client, const std::string& password,
    const std::string& filename, std::uint64_t serial) const {
  // Ops resolve against the owning partition -- any front-end sharing the
  // plane computes the same shard from (client, filename).
  ChunkTarget target;
  target.shard = plane_->shard_of(client, filename);
  const MetadataStore& md = plane_->store(target.shard);
  std::optional<ChunkRef> ref = md.find_chunk(client, filename, serial);
  Result<PrivacyLevel> auth = authorize(
      client, password,
      ref.has_value() ? ref->privacy_level : PrivacyLevel::kPublic);
  if (!auth.ok()) return auth.status();
  if (!ref.has_value()) {
    return Status::NotFound("chunk " + filename + "#" +
                            std::to_string(serial));
  }
  target.ref = std::move(*ref);
  Result<ChunkEntry> row = md.chunk_entry(target.ref.chunk_index);
  if (!row.ok()) return row.status();
  target.entry = std::move(row).value();
  return target;
}

Result<CloudDataDistributor::FileTarget> CloudDataDistributor::lookup_file(
    const std::string& client, const std::string& password,
    const std::string& filename) const {
  FileTarget target;
  target.shard = plane_->shard_of(client, filename);
  target.refs = plane_->store(target.shard).file_chunks(client, filename);
  PrivacyLevel required = PrivacyLevel::kPublic;
  for (const ChunkRef& ref : target.refs) {
    if (level_index(ref.privacy_level) > level_index(required)) {
      required = ref.privacy_level;
    }
  }
  Result<PrivacyLevel> auth = authorize(client, password, required);
  if (!auth.ok()) return auth.status();
  if (target.refs.empty()) {
    return Status::NotFound("file " + filename + " for client " + client);
  }
  return target;
}

Result<CloudDataDistributor::StripeWriteResult> CloudDataDistributor::seal(
    BytesView plain, double chaff, ChunkEntry& row,
    std::vector<SimDuration>& times, const obs::SpanCtx& span) {
  // Only the seed draw needs the shared RNG lock; the chaff injection itself
  // runs unlocked on the chunk's own stream.
  std::uint64_t chaff_seed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    chaff_seed = chaff_rng_.next();
  }
  Rng chunk_rng(chaff_seed);
  MisleadingCodec::Encoded chaffed =
      MisleadingCodec::inject(plain, chaff, chunk_rng);
  // Drawn for every mode, so the per-chunk RNG stream (chaff positions
  // included) is byte-identical across protection modes -- the chaos
  // suite's retry-invariance proof depends on it.
  row.protect_nonce = chunk_rng.next();
  row.protect_bytes = apply_protection(chaffed.data, row.protection,
                                       row.privacy_level, row.layout,
                                       row.protect_nonce);
  Result<StripeWriteResult> written =
      write_stripe(chaffed.data, row.layout, row.privacy_level, times, span);
  if (!written.ok()) return written;
  row.stripe = std::move(written.value().locations);
  row.shard_digests = std::move(written.value().digests);
  row.misleading = std::move(chaffed.positions);
  row.padded_size = chaffed.data.size();
  return written;
}

Result<Bytes> CloudDataDistributor::open(const ChunkEntry& row,
                                         StripeVersion version,
                                         std::vector<SimDuration>& times,
                                         const obs::SpanCtx& span,
                                         StripeReadStats* stats) {
  // The snapshot stripe stores the pre-update payload still protected under
  // its original transform, so it opens with its own parameters.
  const bool snap = version == StripeVersion::kSnapshot;
  Result<Bytes> padded = read_stripe(
      row.layout, snap ? row.snapshot : row.stripe,
      snap ? row.snapshot_digests : row.shard_digests,
      snap ? row.snapshot_padded_size : row.padded_size, times, span, stats);
  if (!padded.ok()) return padded.status();
  remove_protection(padded.value(),
                    snap ? row.snapshot_protection : row.protection,
                    row.layout,
                    snap ? row.snapshot_protect_nonce : row.protect_nonce,
                    snap ? row.snapshot_protect_bytes : row.protect_bytes);
  return MisleadingCodec::strip(padded.value(),
                                snap ? row.snapshot_misleading
                                     : row.misleading);
}

Status CloudDataDistributor::put_file(const std::string& client,
                                      const std::string& password,
                                      const std::string& filename,
                                      BytesView data, const PutOptions& options,
                                      OpReport* report) {
  if (filename.empty()) return Status::InvalidArgument("empty filename");
  Result<PrivacyLevel> auth = authorize(client, password,
                                        options.privacy_level);
  if (!auth.ok()) return auth.status();
  // Owning partition: all of this file's refs, rows and journal records
  // live there, and nowhere else.
  const std::size_t shard = plane_->shard_of(client, filename);
  MetadataStore& md = plane_->store(shard);
  // Atomic duplicate check: reserving the name up front means two
  // concurrent uploads of the same file cannot both pass it. The claim is
  // not journaled: the put's one record is its commit, so a crash before
  // it leaves no claim to replay, only shards no row references, which
  // reconcile finds by listing the providers.
  CS_RETURN_IF_ERROR(md.claim_file(client, filename));

  // Every chunk row starts from this one: the file's PL, layout and
  // protection mode.
  ChunkEntry file_row;
  file_row.privacy_level = options.privacy_level;
  const raid::RaidLevel level = options.raid.value_or(config_.default_raid);
  file_row.layout =
      (level == raid::RaidLevel::kRaid1)
          ? raid::StripeLayout::make(level, 1, config_.replication)
          : raid::StripeLayout::make(level, config_.stripe_data_shards);
  file_row.protection = options.protection.value_or(
      config_.protection_by_pl[static_cast<std::size_t>(
          level_index(options.privacy_level))]);
  const double chaff =
      options.misleading_fraction.value_or(config_.misleading_fraction);

  OpScope op(*this, "put_file", client, filename);
  std::vector<RawChunk> chunks = split_file(data, options.privacy_level,
                                            config_.chunk_sizes,
                                            options.record_align);
  op.chunks = chunks.size();
  op.bytes_logical = data.size();

  // One seal per chunk. `stripe` duplicates entry.stripe so rollback still
  // knows the shard locations after the entry moves into the commit record.
  struct ChunkOutcome {
    Status status = Status::Ok();
    ChunkEntry entry;
    std::vector<ShardLocation> stripe;
    std::size_t bytes_stored = 0;
    std::size_t retries = 0;
    std::size_t replaced = 0;
    std::vector<SimDuration> times;
  };
  std::vector<ChunkOutcome> outcomes(chunks.size());
  pool_.for_each(chunks.size(), true, [&](std::size_t i) {
    ChunkOutcome& out = outcomes[i];
    ChunkSpan span(op, "chunk_put", chunks[i].serial);
    out.entry = file_row;
    Result<StripeWriteResult> sealed =
        seal(chunks[i].data, chaff, out.entry, out.times, span.ctx());
    if (sealed.ok()) {
      out.stripe = out.entry.stripe;
      out.bytes_stored = sealed.value().bytes_stored;
      out.retries = sealed.value().retries;
      out.replaced = sealed.value().replaced;
    } else {
      out.status = sealed.status();
    }
    span.close(out.times, chunks[i].data.size(), out.status);
  });

  // A failed chunk must not orphan its siblings: drop every stripe this
  // call wrote, then free the filename claim. The claim was never
  // journaled, so its release is not journaled either.
  auto rollback = [&](const Status& error) {
    op.rolled_back = true;
    for (const ChunkOutcome& out : outcomes) {
      if (!out.stripe.empty()) drop_stripe(out.stripe, &op.times);
    }
    md.release_file(client, filename);
    return op.finish(error, report);
  };
  for (ChunkOutcome& out : outcomes) {
    op.times.insert(op.times.end(), out.times.begin(), out.times.end());
    out.times.clear();  // moved into the op accumulator exactly once
    op.retries += out.retries;
    op.replaced_shards += out.replaced;
  }
  for (const ChunkOutcome& out : outcomes) {
    if (!out.status.ok()) return rollback(out.status);
  }

  // Durability commit point: one kCommitPut carries every chunk row at
  // the partition's next free indices, and the commit step links them all
  // at once. Only after the step returns may the client treat the file as
  // stored -- so a journal failure is a put failure.
  const Status committed =
      commit(shard, [&](const MetadataStore& store) {
        JournalRecord rec;
        rec.op = JournalOp::kCommitPut;
        rec.client = client;
        rec.filename = filename;
        const std::size_t base = store.total_chunks();
        rec.chunks.reserve(chunks.size());
        for (std::size_t i = 0; i < chunks.size(); ++i) {
          rec.chunks.push_back(JournalChunk{chunks[i].serial, base + i,
                                            std::move(outcomes[i].entry)});
        }
        return rec;
      });
  if (!committed.ok()) {
    // put_chunks_at links every row or none. None: roll back. All (the
    // journal write failed after the apply): the rows stay, as an
    // update's do, and the put reports the error.
    if (md.file_chunks(client, filename).empty()) return rollback(committed);
    return op.finish(committed, report);
  }
  for (const ChunkOutcome& out : outcomes) {
    op.bytes_stored += out.bytes_stored;
    op.shards += file_row.layout.total_shards();
  }
  return op.finish(Status::Ok(), report);
}

Result<Bytes> CloudDataDistributor::get_chunk(const std::string& client,
                                              const std::string& password,
                                              const std::string& filename,
                                              std::uint64_t serial,
                                              OpReport* report) {
  return read_chunk(client, password, filename, serial,
                    StripeVersion::kCurrent, report);
}

Result<Bytes> CloudDataDistributor::get_chunk_snapshot(
    const std::string& client, const std::string& password,
    const std::string& filename, std::uint64_t serial) {
  return read_chunk(client, password, filename, serial,
                    StripeVersion::kSnapshot, nullptr);
}

Result<Bytes> CloudDataDistributor::read_chunk(const std::string& client,
                                               const std::string& password,
                                               const std::string& filename,
                                               std::uint64_t serial,
                                               StripeVersion version,
                                               OpReport* report) {
  Result<ChunkTarget> target = lookup_chunk(client, password, filename, serial);
  if (!target.ok()) return target.status();
  const ChunkEntry& entry = target.value().entry;
  const bool snap = version == StripeVersion::kSnapshot;
  if (snap && !entry.has_snapshot) {
    return Status::NotFound("chunk has no snapshot (never modified)");
  }

  OpScope op(*this, snap ? "get_chunk_snapshot" : "get_chunk", client,
             filename);
  op.chunk_serial = serial;
  op.chunks = 1;
  op.shards = (snap ? entry.snapshot : entry.stripe).size();
  op.bytes_stored = entry.layout.stored_bytes(snap ? entry.snapshot_padded_size
                                                   : entry.padded_size);
  StripeReadStats rstats;
  Result<Bytes> plain = open(entry, version, op.times, op.ctx(), &rstats);
  op.parity_reads = rstats.parity_reads;
  op.retries = rstats.retries;
  if (!plain.ok()) return op.finish(plain.status(), report);
  op.bytes_logical = plain.value().size();
  (void)op.finish(Status::Ok(), report);
  return plain;
}

Result<Bytes> CloudDataDistributor::get_file(const std::string& client,
                                             const std::string& password,
                                             const std::string& filename,
                                             OpReport* report) {
  Result<FileTarget> target = lookup_file(client, password, filename);
  if (!target.ok()) return target.status();
  const std::vector<ChunkRef>& refs = target.value().refs;
  const MetadataStore& md = plane_->store(target.value().shard);

  OpScope op(*this, "get_file", client, filename);
  struct ChunkRead {
    Status status = Status::Ok();
    Bytes plain;
    std::size_t bytes_stored = 0;
    std::size_t shards = 0;
    std::vector<SimDuration> times;
    StripeReadStats rstats;
  };
  std::vector<ChunkRead> reads(refs.size());
  pool_.for_each(refs.size(), true, [&](std::size_t i) {
    ChunkRead& out = reads[i];
    ChunkSpan span(op, "chunk_get", refs[i].serial);
    out.status = [&]() -> Status {
      Result<ChunkEntry> entry = md.chunk_entry(refs[i].chunk_index);
      if (!entry.ok()) return entry.status();
      Result<Bytes> plain = open(entry.value(), StripeVersion::kCurrent,
                                 out.times, span.ctx(), &out.rstats);
      if (!plain.ok()) return plain.status();
      out.plain = std::move(plain).value();
      out.bytes_stored =
          entry.value().layout.stored_bytes(entry.value().padded_size);
      out.shards = entry.value().stripe.size();
      return Status::Ok();
    }();
    span.close(out.times, out.plain.size(), out.status);
  });

  // Reassembly restores serial order.
  Bytes out;
  Status first_error = Status::Ok();
  for (ChunkRead& r : reads) {
    op.times.insert(op.times.end(), r.times.begin(), r.times.end());
    op.parity_reads += r.rstats.parity_reads;
    op.retries += r.rstats.retries;
    if (!r.status.ok()) {
      if (first_error.ok()) first_error = r.status;
      continue;
    }
    op.bytes_stored += r.bytes_stored;
    op.shards += r.shards;
    ++op.chunks;
    append(out, r.plain);
  }
  if (!first_error.ok()) return op.finish(first_error, report);
  op.bytes_logical = out.size();
  (void)op.finish(Status::Ok(), report);
  return out;
}

Result<std::vector<CloudDataDistributor::FileInfo>>
CloudDataDistributor::list_files(const std::string& client,
                                 const std::string& password) {
  Result<PrivacyLevel> auth =
      authorize(client, password, PrivacyLevel::kPublic);
  if (!auth.ok()) return auth.status();
  // The store's filename index does the per-file aggregation (and the
  // privilege filtering) without scanning every ref per file. A client's
  // files scatter across partitions, so the inventory unions all of them;
  // the final sort restores the per-partition map order (a no-op on a
  // 1-shard plane).
  std::vector<FileInfo> files;
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    for (FileSummary& f : plane_->store(s).list_files(client, auth.value())) {
      files.push_back(
          FileInfo{std::move(f.filename), f.privacy_level, f.chunks});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const FileInfo& a, const FileInfo& b) {
              return a.filename < b.filename;
            });
  return files;
}

Status CloudDataDistributor::update_chunk(const std::string& client,
                                          const std::string& password,
                                          const std::string& filename,
                                          std::uint64_t serial,
                                          BytesView new_data,
                                          OpReport* report) {
  Result<ChunkTarget> target = lookup_chunk(client, password, filename, serial);
  if (!target.ok()) return target.status();
  const std::size_t shard = target.value().shard;
  const std::size_t index = target.value().ref.chunk_index;
  const ChunkEntry& entry = target.value().entry;

  OpScope op(*this, "update_chunk", client, filename);
  op.chunk_serial = serial;

  // 1. Seal the post-state (the original put's chaff ratio and protection
  //    mode, a fresh nonce) under fresh virtual ids.
  ChunkEntry sealed = entry;
  Result<StripeWriteResult> written =
      seal(new_data, chaff_fraction_of(entry), sealed, op.times, op.ctx());
  if (!written.ok()) return op.finish(written.status(), report);
  op.retries = written.value().retries;
  op.replaced_shards = written.value().replaced;

  // 2. Promote: "snapshot provider stores the pre-state and cloud provider
  //    stores the post-state of a chunk after each modification" (Table
  //    III). The current stripe becomes the snapshot where it lies, still
  //    protected as it was, and the sealed stripe becomes current. The
  //    commit step promotes the row as it stands under the partition's
  //    commit mutex, so a shard a concurrent move re-homed is snapshotted
  //    at its new home.
  std::vector<ShardLocation> retired;
  bool built = false;
  const Status committed =
      commit(shard, [&](const MetadataStore& store) -> Result<JournalRecord> {
        Result<ChunkEntry> row = store.chunk_entry(index);
        if (!row.ok()) return row.status();
        const ChunkEntry& cur = row.value();
        if (cur.deleted) return Status::NotFound("chunk removed");
        ChunkEntry next = sealed;
        next.snapshot = cur.stripe;
        next.snapshot_digests = cur.shard_digests;
        next.snapshot_misleading = cur.misleading;
        next.snapshot_padded_size = cur.padded_size;
        next.snapshot_protection = cur.protection;
        next.snapshot_protect_nonce = cur.protect_nonce;
        next.snapshot_protect_bytes = cur.protect_bytes;
        next.has_snapshot = true;
        retired = retired_locations(cur, next);
        built = true;
        JournalRecord rec;
        rec.op = JournalOp::kUpdateChunk;
        rec.client = client;
        rec.filename = filename;
        rec.chunks.push_back(JournalChunk{serial, index, std::move(next)});
        return rec;
      });
  if (!committed.ok()) {
    // Unbuilt, the sealed stripe is in no row; built, the row holds it.
    if (!built) {
      op.rolled_back = true;
      drop_stripe(sealed.stripe, &op.times);
    }
    return op.finish(committed, report);
  }

  // 3. Only now, with the new row durable, delete the superseded snapshot:
  //    a crash mid-drop leaves only orphans.
  drop_stripe(retired, &op.times);

  op.chunks = 1;
  op.shards = entry.layout.total_shards();
  op.bytes_logical = new_data.size();
  op.bytes_stored = written.value().bytes_stored;
  return op.finish(Status::Ok(), report);
}

Status CloudDataDistributor::remove_chunk(const std::string& client,
                                          const std::string& password,
                                          const std::string& filename,
                                          std::uint64_t serial) {
  Result<ChunkTarget> target = lookup_chunk(client, password, filename, serial);
  if (!target.ok()) return target.status();
  return remove_refs(client, filename,
                     FileTarget{target.value().shard, {target.value().ref}},
                     JournalOp::kRemoveChunk);
}

Status CloudDataDistributor::remove_file(const std::string& client,
                                         const std::string& password,
                                         const std::string& filename) {
  Result<FileTarget> target = lookup_file(client, password, filename);
  if (!target.ok()) return target.status();
  return remove_refs(client, filename, target.value(),
                     JournalOp::kRemoveFile);
}

Status CloudDataDistributor::remove_refs(const std::string& client,
                                         const std::string& filename,
                                         const FileTarget& target,
                                         JournalOp kind) {
  const std::vector<ChunkRef>& refs = target.refs;
  const bool one_chunk = kind == JournalOp::kRemoveChunk;
  OpScope op(*this, one_chunk ? "remove_chunk" : "remove_file", client,
             filename);
  op.chunks = refs.size();
  if (one_chunk) op.chunk_serial = refs.front().serial;
  // Each row is tombstoned as it stands in the commit step, so the shards
  // dropped below are the ones it held then, a concurrent move's too.
  std::vector<std::vector<ShardLocation>> held(refs.size());
  const Status committed = commit(
      target.shard,
      [&](const MetadataStore& store) -> Result<JournalRecord> {
        JournalRecord rec;
        rec.op = kind;
        rec.client = client;
        rec.filename = filename;
        rec.chunks.reserve(refs.size());
        for (std::size_t i = 0; i < refs.size(); ++i) {
          Result<ChunkEntry> row = store.chunk_entry(refs[i].chunk_index);
          if (!row.ok()) return row.status();
          if (row.value().deleted) return Status::NotFound("chunk removed");
          held[i] = retired_locations(row.value(), tombstone_of(row.value()));
          rec.chunks.push_back(
              JournalChunk{refs[i].serial, refs[i].chunk_index, {}});
        }
        return rec;
      });
  if (!committed.ok()) return op.finish(committed);

  // Each task owns its slot in `drop_times`, so no lock is needed; the
  // slots merge into the op accumulator after for_each joins.
  std::vector<std::vector<SimDuration>> drop_times(refs.size());
  pool_.for_each(refs.size(), true, [&](std::size_t i) {
    drop_stripe(held[i], &drop_times[i]);
  });
  for (const std::vector<SimDuration>& t : drop_times) {
    op.shards += t.size();
    op.times.insert(op.times.end(), t.begin(), t.end());
  }
  return op.finish(Status::Ok());
}

Result<RewriteStats> CloudDataDistributor::rewrite_chunk(
    std::size_t index, const MovePolicy& policy) {
  using Kind = MovePolicy::Kind;
  CS_REQUIRE(policy.kind != Kind::kMigrate || policy.subject < registry_.size(),
             "rewrite_chunk: provider index out of range");
  const bool join = policy.kind == Kind::kMigrate &&
                    policy.migration == MigrationKind::kJoin;
  // Heal probes take a single attempt: a quarantined provider's open breaker
  // rejects without I/O, so its shards read as lost and get re-homed -- this
  // is how repair heals quarantined stripes. Moves use the full retry budget.
  const std::size_t attempts = policy.kind == Kind::kHeal ? 1 : 0;

  // `index` is a global chunk index; sparse globals resolve to NotFound.
  const std::size_t part = plane_->shard_of_index(index);
  const std::size_t local = plane_->local_index(index);
  RewriteStats stats;
  // Probes, reconstructions and uploads run from the row as read, with no
  // lock held; client writes and other walks may change the row meanwhile.
  // The commit step below applies the moves to the row as it then stands.
  Result<ChunkEntry> row = plane_->store(part).chunk_entry(local);
  if (!row.ok()) return stats;  // sparse global: nothing to rewrite
  ChunkEntry entry = std::move(row).value();
  if (entry.deleted) return stats;
  if (join &&
      !privileged_for(registry_.at(policy.subject).descriptor().privacy_level,
                      entry.privacy_level)) {
    return stats;  // joiner not trusted at this sensitivity: steals nothing
  }

  // A copy placed at its new home, for the commit to apply. `answered`:
  // the old copy answered its fetch, so it is deleted after the commit.
  struct Copy {
    ShardLocation from;
    ShardLocation to;
    bool answered = false;
    std::size_t bytes = 0;
  };
  std::vector<Copy> copies;
  std::vector<ShardLocation> unmoved;  // affected shards this pass left
  auto rewrite_stripe = [&](std::vector<ShardLocation>& stripe,
                            const std::vector<crypto::Digest>& digests) {
    if (!counts_agree(entry.layout, stripe, digests)) {
      ++stats.errors;  // a malformed row: nothing here can be trusted
      return;
    }
    using Held = ShardRead::Held;
    std::vector<std::optional<Held>> held(stripe.size());  // null: unprobed
    std::vector<std::optional<Bytes>> shards(stripe.size());
    // Fetches and digest-checks the unprobed shards `wanted` picks.
    auto probe = [&](auto wanted) {
      std::vector<std::size_t> idxs;
      for (std::size_t t = 0; t < stripe.size(); ++t) {
        if (!held[t].has_value() && wanted(t)) idxs.push_back(t);
      }
      std::vector<ShardRead> reads =
          fetch_shards(entry.layout, stripe, digests, idxs, attempts, {});
      for (std::size_t i = 0; i < idxs.size(); ++i) {
        const std::size_t t = idxs[i];
        held[t] = reads[i].held;
        shards[t] = std::move(reads[i].data);
        if (reads[i].held == Held::kCorrupt) {
          ++stats.mismatches;
          if (policy.scrub) {
            registry_.at(stripe[t].provider).note_scrub_error();
          }
        }
      }
    };
    if (policy.kind == Kind::kHeal) probe([](std::size_t) { return true; });

    bool subject_in_stripe = false;
    for (const ShardLocation& loc : stripe) {
      if (loc.provider == policy.subject) subject_in_stripe = true;
    }
    for (std::size_t s = 0; s < stripe.size(); ++s) {
      const ShardLocation old = stripe[s];
      bool affected = false;
      switch (policy.kind) {
        case Kind::kHeal:
          affected = held[s] != Held::kIntact;
          break;
        case Kind::kMigrate:
          // A join takes the arc the joiner stole. Stripe members stay on
          // distinct providers, so a stripe yields the joiner at most one
          // shard and a re-run skips a stripe it already holds a shard of.
          affected = join ? !subject_in_stripe &&
                                ring_owner(old.virtual_id) == policy.subject
                          : old.provider == policy.subject;
          break;
        case Kind::kDemote:
          affected = !privileged_for(
              registry_.at(old.provider).descriptor().privacy_level,
              entry.privacy_level);
          break;
      }
      if (!affected) continue;

      probe([s](std::size_t t) { return t == s; });
      if (!shards[s].has_value()) {
        // Lost or corrupt: rebuild it from the survivors.
        probe([s](std::size_t t) { return t != s; });
        Result<Bytes> rebuilt =
            raid::reconstruct_shard(entry.layout, shards, s);
        if (!rebuilt.ok()) {
          unmoved.push_back(old);  // below RAID tolerance right now
          continue;
        }
        shards[s] = std::move(rebuilt).value();
      }

      // A drain prefers the shard key's ring successors.
      const ProviderIndex home =
          join ? policy.subject
               : replacement_target(entry.privacy_level, stripe,
                                    policy.kind == Kind::kMigrate
                                        ? std::optional(old.virtual_id)
                                        : std::nullopt);
      if (home == kNoProvider) {
        unmoved.push_back(old);  // no qualifying provider this pass
        continue;
      }
      const VirtualId id = next_virtual_id();
      if (!rt_.put(home, id, *shards[s]).status.ok()) {
        unmoved.push_back(old);
        continue;
      }
      // A missing or breaker-rejected copy gets no delete RPC: reconcile()
      // sweeps it if it ever comes back.
      copies.push_back(Copy{old, ShardLocation{home, id},
                            held[s] != Held::kMissing, shards[s]->size()});
      stripe[s] = copies.back().to;
      if (join) subject_in_stripe = true;
    }
  };
  rewrite_stripe(entry.stripe, entry.shard_digests);
  if (entry.has_snapshot) {
    rewrite_stripe(entry.snapshot, entry.snapshot_digests);
  }
  if (copies.empty() && unmoved.empty()) return stats;

  // The commit applies each copy to the row as it stands under the
  // partition's commit mutex, by the move rule (apply_move), and journals
  // the result. A shard this pass could not move is an error only while
  // that row still holds it: a concurrent update may have dropped it.
  std::vector<ShardLocation> doomed;   // retired copies, deleted after
  std::vector<ShardLocation> surplus;  // new copies no move applied
  const Status committed =
      commit(part, [&](const MetadataStore& store) -> Result<JournalRecord> {
        ChunkEntry next = store.chunk_entry(local).value();
        for (const ShardLocation& loc : unmoved) {
          if (holds(next, loc)) ++stats.errors;
        }
        for (const Copy& c : copies) {
          switch (apply_move(next, c.from, c.to)) {
            case MoveOutcome::kApplied:
              ++stats.moved;
              stats.bytes += c.bytes;
              if (c.answered) doomed.push_back(c.from);
              continue;
            case MoveOutcome::kCollides:
              ++stats.errors;
              break;
            case MoveOutcome::kGone:
              break;
          }
          surplus.push_back(c.to);
        }
        if (stats.moved == 0) return Status::NotFound("no move applies");
        JournalRecord rec;
        rec.op = JournalOp::kUpdateChunk;
        rec.chunks.push_back(JournalChunk{0, local, std::move(next)});
        return rec;
      });
  drop_stripe(surplus, nullptr);
  if (stats.moved == 0) return stats;
  CS_RETURN_IF_ERROR(committed);
  // The new locations are durable; the old copies can go.
  drop_stripe(doomed, nullptr);
  return stats;
}

Result<std::size_t> CloudDataDistributor::maintenance_walk(
    const char* op_name, const MovePolicy& policy, const char* moved_counter) {
  OpScope op(*this, op_name);
  // One chunk in flight keeps the index visit order, and so the journal
  // append order, deterministic.
  Migrator walker(*this, Migrator::Config{0.0, 1});
  Result<Migrator::Report> pass = walker.run(policy);
  const std::size_t moved = walker.progress().shards_moved;
  op.shards = moved;
  if (moved != 0 && telemetry_->enabled()) {
    telemetry_->metrics().counter(moved_counter).inc(moved);
  }
  CS_RETURN_IF_ERROR(op.finish(pass.status()));
  return moved;
}

Result<std::size_t> CloudDataDistributor::repair() {
  return maintenance_walk("repair", MovePolicy::heal(false),
                          "cdd.repaired_shards");
}

Result<std::size_t> CloudDataDistributor::rebalance() {
  return maintenance_walk("rebalance", MovePolicy::demote(),
                          "cdd.migrated_shards");
}

Result<CloudDataDistributor::ReconcileReport>
CloudDataDistributor::reconcile(
    const std::vector<std::pair<std::string, std::string>>& in_flight) {
  OpScope op(*this, "reconcile");
  ReconcileReport report;

  // 1. The referenced set: every (provider, id) a live chunk row points at,
  //    unioned across ALL partitions -- a shard referenced by any partition
  //    must survive the sweep. Everything else -- at a provider or in a
  //    provider table -- is a crash leftover.
  std::vector<std::unordered_set<VirtualId>> referenced(registry_.size());
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    const MetadataStore& part = plane_->store(s);
    const std::size_t n = part.total_chunks();
    for (std::size_t idx = 0; idx < n; ++idx) {
      Result<ChunkEntry> entry = part.chunk_entry(idx);
      if (!entry.ok()) continue;
      for (const std::vector<ShardLocation>* locs :
           {&entry.value().stripe, &entry.value().snapshot}) {
        for (const ShardLocation& loc : *locs) {
          if (loc.provider < referenced.size()) {
            referenced[loc.provider].insert(loc.virtual_id);
          }
        }
      }
    }
  }

  // 2. Sweep provider-side objects no row references: shards of
  //    uncommitted puts, or drops the crash interrupted after their
  //    removal record committed. Row writers keep such ids out of every
  //    provider table, but an image written by an older build can list
  //    them, so record_removal goes to every partition -- only the
  //    (unknown) owning one can have the id, and erasure is a no-op
  //    elsewhere.
  for (ProviderIndex p = 0; p < registry_.size(); ++p) {
    for (VirtualId id : registry_.at(p).list_ids()) {
      if (referenced[p].count(id) != 0) continue;
      RequestLayer::Outcome rpc = rt_.remove(p, id);
      op.times.push_back(rpc.time);
      for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
        plane_->store(s).record_removal(p, id);
      }
      if (rpc.status.ok()) ++report.orphans_removed;
    }
  }

  // 3. Per-partition provider-table ids with neither a referencing row nor
  //    an object. Only an image written by an older build, which recorded
  //    placements before the row committed, can hold one (a write whose
  //    shards never survived the crash). An id lives in exactly one
  //    partition's table, so the count does not double.
  for (std::size_t s = 0; s < plane_->shard_count(); ++s) {
    MetadataStore& part = plane_->store(s);
    const auto provider_rows = part.provider_table();
    for (ProviderIndex p = 0; p < provider_rows.size(); ++p) {
      for (VirtualId id : provider_rows[p].virtual_ids) {
        if (p < referenced.size() && referenced[p].count(id) != 0) continue;
        part.record_removal(p, id);
        ++report.stale_ids;
      }
    }
  }

  // 4. Release the claims replay re-created from replay-only kBeginPut
  //    records with no commit: they block the filename forever otherwise.
  //    A crashed live put leaves just the shards swept above. Claim and
  //    abort record both live in the file's owning partition.
  for (const auto& [client, filename] : in_flight) {
    JournalRecord rec;
    rec.op = JournalOp::kAbortPut;
    rec.client = client;
    rec.filename = filename;
    if (Status st = commit(plane_->shard_of(client, filename),
                           [&](const MetadataStore&) { return rec; });
        !st.ok()) {
      return op.finish(st);
    }
    ++report.aborted_files;
  }

  // 5. Heal any stripe the crash degraded (e.g. a provider that lost
  //    writes).
  Result<std::size_t> repaired = repair();
  if (!repaired.ok()) {
    return op.finish(repaired.status());
  }
  report.repaired_shards = repaired.value();

  if (telemetry_->enabled()) {
    obs::MetricsRegistry& m = telemetry_->metrics();
    if (report.orphans_removed != 0) {
      m.counter("cdd.recovery_orphans_removed").inc(report.orphans_removed);
    }
    if (report.aborted_files != 0) {
      m.counter("cdd.recovery_aborted_puts").inc(report.aborted_files);
    }
  }
  (void)op.finish(Status::Ok());
  return report;
}

// --- dynamic provider topology ------------------------------------------

void CloudDataDistributor::ring_insert(ProviderIndex p,
                                       std::string_view name) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_members_.insert(p).second) {
    ring_.add_provider(p, name);
  }
}

void CloudDataDistributor::ring_erase(ProviderIndex p) {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_members_.erase(p) != 0) {
    ring_.remove_provider(p);
  }
}

ProviderIndex CloudDataDistributor::ring_owner(VirtualId key) const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.empty()) return kNoProvider;
  return ring_.lookup(key);
}

Result<ProviderIndex> CloudDataDistributor::add_provider(
    storage::ProviderDescriptor descriptor,
    const storage::LatencyModel& latency, std::uint64_t seed) {
  if (descriptor.name.empty()) {
    return Status::InvalidArgument("add_provider: empty provider name");
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  if (registry_.find(descriptor.name) != kNoProvider) {
    return Status::AlreadyExists("add_provider: " + descriptor.name);
  }
  // seed 0: the registry derives one from the fleet size under its lock.
  const ProviderIndex p = registry_.add(std::move(descriptor), latency, seed,
                                        ProviderLifecycle::kJoining);
  // Provider rows are broadcast: every partition's checkpoint+journal pair
  // must know the fleet to replay the rows that place shards on it.
  CS_RETURN_IF_ERROR(
      broadcast(provider_record(p, ProviderLifecycle::kJoining)));
  return p;
}

Status CloudDataDistributor::begin_migration(MigrationKind kind,
                                             ProviderIndex subject) {
  if (subject >= registry_.size()) {
    return Status::InvalidArgument("begin_migration: no such provider");
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  const std::string name = registry_.at(subject).descriptor().name;
  switch (kind) {
    case MigrationKind::kJoin: {
      if (registry_.lifecycle(subject) != ProviderLifecycle::kJoining) {
        return Status::FailedPrecondition(
            "begin_migration: " + name + " is " +
            std::string(
                provider_lifecycle_name(registry_.lifecycle(subject))) +
            ", not joining");
      }
      // The joiner enters the ring *before* any shard moves: the migration
      // itself computes the stolen arcs from this post-join ring, and
      // placement still ignores the provider until commit activates it.
      ring_insert(subject, name);
      break;
    }
    case MigrationKind::kDrain:
    case MigrationKind::kDecommission: {
      // Draining a provider must leave at least one active member or
      // placement (and the migration itself) has nowhere to go. The
      // registry enforces that atomically with the transition, so two
      // concurrent drains of the last two active providers cannot both
      // slip through a check-then-act window.
      CS_RETURN_IF_ERROR(registry_.drain(subject));
      ring_erase(subject);
      break;
    }
  }
  // Migration intents are broadcast so any single shard's recovery alone
  // can resume the interrupted migration; applying the record sets each
  // partition's lifecycle row.
  return broadcast(
      migration_record(JournalOp::kBeginMigrate, kind, subject, name));
}

Status CloudDataDistributor::commit_migration(MigrationKind kind,
                                              ProviderIndex subject) {
  if (subject >= registry_.size()) {
    return Status::InvalidArgument("commit_migration: no such provider");
  }
  std::lock_guard<std::mutex> lock(fleet_mu_);
  switch (kind) {
    case MigrationKind::kJoin:
      CS_RETURN_IF_ERROR(registry_.activate(subject));
      break;
    case MigrationKind::kDrain:
      // The provider stays kDraining -- emptied, still serving reads --
      // until an explicit decommission retires it.
      break;
    case MigrationKind::kDecommission:
      CS_RETURN_IF_ERROR(registry_.decommission(subject));
      break;
  }
  return broadcast(migration_record(JournalOp::kCommitMigrate, kind, subject,
                                   registry_.at(subject).descriptor().name));
}

}  // namespace cshield::core
