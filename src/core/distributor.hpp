// CloudDataDistributor -- the paper's central entity (SIV-A, SV, SVI).
//
// "Cloud Data Distributor is the entity that receives data (files) from
// clients, performs fragmentation of data (splits files into chunks) and
// distributes these fragments (chunks) among Cloud Providers. ... Clients do
// not interact with Cloud Providers directly rather via Cloud Data
// Distributor."
//
// The pipeline per file:
//   categorize (client-chosen privacy level)
//     -> fragment (PL-sized chunks, optionally record-aligned)
//     -> chaff (optional misleading bytes, positions kept in the tables)
//     -> erasure-code (RAID-5 default, RAID-6 for high assurance)
//     -> place (trust-eligible, cost-preferring, randomized providers)
//     -> upload under fresh virtual ids that carry no client identity.
//
// Reads authenticate a <password, PL> pair, check privilege against the
// chunk PL, fetch the stripe in parallel, verify per-shard SHA-256 digests
// (a corrupted shard counts as an erasure and RAID recovers through it),
// decode, strip chaff, and return the plaintext chunk.
//
// Several distributor front-ends may share one MetadataPlane -- that is the
// Fig. 2 multi-distributor architecture (see multi_distributor.hpp).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/chunker.hpp"
#include "dht/ring.hpp"
#include "crypto/aes.hpp"
#include "core/journal.hpp"
#include "core/metadata_plane.hpp"
#include "core/placement.hpp"
#include "core/request_layer.hpp"
#include "core/shard_batcher.hpp"
#include "core/tables.hpp"
#include "obs/telemetry.hpp"
#include "raid/raid.hpp"
#include "storage/provider_registry.hpp"
#include "util/sim_clock.hpp"
#include "util/thread_pool.hpp"

namespace cshield::core {

struct DistributorConfig {
  ChunkSizePolicy chunk_sizes;
  raid::RaidLevel default_raid = raid::RaidLevel::kRaid5;
  std::size_t stripe_data_shards = 3;  ///< k data shards per stripe
  std::size_t replication = 1;         ///< extra copies when RAID-1 is chosen
  double misleading_fraction = 0.0;    ///< default chaff ratio
  /// Default protection transform per privacy level (PutOptions::protection
  /// overrides). kMisleadingBytes applies no payload transform beyond the
  /// chaff governed by misleading_fraction -- the pre-ProtectionMode
  /// behavior. kPartialAes encrypts a PL-dependent prefix of each chunk
  /// with AES-128-CTR under `protection_key`; kFragmentation entangles the
  /// chunk's data shards key-lessly (crypto/fragmentation.hpp).
  std::array<ProtectionMode, kNumPrivacyLevels> protection_by_pl{
      ProtectionMode::kMisleadingBytes, ProtectionMode::kMisleadingBytes,
      ProtectionMode::kMisleadingBytes, ProtectionMode::kMisleadingBytes};
  /// Key for the partial-AES mode. Stable across restarts by default so a
  /// recovered distributor can still decrypt; a real deployment injects the
  /// client's key here.
  crypto::AesKey protection_key{0xC5, 0x1E, 0x1D, 0x00, 0x01, 0x02, 0x03,
                                0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A,
                                0x0B, 0x0C};
  PlacementMode placement = PlacementMode::kCostAware;
  /// Chunk-level compute channels. A multi-chunk put/get/remove fans every
  /// chunk's stripe out to this pool as independent work, so up to this
  /// many stripes are in flight at once; 1 walks the chunks one stripe at
  /// a time (the per-stripe barrier baseline bench_throughput gates
  /// against).
  std::size_t worker_threads = 8;
  /// Shard RPC channels. Shard I/O is latency-bound, not CPU-bound, so the
  /// I/O pool is wider than the compute pool (real object-store clients do
  /// the same). 0 = 4 x worker_threads.
  std::size_t io_threads = 0;
  /// Runtime telemetry toggle. When true the distributor records per-op
  /// trace spans and pipeline metrics into `telemetry_sink` (or, when that
  /// is null, the process-global obs::Telemetry::global()), and wires the
  /// provider registry + placement policy into the same sink. When false
  /// the distributor carries a private disabled sink: every
  /// instrumentation site reduces to one relaxed atomic load.
  bool telemetry = true;
  std::shared_ptr<obs::Telemetry> telemetry_sink;
  /// Fault tolerance for every shard RPC: retry budget, degraded-read
  /// budget, backoff, deadline and breaker gating (see
  /// core/request_layer.hpp).
  RetryPolicy retry;
  /// Cross-operation shard-RPC batching (see core/shard_batcher.hpp): when
  /// > 1, the stripe writer routes every shard put through a per-provider
  /// batcher that coalesces shards from concurrent operations into one
  /// put_many RPC, closed at `rpc_batch_shards` shards or `rpc_batch_wait`
  /// after a lane's first pending shard. 1 = per-shard RPCs (the
  /// pre-batching behavior; default -- batching trades a bounded latency
  /// wait for round-trip amortization, a good trade only under concurrent
  /// small-op load).
  std::size_t rpc_batch_shards = 1;
  std::chrono::microseconds rpc_batch_wait{500};
  /// Auto-checkpoint once a shard's journal holds this many records (0 =
  /// only explicit checkpoint() calls). Bounds both journal growth and
  /// replay time after a crash.
  std::size_t checkpoint_interval = 0;
  /// The metadata plane (see core/metadata_plane.hpp) -- the only way to
  /// give a distributor metadata. Per-(client, filename) state routes to
  /// the partition shard_of(client, filename), each with its own lock, its
  /// own write-ahead journal lane and its own checkpoint image (see
  /// MetadataPlane::open). Journaling is all-or-nothing across partitions
  /// (shard 0 decides). Front-ends sharing one namespace share one plane.
  /// Null = a fresh in-memory 1-shard plane.
  std::shared_ptr<MetadataPlane> plane;
  /// Stall watchdog (see obs/watchdog.hpp). When set, every client-visible
  /// op and every request-layer RPC arms an in-flight entry carrying its
  /// modeled deadline, and the journal's flush leader brackets its
  /// write+fsync window; the watchdog's poll turns any of them exceeding
  /// its threshold into a one-shot diagnostic dump. Null = off.
  std::shared_ptr<obs::StallWatchdog> watchdog;
  std::uint64_t seed = 0xC10D0D15;
};

/// Per-upload overrides (the client's "demands": sensitivity, assurance,
/// chaff).
struct PutOptions {
  PrivacyLevel privacy_level = PrivacyLevel::kModerate;
  std::optional<raid::RaidLevel> raid;  ///< e.g. kRaid6 for "higher assurance"
  std::optional<double> misleading_fraction;
  /// Protection transform; default is the config's per-PL choice.
  std::optional<ProtectionMode> protection;
  std::size_t record_align = 0;  ///< chunk sizes snap to this record width
};

/// Measured footprint of one operation. Filled from the same accumulator
/// that produces the op's root trace span (see OpScope in distributor.cpp),
/// so the report and the span can never disagree.
struct OpReport {
  std::size_t chunks = 0;
  std::size_t shards = 0;
  std::size_t bytes_logical = 0;  ///< client payload bytes
  std::size_t bytes_stored = 0;   ///< bytes at providers (chaff + parity)
  std::size_t parity_reads = 0;   ///< parity shards actually fetched
  std::size_t retries = 0;        ///< shard RPCs re-issued after kUnavailable
  std::size_t replaced_shards = 0;  ///< shards re-placed off failing providers
  bool rolled_back = false;       ///< op unwound already-written stripes
  SimDuration sim_time_parallel{0};  ///< modeled makespan over worker channels
  SimDuration sim_time_serial{0};    ///< modeled sum of all provider requests
  double wall_seconds = 0.0;         ///< executed CPU time (chunk/parity math)
};

/// What a maintenance rewrite moves, and where (see
/// CloudDataDistributor::rewrite_chunk). Plain data: the distributor reads
/// it, so a policy needs no access to placement internals.
///   heal     a single-attempt probe of every shard; the missing and the
///            digest-failing ones go to replacement_target.
///   migrate  join: the shards on the joiner's stolen ring arc go to the
///            joiner. drain/decommission: the shards on `subject` go to
///            their ring successor (replacement_target with a ring key).
///   demote   the shards whose holder is no longer privileged for the
///            row's PL go to replacement_target.
struct MovePolicy {
  enum class Kind : std::uint8_t { kHeal, kMigrate, kDemote };
  Kind kind = Kind::kHeal;
  /// heal: charge each provider that served bad bytes a scrub error.
  bool scrub = false;
  MigrationKind migration = MigrationKind::kJoin;  ///< migrate only
  ProviderIndex subject = kNoProvider;             ///< migrate only

  static MovePolicy heal(bool scrub) { return {Kind::kHeal, scrub}; }
  static MovePolicy migrate(MigrationKind kind, ProviderIndex subject) {
    return {Kind::kMigrate, false, kind, subject};
  }
  static MovePolicy demote() { return {Kind::kDemote}; }
};

/// What rewriting one chunk (stripe + snapshot) did.
struct RewriteStats {
  std::size_t moved = 0;       ///< shards re-homed
  std::size_t bytes = 0;       ///< shard bytes written to new homes
  std::size_t mismatches = 0;  ///< shards that answered with a bad digest
  std::size_t errors = 0;      ///< shards left in place for the next pass
};

class CloudDataDistributor {
 public:
  /// `registry` must outlive the distributor. Providers are registered
  /// into every partition of `config.plane` that does not know them yet.
  CloudDataDistributor(storage::ProviderRegistry& registry,
                       DistributorConfig config);

  // --- client management ----------------------------------------------

  Status register_client(const std::string& name);
  Status add_password(const std::string& client, const std::string& password,
                      PrivacyLevel pl);

  // --- SVI "Distribute Data" --------------------------------------------

  /// Uploads a file: split -> chaff -> encode -> place -> put. The password
  /// must be privileged for the file's privacy level. Duplicate filenames
  /// per client are rejected.
  Status put_file(const std::string& client, const std::string& password,
                  const std::string& filename, BytesView data,
                  const PutOptions& options, OpReport* report = nullptr);

  // --- SVI "Retrieve Data" ------------------------------------------------

  /// get_file(client name, password, filename) -- all chunks, in parallel.
  [[nodiscard]] Result<Bytes> get_file(const std::string& client,
                                       const std::string& password,
                                       const std::string& filename,
                                       OpReport* report = nullptr);

  /// get_chunk(client name, password, filename, sl no.).
  [[nodiscard]] Result<Bytes> get_chunk(const std::string& client,
                                        const std::string& password,
                                        const std::string& filename,
                                        std::uint64_t serial,
                                        OpReport* report = nullptr);

  /// A client's file inventory from its Table II rows. Only files whose
  /// privacy level the password can read are listed -- a low-privilege
  /// password cannot even learn the names of more sensitive files.
  struct FileInfo {
    std::string filename;
    PrivacyLevel privacy_level = PrivacyLevel::kPublic;
    std::size_t chunks = 0;
  };
  [[nodiscard]] Result<std::vector<FileInfo>> list_files(
      const std::string& client, const std::string& password);

  // --- modification & snapshots (Table III's SP column) ------------------

  /// Overwrites one chunk's payload by promotion: the new payload is sealed
  /// into a fresh stripe, and one version-CAS row commit makes the current
  /// stripe the snapshot -- left on its providers, protected as it was --
  /// and the sealed stripe current. The superseded snapshot is deleted
  /// after the journal append. No stripe is read back or copied.
  Status update_chunk(const std::string& client, const std::string& password,
                      const std::string& filename, std::uint64_t serial,
                      BytesView new_data, OpReport* report = nullptr);

  /// Retrieves the pre-modification state of a chunk: the stripe that was
  /// current before its last update. NotFound when it was never updated.
  [[nodiscard]] Result<Bytes> get_chunk_snapshot(const std::string& client,
                                                 const std::string& password,
                                                 const std::string& filename,
                                                 std::uint64_t serial);

  // --- SVI "Remove Data" ---------------------------------------------------

  Status remove_chunk(const std::string& client, const std::string& password,
                      const std::string& filename, std::uint64_t serial);
  Status remove_file(const std::string& client, const std::string& password,
                     const std::string& filename);

  // --- maintenance -----------------------------------------------------
  //
  // Healing lost or corrupt shards, moving shards for a fleet change and
  // evicting shards from a demoted provider are one per-chunk rewrite under
  // different MovePolicy values (rewrite_chunk). core::Migrator is the one
  // walker that drives a policy over the chunk table.

  /// Scans every live stripe, re-derives shards that are missing or fail
  /// their digest, and re-places them on healthy eligible providers not
  /// already holding stripe members. Returns the number of shards repaired
  /// via the Result value. One synchronous heal walk.
  Result<std::size_t> repair();

  /// Trust-driven migration: when a provider's privacy level has been
  /// demoted (reputation loss, see core/reputation.hpp) below the
  /// sensitivity of chunks it holds, moves those shards to providers that
  /// still qualify and deletes them at the demoted provider. Returns the
  /// number of shards migrated. One synchronous demote walk.
  Result<std::size_t> rebalance();

  /// Rewrites one chunk (stripe and snapshot) under `policy`, which picks
  /// the affected shards and their new homes. The rest is fixed: read the
  /// versioned row; fetch each affected shard through the request layer and
  /// check its digest, RAID-reconstructing it from digest-checked survivors
  /// on a miss or mismatch; put it at its new home; commit the row by
  /// version CAS plus a kUpdateChunk journal record; then delete the retired
  /// copies that answered. Copy-commit-delete means a crash leaves orphan
  /// duplicates for reconcile(), never a hole, and a re-run finds moved
  /// shards already home. A lost CAS deletes the new copies and redoes from
  /// the fresh row (8 attempts); a shard that cannot be fetched or placed
  /// counts in `errors` and stays where it is.
  Result<RewriteStats> rewrite_chunk(std::size_t index,
                                     const MovePolicy& policy);

  // --- dynamic provider topology (runtime join/drain/decommission) -------
  //
  // The fleet changes at runtime without a restart. A join registers the
  // provider as kJoining (invisible to placement), then a migration moves it
  // exactly its consistent-hash ring share -- ~1/n of the shard population,
  // not the ~100% a naive rehash would move -- and activates it. A drain
  // removes the provider from the ring and placement, moves its resident
  // shards to ring successors, and leaves it emptied (still serving reads)
  // until decommissioned. Every step is journaled (kBeginMigrate /
  // kCommitMigrate) so a crash at any point resumes idempotently.
  //
  // The per-chunk unit of work is rewrite_chunk() under
  // MovePolicy::migrate(); core/migrator.hpp walks it and brackets the walk
  // with begin_migration()/commit_migration().

  /// Registers a brand-new provider as kJoining: registry + metadata +
  /// journal. It owns no ring share and takes no placement until a kJoin
  /// migration runs and commits. `seed` 0 derives one from the fleet size.
  Result<ProviderIndex> add_provider(storage::ProviderDescriptor descriptor,
                                     const storage::LatencyModel& latency = {},
                                     std::uint64_t seed = 0);

  /// Opens a migration: validates/applies the lifecycle transition, updates
  /// the ring (join: subject added; drain/decommission: subject removed) and
  /// journals kBeginMigrate. Idempotent -- crash-resume re-issues it.
  Status begin_migration(MigrationKind kind, ProviderIndex subject);

  /// Closes a migration: journals kCommitMigrate and applies the final
  /// lifecycle (join -> kActive, decommission -> kDecommissioned, drain
  /// stays kDraining awaiting decommission). Idempotent.
  Status commit_migration(MigrationKind kind, ProviderIndex subject);

  /// The ring's owner for a virtual id (kNoProvider on an empty ring).
  /// Exposed so tests and benches can predict a join's stolen share.
  [[nodiscard]] ProviderIndex ring_owner(VirtualId key) const;

  // --- durability & crash recovery (see core/journal.hpp) ---------------

  /// Folds every shard's journal into an atomic snapshot at that shard's
  /// checkpoint path. Requires a journaled plane.
  Status checkpoint();

  /// What reconcile() had to clean up after a crash.
  struct ReconcileReport {
    std::size_t orphans_removed = 0;  ///< provider objects no chunk references
    std::size_t stale_ids = 0;        ///< provider-table ids with no object
    std::size_t aborted_files = 0;    ///< in-flight puts rolled back
    std::size_t repaired_shards = 0;  ///< shards healed by the repair pass
  };

  /// Post-recovery reconciliation. Construct the distributor over a plane
  /// of recover_plane()'s stores, then call this with its `in_flight` list:
  /// sweeps provider objects no committed chunk references (shards of
  /// uncommitted puts, drops a crash interrupted), clears stale provider-
  /// table ids, aborts the in-flight puts, and runs a full repair pass for
  /// stripes degraded by the crash.
  Result<ReconcileReport> reconcile(
      const std::vector<std::pair<std::string, std::string>>& in_flight);

  /// Shard-0 partition of the metadata plane -- the whole namespace on an
  /// unsharded (1-shard) plane, one partition of it otherwise.
  [[nodiscard]] const MetadataStore& metadata() const {
    return plane_->store(0);
  }
  /// The (possibly 1-shard) metadata plane every op routes through.
  [[nodiscard]] const std::shared_ptr<MetadataPlane>& plane() const {
    return plane_;
  }
  /// Exclusive upper bound of the global chunk index space the maintenance
  /// walker sweeps. Globals may be sparse on a sharded plane -- a missing
  /// slot reads as NotFound and is skipped. Equals
  /// metadata().total_chunks() on a 1-shard plane.
  [[nodiscard]] std::size_t chunk_index_bound() const {
    return plane_->global_chunk_bound();
  }
  [[nodiscard]] storage::ProviderRegistry& registry() { return registry_; }
  [[nodiscard]] const DistributorConfig& config() const { return config_; }

  /// The telemetry sink this distributor reports into. Never null; when
  /// config().telemetry is false it is a private, permanently-disabled
  /// instance.
  [[nodiscard]] const std::shared_ptr<obs::Telemetry>& telemetry() const {
    return telemetry_;
  }

 private:
  struct StripeWriteResult {
    std::vector<ShardLocation> locations;
    std::vector<crypto::Digest> digests;
    std::size_t bytes_stored = 0;
    std::size_t retries = 0;   ///< shard RPC retries across the stripe
    std::size_t replaced = 0;  ///< shards re-placed off failing providers
  };

  /// Which of a chunk row's two stripes to open: the current one (CP
  /// column) or the pre-modification snapshot (SP column).
  enum class StripeVersion { kCurrent, kSnapshot };

  /// What a stripe read had to do beyond the happy path (feeds the
  /// parity-fallback counters and OpReport::parity_reads).
  struct StripeReadStats {
    std::size_t parity_reads = 0;  ///< parity shards fetched for recovery
    std::size_t retries = 0;       ///< shard RPC retries across the stripe
  };

  /// Authenticates and checks privilege against `required`. Every failure
  /// counts in cdd.auth_failures.
  Result<PrivacyLevel> authorize(const std::string& client,
                                 const std::string& password,
                                 PrivacyLevel required) const;

  /// A chunk op's target: owning metadata partition, ref, and row with the
  /// version it was read at (the token a row commit is checked against).
  struct ChunkTarget {
    std::size_t shard = 0;
    ChunkRef ref;
    ChunkEntry entry;
    std::uint64_t version = 0;
  };
  /// A file op's target: owning metadata partition and serial-ordered refs.
  struct FileTarget {
    std::size_t shard = 0;
    std::vector<ChunkRef> refs;
  };

  /// The lookup-and-authorize preamble of every chunk op: resolves the ref
  /// in the owning partition, authorizes against the chunk's PL and reads
  /// its row. A missing name still authenticates first, so a bad password
  /// is PERMISSION_DENIED whether or not the name exists -- it cannot probe
  /// the namespace.
  Result<ChunkTarget> lookup_chunk(const std::string& client,
                                   const std::string& password,
                                   const std::string& filename,
                                   std::uint64_t serial) const;

  /// The file ops' preamble, same contract: authorizes once against the
  /// file's highest chunk PL.
  Result<FileTarget> lookup_file(const std::string& client,
                                 const std::string& password,
                                 const std::string& filename) const;

  /// Seals one chunk payload into a fresh current stripe of `row`: chaff at
  /// ratio `chaff` on the chunk's own RNG stream (only the seed is drawn
  /// under mu_), row.protection under a fresh nonce, then write_stripe.
  /// The caller sets row.privacy_level, layout and protection; seal sets
  /// stripe, shard_digests, misleading, padded_size, protect_nonce and
  /// protect_bytes. The returned locations and digests have moved into
  /// `row`; the rest of the result is the write's footprint.
  Result<StripeWriteResult> seal(BytesView plain, double chaff,
                                 ChunkEntry& row,
                                 std::vector<SimDuration>& times,
                                 const obs::SpanCtx& span, std::size_t shard);

  /// The body of get_chunk and get_chunk_snapshot: one traced op that
  /// opens `version` of the chunk's row.
  Result<Bytes> read_chunk(const std::string& client,
                           const std::string& password,
                           const std::string& filename, std::uint64_t serial,
                           StripeVersion version, OpReport* report);

  /// Inverse of seal for one of `row`'s stripes: read_stripe, undo the
  /// protection, strip the chaff. Returns the plaintext chunk.
  Result<Bytes> open(const ChunkEntry& row, StripeVersion version,
                     std::vector<SimDuration>& times,
                     const obs::SpanCtx& span = {},
                     StripeReadStats* stats = nullptr);

  /// Runs body(i) for every i < n and joins: as independent compute-pool
  /// tasks when n > 1 (an N-chunk op keeps every chunk's stripe in flight
  /// at once instead of N per-stripe barriers), inline for one item.
  void fan_out(std::size_t n, const std::function<void(std::size_t)>& body);

  /// The removal body of remove_chunk and remove_file: tombstones every
  /// ref in `target` by version CAS from its fresh row and unlinks it,
  /// journals one `kind` record, and only then deletes the shards those
  /// rows held at providers, so a crash mid-drop leaves orphans for
  /// reconcile(), never a live row pointing at vanished shards. `kind`
  /// (kRemoveChunk or kRemoveFile) also names the op's span and metrics.
  Status remove_refs(const std::string& client, const std::string& filename,
                     const FileTarget& target, JournalOp kind);

  /// Applies the protection transform to a chaffed padded payload, in
  /// place, before it is encoded/digested/uploaded. Returns the AES-
  /// encrypted prefix length (0 for the other modes), which the chunk row
  /// must record for the inverse.
  std::size_t apply_protection(Bytes& padded, ProtectionMode mode,
                               PrivacyLevel pl,
                               const raid::StripeLayout& layout,
                               std::uint64_t nonce) const;

  /// Inverse of apply_protection on a decoded padded payload (runs before
  /// the chaff strip), under the parameters the row recorded for it.
  void remove_protection(Bytes& padded, ProtectionMode mode,
                         const raid::StripeLayout& layout,
                         std::uint64_t nonce, std::size_t protect_bytes) const;

  VirtualId next_virtual_id();

  /// Places a stripe for `pl` (placement_ under mu_), encodes `payload`
  /// under `layout` and uploads the shards via the I/O pool, appending
  /// per-request service times to `times`.
  /// Per-shard SHA-256 digests are computed inside the upload tasks, off
  /// the caller thread. Safe to call from pool_ tasks: shard work runs on
  /// io_pool_, whose tasks never submit further work, so blocking on them
  /// cannot deadlock the compute pool.
  /// `pl` is the chunk's privacy level: placement picks trust-eligible
  /// providers for it, and a shard whose provider keeps failing is
  /// re-placed on another trust-eligible one (the write-quarantine path)
  /// instead of failing the stripe.
  /// `shard` is the metadata partition owning the chunk being written --
  /// its provider table records the placements, keeping each partition's
  /// checkpoint self-consistent with its own chunk rows.
  Result<StripeWriteResult> write_stripe(BytesView payload,
                                         const raid::StripeLayout& layout,
                                         PrivacyLevel pl,
                                         std::vector<SimDuration>& times,
                                         const obs::SpanCtx& span,
                                         std::size_t shard);

  /// Fetches + digest-verifies + RAID-decodes one stripe into its padded
  /// payload (chaff still present). The one read strategy: the data shards
  /// at the degraded-read budget, then -- only on a miss or a digest
  /// failure -- the missing data shards plus all parity at the full budget,
  /// in one round. A layout without parity reads its data shards at the
  /// full budget. A row whose stripe or digest count disagrees with its
  /// layout reads as kCorrupted.
  Result<Bytes> read_stripe(const raid::StripeLayout& layout,
                            const std::vector<ShardLocation>& stripe,
                            const std::vector<crypto::Digest>& digests,
                            std::size_t padded_size,
                            std::vector<SimDuration>& times,
                            const obs::SpanCtx& span = {},
                            StripeReadStats* stats = nullptr);

  /// One shard as fetch_shards found it.
  struct ShardRead {
    enum class Held : std::uint8_t { kIntact, kCorrupt, kMissing };
    Held held = Held::kMissing;
    std::optional<Bytes> data;  ///< set only when intact
    SimDuration time{0};        ///< modeled request time, retries included
    std::uint32_t retries = 0;
  };

  /// The one fetch-and-verify body of every shard read (read_stripe and
  /// rewrite_chunk's probes): fetches stripe[s] for each s in `idxs`
  /// through the request layer with `attempts` (0 = the full budget) and
  /// checks it against digests[s]; the result aligns with `idxs`. Fetches
  /// run concurrently on io_pool_ (same deadlock-freedom argument as
  /// write_stripe). When `span` is armed each fetch records a shard_get
  /// child span; otherwise no span record is built. The caller checks the
  /// stripe and digest counts first.
  std::vector<ShardRead> fetch_shards(const raid::StripeLayout& layout,
                                      const std::vector<ShardLocation>& stripe,
                                      const std::vector<crypto::Digest>& digests,
                                      const std::vector<std::size_t>& idxs,
                                      std::size_t attempts,
                                      const obs::SpanCtx& span);

  /// Deletes stripe shards at providers, one after another, and erases
  /// them from the provider table of the owning metadata partition (a no-op
  /// for ids a row commit already retired or that were never recorded).
  /// The one per-stripe delete loop.
  void drop_stripe(const std::vector<ShardLocation>& stripe,
                   std::vector<SimDuration>* times, std::size_t shard);

  /// First healthy (active, trust-eligible, online, not quarantined)
  /// provider outside `stripe`, in registry order; with a `ring_key`, the
  /// key's ring successors come first (a drained shard's new home).
  /// kNoProvider when none qualifies. Home selection for write-quarantine
  /// re-placement and every maintenance policy but join.
  [[nodiscard]] ProviderIndex replacement_target(
      PrivacyLevel pl, const std::vector<ShardLocation>& stripe,
      std::optional<VirtualId> ring_key = std::nullopt) const;

  /// Idempotent ring membership updates (guarded by ring_mu_).
  void ring_insert(ProviderIndex p, std::string_view name);
  void ring_erase(ProviderIndex p);

  /// repair()/rebalance(): one synchronous walk of `policy` inside an op
  /// span named `op`, adding the shards moved to the `moved_counter`
  /// metric. Chunks are visited one at a time, in index order.
  Result<std::size_t> maintenance_walk(const char* op, const MovePolicy& policy,
                                       const char* moved_counter);

  /// True when the plane journals (all-or-nothing across partitions).
  [[nodiscard]] bool journaling() const {
    return plane_->journal(0) != nullptr;
  }

  /// Appends to `shard`'s journal (no-op on an unjournaled plane) and
  /// triggers that shard's auto-checkpoint when the interval is reached.
  Status journal_append(const JournalRecord& rec, std::size_t shard);

  /// Broadcast append: the record goes to every shard journal, so each
  /// partition's checkpoint+journal pair stays self-contained (client rows,
  /// provider rows, migration intents).
  Status journal_append_all(const JournalRecord& rec);

  /// Folds one partition's journal into its checkpoint image.
  Status checkpoint_shard(std::size_t shard);

  storage::ProviderRegistry& registry_;
  DistributorConfig config_;
  /// kPartialAes cipher: `config_.protection_key`'s schedule, built once.
  const crypto::Aes128 protection_cipher_;
  std::shared_ptr<obs::Telemetry> telemetry_;
  std::shared_ptr<MetadataPlane> plane_;
  RequestLayer rt_;  ///< retry/breaker wrapper for every shard RPC
  PlacementPolicy placement_;
  ThreadPool pool_;     ///< chunk-level pipeline stages
  ThreadPool io_pool_;  ///< shard-level provider RPCs (leaf tasks only)
  Rng chaff_rng_;
  std::atomic<std::uint64_t> id_counter_{1};
  std::uint64_t id_key_;
  mutable std::mutex mu_;  ///< guards placement_ and chaff_rng_
  /// Consistent-hash ring over placement-participating providers (kActive,
  /// plus a joiner from its kBeginMigrate on). Joins/drains consult it to
  /// identify the minimal affected shard set instead of rehashing the world.
  mutable std::mutex ring_mu_;
  dht::HashRing ring_;
  std::unordered_set<ProviderIndex> ring_members_;
  /// Cross-op shard-put coalescing; null when rpc_batch_shards <= 1.
  /// Declared last: its flusher threads use rt_/telemetry_, so it must be
  /// destroyed (drained and joined) before them.
  std::unique_ptr<ShardBatcher> batcher_;
};

/// Models the makespan of `times` scheduled greedily onto `channels`
/// parallel provider connections (how long the batch of requests takes with
/// the distributor's thread pool). Exposed for tests/benches.
[[nodiscard]] SimDuration parallel_makespan(std::vector<SimDuration> times,
                                            std::size_t channels);

}  // namespace cshield::core
