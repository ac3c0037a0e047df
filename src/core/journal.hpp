// Write-ahead journal for the Cloud Data Distributor's metadata tables.
//
// The three tables (SIV-A, Tables I-III) are the only unrecomputable state
// in the system; metadata_io's one-shot snapshot loses every mutation since
// the last explicit save. The journal closes that window GFS/Raft-style
// (see PAPERS.md): every metadata mutation appends one CRC32-framed record
// *before* the operation acknowledges to the client, and recovery replays
// checkpoint + journal to rebuild the exact committed state.
//
// File layout (format v4, the only generation -- see kFormatVersion; any
// other version is rejected as unsupported):
//   header : u32 magic | u32 version | u64 checkpoint_ops
//            | u32 shard_index | u32 shard_count           (24 bytes)
//   frames : (u32 payload_len | u32 crc32(payload) | payload)*
//
// `checkpoint_ops` counts the records folded into checkpoints so far, so a
// restarted process can still report how much history the checkpoint
// carries. A torn tail (crash mid-append) is data, not corruption: replay
// stops at the first frame whose length runs past the file or whose CRC
// fails, and Journal::open truncates the tail so the next append lands on
// a clean boundary.
//
// Shard stamp: an N-way partitioned metadata plane gives every partition
// its own journal file with its own group-commit lane, and every header
// names its place (shard_index / shard_count) so a file can never be
// silently replayed into the wrong plane shape: opening an N-shard member
// as 1-shard (or vice versa, or with the wrong N) fails loudly. An
// unsharded journal is shard 0 of 1.
//
// Commit-point discipline (enforced by the distributor, verified by
// tests/recovery_test.cpp and tests/shardplane_test.cpp):
//   - every record is applied and queued in one commit step of its
//     partition (MetadataPlane::commit): under the partition's commit
//     mutex the record is built from the rows as they stand, applied
//     through apply_journal_record -- the function replay runs -- and
//     queued here, so a partition's journal order is its apply order;
//   - a put journals one record, its kCommitPut, after every shard of the
//     file is uploaded; nothing is journaled before its shards leave;
//   - commit records (kCommitPut/kUpdateChunk/kRemoveChunk/kRemoveFile) are
//     durable before any provider-side deletion of superseded stripes and
//     before the client sees OK;
// so a crash at *any* byte of the journal stream leaves either (a) the old
// committed state plus unreferenced orphan shards, or (b) the new committed
// state plus unreferenced orphan shards -- never a committed record whose
// shards are gone. Reconciliation (CloudDataDistributor::reconcile) sweeps
// the orphans by listing every provider.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/metadata_io.hpp"
#include "core/tables.hpp"
#include "obs/telemetry.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace cshield::obs {
class StallWatchdog;
}

namespace cshield::core {

/// Metadata mutation kinds. Values are the on-disk tags -- append-only,
/// never renumber.
enum class JournalOp : std::uint8_t {
  kRegisterProvider = 1,  ///< provider row mirrored from the registry
  kRegisterClient = 2,
  kAddPassword = 3,
  /// Replay-only until format v5: no live path writes it. Replay of a
  /// journal that holds one re-claims the filename, and recovery lists the
  /// claim in `in_flight` for reconcile to release.
  kBeginPut = 4,
  kCommitPut = 5,   ///< all chunk rows of a put, with explicit indices
  /// Replay-only until format v5: releases a kBeginPut claim. Written only
  /// by reconcile, for the in-flight claims an older journal left.
  kAbortPut = 6,
  kUpdateChunk = 7, ///< chunk row overwritten (update/repair/rebalance)
  kRemoveChunk = 8,
  kRemoveFile = 9,
  /// Topology migration intent: a join/drain/decommission of one provider
  /// has started; shard moves (each its own kUpdateChunk) follow. A Begin
  /// without a matching Commit marks a crash mid-migration -- recovery
  /// reports it in RecoveredState::pending_migrations for an idempotent
  /// resume.
  kBeginMigrate = 10,
  kCommitMigrate = 11,  ///< the migration's affected set is fully moved
};

/// What a kBeginMigrate/kCommitMigrate record describes (carried in the
/// record's `level` field; on-disk values, append-only).
enum class MigrationKind : std::uint8_t {
  kJoin = 0,          ///< new provider steals its ring share
  kDrain = 1,         ///< provider emptied, stays readable meanwhile
  kDecommission = 2,  ///< drain, then the provider leaves the fleet
};

inline constexpr int kNumMigrationKinds = 3;

[[nodiscard]] constexpr std::string_view migration_kind_name(
    MigrationKind k) {
  switch (k) {
    case MigrationKind::kJoin: return "join";
    case MigrationKind::kDrain: return "drain";
    case MigrationKind::kDecommission: return "decommission";
  }
  return "invalid";
}

/// One journal record. A flat union-of-fields struct: which fields are
/// meaningful depends on `op` (see encode_record), unused ones stay empty.
struct JournalRecord {
  JournalOp op = JournalOp::kBeginPut;
  std::string client;    ///< provider name for kRegisterProvider / k*Migrate
  std::string filename;  ///< password for kAddPassword
  /// Privacy level (provider / password); MigrationKind for k*Migrate.
  std::uint8_t level = 0;
  std::uint8_t cost = 0;  ///< provider cost level
  /// kRegisterProvider: initial lifecycle (kActive for a static fleet,
  /// kJoining for a runtime join).
  std::uint8_t lifecycle = 1;
  std::uint64_t provider_index = 0;  ///< kRegisterProvider / k*Migrate index
  std::vector<JournalChunk> chunks;  ///< commit / update / remove rows
};

/// Serializes one record payload (no frame). Chunk entries use the
/// metadata_io wire layout, so journal and checkpoint agree byte-for-byte.
[[nodiscard]] Bytes encode_record(const JournalRecord& rec);

/// Parses one record payload; false on truncation or implausible fields.
[[nodiscard]] bool decode_record(BytesView payload, JournalRecord& rec);

/// Outcome of scanning a journal image.
struct JournalReplay {
  std::vector<JournalRecord> records;  ///< longest well-formed prefix
  std::uint64_t checkpoint_ops = 0;    ///< header field
  std::size_t valid_bytes = 0;  ///< bytes up to (excluding) the torn tail
  ShardStamp stamp;              ///< header shard stamp
};

/// Scans a full journal file image. A bad header is an error (the file is
/// not a journal of this format); an image shorter than the header is
/// NotFound (a crash while creating it: no records); a torn/corrupt tail
/// is tolerated -- records stop there.
[[nodiscard]] Result<JournalReplay> replay_journal_image(BytesView image);

/// Group-commit tuning (see Journal::set_group_commit). The defaults
/// reproduce per-op commit: every append is its own batch with its own
/// fsync; grouping changes fsync cadence only, never the bytes on disk.
struct GroupCommitConfig {
  /// Max records folded into one write+fsync. 1 = per-op commit.
  std::size_t batch_ops = 1;
  /// How long a batch leader waits for the batch to fill before flushing
  /// short. 0 = flush whatever is queued immediately (opportunistic
  /// grouping only). Ignored when batch_ops == 1.
  std::chrono::microseconds batch_interval{0};
};

/// Append-only journal file handle. Thread-safe: appends serialize under
/// one mutex and fsync before returning, so "append returned OK" means the
/// record is durable.
///
/// Group commit: concurrent appends enqueue their framed records and the
/// front waiter becomes the batch leader -- it drains up to `batch_ops`
/// records, writes them in queue order, fsyncs ONCE, then wakes each waiter
/// of the batch through that waiter's own condition variable and hands
/// leadership to the new queue front. A timed leader (`batch_interval` >
/// 0) waits for the batch to fill, but closes it early after one idle
/// window with no arrival (kBatchIdleClose, util/batch_close.hpp), so the
/// interval caps the wait instead of always costing it. No waiter is woken
/// before its record is durable or its turn to lead has come. The
/// durability contract is unchanged: append() returns only
/// after the caller's own record is on disk (leaders and followers alike),
/// and the on-disk frame stream is identical to per-op commit -- a batch is
/// just several frames sharing one fsync. One Journal instance per file per
/// process.
class Journal {
 public:
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens (creating if absent) the journal at `path`. An existing file is
  /// scanned and any torn tail truncated away. Rejects files that are not
  /// journals (bad magic / unsupported version) and files whose shard
  /// stamp disagrees with the expected one -- an N-shard member opened as
  /// 1-shard, or with the wrong index/count, fails with a clear error
  /// instead of replaying into the wrong plane shape. The default is
  /// shard 0 of 1.
  [[nodiscard]] static Result<std::unique_ptr<Journal>> open(
      std::filesystem::path path, std::uint32_t shard_index = 0,
      std::uint32_t shard_count = 1);

  /// Appends one framed record. The record is durable when this returns
  /// OK -- under group commit the fsync may be shared with other records
  /// of the same batch, but it has happened before any of them return.
  /// A non-null `queued` is released as soon as the record has its place
  /// in the queue, before the wait for its fsync: a caller that holds it
  /// across its own row change and the append gets journal order equal to
  /// the order it changed rows in (MetadataPlane::commit).
  Status append(const JournalRecord& rec,
                std::unique_lock<std::mutex>* queued = nullptr);

  /// Installs the group-commit tuning. Call before serving traffic (not
  /// synchronized against in-flight appends). The default configuration
  /// (batch_ops = 1) is exact per-op commit.
  void set_group_commit(const GroupCommitConfig& cfg);

  /// Wires flush instrumentation into `tel`: histograms
  /// `journal.batch_size` / `journal.flush_ns` (plus
  /// `journal.shard.<k>.flush_ns` for a member of an N-shard plane) and
  /// counter `journal.group_commits` (batches that folded > 1 record). The
  /// names are resolved to handles here, so a flush never looks a metric up
  /// by name. Attach before serving traffic.
  void attach_telemetry(const std::shared_ptr<obs::Telemetry>& tel);

  /// Lets the stall watchdog see the flush leader's write+fsync window
  /// (fsync_begin/fsync_end brackets): an fsync stuck past the watchdog's
  /// threshold -- a sick disk, a wedged filesystem -- fires its diagnostic.
  /// Attach before serving traffic; `wd` must outlive the journal (null
  /// detaches).
  void attach_watchdog(obs::StallWatchdog* wd);

  /// Atomic checkpoint: calls `snapshot` (typically serialize_metadata),
  /// writes the image to `checkpoint_path` via temp-file + fsync + rename
  /// + directory fsync, then truncates the journal back to its header with
  /// `checkpoint_ops` advanced by the records folded in. Appends are
  /// blocked for the duration, so the snapshot and the truncation are one
  /// cut: every truncated record is inside the checkpoint image.
  Status checkpoint(const std::function<Bytes()>& snapshot,
                    const std::filesystem::path& checkpoint_path);

  /// Records currently in the journal (since the last checkpoint).
  [[nodiscard]] std::size_t record_count() const;
  /// Journal file size in bytes (header included).
  [[nodiscard]] std::uint64_t bytes() const;
  /// Records appended over this handle's lifetime (monotonic).
  [[nodiscard]] std::uint64_t total_appended() const;
  /// Cumulative records folded into checkpoints (persisted in the header).
  [[nodiscard]] std::uint64_t last_checkpoint_ops() const;
  /// Batches flushed (write + fsync cycles) over this handle's lifetime.
  [[nodiscard]] std::uint64_t flushes() const;
  /// Flushes that folded more than one record into a single fsync.
  [[nodiscard]] std::uint64_t group_commits() const;
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  /// This file's shard stamp (0 of 1 for an unsharded journal).
  [[nodiscard]] std::uint32_t shard_index() const { return shard_index_; }
  [[nodiscard]] std::uint32_t shard_count() const { return shard_count_; }

  /// Crash-injection seams for tests: the flush leader calls these for
  /// every record of its batch, in commit order, immediately before the
  /// record's frame is written / after the batch fsync made it durable.
  /// They run on the leader's thread (which under group commit may not be
  /// the appender's thread) with no journal lock held, but all journal I/O
  /// is serialized around them -- so _exit() in the before-hook models a
  /// crash where that record and everything after it are lost, and no
  /// append for those records has returned. Install before serving
  /// traffic; not synchronized against appends.
  std::function<void(const JournalRecord&)> test_hook_before_append;
  std::function<void(const JournalRecord&)> test_hook_after_append;

 private:
  /// One queued append: its framed bytes plus the completion flag/status
  /// the flush leader fills in. Lives on the appender's stack -- append()
  /// does not return until done, so queue pointers stay valid. Every
  /// signal to `cv` is sent under mu_, so the waiter cannot return (and
  /// destroy `cv`) while it is being signalled.
  struct Waiter {
    const JournalRecord* rec = nullptr;
    Bytes frame;
    Status status;
    bool done = false;
    /// Signalled once when the record's batch completes, once when this
    /// waiter reaches the queue front with no flush running (its turn to
    /// lead), and -- while it leads a timed batch -- on every arrival.
    std::condition_variable cv;
  };

  /// Flush instrumentation handles resolved by attach_telemetry (all null
  /// when none is attached).
  struct FlushMetrics {
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* flush_ns = nullptr;
    /// `journal.shard.<k>.flush_ns`; null for a 1-shard plane, whose
    /// flushes report only the aggregate.
    obs::Histogram* shard_flush_ns = nullptr;
    obs::Counter* group_commits = nullptr;
  };

  Journal(std::filesystem::path path, int fd, std::size_t records,
          std::uint64_t bytes, std::uint64_t checkpoint_ops,
          std::uint32_t shard_index, std::uint32_t shard_count);

  /// Leader body, run by `leader` (the queue front): drains up to
  /// batch_ops waiters (a timed batch waits for arrivals until
  /// batch_interval, or kBatchIdleClose without one), writes + fsyncs them
  /// outside the lock, completes every waiter and hands leadership on.
  /// Called with `lk` held; returns with it held.
  void flush_batch(std::unique_lock<std::mutex>& lk, Waiter& leader);

  mutable std::mutex mu_;
  /// Signalled when the journal goes quiet (no flush, empty queue): the
  /// only thing checkpoint() waits for.
  std::condition_variable cv_;
  std::deque<Waiter*> queue_;   ///< appends waiting for a flush
  bool flushing_ = false;       ///< a leader is writing outside the lock
  /// The leader filling a timed batch; arrivals signal it. Null otherwise.
  Waiter* filler_ = nullptr;
  GroupCommitConfig gc_;
  std::filesystem::path path_;
  int fd_ = -1;
  std::size_t records_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t total_appended_ = 0;
  std::uint64_t checkpoint_ops_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t group_commits_ = 0;
  std::uint32_t shard_index_ = 0;
  std::uint32_t shard_count_ = 1;
  std::shared_ptr<obs::Telemetry> telemetry_;  ///< null = no instrumentation
  FlushMetrics metrics_;  ///< handles into telemetry_'s registry
  obs::StallWatchdog* watchdog_ = nullptr;  ///< null = no stall brackets
};

/// Applies one record to a store: replay runs it, and so does every live
/// commit step (MetadataPlane::commit). Idempotent: a record applied twice
/// (a replayed record the checkpoint image already holds) changes nothing
/// the second time. Each chunk-row write carries its own provider-table
/// delta (MetadataStore's row writers apply it).
Status apply_journal_record(MetadataStore& store, const JournalRecord& rec);

/// A topology migration the crash caught mid-flight (kBeginMigrate with no
/// matching kCommitMigrate). Re-running the same migration is idempotent:
/// shards already moved are no longer in the affected set.
struct MigrationIntent {
  MigrationKind kind = MigrationKind::kDrain;
  ProviderIndex provider = kNoProvider;
  std::string provider_name;
};

/// What crash recovery reconstructed.
struct RecoveredState {
  std::shared_ptr<MetadataStore> metadata;
  /// Filenames with a (replay-only) kBeginPut but no kCommitPut/kAbortPut.
  /// The claim must be released and its shards are orphans (reconcile
  /// handles both). A crash of a live put leaves orphan shards and no
  /// entry here.
  std::vector<std::pair<std::string, std::string>> in_flight;
  /// Migrations to resume after reconcile() (journal order preserved).
  std::vector<MigrationIntent> pending_migrations;
  std::size_t replayed_records = 0;
  std::uint64_t checkpoint_ops = 0;
};

/// Rebuilds the committed metadata state: checkpoint image (if any) plus
/// the journal's well-formed record prefix (if any). Neither file existing
/// yields an empty store -- a fresh deployment. The expected shard stamp
/// defaults to shard 0 of 1; images stamped otherwise are rejected (a
/// plane member must be recovered as the shard it was written as).
[[nodiscard]] Result<RecoveredState> recover_metadata(
    const std::filesystem::path& checkpoint_path,
    const std::filesystem::path& journal_path,
    std::uint32_t expected_shard_index = 0,
    std::uint32_t expected_shard_count = 1);

/// Path of shard `k`'s file under a plane's base path: the base itself for
/// shard 0 (so a 1-shard plane lives at the base path), `<base>.s<k>`
/// otherwise. Used for journals and checkpoints alike.
[[nodiscard]] std::filesystem::path shard_file_path(
    const std::filesystem::path& base, std::size_t shard);

/// A journal file's header stamp, read without replaying it. NotFound when
/// the file is absent or shorter than a full header (a fresh / mid-create
/// file holds no records and carries no stamp).
[[nodiscard]] Result<ShardStamp> probe_journal_shard(
    const std::filesystem::path& path);

/// What recovering an N-shard plane reconstructed: every shard's own
/// RecoveredState plus the plane-wide unions reconcile() needs.
struct PlaneRecovery {
  std::vector<RecoveredState> shards;  ///< index = shard
  /// Union of every shard's in-flight puts (each put lives in exactly one
  /// shard's journal, so this is concatenation, deduped for safety).
  std::vector<std::pair<std::string, std::string>> in_flight;
  /// Pending migrations deduped by (kind, provider): topology intents are
  /// broadcast to every shard's journal, so N shards report N copies.
  std::vector<MigrationIntent> pending_migrations;
  std::size_t replayed_records = 0;  ///< sum over shards
};

/// Recovers all `shard_count` members of a plane in parallel -- one
/// ThreadPool::for_each task per shard on a pool of at most one worker per
/// core, each replaying its own checkpoint + journal (paths derived via
/// shard_file_path) -- and validates every member's shard stamp.
/// shard_count 1 is exactly recover_metadata on the base paths.
[[nodiscard]] Result<PlaneRecovery> recover_plane(
    const std::filesystem::path& checkpoint_base,
    const std::filesystem::path& journal_base, std::size_t shard_count);

}  // namespace cshield::core
