#include "core/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <set>
#include <thread>

#include "common/types.hpp"
#include "core/metadata_io.hpp"
#include "obs/watchdog.hpp"
#include "util/batch_close.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/wire.hpp"

namespace cshield::core {
namespace {

constexpr std::uint32_t kJournalMagic = 0xC5D17A6EU;
// magic | version | checkpoint_ops | shard_index | shard_count
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4 + 4;
constexpr std::size_t kFrameOverhead = 4 + 4;  // length + crc

[[nodiscard]] std::uint32_t load_u32(BytesView image, std::size_t off) {
  return wire::load_le<std::uint32_t>(image.data() + off);
}

[[nodiscard]] std::uint64_t load_u64(BytesView image, std::size_t off) {
  return wire::load_le<std::uint64_t>(image.data() + off);
}

/// The one journal header decoder. Fields a short prefix does carry are
/// still checked, so a file of another format or generation is refused
/// however short it is; a well-formed prefix shorter than the header is a
/// crash while creating a fresh journal -- NotFound, it holds no records
/// and carries no stamp. `name` prefixes every error.
[[nodiscard]] Status decode_header(BytesView image, const std::string& name,
                                   JournalReplay& out) {
  if (image.size() >= 4 && load_u32(image, 0) != kJournalMagic) {
    return Status::InvalidArgument(name + ": bad magic");
  }
  if (image.size() >= 8 && load_u32(image, 4) != kFormatVersion) {
    return Status::InvalidArgument(name + ": unsupported version");
  }
  if (image.size() < kHeaderSize) {
    return Status::NotFound(name + ": truncated header");
  }
  out.checkpoint_ops = load_u64(image, 8);
  out.stamp.shard_index = load_u32(image, 16);
  out.stamp.shard_count = load_u32(image, 20);
  if (out.stamp.shard_index >= out.stamp.shard_count) {
    return Status::InvalidArgument(name + ": implausible shard stamp");
  }
  return Status::Ok();
}

/// The error for a file stamped other than the shard it is opened as.
[[nodiscard]] Status stamp_mismatch(const std::string& what, ShardStamp got,
                                    ShardStamp want) {
  return Status::InvalidArgument(
      what + ": shard stamp mismatch: file is shard " +
      std::to_string(got.shard_index) + " of " +
      std::to_string(got.shard_count) + ", opened as shard " +
      std::to_string(want.shard_index) + " of " +
      std::to_string(want.shard_count));
}

[[nodiscard]] Status errno_status(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// Writes `data` fully at the current file offset.
[[nodiscard]] Status write_all(int fd, BytesView data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("journal write");
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

[[nodiscard]] Bytes encode_header(std::uint64_t checkpoint_ops,
                                  std::uint32_t shard_index,
                                  std::uint32_t shard_count) {
  Bytes out;
  wire::Writer w(out);
  w.u32(kJournalMagic);
  w.u32(kFormatVersion);
  w.u64(checkpoint_ops);
  w.u32(shard_index);
  w.u32(shard_count);
  return out;
}

/// fsyncs the directory containing `p` so a rename/creation inside it is
/// durable (best-effort: some filesystems reject O_RDONLY dir fsync).
void fsync_parent_dir(const std::filesystem::path& p) {
  const std::filesystem::path dir =
      p.has_parent_path() ? p.parent_path() : std::filesystem::path(".");
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    (void)::close(dfd);
  }
}

/// Reads the whole file with one sized read.
[[nodiscard]] Result<Bytes> read_file_bytes(const std::filesystem::path& p) {
  const int fd = ::open(p.c_str(), O_RDONLY);
  if (fd < 0) return errno_status("cannot open " + p.string());
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status err = errno_status("stat " + p.string());
    ::close(fd);
    return err;
  }
  Bytes data(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::read(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status err = errno_status("read failed for " + p.string());
      ::close(fd);
      return err;
    }
    if (n == 0) break;  // the file shrank since fstat
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  data.resize(done);
  return data;
}

/// An upper bound on encode_record(rec).size() (every field any op writes),
/// so a frame buffer is sized once before encoding.
[[nodiscard]] std::size_t record_size_bound(const JournalRecord& rec) {
  // op | provider index | three u8 fields | two strings | chunk count
  std::size_t n =
      1 + 8 + 3 + 4 + rec.client.size() + 4 + rec.filename.size() + 4;
  const bool rows = rec.op == JournalOp::kCommitPut ||
                    rec.op == JournalOp::kUpdateChunk;
  for (const JournalChunk& c : rec.chunks) {
    n += 8 + 8 + (rows ? chunk_entry_wire_size(c.entry) : 0);
  }
  return n;
}

/// Appends the wire form of `rec` through `w`.
void write_record(wire::Writer& w, const JournalRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.op));
  switch (rec.op) {
    case JournalOp::kRegisterProvider:
      w.u64(rec.provider_index);
      w.str(rec.client);  // provider name
      w.u8(rec.level);
      w.u8(rec.cost);
      w.u8(rec.lifecycle);
      break;
    case JournalOp::kRegisterClient:
      w.str(rec.client);
      break;
    case JournalOp::kAddPassword:
      w.str(rec.client);
      w.str(rec.filename);  // password
      w.u8(rec.level);
      break;
    case JournalOp::kBeginPut:
    case JournalOp::kAbortPut:
      w.str(rec.client);
      w.str(rec.filename);
      break;
    case JournalOp::kCommitPut:
    case JournalOp::kUpdateChunk:
      w.str(rec.client);
      w.str(rec.filename);
      w.u32(static_cast<std::uint32_t>(rec.chunks.size()));
      for (const JournalChunk& c : rec.chunks) {
        w.u64(c.serial);
        w.u64(c.index);
        write_chunk_entry(w, c.entry);
      }
      break;
    case JournalOp::kRemoveChunk:
    case JournalOp::kRemoveFile:
      w.str(rec.client);
      w.str(rec.filename);
      w.u32(static_cast<std::uint32_t>(rec.chunks.size()));
      for (const JournalChunk& c : rec.chunks) {
        w.u64(c.serial);
        w.u64(c.index);
      }
      break;
    case JournalOp::kBeginMigrate:
    case JournalOp::kCommitMigrate:
      w.u64(rec.provider_index);
      w.str(rec.client);  // provider name
      w.u8(rec.level);    // MigrationKind
      break;
  }
}

}  // namespace

Bytes encode_record(const JournalRecord& rec) {
  Bytes out;
  out.reserve(record_size_bound(rec));
  wire::Writer w(out);
  write_record(w, rec);
  return out;
}

bool decode_record(BytesView payload, JournalRecord& rec) {
  wire::Reader r(payload);
  std::uint8_t op = 0;
  if (!r.u8(op)) return false;
  if (op < static_cast<std::uint8_t>(JournalOp::kRegisterProvider) ||
      op > static_cast<std::uint8_t>(JournalOp::kCommitMigrate)) {
    return false;
  }
  rec.op = static_cast<JournalOp>(op);
  switch (rec.op) {
    case JournalOp::kRegisterProvider:
      if (!r.u64(rec.provider_index) || !r.str(rec.client) ||
          !r.u8(rec.level) || !r.u8(rec.cost) || !r.u8(rec.lifecycle)) {
        return false;
      }
      if (rec.level >= kNumPrivacyLevels || rec.cost >= kNumCostLevels ||
          rec.lifecycle >= kNumProviderLifecycles) {
        return false;
      }
      break;
    case JournalOp::kRegisterClient:
      if (!r.str(rec.client)) return false;
      break;
    case JournalOp::kAddPassword:
      if (!r.str(rec.client) || !r.str(rec.filename) || !r.u8(rec.level)) {
        return false;
      }
      if (rec.level >= kNumPrivacyLevels) return false;
      break;
    case JournalOp::kBeginPut:
    case JournalOp::kAbortPut:
      if (!r.str(rec.client) || !r.str(rec.filename)) return false;
      break;
    case JournalOp::kCommitPut:
    case JournalOp::kUpdateChunk: {
      std::uint32_t n = 0;
      if (!r.str(rec.client) || !r.str(rec.filename) || !r.u32(n) ||
          static_cast<std::size_t>(n) > r.remaining()) {
        return false;
      }
      rec.chunks.resize(n);
      for (JournalChunk& c : rec.chunks) {
        if (!r.u64(c.serial) || !r.u64(c.index) ||
            !read_chunk_entry(r, c.entry)) {
          return false;
        }
      }
      break;
    }
    case JournalOp::kRemoveChunk:
    case JournalOp::kRemoveFile: {
      std::uint32_t n = 0;
      if (!r.str(rec.client) || !r.str(rec.filename) || !r.u32(n) ||
          static_cast<std::size_t>(n) > r.remaining()) {
        return false;
      }
      rec.chunks.resize(n);
      for (JournalChunk& c : rec.chunks) {
        if (!r.u64(c.serial) || !r.u64(c.index)) return false;
      }
      break;
    }
    case JournalOp::kBeginMigrate:
    case JournalOp::kCommitMigrate:
      if (!r.u64(rec.provider_index) || !r.str(rec.client) ||
          !r.u8(rec.level)) {
        return false;
      }
      if (rec.level >= kNumMigrationKinds) return false;
      break;
  }
  return r.remaining() == 0;
}

Result<JournalReplay> replay_journal_image(BytesView image) {
  JournalReplay out;
  CS_RETURN_IF_ERROR(decode_header(image, "journal", out));
  out.valid_bytes = kHeaderSize;

  std::size_t off = kHeaderSize;
  while (off + kFrameOverhead <= image.size()) {
    const std::uint32_t len = load_u32(image, off);
    const std::uint32_t crc = load_u32(image, off + 4);
    if (static_cast<std::size_t>(len) > image.size() - off - kFrameOverhead) {
      break;  // torn tail: length runs past the file
    }
    const BytesView payload = image.subspan(off + kFrameOverhead, len);
    if (crc32(payload) != crc) break;  // torn or corrupt frame
    JournalRecord rec;
    if (!decode_record(payload, rec)) break;
    out.records.push_back(std::move(rec));
    off += kFrameOverhead + len;
    out.valid_bytes = off;
  }
  return out;
}

Journal::Journal(std::filesystem::path path, int fd, std::size_t records,
                 std::uint64_t bytes, std::uint64_t checkpoint_ops,
                 std::uint32_t shard_index, std::uint32_t shard_count)
    : path_(std::move(path)),
      fd_(fd),
      records_(records),
      bytes_(bytes),
      checkpoint_ops_(checkpoint_ops),
      shard_index_(shard_index),
      shard_count_(shard_count) {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Journal>> Journal::open(std::filesystem::path path,
                                               std::uint32_t shard_index,
                                               std::uint32_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  if (shard_index >= shard_count) {
    return Status::InvalidArgument("journal: shard index out of range");
  }
  Bytes image;
  if (std::filesystem::exists(path)) {
    auto read = read_file_bytes(path);
    CS_RETURN_IF_ERROR(read.status());
    image = std::move(read).value();
  }
  // An absent file, or one shorter than its header (a crash while creating
  // a fresh journal), holds no records: (re)create it.
  auto replay = replay_journal_image(image);
  const bool fresh = replay.status().code() == ErrorCode::kNotFound;
  std::size_t records = 0;
  std::size_t valid = kHeaderSize;
  std::uint64_t checkpoint_ops = 0;
  if (!fresh) {
    CS_RETURN_IF_ERROR(replay.status());
    const ShardStamp want{shard_index, shard_count};
    if (replay.value().stamp != want) {
      return stamp_mismatch("journal " + path.string(), replay.value().stamp,
                            want);
    }
    records = replay.value().records.size();
    valid = replay.value().valid_bytes;
    checkpoint_ops = replay.value().checkpoint_ops;
  }

  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return errno_status("journal open " + path.string());
  if (fresh) {
    if (::ftruncate(fd, 0) != 0) {
      ::close(fd);
      return errno_status("journal truncate");
    }
    const Bytes header = encode_header(0, shard_index, shard_count);
    if (Status st = write_all(fd, header); !st.ok()) {
      ::close(fd);
      return st;
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      return errno_status("journal fsync");
    }
    fsync_parent_dir(path);
  } else if (valid < image.size()) {
    // Torn tail from a mid-append crash: cut it so the next append starts
    // on a frame boundary.
    if (::ftruncate(fd, static_cast<off_t>(valid)) != 0) {
      ::close(fd);
      return errno_status("journal truncate");
    }
    if (::fsync(fd) != 0) {
      ::close(fd);
      return errno_status("journal fsync");
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return errno_status("journal seek");
  }
  return std::unique_ptr<Journal>(new Journal(std::move(path), fd, records,
                                              valid, checkpoint_ops,
                                              shard_index, shard_count));
}

void Journal::set_group_commit(const GroupCommitConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  gc_ = cfg;
  if (gc_.batch_ops == 0) gc_.batch_ops = 1;
}

void Journal::attach_telemetry(const std::shared_ptr<obs::Telemetry>& tel) {
  FlushMetrics m;
  if (tel != nullptr) {
    obs::MetricsRegistry& reg = tel->metrics();
    m.batch_size = &reg.histogram("journal.batch_size");
    m.flush_ns = &reg.histogram("journal.flush_ns");
    if (shard_count_ > 1) {
      // Plane members also report their own flush lane so the SLO engine
      // can tell one slow shard from a plane-wide sick disk.
      m.shard_flush_ns = &reg.histogram(
          "journal.shard." + std::to_string(shard_index_) + ".flush_ns");
    }
    m.group_commits = &reg.counter("journal.group_commits");
  }
  std::lock_guard<std::mutex> lock(mu_);
  telemetry_ = tel;
  metrics_ = m;
}

void Journal::attach_watchdog(obs::StallWatchdog* wd) {
  std::lock_guard<std::mutex> lock(mu_);
  watchdog_ = wd;
}

Status Journal::append(const JournalRecord& rec,
                       std::unique_lock<std::mutex>* queued) {
  // Frame encoding needs no journal state -- do it before taking the lock
  // so contending appenders only serialize on the queue and the disk. The
  // frame is one buffer sized up front: the payload is encoded in place
  // behind a blank `len | crc` header, which is patched last.
  Waiter w;
  w.rec = &rec;
  w.frame.reserve(kFrameOverhead + record_size_bound(rec));
  w.frame.resize(kFrameOverhead);
  wire::Writer wr(w.frame);
  write_record(wr, rec);
  const BytesView payload = BytesView(w.frame).subspan(kFrameOverhead);
  wire::store_le(w.frame.data(), static_cast<std::uint32_t>(payload.size()));
  wire::store_le(w.frame.data() + 4, crc32(payload));

  std::unique_lock<std::mutex> lk(mu_);
  queue_.push_back(&w);
  if (queued != nullptr) queued->unlock();
  // A leader filling a timed batch counts arrivals; nobody else cares.
  if (filler_ != nullptr) filler_->cv.notify_one();
  while (!w.done) {
    // The front waiter leads while no other flush is in progress; everyone
    // else sleeps until its batch completes or leadership is handed to it.
    if (!flushing_ && queue_.front() == &w) {
      flush_batch(lk, w);
    } else {
      w.cv.wait(lk);
    }
  }
  return w.status;
}

void Journal::flush_batch(std::unique_lock<std::mutex>& lk, Waiter& leader) {
  flushing_ = true;
  if (gc_.batch_ops > 1 && gc_.batch_interval.count() > 0) {
    // Close the batch at batch_ops records, at batch_interval, or after one
    // idle window with no arrival, whichever comes first. Arrivals signal
    // the leader, so a filled batch flushes immediately.
    filler_ = &leader;
    wait_for_batch(
        lk, leader.cv, std::chrono::steady_clock::now() + gc_.batch_interval,
        [&] { return queue_.size() >= gc_.batch_ops; },
        [&] { return queue_.size(); });
    filler_ = nullptr;
  }
  std::vector<Waiter*> batch;
  const std::size_t n = std::min(queue_.size(), gc_.batch_ops);
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(queue_.front());
    queue_.pop_front();
  }
  // The watchdog pointer is read under the lock (attach_watchdog races are
  // the caller's problem per its contract, but keep the read disciplined);
  // the brackets themselves run outside it, around the real I/O.
  obs::StallWatchdog* wd = watchdog_;
  lk.unlock();

  if (wd != nullptr) wd->fsync_begin();
  const auto flush_start = std::chrono::steady_clock::now();
  Status st = Status::Ok();
  std::uint64_t batch_bytes = 0;
  for (Waiter* w : batch) {
    if (test_hook_before_append) test_hook_before_append(*w->rec);
    if (st.ok()) st = write_all(fd_, w->frame);
    if (st.ok()) batch_bytes += w->frame.size();
  }
  if (st.ok() && ::fsync(fd_) != 0) st = errno_status("journal fsync");
  const auto flush_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - flush_start);
  if (wd != nullptr) wd->fsync_end();

  lk.lock();
  if (st.ok()) {
    bytes_ += batch_bytes;
    records_ += batch.size();
    total_appended_ += batch.size();
    ++flushes_;
    if (batch.size() > 1) ++group_commits_;
    if (telemetry_ != nullptr && telemetry_->enabled()) {
      const auto ns = static_cast<double>(flush_ns.count());
      metrics_.batch_size->observe(static_cast<double>(batch.size()));
      metrics_.flush_ns->observe(ns);
      if (metrics_.shard_flush_ns != nullptr) {
        metrics_.shard_flush_ns->observe(ns);
      }
      if (batch.size() > 1) metrics_.group_commits->inc();
    }
  }
  flushing_ = false;
  for (Waiter* w : batch) {
    // The whole batch shares one fsync, so it shares one fate: a write or
    // sync error fails every append in it (none of them is durable).
    w->status = st;
    w->done = true;
    if (st.ok() && test_hook_after_append) test_hook_after_append(*w->rec);
    if (w != &leader) w->cv.notify_one();
  }
  // Hand leadership to the next queued append, or tell a waiting
  // checkpoint that the journal is quiet.
  if (!queue_.empty()) {
    queue_.front()->cv.notify_one();
  } else {
    cv_.notify_all();
  }
}

Status Journal::checkpoint(const std::function<Bytes()>& snapshot,
                           const std::filesystem::path& checkpoint_path) {
  std::unique_lock<std::mutex> lock(mu_);
  // Quiesce group commit: wait out any in-flight flush and drain queued
  // appends (their leaders run while we wait -- the predicate releases the
  // lock). New appends then block at the mutex for the checkpoint's
  // duration, exactly like the per-op path.
  cv_.wait(lock, [&] { return !flushing_ && queue_.empty(); });
  // Appends are blocked, so the snapshot covers exactly the records about
  // to be truncated (ops journal *after* mutating the store, so anything
  // already journaled is visible to the snapshot).
  const Bytes image = snapshot();

  const std::filesystem::path tmp = checkpoint_path.string() + ".tmp";
  {
    const int cfd =
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (cfd < 0) return errno_status("checkpoint open " + tmp.string());
    Status st = write_all(cfd, image);
    if (st.ok() && ::fsync(cfd) != 0) st = errno_status("checkpoint fsync");
    ::close(cfd);
    if (!st.ok()) {
      std::error_code ignore;
      std::filesystem::remove(tmp, ignore);
      return st;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, checkpoint_path, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp, ignore);
    return Status::Internal("checkpoint rename: " + ec.message());
  }
  fsync_parent_dir(checkpoint_path);

  // The checkpoint is durable; fold the journaled records into it. A crash
  // before the truncate lands just replays them onto the new checkpoint --
  // apply_journal_record is idempotent for exactly this window.
  checkpoint_ops_ += records_;
  records_ = 0;
  if (::ftruncate(fd_, static_cast<off_t>(kHeaderSize)) != 0) {
    return errno_status("journal truncate");
  }
  const Bytes header =
      encode_header(checkpoint_ops_, shard_index_, shard_count_);
  if (::lseek(fd_, 0, SEEK_SET) < 0) return errno_status("journal seek");
  CS_RETURN_IF_ERROR(write_all(fd_, header));
  if (::fsync(fd_) != 0) return errno_status("journal fsync");
  if (::lseek(fd_, 0, SEEK_END) < 0) return errno_status("journal seek");
  bytes_ = kHeaderSize;
  return Status::Ok();
}

std::size_t Journal::record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::uint64_t Journal::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t Journal::total_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_appended_;
}

std::uint64_t Journal::last_checkpoint_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_ops_;
}

std::uint64_t Journal::flushes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flushes_;
}

std::uint64_t Journal::group_commits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return group_commits_;
}

Status apply_journal_record(MetadataStore& store, const JournalRecord& rec) {
  switch (rec.op) {
    case JournalOp::kRegisterProvider: {
      const std::size_t known = store.provider_count();
      if (rec.provider_index < known) return Status::Ok();  // in checkpoint
      if (rec.provider_index != known) {
        return Status::Internal("journal: provider index gap at " +
                                std::to_string(rec.provider_index));
      }
      store.register_provider(
          rec.client, static_cast<PrivacyLevel>(rec.level),
          static_cast<CostLevel>(rec.cost),
          static_cast<ProviderLifecycle>(rec.lifecycle));
      return Status::Ok();
    }
    case JournalOp::kRegisterClient: {
      Status st = store.register_client(rec.client);
      if (st.code() == ErrorCode::kAlreadyExists) return Status::Ok();
      return st;
    }
    case JournalOp::kAddPassword: {
      Status st = store.add_password(rec.client, rec.filename,
                                     static_cast<PrivacyLevel>(rec.level));
      if (st.code() == ErrorCode::kAlreadyExists) return Status::Ok();
      return st;
    }
    case JournalOp::kBeginPut: {
      Status st = store.claim_file(rec.client, rec.filename);
      if (st.code() == ErrorCode::kAlreadyExists) return Status::Ok();
      return st;
    }
    case JournalOp::kAbortPut:
      store.release_file(rec.client, rec.filename);
      return Status::Ok();
    case JournalOp::kCommitPut:
      return store.put_chunks_at(rec.client, rec.filename, rec.chunks);
    case JournalOp::kUpdateChunk: {
      for (const JournalChunk& c : rec.chunks) {
        store.set_chunk(c.index, c.entry);
      }
      return Status::Ok();
    }
    case JournalOp::kRemoveChunk:
    case JournalOp::kRemoveFile: {
      for (const JournalChunk& c : rec.chunks) {
        store.set_chunk(c.index, tombstone_of(store.chunk_entry(c.index)
                                                  .value_or(ChunkEntry{})));
        Status st = store.unlink_chunk(rec.client, rec.filename, c.serial);
        if (!st.ok() && st.code() != ErrorCode::kNotFound) return st;
      }
      return Status::Ok();
    }
    case JournalOp::kBeginMigrate:
    case JournalOp::kCommitMigrate: {
      // The one migration-kind -> lifecycle map: the distributor's live
      // begin/commit broadcasts this record through here too, so the live
      // fleet, the checkpoint and replay agree on where the fleet stands:
      //   Begin join      -> kJoining    Commit join          -> kActive
      //   Begin drain     -> kDraining   Commit drain         -> kDraining
      //   Begin decommiss.-> kDraining   Commit decommission  -> kDecommissioned
      if (rec.provider_index >= store.provider_count()) {
        return Status::Internal("journal: migrate of unknown provider " +
                                std::to_string(rec.provider_index));
      }
      const auto kind = static_cast<MigrationKind>(rec.level);
      const auto p = static_cast<ProviderIndex>(rec.provider_index);
      if (rec.op == JournalOp::kBeginMigrate) {
        store.set_provider_lifecycle(p, kind == MigrationKind::kJoin
                                            ? ProviderLifecycle::kJoining
                                            : ProviderLifecycle::kDraining);
      } else if (kind == MigrationKind::kJoin) {
        store.set_provider_lifecycle(p, ProviderLifecycle::kActive);
      } else if (kind == MigrationKind::kDecommission) {
        store.set_provider_lifecycle(p, ProviderLifecycle::kDecommissioned);
      }  // committed drain: stays kDraining (emptied, awaiting decommission)
      return Status::Ok();
    }
  }
  return Status::Internal("journal: unknown op");
}

Result<RecoveredState> recover_metadata(
    const std::filesystem::path& checkpoint_path,
    const std::filesystem::path& journal_path,
    std::uint32_t expected_shard_index,
    std::uint32_t expected_shard_count) {
  if (expected_shard_count == 0) expected_shard_count = 1;
  const ShardStamp want{expected_shard_index, expected_shard_count};
  RecoveredState out;
  if (std::filesystem::exists(checkpoint_path)) {
    auto image = read_file_bytes(checkpoint_path);
    CS_RETURN_IF_ERROR(image.status());
    ShardStamp stamp;
    auto restored = deserialize_metadata(image.value(), &stamp);
    CS_RETURN_IF_ERROR(restored.status());
    if (stamp != want) {
      return stamp_mismatch("checkpoint " + checkpoint_path.string(), stamp,
                            want);
    }
    out.metadata = std::move(restored).value();
  } else {
    out.metadata = std::make_shared<MetadataStore>();
  }

  if (std::filesystem::exists(journal_path)) {
    auto image = read_file_bytes(journal_path);
    CS_RETURN_IF_ERROR(image.status());
    // Shorter than its header = crash while creating the file: no records.
    auto replay = replay_journal_image(image.value());
    if (replay.status().code() != ErrorCode::kNotFound) {
      CS_RETURN_IF_ERROR(replay.status());
      if (replay.value().stamp != want) {
        return stamp_mismatch("journal " + journal_path.string(),
                              replay.value().stamp, want);
      }
      out.checkpoint_ops = replay.value().checkpoint_ops;
      std::set<std::pair<std::string, std::string>> open_puts;
      for (const JournalRecord& rec : replay.value().records) {
        CS_RETURN_IF_ERROR(apply_journal_record(*out.metadata, rec));
        switch (rec.op) {
          case JournalOp::kBeginPut:
            open_puts.emplace(rec.client, rec.filename);
            break;
          case JournalOp::kCommitPut:
          case JournalOp::kAbortPut:
            open_puts.erase({rec.client, rec.filename});
            break;
          case JournalOp::kBeginMigrate:
            out.pending_migrations.push_back(MigrationIntent{
                static_cast<MigrationKind>(rec.level),
                static_cast<ProviderIndex>(rec.provider_index), rec.client});
            break;
          case JournalOp::kCommitMigrate:
            out.pending_migrations.erase(
                std::remove_if(out.pending_migrations.begin(),
                               out.pending_migrations.end(),
                               [&](const MigrationIntent& m) {
                                 return m.provider == rec.provider_index;
                               }),
                out.pending_migrations.end());
            break;
          default:
            break;
        }
      }
      out.replayed_records = replay.value().records.size();
      out.in_flight.assign(open_puts.begin(), open_puts.end());
    }
  }
  // A checkpoint mid-migration folds the kBeginMigrate away, but the
  // lifecycle it set survives in the image: a provider still kJoining or
  // kDraining with no journaled intent is a migration to resume. (A
  // decommission interrupted this way resumes as a drain -- the data move
  // is identical; the operator re-issues the decommission to finalize.)
  {
    const auto rows = out.metadata->provider_table();
    for (ProviderIndex p = 0; p < rows.size(); ++p) {
      const bool pending =
          std::any_of(out.pending_migrations.begin(),
                      out.pending_migrations.end(),
                      [&](const MigrationIntent& m) { return m.provider == p; });
      if (pending) continue;
      if (rows[p].lifecycle == ProviderLifecycle::kJoining) {
        out.pending_migrations.push_back(
            MigrationIntent{MigrationKind::kJoin, p, rows[p].name});
      } else if (rows[p].lifecycle == ProviderLifecycle::kDraining &&
                 !rows[p].virtual_ids.empty()) {
        // Still holds placements: the drain did not finish. An emptied
        // draining provider is a *completed* drain awaiting decommission,
        // not a pending migration.
        out.pending_migrations.push_back(
            MigrationIntent{MigrationKind::kDrain, p, rows[p].name});
      }
    }
  }
  return out;
}

std::filesystem::path shard_file_path(const std::filesystem::path& base,
                                      std::size_t shard) {
  if (shard == 0) return base;
  return std::filesystem::path(base.string() + ".s" + std::to_string(shard));
}

Result<ShardStamp> probe_journal_shard(
    const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) {
    return Status::NotFound("journal " + path.string() + ": no file");
  }
  auto image = read_file_bytes(path);
  CS_RETURN_IF_ERROR(image.status());
  JournalReplay header;
  CS_RETURN_IF_ERROR(
      decode_header(image.value(), "journal " + path.string(), header));
  return header.stamp;
}

Result<PlaneRecovery> recover_plane(
    const std::filesystem::path& checkpoint_base,
    const std::filesystem::path& journal_base, std::size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  PlaneRecovery out;
  out.shards.resize(shard_count);
  std::vector<Result<RecoveredState>> results(
      shard_count, Result<RecoveredState>(Status::Internal("not run")));
  // One recovery worker per shard, clamped to the core count: each shard
  // replays its own checkpoint + journal, so plane MTTR is the slowest
  // shard, not the sum. Replay is CPU-bound, so threads beyond the
  // hardware only add scheduling overhead; on a single-core host the
  // whole plane recovers inline.
  const std::size_t workers = std::min<std::size_t>(
      shard_count, std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool pool(workers);
  pool.for_each(shard_count, workers > 1, [&](std::size_t s) {
    results[s] = recover_metadata(
        shard_file_path(checkpoint_base, s), shard_file_path(journal_base, s),
        static_cast<std::uint32_t>(s),
        static_cast<std::uint32_t>(shard_count));
  });
  std::set<std::pair<std::string, std::string>> in_flight;
  std::set<std::pair<std::uint8_t, ProviderIndex>> intents;
  for (std::size_t s = 0; s < shard_count; ++s) {
    CS_RETURN_IF_ERROR(results[s].status());
    out.shards[s] = std::move(results[s]).value();
    out.replayed_records += out.shards[s].replayed_records;
    for (const auto& put : out.shards[s].in_flight) in_flight.insert(put);
    for (const MigrationIntent& m : out.shards[s].pending_migrations) {
      if (intents.emplace(static_cast<std::uint8_t>(m.kind), m.provider)
              .second) {
        out.pending_migrations.push_back(m);
      }
    }
  }
  out.in_flight.assign(in_flight.begin(), in_flight.end());
  return out;
}

}  // namespace cshield::core
