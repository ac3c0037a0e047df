// Crash-recovery tests: the write-ahead journal's wire format, torn-tail
// tolerance, atomic checkpointing, and -- the centerpiece -- a crash
// injection sweep that kills a scripted workload at every journal-record
// boundary (and at torn-byte offsets inside each record), then proves
// recovery converges: every committed file reads back byte-identical, no
// orphan shards survive reconciliation, and a second recovery pass is a
// no-op. Plus the background scrubber: every injected silent corruption is
// detected and repaired before any client read can observe it.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/distributor.hpp"
#include "core/journal.hpp"
#include "core/metadata_io.hpp"
#include "core/migrator.hpp"
#include "storage/provider_registry.hpp"
#include "util/hash.hpp"
#include "util/wire.hpp"

namespace cshield {
namespace {

namespace fs = std::filesystem;
using core::Journal;
using core::JournalChunk;
using core::JournalOp;
using core::JournalRecord;
using core::MetadataPlane;

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = fs::temp_directory_path() /
            ("cshield_recovery_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

Bytes read_disk(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return {};
  Bytes data(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(data.size()));
  return data;
}

void write_disk(const fs::path& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

// 12 providers so every privacy tier keeps enough eligible providers for
// repair to find replacement targets outside a degraded 4-shard stripe.
constexpr std::size_t kProviders = 12;

core::DistributorConfig base_config(std::uint64_t seed) {
  core::DistributorConfig config;
  config.stripe_data_shards = 3;
  config.misleading_fraction = 0.05;
  config.worker_threads = 4;
  config.seed = seed;
  return config;
}

// --- journal wire format ----------------------------------------------------

JournalRecord sample_commit_record() {
  JournalRecord rec;
  rec.op = JournalOp::kCommitPut;
  rec.client = "alice";
  rec.filename = "notes.txt";
  core::ChunkEntry entry;
  entry.privacy_level = PrivacyLevel::kModerate;
  entry.layout = raid::StripeLayout::make(raid::RaidLevel::kRaid5, 3);
  entry.stripe = {{0, 11}, {1, 22}, {2, 33}, {3, 44}};
  entry.misleading = {4, 9, 200};
  entry.padded_size = 4099;
  entry.shard_digests.resize(4);
  entry.shard_digests[1][0] = 0xAB;
  rec.chunks.push_back(JournalChunk{7, 3, entry});
  return rec;
}

TEST(JournalCodecTest, RecordRoundTripsEveryOp) {
  for (JournalOp op :
       {JournalOp::kRegisterProvider, JournalOp::kRegisterClient,
        JournalOp::kAddPassword, JournalOp::kBeginPut, JournalOp::kCommitPut,
        JournalOp::kAbortPut, JournalOp::kUpdateChunk, JournalOp::kRemoveChunk,
        JournalOp::kRemoveFile}) {
    JournalRecord rec = sample_commit_record();
    rec.op = op;
    rec.level = 2;
    rec.cost = 1;
    rec.provider_index = 9;
    if (op == JournalOp::kRemoveChunk || op == JournalOp::kRemoveFile) {
      for (JournalChunk& c : rec.chunks) c.entry = core::ChunkEntry{};
    }
    const Bytes wire = core::encode_record(rec);
    JournalRecord back;
    ASSERT_TRUE(core::decode_record(wire, back))
        << "op " << static_cast<int>(op);
    EXPECT_EQ(back.op, rec.op);
    EXPECT_EQ(back.client, rec.client);
    // Provider/client registrations carry no filename on the wire.
    if (op != JournalOp::kRegisterProvider &&
        op != JournalOp::kRegisterClient) {
      EXPECT_EQ(back.filename, rec.filename);
    }
    switch (op) {
      case JournalOp::kCommitPut:
      case JournalOp::kUpdateChunk: {
        ASSERT_EQ(back.chunks.size(), rec.chunks.size());
        EXPECT_EQ(back.chunks[0].serial, 7u);
        EXPECT_EQ(back.chunks[0].index, 3u);
        EXPECT_EQ(back.chunks[0].entry.padded_size, 4099u);
        EXPECT_EQ(back.chunks[0].entry.stripe.size(), 4u);
        EXPECT_EQ(back.chunks[0].entry.stripe[2].virtual_id, 33u);
        EXPECT_EQ(back.chunks[0].entry.misleading,
                  (std::vector<std::uint32_t>{4, 9, 200}));
        break;
      }
      case JournalOp::kRemoveChunk:
      case JournalOp::kRemoveFile:
        ASSERT_EQ(back.chunks.size(), rec.chunks.size());
        EXPECT_EQ(back.chunks[0].serial, 7u);
        EXPECT_EQ(back.chunks[0].index, 3u);
        break;
      case JournalOp::kRegisterProvider:
        EXPECT_EQ(back.provider_index, 9u);
        EXPECT_EQ(back.level, 2);
        EXPECT_EQ(back.cost, 1);
        break;
      default:
        break;
    }
  }
}

TEST(JournalCodecTest, DecodeRejectsTruncationAtEveryOffset) {
  const Bytes wire = core::encode_record(sample_commit_record());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    JournalRecord back;
    EXPECT_FALSE(core::decode_record(BytesView(wire.data(), len), back))
        << "accepted a " << len << "-byte prefix of " << wire.size();
  }
}

// --- journal file behavior --------------------------------------------------

JournalRecord begin_record(const std::string& file) {
  JournalRecord rec;
  rec.op = JournalOp::kBeginPut;
  rec.client = "alice";
  rec.filename = file;
  return rec;
}

TEST(JournalFileTest, AppendsSurviveReopen) {
  TempDir dir;
  const fs::path path = dir.path() / "j.wal";
  {
    Result<std::unique_ptr<Journal>> j = Journal::open(path);
    ASSERT_TRUE(j.ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(j.value()->append(begin_record("f" + std::to_string(i))).ok());
    }
    EXPECT_EQ(j.value()->record_count(), 5u);
  }
  Result<core::JournalReplay> replay =
      core::replay_journal_image(read_disk(path));
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay.value().records.size(), 5u);
  EXPECT_EQ(replay.value().records[3].filename, "f3");
  Result<std::unique_ptr<Journal>> again = Journal::open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->record_count(), 5u);
}

TEST(JournalFileTest, OpenTruncatesTornTail) {
  TempDir dir;
  const fs::path path = dir.path() / "j.wal";
  {
    Result<std::unique_ptr<Journal>> j = Journal::open(path);
    ASSERT_TRUE(j.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(j.value()->append(begin_record("f" + std::to_string(i))).ok());
    }
  }
  const Bytes full = read_disk(path);
  // Chop the file anywhere inside the last record: the first two records
  // must survive, the torn tail must be cut away on open.
  Result<core::JournalReplay> two_of_three =
      core::replay_journal_image(BytesView(full.data(), full.size() - 1));
  ASSERT_TRUE(two_of_three.ok());
  const std::size_t keep = two_of_three.value().valid_bytes;
  for (std::size_t cut = keep + 1; cut <= full.size() - 1; cut += 3) {
    write_disk(path, BytesView(full.data(), cut));
    Result<std::unique_ptr<Journal>> j = Journal::open(path);
    ASSERT_TRUE(j.ok()) << "cut at " << cut;
    EXPECT_EQ(j.value()->record_count(), 2u) << "cut at " << cut;
    EXPECT_EQ(fs::file_size(path), keep) << "cut at " << cut;
  }
}

TEST(JournalFileTest, OpenRejectsForeignFile) {
  TempDir dir;
  const fs::path path = dir.path() / "not_a_journal.bin";
  const Bytes junk = payload_of(64, 99);
  write_disk(path, junk);
  EXPECT_FALSE(Journal::open(path).ok());
}

TEST(JournalFileTest, SubHeaderFileIsTreatedAsFresh) {
  TempDir dir;
  const fs::path path = dir.path() / "j.wal";
  // A crash while creating a brand-new journal can leave fewer than the 24
  // header bytes. That is not corruption -- nothing was ever committed.
  write_disk(path, Bytes{0xC5, 0xD1});
  Result<std::unique_ptr<Journal>> j = Journal::open(path);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value()->record_count(), 0u);
  ASSERT_TRUE(j.value()->append(begin_record("f")).ok());
  Result<core::JournalReplay> replay =
      core::replay_journal_image(read_disk(path));
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().records.size(), 1u);
}

TEST(FormatVersionTest, EveryOtherVersionIsUnsupported) {
  // One on-disk generation: journals and metadata images of any version
  // but the current one are refused by every reader, and a refused journal
  // is left untouched -- even a bare header, which a fresh journal would
  // otherwise overwrite.
  TempDir dir;
  const fs::path jpath = dir.path() / "j.wal";
  {
    Result<std::unique_ptr<Journal>> j = Journal::open(jpath);
    ASSERT_TRUE(j.ok());
    ASSERT_TRUE(j.value()->append(begin_record("f")).ok());
  }
  const Bytes journal = read_disk(jpath);
  const Bytes image = core::serialize_metadata(core::MetadataStore{});
  // Both formats carry the version in the u32 after the magic.
  ASSERT_EQ(journal[4], core::kFormatVersion);
  ASSERT_EQ(image[4], core::kFormatVersion);
  auto unsupported = [](const Status& st) {
    return st.to_string().find("unsupported version") != std::string::npos;
  };
  for (int version : {1, 2, 3, 5}) {
    SCOPED_TRACE("version " + std::to_string(version));
    Bytes old_journal = journal;
    old_journal[4] = static_cast<std::uint8_t>(version);
    Bytes old_image = image;
    old_image[4] = static_cast<std::uint8_t>(version);

    Result<core::JournalReplay> replay =
        core::replay_journal_image(old_journal);
    ASSERT_FALSE(replay.ok());
    EXPECT_TRUE(unsupported(replay.status())) << replay.status().to_string();
    Result<std::shared_ptr<core::MetadataStore>> store =
        core::deserialize_metadata(old_image);
    ASSERT_FALSE(store.ok());
    EXPECT_TRUE(unsupported(store.status())) << store.status().to_string();

    const Bytes bare_header(old_journal.begin(), old_journal.begin() + 16);
    for (const Bytes& file : {old_journal, bare_header}) {
      const fs::path path = dir.path() / "old.wal";
      write_disk(path, file);
      Result<core::ShardStamp> probe = core::probe_journal_shard(path);
      ASSERT_FALSE(probe.ok());
      EXPECT_TRUE(unsupported(probe.status())) << probe.status().to_string();
      Result<std::unique_ptr<Journal>> opened = Journal::open(path);
      ASSERT_FALSE(opened.ok());
      EXPECT_TRUE(unsupported(opened.status()))
          << opened.status().to_string();
      EXPECT_TRUE(equal(read_disk(path), file));
    }
  }
}

TEST(JournalFileTest, CheckpointFoldsRecordsAndPersistsOpCount) {
  TempDir dir;
  const fs::path jpath = dir.path() / "j.wal";
  const fs::path cpath = dir.path() / "ckpt.bin";
  Result<std::unique_ptr<Journal>> j = Journal::open(jpath);
  ASSERT_TRUE(j.ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(j.value()->append(begin_record("f" + std::to_string(i))).ok());
  }
  const Bytes snapshot = payload_of(1000, 7);
  ASSERT_TRUE(
      j.value()->checkpoint([&] { return snapshot; }, cpath).ok());
  EXPECT_EQ(j.value()->record_count(), 0u);
  EXPECT_EQ(j.value()->last_checkpoint_ops(), 4u);
  EXPECT_TRUE(equal(read_disk(cpath), snapshot));
  ASSERT_TRUE(j.value()->append(begin_record("late")).ok());
  j = Journal::open(jpath);  // reopen: header must carry the fold count
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value()->record_count(), 1u);
  EXPECT_EQ(j.value()->last_checkpoint_ops(), 4u);
}

// --- group commit -----------------------------------------------------------

// The exact on-disk image the per-op journal produces: header (magic |
// version | checkpoint ops | shard stamp) followed by one
// `len | crc | payload` frame per record, in append order.
Bytes expected_journal_image(const std::vector<JournalRecord>& recs) {
  Bytes out;
  {
    wire::Writer w(out);
    w.u32(0xC5D17A6EU);  // magic
    w.u32(4);            // format version
    w.u64(0);            // checkpoint ops
    w.u32(0);            // shard index
    w.u32(1);            // shard count
  }
  for (const JournalRecord& rec : recs) {
    const Bytes payload = core::encode_record(rec);
    wire::Writer w(out);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.u32(crc32(payload));
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

TEST(GroupCommitTest, BatchOpsOneIsByteIdenticalToPerOpFormat) {
  std::vector<JournalRecord> recs;
  recs.push_back(sample_commit_record());
  for (int i = 0; i < 6; ++i) recs.push_back(begin_record("f" + std::to_string(i)));
  const Bytes expected = expected_journal_image(recs);

  // Default config (batch_ops = 1) must write the per-op format -- and
  // fsync once per record, never grouping.
  TempDir dir;
  const fs::path per_op = dir.path() / "per_op.wal";
  {
    Result<std::unique_ptr<Journal>> j = Journal::open(per_op);
    ASSERT_TRUE(j.ok());
    for (const JournalRecord& rec : recs) {
      ASSERT_TRUE(j.value()->append(rec).ok());
    }
    EXPECT_EQ(j.value()->flushes(), recs.size());
    EXPECT_EQ(j.value()->group_commits(), 0u);
  }
  EXPECT_TRUE(equal(read_disk(per_op), expected));

  // Group commit enabled changes fsync cadence only, never bytes: a
  // single-threaded writer produces the identical image.
  const fs::path grouped = dir.path() / "grouped.wal";
  {
    Result<std::unique_ptr<Journal>> j = Journal::open(grouped);
    ASSERT_TRUE(j.ok());
    j.value()->set_group_commit(
        core::GroupCommitConfig{8, std::chrono::microseconds{0}});
    for (const JournalRecord& rec : recs) {
      ASSERT_TRUE(j.value()->append(rec).ok());
    }
  }
  EXPECT_TRUE(equal(read_disk(grouped), expected));
}

TEST(GroupCommitTest, ConcurrentAppendsSurviveCrashAtEveryBatchBoundary) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 48;
  TempDir dir;
  const fs::path path = dir.path() / "j.wal";
  Result<std::unique_ptr<Journal>> opened = Journal::open(path);
  ASSERT_TRUE(opened.ok());
  Journal& j = *opened.value();
  j.set_group_commit(core::GroupCommitConfig{16, std::chrono::milliseconds{5}});

  // The crash-injection seams must see every record exactly once each,
  // regardless of how appends were grouped into flushes.
  std::atomic<std::uint64_t> before_hook{0};
  std::atomic<std::uint64_t> after_hook{0};
  j.test_hook_before_append = [&](const JournalRecord&) { ++before_hook; };
  j.test_hook_after_append = [&](const JournalRecord&) { ++after_hook; };

  // Each thread records, after every returned append, the journal size at
  // that moment: the durability contract says a crash leaving at least
  // that prefix on disk must still contain the record.
  struct Sample {
    std::string filename;
    std::uint64_t durable_bytes;
  };
  std::vector<std::vector<Sample>> samples(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      samples[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        JournalRecord rec;
        rec.op = JournalOp::kBeginPut;
        rec.client = "t" + std::to_string(t);
        rec.filename = "r" + std::to_string(i);
        ASSERT_TRUE(j.append(rec).ok());
        samples[t].push_back(Sample{rec.filename, j.bytes()});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(j.total_appended(), kTotal);
  EXPECT_EQ(j.record_count(), kTotal);
  EXPECT_EQ(before_hook.load(), kTotal);
  EXPECT_EQ(after_hook.load(), kTotal);
  // 8 contending writers against a 5 ms batch window: at least one flush
  // must have carried more than one record.
  EXPECT_GT(j.group_commits(), 0u);
  EXPECT_LT(j.flushes(), kTotal);

  // Simulate a crash at every batch boundary a thread observed: truncate
  // the final image to the sampled size and replay. The record whose
  // append had returned by then must be in the surviving prefix.
  const Bytes full = read_disk(path);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const std::string client = "t" + std::to_string(t);
    for (const Sample& s : samples[t]) {
      ASSERT_LE(s.durable_bytes, full.size());
      Result<core::JournalReplay> replay = core::replay_journal_image(
          BytesView(full.data(), static_cast<std::size_t>(s.durable_bytes)));
      ASSERT_TRUE(replay.ok());
      bool found = false;
      for (const JournalRecord& rec : replay.value().records) {
        if (rec.client == client && rec.filename == s.filename) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << client << "/" << s.filename << " missing from a "
                         << s.durable_bytes << "-byte crash prefix";
    }
  }

  // And a clean reopen replays everything.
  Result<std::unique_ptr<Journal>> again = Journal::open(path);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->record_count(), kTotal);
}

TEST(GroupCommitTest, CheckpointQuiescesConcurrentBatches) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 60;
  TempDir dir;
  const fs::path jpath = dir.path() / "j.wal";
  const fs::path cpath = dir.path() / "ckpt.bin";
  Result<std::unique_ptr<Journal>> opened = Journal::open(jpath);
  ASSERT_TRUE(opened.ok());
  Journal& j = *opened.value();
  j.set_group_commit(core::GroupCommitConfig{8, std::chrono::milliseconds{1}});

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        JournalRecord rec;
        rec.op = JournalOp::kBeginPut;
        rec.client = "t" + std::to_string(t);
        rec.filename = "r" + std::to_string(i);
        ASSERT_TRUE(j.append(rec).ok());
      }
    });
  }
  // Checkpoint while batches are in flight: each call must quiesce the
  // commit queue, fold whatever has landed, and leave the counters exact.
  const Bytes snapshot = payload_of(64, 3);
  for (int c = 0; c < 5; ++c) {
    ASSERT_TRUE(j.checkpoint([&] { return snapshot; }, cpath).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& th : threads) th.join();

  constexpr std::uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(j.total_appended(), kTotal);
  // Every append is either folded into the checkpoint or still journaled;
  // none may be double-counted or lost across the truncations.
  EXPECT_EQ(j.last_checkpoint_ops() + j.record_count(), kTotal);

  Result<std::unique_ptr<Journal>> again = Journal::open(jpath);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->last_checkpoint_ops() + again.value()->record_count(),
            kTotal);
}

TEST(RecoveryTest, FreshWorldRecoversEmpty) {
  TempDir dir;
  Result<core::RecoveredState> rec = core::recover_metadata(
      dir.path() / "metadata.bin", dir.path() / "journal.wal");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().metadata->total_chunks(), 0u);
  EXPECT_TRUE(rec.value().in_flight.empty());
  EXPECT_EQ(rec.value().replayed_records, 0u);
}

// --- crash-injection sweep --------------------------------------------------

/// Full durable state captured at one crash point: what would be on disk if
/// the process died right there, plus what a correct recovery must yield.
struct Scenario {
  std::string label;
  Bytes journal;
  Bytes checkpoint;  ///< empty = metadata.bin does not exist
  std::vector<std::map<VirtualId, Bytes>> providers;  ///< durable objects
  std::map<std::string, Bytes> expected;  ///< committed file -> content
};

/// Watches a live workload through the journal's append hooks and mints a
/// Scenario for the instant before and after every record hits the disk
/// (plus torn-byte variants of each record). The expected-files tracker
/// advances exactly when a commit-type record lands -- the journal IS the
/// commit point, so the tracker mirrors what recovery is entitled to see.
class CrashRecorder {
 public:
  CrashRecorder(fs::path journal_path, fs::path checkpoint_path,
                storage::ProviderRegistry* registry)
      : journal_path_(std::move(journal_path)),
        checkpoint_path_(std::move(checkpoint_path)),
        registry_(registry) {}

  void install(Journal& journal) {
    journal.test_hook_before_append = [this](const JournalRecord& rec) {
      pending_ = Scenario{};
      pending_.label = "before #" + std::to_string(scenarios_.size()) +
                       " op=" + std::to_string(static_cast<int>(rec.op));
      pending_.journal = read_disk(journal_path_);
      pending_.checkpoint = read_disk(checkpoint_path_);
      pending_.providers = snapshot_providers();
      pending_.expected = expected_;
      scenarios_.push_back(pending_);
    };
    journal.test_hook_after_append = [this](const JournalRecord& rec) {
      advance_expected(rec);
      Scenario after = pending_;
      after.label = "after #" + std::to_string(scenarios_.size()) +
                    " op=" + std::to_string(static_cast<int>(rec.op));
      after.journal = read_disk(journal_path_);
      after.expected = expected_;
      scenarios_.push_back(std::move(after));
    };
  }

  /// Declare the content an upcoming put/update will commit for `file`.
  void will_write(const std::string& file, Bytes content) {
    pending_content_[file] = std::move(content);
  }

  /// Snapshot the current on-disk + provider state outside any append
  /// (e.g. around an explicit checkpoint call).
  Scenario snapshot_now(const std::string& label) {
    Scenario s;
    s.label = label;
    s.journal = read_disk(journal_path_);
    s.checkpoint = read_disk(checkpoint_path_);
    s.providers = snapshot_providers();
    s.expected = expected_;
    return s;
  }

  [[nodiscard]] const std::vector<Scenario>& scenarios() const {
    return scenarios_;
  }

 private:
  std::vector<std::map<VirtualId, Bytes>> snapshot_providers() {
    std::vector<std::map<VirtualId, Bytes>> out(registry_->size());
    for (std::size_t p = 0; p < registry_->size(); ++p) {
      const storage::MemoryStore& store = registry_->at(p).raw_store();
      for (VirtualId id : store.list_ids()) {
        Result<Bytes> obj = store.get(id);
        if (obj.ok()) out[p][id] = std::move(obj).value();
      }
    }
    return out;
  }

  void advance_expected(const JournalRecord& rec) {
    switch (rec.op) {
      case JournalOp::kCommitPut:
      case JournalOp::kUpdateChunk: {
        if (rec.filename.empty()) break;  // repair/rebalance rewrite
        auto it = pending_content_.find(rec.filename);
        if (it != pending_content_.end()) expected_[rec.filename] = it->second;
        break;
      }
      case JournalOp::kRemoveFile:
        expected_.erase(rec.filename);
        break;
      default:
        break;
    }
  }

  fs::path journal_path_;
  fs::path checkpoint_path_;
  storage::ProviderRegistry* registry_;
  std::map<std::string, Bytes> pending_content_;
  std::map<std::string, Bytes> expected_;
  Scenario pending_;
  std::vector<Scenario> scenarios_;
};

/// Reconstructs a world from a crash Scenario and asserts full convergence:
/// recovery succeeds, committed files read back byte-identical, uncommitted
/// files are gone, reconciliation leaves zero unreferenced provider
/// objects, and a second recovery pass changes nothing.
void verify_recovery(const Scenario& sc,
                     const std::set<std::string>& universe) {
  SCOPED_TRACE(sc.label);
  TempDir dir;
  const fs::path jpath = dir.path() / "journal.wal";
  const fs::path cpath = dir.path() / "metadata.bin";
  write_disk(jpath, sc.journal);
  if (!sc.checkpoint.empty()) write_disk(cpath, sc.checkpoint);

  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  for (std::size_t p = 0; p < sc.providers.size(); ++p) {
    for (const auto& [id, bytes] : sc.providers[p]) {
      ASSERT_TRUE(registry.at(p).put(id, bytes).ok());
    }
  }

  Result<core::RecoveredState> recovered = core::recover_metadata(cpath, jpath);
  ASSERT_TRUE(recovered.ok()) << recovered.status().to_string();
  Result<std::shared_ptr<MetadataPlane>> reopened = MetadataPlane::open(
      cpath, jpath, 1, {}, {recovered.value().metadata});
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();

  core::DistributorConfig config = base_config(0xFE11BACC);
  config.plane = reopened.value();
  core::CloudDataDistributor cdd(registry, config);
  Result<core::CloudDataDistributor::ReconcileReport> report =
      cdd.reconcile(recovered.value().in_flight);
  ASSERT_TRUE(report.ok()) << report.status().to_string();

  // Committed files come back byte-identical; anything else is gone.
  for (const std::string& file : universe) {
    auto want = sc.expected.find(file);
    Result<Bytes> got = cdd.get_file("alice", "pw", file);
    if (want != sc.expected.end()) {
      ASSERT_TRUE(got.ok()) << file << ": " << got.status().to_string();
      EXPECT_TRUE(equal(got.value(), want->second)) << file;
    } else {
      EXPECT_FALSE(got.ok()) << file << " should not have survived";
    }
  }

  // Zero orphans: every provider object is referenced by a live chunk row.
  std::set<std::pair<ProviderIndex, VirtualId>> referenced;
  for (const core::ChunkEntry& entry :
       recovered.value().metadata->chunk_table()) {
    if (entry.deleted) continue;
    for (const core::ShardLocation& loc : entry.stripe) {
      referenced.insert({loc.provider, loc.virtual_id});
    }
    for (const core::ShardLocation& loc : entry.snapshot) {
      referenced.insert({loc.provider, loc.virtual_id});
    }
  }
  for (std::size_t p = 0; p < registry.size(); ++p) {
    for (VirtualId id : registry.at(p).list_ids()) {
      EXPECT_TRUE(referenced.count({static_cast<ProviderIndex>(p), id}))
          << "orphan object " << id << " at provider " << p;
    }
  }

  // Idempotence: recovering the recovered world is a no-op.
  Result<core::RecoveredState> second = core::recover_metadata(cpath, jpath);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().in_flight.empty());
  Result<core::CloudDataDistributor::ReconcileReport> again =
      cdd.reconcile(second.value().in_flight);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().orphans_removed, 0u);
  EXPECT_EQ(again.value().stale_ids, 0u);
  EXPECT_EQ(again.value().aborted_files, 0u);
}

TEST(RecoveryTest, CrashInjectionSweep) {
  TempDir dir;
  const fs::path jpath = dir.path() / "journal.wal";
  const fs::path cpath = dir.path() / "metadata.bin";
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  CrashRecorder recorder(jpath, cpath, &registry);

  const Bytes f1 = payload_of(9000, 1);
  const Bytes f2 = payload_of(5000, 2);
  const Bytes f3 = payload_of(7000, 3);
  const Bytes f4 = payload_of(4000, 4);
  const std::set<std::string> universe = {"f1", "f2", "f3", "f4"};
  std::vector<Scenario> checkpoint_scenarios;
  Bytes f1_updated;

  {
    Result<std::shared_ptr<MetadataPlane>> plane =
        MetadataPlane::open(cpath, jpath, 1);
    ASSERT_TRUE(plane.ok());
    recorder.install(*plane.value()->journal(0));
    core::DistributorConfig config = base_config(0x5EED);
    config.plane = plane.value();
    core::CloudDataDistributor cdd(registry, config);

    ASSERT_TRUE(cdd.register_client("alice").ok());
    ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kModerate).ok());
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;

    recorder.will_write("f1", f1);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f1", f1, opts).ok());
    recorder.will_write("f2", f2);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f2", f2, opts).ok());

    // Crash-around-checkpoint coverage: the state just before the cut, just
    // after it, and the nasty in-between where the new checkpoint image
    // exists but the journal was not yet truncated (records must re-apply
    // onto the checkpoint idempotently).
    Scenario pre_ckpt = recorder.snapshot_now("before checkpoint");
    checkpoint_scenarios.push_back(pre_ckpt);
    ASSERT_TRUE(cdd.checkpoint().ok());
    Scenario post_ckpt = recorder.snapshot_now("after checkpoint");
    checkpoint_scenarios.push_back(post_ckpt);
    Scenario between = post_ckpt;
    between.label = "checkpoint written, journal not yet truncated";
    between.journal = pre_ckpt.journal;
    checkpoint_scenarios.push_back(std::move(between));

    recorder.will_write("f3", f3);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f3", f3, opts).ok());

    // Same-size rewrite of f1's first chunk, so the expected content is the
    // new chunk spliced onto the original tail.
    Result<Bytes> chunk0 = cdd.get_chunk("alice", "pw", "f1", 0);
    ASSERT_TRUE(chunk0.ok());
    const std::size_t span = chunk0.value().size();
    ASSERT_GT(span, 0u);
    ASSERT_LT(span, f1.size());
    const Bytes fresh = payload_of(span, 11);
    f1_updated = fresh;
    f1_updated.insert(f1_updated.end(), f1.begin() + span, f1.end());
    recorder.will_write("f1", f1_updated);
    ASSERT_TRUE(cdd.update_chunk("alice", "pw", "f1", 0, fresh).ok());

    ASSERT_TRUE(cdd.remove_file("alice", "pw", "f2").ok());

    recorder.will_write("f4", f4);
    ASSERT_TRUE(cdd.put_file("alice", "pw", "f4", f4, opts).ok());

    // Live sanity: the tracker agrees with the live world before we start
    // crashing it.
    Result<Bytes> live_f1 = cdd.get_file("alice", "pw", "f1");
    ASSERT_TRUE(live_f1.ok());
    ASSERT_TRUE(equal(live_f1.value(), f1_updated));
  }

  const std::vector<Scenario>& scenarios = recorder.scenarios();
  // ctor(12) + client + password + 4 puts (begin+commit) + update + remove
  // = 24 appends, each captured before and after.
  ASSERT_EQ(scenarios.size(), 48u);
  for (const Scenario& sc : scenarios) verify_recovery(sc, universe);
  for (const Scenario& sc : checkpoint_scenarios) {
    verify_recovery(sc, universe);
  }

  // Torn-record variants: the crash caught write(2) mid-frame, leaving a
  // partial record at the tail. Recovery must treat every such prefix as
  // "record never happened".
  std::size_t torn_checked = 0;
  for (std::size_t i = 0; i + 1 < scenarios.size(); i += 2) {
    const Scenario& before = scenarios[i];
    const Scenario& after = scenarios[i + 1];
    if (after.journal.size() <= before.journal.size()) continue;
    const std::size_t frame = after.journal.size() - before.journal.size();
    for (std::size_t cut : {std::size_t{1}, frame / 2, frame - 1}) {
      if (cut == 0 || cut >= frame) continue;
      Scenario torn = before;
      torn.label = before.label + " torn+" + std::to_string(cut);
      torn.journal.insert(torn.journal.end(),
                          after.journal.begin() + before.journal.size(),
                          after.journal.begin() + before.journal.size() + cut);
      verify_recovery(torn, universe);
      ++torn_checked;
      if (torn_checked >= 24) break;  // bound the sweep's runtime
    }
    if (torn_checked >= 24) break;
  }
  EXPECT_GE(torn_checked, 12u);
}

// --- reconcile --------------------------------------------------------------

TEST(RecoveryTest, ReconcileCollectsInjectedOrphans) {
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  Result<std::shared_ptr<MetadataPlane>> plane = MetadataPlane::open(
      dir.path() / "metadata.bin", dir.path() / "j.wal", 1);
  ASSERT_TRUE(plane.ok());
  core::DistributorConfig config = base_config(0x0B57AC1E);
  config.plane = plane.value();
  core::CloudDataDistributor cdd(registry, config);
  ASSERT_TRUE(cdd.register_client("alice").ok());
  ASSERT_TRUE(cdd.add_password("alice", "pw", PrivacyLevel::kModerate).ok());
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;
  const Bytes content = payload_of(6000, 21);
  ASSERT_TRUE(cdd.put_file("alice", "pw", "keep", content, opts).ok());

  // Junk objects a crashed put might have stranded.
  ASSERT_TRUE(registry.at(2).put(0xDEAD0001, payload_of(700, 31)).ok());
  ASSERT_TRUE(registry.at(5).put(0xDEAD0002, payload_of(800, 32)).ok());
  ASSERT_TRUE(registry.at(9).put(0xDEAD0003, payload_of(900, 33)).ok());

  Result<core::CloudDataDistributor::ReconcileReport> report =
      cdd.reconcile({});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().orphans_removed, 3u);
  EXPECT_FALSE(registry.at(2).contains(0xDEAD0001));
  EXPECT_FALSE(registry.at(5).contains(0xDEAD0002));
  EXPECT_FALSE(registry.at(9).contains(0xDEAD0003));
  Result<Bytes> back = cdd.get_file("alice", "pw", "keep");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), content));
}

// --- scrubber ---------------------------------------------------------------

struct ScrubWorld {
  TempDir dir;
  storage::ProviderRegistry registry =
      storage::make_default_registry(kProviders);
  std::unique_ptr<core::CloudDataDistributor> cdd;
  Bytes content;

  explicit ScrubWorld(std::size_t bytes = 16000) {
    Result<std::shared_ptr<MetadataPlane>> plane = MetadataPlane::open(
        dir.path() / "metadata.bin", dir.path() / "j.wal", 1);
    CS_REQUIRE(plane.ok(), "plane open failed");
    core::DistributorConfig config = base_config(0x5C4B);
    config.plane = plane.value();
    cdd = std::make_unique<core::CloudDataDistributor>(registry, config);
    CS_REQUIRE(cdd->register_client("alice").ok(), "register");
    CS_REQUIRE(
        cdd->add_password("alice", "pw", PrivacyLevel::kModerate).ok(),
        "password");
    core::PutOptions opts;
    opts.privacy_level = PrivacyLevel::kModerate;
    content = payload_of(bytes, 41);
    CS_REQUIRE(cdd->put_file("alice", "pw", "data", content, opts).ok(),
               "put");
  }
};

TEST(ScrubberTest, DetectsAndRepairsEveryInjectedCorruption) {
  ScrubWorld world;
  // Silently corrupt exactly one stripe shard of EVERY chunk -- within the
  // stripe's repair tolerance, but across the whole table.
  std::size_t corrupted = 0;
  for (const core::ChunkEntry& entry : world.cdd->metadata().chunk_table()) {
    if (entry.deleted || entry.stripe.empty()) continue;
    const core::ShardLocation& loc = entry.stripe[corrupted % entry.stripe.size()];
    ASSERT_TRUE(world.registry.at(loc.provider)
                    .corrupt_object(loc.virtual_id, 3)
                    .ok());
    ++corrupted;
  }
  ASSERT_GT(corrupted, 1u);

  core::Migrator scrubber(*world.cdd);
  const core::MovePolicy scrub = core::MovePolicy::heal(/*scrub=*/true);
  Result<core::Migrator::Report> pass = scrubber.run(scrub);
  ASSERT_TRUE(pass.ok()) << pass.status().to_string();
  // 100% detection and repair, before any client read observed them.
  EXPECT_EQ(pass.value().mismatches, corrupted);
  EXPECT_EQ(pass.value().shards_moved, corrupted);
  EXPECT_EQ(scrubber.progress().mismatches, corrupted);

  Result<Bytes> back = world.cdd->get_file("alice", "pw", "data");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), world.content));

  // The guilty providers were charged, and a second pass finds nothing.
  std::uint64_t charged = 0;
  for (std::size_t p = 0; p < world.registry.size(); ++p) {
    charged += world.registry.at(p).counters().scrub_errors.load();
  }
  EXPECT_EQ(charged, corrupted);
  Result<core::Migrator::Report> second = scrubber.run(scrub);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().shards_moved, 0u);
  EXPECT_EQ(second.value().mismatches, 0u);
}

TEST(RepairTest, DeletesTheCorruptCopiesItReplaces) {
  // repair() heals bit rot without leaking it: each corrupt copy is deleted
  // once its rebuilt replacement has committed, so healing N corrupt shards
  // leaves the fleet's object count where it was instead of N higher.
  ScrubWorld world(76000);
  std::size_t corrupted = 0;
  for (const core::ChunkEntry& entry : world.cdd->metadata().chunk_table()) {
    if (entry.deleted || entry.stripe.empty()) continue;
    const core::ShardLocation& loc =
        entry.stripe[corrupted % entry.stripe.size()];
    ASSERT_TRUE(world.registry.at(loc.provider)
                    .corrupt_object(loc.virtual_id, 3)
                    .ok());
    ++corrupted;
  }
  ASSERT_GT(corrupted, 10u);
  auto objects = [&world] {
    std::size_t n = 0;
    for (std::size_t p = 0; p < world.registry.size(); ++p) {
      n += world.registry.at(p).object_count();
    }
    return n;
  };
  const std::size_t before = objects();

  Result<std::size_t> repaired = world.cdd->repair();
  ASSERT_TRUE(repaired.ok()) << repaired.status().to_string();
  EXPECT_EQ(repaired.value(), corrupted);
  EXPECT_EQ(objects(), before);
  Result<Bytes> back = world.cdd->get_file("alice", "pw", "data");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(equal(back.value(), world.content));
}

TEST(ScrubberTest, BackgroundPassScansAndStops) {
  ScrubWorld world(8000);
  core::Migrator scrubber(*world.cdd);
  scrubber.start(core::MovePolicy::heal(/*scrub=*/true));
  Result<core::Migrator::Report> pass = scrubber.wait();
  ASSERT_TRUE(pass.ok()) << pass.status().to_string();
  EXPECT_GT(pass.value().chunks_visited, 0u);
  EXPECT_EQ(pass.value().chunks_visited,
            world.cdd->metadata().total_chunks());
  EXPECT_EQ(pass.value().mismatches, 0u);
  const core::Migrator::Progress progress = scrubber.progress();
  EXPECT_EQ(progress.chunks_visited, pass.value().chunks_visited);
  EXPECT_FALSE(progress.running);

  // A throttled pass stops at the next chunk boundary.
  core::Migrator slow(*world.cdd, core::Migrator::Config{5.0, 1});
  slow.start(core::MovePolicy::heal(/*scrub=*/true));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  slow.stop();
  EXPECT_FALSE(slow.progress().running);
  EXPECT_LT(slow.progress().chunks_visited,
            world.cdd->metadata().total_chunks());
  slow.stop();  // double-stop is safe
}

TEST(ScrubberTest, ThrottlePacesScan) {
  ScrubWorld world(8000);
  core::Migrator::Config config;
  config.stripes_per_sec = 200.0;  // 5ms per chunk
  core::Migrator scrubber(*world.cdd, config);
  const auto start = std::chrono::steady_clock::now();
  Result<core::Migrator::Report> pass =
      scrubber.run(core::MovePolicy::heal(/*scrub=*/true));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(pass.ok());
  const std::uint64_t n = pass.value().chunks_visited;
  ASSERT_GT(n, 0u);
  // n chunks at 5ms floor each; allow generous slack below the ideal to
  // stay robust on loaded CI machines, but the sleep must be observable.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed),
            std::chrono::milliseconds(n * 5 / 2));
}

}  // namespace
}  // namespace cshield
