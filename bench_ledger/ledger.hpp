// bench_ledger: closed-loop benchmark of the Cloud Data Distributor's public
// API, end to end and layer by layer.
//
// One process runs one workload. Every round builds a fresh system (fleet,
// 4-shard journaled metadata plane, distributor, 64 clients, seeded
// prefill), simulates a crash, restarts it (recover_plane + reconcile) and
// changes the fleet (a provider join, or for `maintenance` a drain under
// foreground load). The first round's system also serves the workload's
// closed-loop mix. Every input -- payload bytes, file sizes, per-thread op
// sequences -- is a function of --seed and is generated before the timing
// it feeds.
//
// This header holds what the translation units share: the workload table,
// the client model the generator and the checks agree on, and the
// set-up / load / replay entry points.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <ctime>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/distributor.hpp"
#include "core/metadata_plane.hpp"
#include "storage/provider_registry.hpp"
#include "util/bytes.hpp"
#include "util/random.hpp"

namespace ledger {

namespace fs = std::filesystem;
using cshield::Bytes;
using cshield::BytesView;
using cshield::PrivacyLevel;
using cshield::ProtectionMode;

enum class OpKind : std::uint8_t { kPut, kGet, kUpdate, kRemove };
inline constexpr std::size_t kNumOpKinds = 4;
inline constexpr std::array<const char*, kNumOpKinds> kOpNames{
    "put", "get", "update", "remove"};

inline constexpr std::size_t kClients = 64;
inline constexpr std::size_t kShards = 4;
inline constexpr std::size_t kFleet = 12;
inline constexpr std::size_t kDataShards = 3;
inline constexpr double kMisleadingFraction = 0.1;
inline constexpr const char* kPassword = "pw";

/// One benchmark workload: what the clients store and how they mix ops.
struct WorkloadSpec {
  std::string_view name;
  bool realtime = false;  ///< 1 ms sleep-modelled providers vs in-memory
  PrivacyLevel pl = PrivacyLevel::kLow;
  ProtectionMode protection = ProtectionMode::kMisleadingBytes;
  std::uint32_t min_bytes = 0;  ///< file size; log-uniform when max > min
  std::uint32_t max_bytes = 0;
  /// Per-op weights: put, get_file, update_chunk, remove_file.
  std::array<double, kNumOpKinds> mix{};
  /// Live files per client; a put at the cap first removes the oldest.
  /// 0 = no cap (removes come from the mix alone).
  std::size_t live_cap = 0;
  bool zipf_reads = false;  ///< Zipf(0.99) over a client's files, newest hot
  std::size_t prefill_per_client = 0;
  std::size_t threads = 4;  ///< closed-loop generator threads
  /// true: the fleet change is a drain that runs under the foreground mix
  /// and is the timed window; false: a join with no foreground load.
  bool drain_under_load = false;
};

[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Run-wide knobs from the command line; --smoke shrinks every size.
struct RunConfig {
  std::uint64_t seed = 1;
  bool smoke = false;
  fs::path scratch;  ///< journals and checkpoints live under here

  [[nodiscard]] std::size_t prefill_per_client(const WorkloadSpec& w) const {
    return smoke ? std::min<std::size_t>(w.prefill_per_client, 2)
                 : w.prefill_per_client;
  }
  /// The measured window; fixed, so every commit is measured over the same
  /// length (BENCHMARK.json's run_seconds).
  [[nodiscard]] double window_seconds() const { return smoke ? 1.0 : 10.0; }
  [[nodiscard]] double warmup_seconds() const { return smoke ? 0.2 : 1.0; }
  [[nodiscard]] std::size_t min_rounds() const { return smoke ? 1 : 3; }
  /// Samples a p99 needs to be reported: ten beyond it.
  [[nodiscard]] std::size_t min_p99_samples() const {
    return smoke ? 0 : 1000;
  }
};

/// clock_gettime(id) in nanoseconds.
[[nodiscard]] std::int64_t clock_ns(clockid_t id);

/// Deterministic sub-seed for one input stream.
[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index = 0);

/// One shared pool of random payload bytes; every file and chunk the
/// workload writes is a slice of it, so the model stores offsets only.
struct Payloads {
  Bytes bytes;
  [[nodiscard]] BytesView slice(std::uint32_t off, std::uint32_t len) const {
    return BytesView(bytes.data() + off, len);
  }
};

// --- the client model -------------------------------------------------------

/// What the benchmark stored in one file: its size and, per chunk, the pool
/// offset of the chunk's current bytes and whether an update left a
/// pre-update snapshot behind it.
struct FileState {
  std::uint32_t size = 0;
  std::vector<std::uint32_t> chunk_off;
  std::vector<std::uint8_t> snapshot;
};

struct ClientFiles {
  std::deque<std::uint32_t> order;  ///< live file ids, oldest first
  std::unordered_map<std::uint32_t, FileState> files;
  std::uint32_t next_id = 0;
};

/// One client-visible operation. Names are derived ("c<client>",
/// "f<file>"); put and update carry their payload as a pool slice.
struct Op {
  OpKind kind = OpKind::kGet;
  std::uint16_t client = 0;
  std::uint32_t file = 0;
  std::uint32_t serial = 0;  ///< update: chunk serial
  std::uint32_t offset = 0;  ///< put/update: pool offset of the payload
  std::uint32_t size = 0;    ///< put/update: payload bytes
};

/// The generator's and the checker's shared view of every client's files.
/// Each load thread owns a disjoint set of clients, so threads never touch
/// the same entry.
struct Model {
  std::size_t chunk_size = 0;
  std::vector<ClientFiles> clients = std::vector<ClientFiles>(kClients);

  void apply(const Op& op);
  /// Bytes the distributor must keep: live chunks plus one pre-update
  /// snapshot for each updated chunk.
  [[nodiscard]] std::uint64_t retained_bytes() const;
  [[nodiscard]] std::uint32_t chunk_len(const FileState& f,
                                        std::size_t serial) const;
};

[[nodiscard]] const std::string& client_name(std::size_t client);
[[nodiscard]] std::string file_name(std::uint32_t file);
/// True when `got` is byte-identical to the model's bytes for `f`.
[[nodiscard]] bool matches(const Model& model, const FileState& f,
                           const Payloads& pool, const Bytes& got);

/// A put of a fresh file whose size and payload slice come from `rng`.
[[nodiscard]] Op make_put(const WorkloadSpec& w, const Payloads& pool,
                          cshield::Rng& rng, std::size_t client,
                          std::uint32_t file);

/// Generates `count` ops for the clients `client % threads == thread`,
/// starting from (a copy of) the model's current state. `every_kind`
/// appends ops until each op kind occurs at least once.
[[nodiscard]] std::vector<Op> generate_ops(const WorkloadSpec& w,
                                           const Model& model,
                                           const Payloads& pool,
                                           std::uint64_t seed,
                                           std::size_t threads,
                                           std::size_t thread,
                                           std::size_t count,
                                           bool every_kind = false);

// --- the system under test ------------------------------------------------

/// Fleet, plane and distributor of one round, plus the directory holding
/// its WAL and checkpoint files.
struct System {
  const WorkloadSpec* spec = nullptr;
  fs::path dir;
  std::uint64_t seed = 0;
  bool telemetry = false;  ///< distributor reports into the global sink
  cshield::storage::ProviderRegistry registry;
  std::shared_ptr<cshield::core::MetadataPlane> plane;
  std::unique_ptr<cshield::core::CloudDataDistributor> cdd;

  System() = default;
  System(const System&) = delete;
  System& operator=(const System&) = delete;
  ~System();
};

/// Crash artifacts a round plants before it restarts the system.
struct CrashPlan {
  std::size_t in_flight = 0;  ///< kBeginPut records with no commit
  std::size_t orphans = 0;    ///< provider objects no row references
  std::size_t lost = 0;       ///< committed shards deleted at a provider
};

struct RecoverStats {
  double total_s = 0.0;      ///< recover_plane + reopen + reconcile
  double replay_s = 0.0;     ///< recover_plane alone
  double reconcile_s = 0.0;  ///< reconcile alone
  std::size_t records = 0;
  cshield::core::CloudDataDistributor::ReconcileReport report;
};

struct MigrateStats {
  double seconds = 0.0;
  std::uint64_t chunks = 0;
  std::uint64_t shards = 0;
  std::uint64_t bytes = 0;
  cshield::ProviderIndex subject = cshield::kNoProvider;
};

/// Provider latency model of the workload's fleet: the default model, or a
/// 1 ms base latency for the realtime workload.
[[nodiscard]] cshield::storage::LatencyModel fleet_latency(
    const WorkloadSpec& w);

/// Builds a fresh round: fleet, plane, distributor, clients and the seeded
/// prefill (recorded into `model`).
void set_up(System& sys, const WorkloadSpec& w, const RunConfig& run,
            const fs::path& dir, const Payloads& pool, Model& model);
/// Plants the crash artifacts, then drops the distributor and closes the
/// journals -- the process "dies" with the providers' objects intact.
CrashPlan crash(System& sys, const Model& model, bool smoke);
/// Restarts from the WALs: recover_plane, reopened journals, a new
/// distributor and reconcile(in_flight).
RecoverStats recover(System& sys);
/// Joins a new provider and migrates its ring share to it.
MigrateStats join_provider(System& sys);
/// Drains provider 1 ("AWS": PL3 at cost 2, so cost-aware placement puts
/// about half of the PL2 stripes on it).
MigrateStats drain_provider(System& sys);

/// Output checks. Each appends a message to `errors` on failure.
void check_recovery(System& sys, const Model& model, const CrashPlan& plan,
                    const RecoverStats& rs, std::vector<std::string>& errors);
/// Reads back up to `sample` live files, chosen by `seed`.
void check_reads(System& sys, const Model& model, const Payloads& pool,
                 std::size_t sample, std::uint64_t seed,
                 std::vector<std::string>& errors);
/// Cross-checks provider bytes against the chunk rows and the rows
/// against the model; returns provider bytes per retained user byte.
double check_storage(System& sys, const Model& model,
                     std::vector<std::string>& errors);
/// Crashes the system and recovers its WALs: the committed file set must
/// equal the model's, so every acknowledged write is durable.
void check_durable(System& sys, const Model& model,
                   std::vector<std::string>& errors);

// --- closed-loop load ---------------------------------------------------------

/// Ops (warm-up included) after which a load reads the process's peak RSS;
/// the end-to-end warm-up lasts until they are done. Reading after a fixed
/// amount of work, not when the window closes, keeps the reading
/// independent of the host's speed: a remove leaves tombstone rows behind,
/// so memory grows with every op completed. By then every client's live
/// set has filled.
inline constexpr std::uint64_t kRssMarkOps = 1000;
/// Bound on a warm-up still short of its ops.
inline constexpr double kMaxWarmupSeconds = 30.0;

/// VmHWM of this process, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Lowers VmHWM to the current resident set.
void reset_peak_rss();

struct LoadResult {
  std::array<std::vector<double>, kNumOpKinds> latency_ms;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t user_bytes = 0;  ///< logical bytes put + read + updated
  double seconds = 0.0;          ///< measured interval
  /// Peak resident set from the load's start (everything set-up left
  /// resident included) until kRssMarkOps ops are done, or the window
  /// closes if that comes first. merge() leaves it alone.
  double peak_rss_mb = 0.0;
  std::vector<std::string> errors;
  void merge(LoadResult&& other);
};

/// Runs `seqs[t]` on thread t until the measured window closes. With no
/// `window_work`, a warm-up of `warmup_s` that also lasts until
/// `warmup_ops` ops are done (at most kMaxWarmupSeconds) is excluded, and
/// the window lasts exactly `seconds`. With `window_work`, every op is
/// measured and the window is exactly the time `window_work` takes.
LoadResult run_load(System& sys, Model& model, const Payloads& pool,
                    const std::vector<std::vector<Op>>& seqs, double warmup_s,
                    std::uint64_t warmup_ops, double seconds,
                    const std::function<void()>& window_work = {});

/// Issues one op against the distributor; `file` is file_name(op.file).
/// `got` receives get_file bytes.
cshield::Status issue(cshield::core::CloudDataDistributor& cdd, const Op& op,
                      const std::string& file, const Payloads& pool,
                      const WorkloadSpec& w, Bytes* got,
                      cshield::core::OpReport* report = nullptr);

// --- traced replay --------------------------------------------------------------

/// Per-layer metrics of the traced run, by name, with units.
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

/// Single-thread sample: issues `ops` one at a time through the
/// distributor (root span: wall + process CPU), replays each through the
/// layers' public calls, writes every span to `spans_path` and fills
/// `metrics` with the per-layer numbers. `examples` receives a breakdown
/// of the first put and the first get.
void trace_sample(System& sys, Model& model, const Payloads& pool,
                  const std::vector<Op>& ops, const fs::path& scratch,
                  const fs::path& spans_path, MetricMap& metrics,
                  std::string& examples_json);

}  // namespace ledger
