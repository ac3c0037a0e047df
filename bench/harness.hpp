// The bench harness: what every gated bench/ binary shares.
//
//   * inputs: make_payload (seeded random bytes), ScratchDir (a temporary
//     directory removed on destruction), realtime_registry (providers that
//     sleep their modelled latency) and open_plane (a journaled N-shard
//     metadata plane);
//   * timers: calls_per_sec / gbps, the best of three auto-scaled samples;
//   * statistics: median and quartiles, and Paired -- interleaved A/B reps
//     that alternate which arm runs first, judged by the median of the
//     paired ratios or by their minimum;
//   * closed_loop_puts: many clients putting small files back to back
//     through one distributor with a fsync'd WAL (the small-op regime);
//   * Report: the one JSON envelope every BENCH_*.json is written in. Its
//     gates decide the process exit code.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <unistd.h>

#include "core/distributor.hpp"
#include "core/metadata_plane.hpp"
#include "crypto/aes.hpp"
#include "crypto/gf256_kernels.hpp"
#include "crypto/sha256.hpp"
#include "storage/provider_registry.hpp"
#include "util/cpu.hpp"
#include "util/random.hpp"
#include "util/sim_clock.hpp"
#include "util/stats.hpp"

namespace cshield::bench {

namespace fs = std::filesystem;

// --- inputs -----------------------------------------------------------------

/// `n` seeded random bytes; the same (n, seed) always gives the same bytes.
inline Bytes make_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 2654435761u + 17);
  Bytes data(n);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  return data;
}

/// Scratch directory for journal/checkpoint files, removed on destruction.
struct ScratchDir {
  fs::path path;
  ScratchDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cshield_bench_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
};

/// Modelled base latency of the realtime providers: shard RPCs in any real
/// deployment are latency-bound, and the gates that price overlap (the
/// stripe pipeline, group commit, batched RPCs, shard lanes) need requests
/// that actually block for it.
inline constexpr double kRealtimeLatencyMs = 3.0;

/// `n` PL3 providers whose requests sleep their modelled service time.
inline storage::ProviderRegistry realtime_registry(std::size_t n) {
  storage::ProviderRegistry registry;
  for (std::size_t i = 0; i < n; ++i) {
    storage::ProviderDescriptor d;
    d.name = "rt" + std::to_string(i);
    d.privacy_level = PrivacyLevel::kHigh;
    d.cost_level = CostLevel::kCheapest;
    storage::LatencyModel latency;
    latency.base_latency = SimDuration(std::chrono::microseconds(
        static_cast<std::int64_t>(kRealtimeLatencyMs * 1000.0)));
    registry.add(std::move(d), latency, 0xBE9C0000ULL + i);
    registry.at(i).set_realtime_scale(1.0);
  }
  return registry;
}

/// A journaled `shards`-way plane with fresh stores under `dir`.
inline std::shared_ptr<core::MetadataPlane> open_plane(
    const fs::path& dir, std::size_t shards = 1,
    const core::GroupCommitConfig& group_commit = {}) {
  Result<std::shared_ptr<core::MetadataPlane>> plane =
      core::MetadataPlane::open(dir / "plane.ckpt", dir / "plane.wal", shards,
                                group_commit);
  CS_REQUIRE(plane.ok(), plane.status().to_string());
  return std::move(plane).value();
}

// --- timers -----------------------------------------------------------------

/// Best-of-three calls per second of `fn`. Each sample repeats `fn` enough
/// times to run >= ~20 ms of wall clock, so timer resolution never shows.
template <typename Fn>
double calls_per_sec(Fn&& fn) {
  std::size_t reps = 1;
  for (;;) {
    Stopwatch w;
    for (std::size_t i = 0; i < reps; ++i) fn();
    if (w.elapsed_seconds() >= 0.02 || reps >= (std::size_t{1} << 24)) break;
    reps *= 4;
  }
  double best = 0.0;
  for (int sample = 0; sample < 3; ++sample) {
    Stopwatch w;
    for (std::size_t i = 0; i < reps; ++i) fn();
    best = std::max(best, static_cast<double>(reps) / w.elapsed_seconds());
  }
  return best;
}

/// Best-of-three GB/s of `fn`, which touches `bytes_per_call` per call.
template <typename Fn>
double gbps(std::size_t bytes_per_call, Fn&& fn) {
  return static_cast<double>(bytes_per_call) *
         calls_per_sec(std::forward<Fn>(fn)) / 1e9;
}

// --- statistics -------------------------------------------------------------

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Interquartile distance: the run-to-run spread a difference between
  /// two medians must exceed to mean anything.
  [[nodiscard]] double spread() const { return q3 - q1; }
};

inline Quartiles quartiles(const std::vector<double>& v) {
  return {percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75)};
}

/// Two arms measured rep by rep: a[i] and b[i] ran back to back, so drift
/// over the run (clock frequency, fsync cost, page cache) lands on both
/// sides of each pair instead of on one arm, and the gates read per-pair
/// ratios instead of a ratio of medians taken minutes apart.
struct Paired {
  std::vector<double> a;
  std::vector<double> b;

  /// Runs `reps` pairs; `arm_a(rep)` and `arm_b(rep)` each return one
  /// sample. Even reps run A first and odd reps B first, so neither arm
  /// always inherits the state the other leaves behind.
  template <typename ArmA, typename ArmB>
  static Paired run(int reps, ArmA&& arm_a, ArmB&& arm_b) {
    Paired p;
    for (int rep = 0; rep < reps; ++rep) {
      if (rep % 2 == 0) {
        p.a.push_back(arm_a(rep));
        p.b.push_back(arm_b(rep));
      } else {
        p.b.push_back(arm_b(rep));
        p.a.push_back(arm_a(rep));
      }
    }
    return p;
  }

  /// a[i] / b[i] for every pair with b[i] > 0.
  [[nodiscard]] std::vector<double> ratios() const {
    std::vector<double> r;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
      if (b[i] > 0.0) r.push_back(a[i] / b[i]);
    }
    return r;
  }

  /// Median of the paired ratios (0 with no usable pair).
  [[nodiscard]] double ratio() const {
    const std::vector<double> r = ratios();
    return r.empty() ? 0.0 : median(r);
  }

  /// Minimum of the paired ratios (0 with no usable pair). For an overhead
  /// gate, noise is one-sided -- a loaded machine only inflates a pair -- so
  /// the pair that dodged external load measures the true cost, while a
  /// real regression shifts every pair and still trips the bound.
  [[nodiscard]] double min_ratio() const {
    const std::vector<double> r = ratios();
    return r.empty() ? 0.0 : *std::min_element(r.begin(), r.end());
  }
};

// --- closed-loop small puts -------------------------------------------------

struct PutLoad {
  double ops_per_sec = 0.0;
  std::vector<double> put_s;        ///< per-put wall latency
  std::uint64_t group_commits = 0;  ///< journal flushes with > 1 record
  std::uint64_t batch_rpcs = 0;     ///< provider batch requests
};

/// One rep of the small-op regime: `clients` threads, each a client "sc<c>"
/// with a PL3 password, put `files_per_client` PL2 files back to back (a
/// closed loop: the next put starts when the last returns) through one
/// distributor on `plane` and 12 realtime providers. `file_bytes(c, m)`
/// sizes client c's file m; payloads are seeded by (rep, c, m).
template <typename SizeFn>
PutLoad closed_loop_puts(std::shared_ptr<core::MetadataPlane> plane,
                         core::DistributorConfig config, std::size_t clients,
                         std::size_t files_per_client, int rep,
                         SizeFn&& file_bytes) {
  storage::ProviderRegistry registry = realtime_registry(12);
  config.plane = plane;
  core::CloudDataDistributor cdd(registry, config);
  for (std::size_t c = 0; c < clients; ++c) {
    const std::string name = "sc" + std::to_string(c);
    CS_REQUIRE(cdd.register_client(name).ok(), "register");
    CS_REQUIRE(cdd.add_password(name, "pw", PrivacyLevel::kHigh).ok(), "pw");
  }
  core::PutOptions opts;
  opts.privacy_level = PrivacyLevel::kModerate;  // 4 KiB chunks

  PutLoad load;
  std::mutex merge_mu;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  Stopwatch phase;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double> local;
      local.reserve(files_per_client);
      for (std::size_t m = 0; m < files_per_client; ++m) {
        const Bytes data = make_payload(
            file_bytes(c, m), static_cast<std::uint64_t>(rep) * 7919 +
                                  c * 131 + m);
        Stopwatch w;
        const Status st = cdd.put_file("sc" + std::to_string(c), "pw",
                                       "f" + std::to_string(m), data, opts);
        local.push_back(w.elapsed_seconds());
        CS_REQUIRE(st.ok(), st.to_string());
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      load.put_s.insert(load.put_s.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed = phase.elapsed_seconds();
  load.ops_per_sec =
      elapsed > 0.0
          ? static_cast<double>(clients * files_per_client) / elapsed
          : 0.0;
  for (std::size_t k = 0; k < plane->shard_count(); ++k) {
    load.group_commits += plane->journal(k)->group_commits();
  }
  for (ProviderIndex p = 0; p < registry.size(); ++p) {
    load.batch_rpcs += registry.at(p).counters().batch_requests.load();
  }
  return load;
}

// --- JSON -------------------------------------------------------------------

/// A JSON value built in memory and written once. Objects keep insertion
/// order. A container holding only scalars prints on one line, so a table
/// of rows prints one row per line.
class Json {
 public:
  Json() : text_("null") {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(std::string_view s) : Json(std::string(s)) {}
  Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  template <typename T>
    requires std::is_arithmetic_v<T>
  Json(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      text_ = v ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      text_ = std::to_string(v);
    } else if (!std::isfinite(static_cast<double>(v))) {
      text_ = "null";
    } else {
      std::ostringstream os;
      os << static_cast<double>(v);
      text_ = os.str();
    }
  }

  static Json object() { return Json(Kind::kObject); }
  static Json array() { return Json(Kind::kArray); }
  /// Already-serialized JSON, inserted verbatim.
  static Json raw(std::string text) {
    Json j;
    j.text_ = std::move(text);
    return j;
  }
  template <typename T>
  static Json array_of(const std::vector<T>& values) {
    Json j = array();
    for (const T& v : values) j.push(v);
    return j;
  }

  /// Appends `key: value` to an object; chainable.
  Json& set(std::string key, Json value) {
    CS_REQUIRE(kind_ == Kind::kObject, "Json::set on a non-object");
    keys_.push_back(std::move(key));
    items_.push_back(std::move(value));
    return *this;
  }
  Json& push(Json value) {
    CS_REQUIRE(kind_ == Kind::kArray, "Json::push on a non-array");
    items_.push_back(std::move(value));
    return *this;
  }
  [[nodiscard]] const std::vector<std::string>& keys() const { return keys_; }
  [[nodiscard]] const std::vector<Json>& items() const { return items_; }

  void write(std::ostream& os, int indent = 0) const {
    switch (kind_) {
      case Kind::kScalar: os << text_; return;
      case Kind::kString: write_string(os, text_); return;
      case Kind::kObject:
      case Kind::kArray: break;
    }
    const bool object = kind_ == Kind::kObject;
    const bool multiline = std::any_of(
        items_.begin(), items_.end(), [](const Json& j) {
          return j.kind_ == Kind::kObject || j.kind_ == Kind::kArray;
        });
    const std::string pad(static_cast<std::size_t>(indent + 2), ' ');
    os << (object ? '{' : '[');
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i > 0) os << ',';
      if (multiline) {
        os << '\n' << pad;
      } else if (i > 0) {
        os << ' ';
      }
      if (object) {
        write_string(os, keys_[i]);
        os << ": ";
      }
      items_[i].write(os, multiline ? indent + 2 : indent);
    }
    if (multiline && !items_.empty()) {
      os << '\n' << std::string(static_cast<std::size_t>(indent), ' ');
    }
    os << (object ? '}' : ']');
  }

 private:
  enum class Kind { kScalar, kString, kObject, kArray };
  explicit Json(Kind kind) : kind_(kind) {}

  static void write_string(std::ostream& os, std::string_view s) {
    os << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        os << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        os << buf;
      } else {
        os << c;
      }
    }
    os << '"';
  }

  Kind kind_ = Kind::kScalar;
  std::string text_;               ///< scalar literal or string contents
  std::vector<std::string> keys_;  ///< object keys, parallel to items_
  std::vector<Json> items_;
};

/// `{q1, median, q3}` of a sample set, for the rows a gate reads.
inline Json quartiles_json(const std::vector<double>& v) {
  const Quartiles q = quartiles(v);
  return Json::object().set("q1", q.q1).set("median", q.median).set("q3", q.q3);
}

// --- the envelope -----------------------------------------------------------

/// The revision the bench was built from: `git describe --always --dirty`
/// run in the source tree this header sits in, or "unknown".
inline std::string git_rev() {
  const fs::path root = fs::path(__FILE__).parent_path().parent_path();
  const std::string cmd =
      "git -C '" + root.string() + "' describe --always --dirty 2>/dev/null";
  std::string out;
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// What a number measured depends on: the core count and the kernel arms
/// the data plane dispatched to.
inline Json hardware() {
  return Json::object()
      .set("cores", std::max(1u, std::thread::hardware_concurrency()))
      .set("gf256_arm", cpu::simd_level_name(gf256::kernels::active_arm()))
      .set("sha256_arm", crypto::sha256_arm_name(crypto::sha256_active_arm()))
      .set("aes_arm", crypto::aes_arm_name(crypto::aes_active_arm()));
}

/// One BENCH_*.json: `schema`, `bench`, `git_rev`, `hardware`, `config`,
/// `gates` [{name, statistic, value, bound, form, pass}], then the bench's
/// own sections in `rows` order.
class Report {
 public:
  static constexpr const char* kSchema = "cshield.bench.v1";

  explicit Report(std::string bench) : bench_(std::move(bench)) {}

  Json config = Json::object();  ///< the bench's fixed parameters
  Json rows = Json::object();    ///< the bench's own sections

  /// Records a gate. `statistic` names the estimator behind `value`;
  /// `form` states the pass rule the bench applied. Returns `pass`.
  bool gate(std::string name, std::string statistic, double value,
            double bound, std::string form, bool pass) {
    gates_.push_back({std::move(name), std::move(statistic), value, bound,
                      std::move(form), pass});
    return pass;
  }
  bool at_least(std::string name, std::string statistic, double value,
                double bound) {
    return gate(std::move(name), std::move(statistic), value, bound,
                "value >= bound", value >= bound);
  }
  bool at_most(std::string name, std::string statistic, double value,
               double bound) {
    return gate(std::move(name), std::move(statistic), value, bound,
                "value <= bound", value <= bound);
  }

  [[nodiscard]] bool pass() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const GateRow& g) { return g.pass; });
  }

  [[nodiscard]] Json to_json() const {
    Json gates = Json::array();
    for (const GateRow& g : gates_) {
      gates.push(Json::object()
                     .set("name", g.name)
                     .set("statistic", g.statistic)
                     .set("value", g.value)
                     .set("bound", g.bound)
                     .set("form", g.form)
                     .set("pass", g.pass));
    }
    Json doc = Json::object()
                   .set("schema", kSchema)
                   .set("bench", bench_)
                   .set("git_rev", git_rev())
                   .set("hardware", hardware())
                   .set("config", config)
                   .set("gates", std::move(gates));
    for (std::size_t i = 0; i < rows.keys().size(); ++i) {
      doc.set(rows.keys()[i], rows.items()[i]);
    }
    return doc;
  }

  /// Writes the envelope to `path`, prints each gate's verdict, and returns
  /// the process exit code: 0 when every gate passed, 1 otherwise.
  int finish(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    CS_REQUIRE(out.good(), "cannot open " + path);
    to_json().write(out);
    out << '\n';
    out.close();
    CS_REQUIRE(out.good(), "cannot write " + path);
    for (const GateRow& g : gates_) {
      std::cout << "gate " << g.name << ": " << g.statistic << " " << g.value
                << " (" << g.form << ", bound " << g.bound << ") -> "
                << (g.pass ? "PASS" : "FAIL") << "\n";
    }
    std::cout << "wrote " << path << "\n";
    return pass() ? 0 : 1;
  }

 private:
  struct GateRow {
    std::string name;
    std::string statistic;
    double value = 0.0;
    double bound = 0.0;
    std::string form;
    bool pass = false;
  };

  std::string bench_;
  std::vector<GateRow> gates_;
};

}  // namespace cshield::bench
