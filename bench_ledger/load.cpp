// The closed-loop load generator: each thread issues its pre-generated op
// sequence one call at a time, records the call's latency, and only then
// checks the result against the model.
#include <malloc.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "ledger.hpp"

namespace ledger {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void note(LoadResult& out, std::string msg) {
  if (out.errors.size() < 4) out.errors.push_back(std::move(msg));
}

}  // namespace

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // VmHWM := VmRSS (Linux >= 4.0)
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM");
}

cshield::Status issue(cshield::core::CloudDataDistributor& cdd, const Op& op,
                      const std::string& file, const Payloads& pool,
                      const WorkloadSpec& w, Bytes* got,
                      cshield::core::OpReport* report) {
  const std::string& client = client_name(op.client);
  switch (op.kind) {
    case OpKind::kPut: {
      cshield::core::PutOptions options;
      options.privacy_level = w.pl;
      options.protection = w.protection;
      return cdd.put_file(client, kPassword, file,
                          pool.slice(op.offset, op.size), options, report);
    }
    case OpKind::kGet: {
      cshield::Result<Bytes> r = cdd.get_file(client, kPassword, file, report);
      if (!r.ok()) return r.status();
      if (got != nullptr) *got = std::move(r).value();
      return cshield::Status::Ok();
    }
    case OpKind::kUpdate:
      return cdd.update_chunk(client, kPassword, file, op.serial,
                              pool.slice(op.offset, op.size), report);
    case OpKind::kRemove:
      return cdd.remove_file(client, kPassword, file);
  }
  return cshield::Status::Internal("unknown op kind");
}

void LoadResult::merge(LoadResult&& other) {
  for (std::size_t k = 0; k < kNumOpKinds; ++k) {
    latency_ms[k].insert(latency_ms[k].end(), other.latency_ms[k].begin(),
                         other.latency_ms[k].end());
  }
  ops += other.ops;
  failed += other.failed;
  user_bytes += other.user_bytes;
  seconds += other.seconds;
  for (std::string& e : other.errors) {
    if (errors.size() < 8) errors.push_back(std::move(e));
  }
}

LoadResult run_load(System& sys, Model& model, const Payloads& pool,
                    const std::vector<std::vector<Op>>& seqs, double warmup_s,
                    std::uint64_t warmup_ops, double seconds,
                    const std::function<void()>& window_work) {
  const std::size_t threads = seqs.size();
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> measure_from{
      std::numeric_limits<std::int64_t>::max()};
  std::atomic<std::uint64_t> done{0};  ///< ops completed, warm-up included
  double rss_at_mark = 0.0;  ///< written once, by the thread finishing op #mark
  std::vector<LoadResult> parts(threads);
  std::vector<std::int64_t> last_end(threads, 0);

  // The peak counts what the system holds and what serving adds, not the
  // free heap set-up left behind.
  ::malloc_trim(0);
  reset_peak_rss();
  if (window_work) measure_from = now_ns();
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      LoadResult& out = parts[t];
      Bytes got;
      std::size_t issued = 0;
      try {
        for (const Op& op : seqs[t]) {
          if (stop.load(std::memory_order_relaxed)) break;
          ++issued;
          const std::string file = file_name(op.file);
          const std::int64_t t0 = now_ns();
          const cshield::Status st =
              issue(*sys.cdd, op, file, pool, *sys.spec,
                    op.kind == OpKind::kGet ? &got : nullptr);
          const std::int64_t t1 = now_ns();
          if (done.fetch_add(1) + 1 == kRssMarkOps) {
            rss_at_mark = peak_rss_mb();
          }
          const auto k = static_cast<std::size_t>(op.kind);
          const bool measured =
              t0 >= measure_from.load(std::memory_order_relaxed);
          if (measured) {
            out.latency_ms[k].push_back(static_cast<double>(t1 - t0) / 1e6);
            ++out.ops;
            last_end[t] = t1;
          }
          if (!st.ok()) {
            if (measured) ++out.failed;
            note(out, std::string(kOpNames[k]) + " " + client_name(op.client) +
                          "/" + file + ": " + st.to_string());
            continue;
          }
          if (op.kind == OpKind::kGet) {
            const FileState& f = model.clients[op.client].files.at(op.file);
            if (!matches(model, f, pool, got)) {
              note(out, "get " + client_name(op.client) + "/" + file +
                            " returned bytes that differ from what was written");
            }
            if (measured) out.user_bytes += got.size();
          } else if (measured) {
            out.user_bytes += op.size;
          }
          model.apply(op);
        }
      } catch (const std::exception& e) {
        note(out, std::string("load thread: ") + e.what());
      }
      if (issued == seqs[t].size() && !stop.load()) {
        note(out, "op sequence exhausted before the window closed");
      }
    });
  }

  std::int64_t start = 0;
  std::int64_t closed = 0;
  if (window_work) {
    start = measure_from.load();
    window_work();
    closed = now_ns();
  } else {
    // Warm-up lasts `warmup_s` and until `warmup_ops` ops are done.
    const std::int64_t give_up =
        now_ns() + static_cast<std::int64_t>(kMaxWarmupSeconds * 1e9);
    std::this_thread::sleep_for(std::chrono::duration<double>(warmup_s));
    while (done.load() < warmup_ops && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    start = now_ns();
    measure_from = start;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    closed = now_ns();
  }
  const double rss_at_close = peak_rss_mb();
  stop = true;
  for (std::thread& w : workers) w.join();

  LoadResult result;
  result.peak_rss_mb = rss_at_mark > 0.0 ? rss_at_mark : rss_at_close;
  std::int64_t end = closed;
  for (std::size_t t = 0; t < threads; ++t) {
    end = std::max(end, last_end[t]);
    result.merge(std::move(parts[t]));
  }
  result.seconds = static_cast<double>(end - start) / 1e9;
  return result;
}

}  // namespace ledger
