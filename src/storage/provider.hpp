// Simulated cloud storage provider.
//
// Stands in for a real S3/Azure/GAE endpoint (see DESIGN.md substitution
// table). Each provider has a reputation (privacy level), a cost level and a
// $/GB-month price, a latency/bandwidth model that yields *simulated* service
// times, and fault knobs covering the paper's SIII-A worries: temporary
// outage, going out of business (data loss), and silent corruption.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "obs/telemetry.hpp"
#include "storage/fault_plan.hpp"
#include "storage/object_store.hpp"
#include "util/random.hpp"
#include "util/sim_clock.hpp"

namespace cshield::storage {

/// Static description of a provider (one row of Table I, minus the chunk
/// list which the distributor owns).
struct ProviderDescriptor {
  std::string name;
  PrivacyLevel privacy_level = PrivacyLevel::kPublic;
  CostLevel cost_level = CostLevel::kCheapest;
  double price_per_gb_month = 0.02;  ///< USD, used by the cost accounting
};

/// Latency model: service_time = base + bytes/bandwidth + Exp(jitter) noise.
/// Defaults approximate a same-region object store (5 ms RTT, 100 MB/s).
struct LatencyModel {
  SimDuration base_latency{std::chrono::microseconds(5000)};
  double bandwidth_bytes_per_sec = 100.0 * 1024 * 1024;
  SimDuration jitter_mean{std::chrono::microseconds(500)};

  [[nodiscard]] SimDuration service_time(std::size_t bytes, Rng& rng) const {
    const double transfer_sec =
        bandwidth_bytes_per_sec > 0.0
            ? static_cast<double>(bytes) / bandwidth_bytes_per_sec
            : 0.0;
    const double jitter_sec =
        jitter_mean.count() > 0
            ? rng.exponential(1e9 / static_cast<double>(jitter_mean.count()))
            : 0.0;
    return base_latency +
           SimDuration(static_cast<std::int64_t>((transfer_sec + jitter_sec) * 1e9));
  }
};

/// Per-provider traffic counters (monotonic, thread-safe). Failures are
/// split by origin: `injected_failures` counts requests the fault model
/// (an installed FaultPlan, outages included) rejected; `io_errors`
/// counts the object store itself failing a request it accepted (missing
/// object, wiped store). Conflating the two hid real errors inside chaos
/// noise.
struct ProviderCounters {
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> removes{0};
  /// put_many RPCs served (each carries many objects but costs one round
  /// trip; per-object traffic still lands in puts/bytes_in).
  std::atomic<std::uint64_t> batch_requests{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> injected_failures{0};
  std::atomic<std::uint64_t> io_errors{0};
  /// Shards of this provider the integrity scrubber found corrupt or
  /// missing (distinct from io_errors: the provider *answered*, but with
  /// bytes that fail their digest -- the paper's silent-corruption worry).
  std::atomic<std::uint64_t> scrub_errors{0};
};

/// A simulated cloud provider: descriptor + object store + latency model +
/// fault knobs. Thread-safe; many distributor worker threads hit one
/// provider concurrently.
class SimCloudProvider {
 public:
  SimCloudProvider(ProviderDescriptor descriptor, LatencyModel latency,
                   std::uint64_t seed)
      : descriptor_(std::move(descriptor)),
        latency_(latency),
        rng_(seed) {}

  explicit SimCloudProvider(ProviderDescriptor descriptor)
      : SimCloudProvider(std::move(descriptor), LatencyModel{}, 0x9D0FEED) {}

  [[nodiscard]] const ProviderDescriptor& descriptor() const {
    return descriptor_;
  }

  /// Re-rates the provider's trust tier (administrative operation, driven
  /// by the reputation tracker when observed reliability changes -- SIV-A:
  /// "privacy level of a provider indicates its reliability").
  void set_privacy_level(PrivacyLevel pl) { descriptor_.privacy_level = pl; }

  /// Realtime mode: requests actually block for `scale` x their modeled
  /// service time (0 = pure modeling, the default). Lets wall-clock
  /// benchmarks observe request overlap -- the distributor's pipelining only
  /// shows up in wall time when latency is real.
  void set_realtime_scale(double scale) {
    realtime_scale_.store(scale, std::memory_order_relaxed);
  }

  /// True when a request here can block its thread: it sleeps out its
  /// service time (realtime mode) or writes through to a mirror (disk I/O).
  /// Derived, never set: the distributor overlaps a stripe's requests on
  /// its I/O pool only when one of them waits, and otherwise runs them on
  /// the calling thread, where an in-memory request costs less than the
  /// hand-off would.
  [[nodiscard]] bool waits() const {
    return realtime_scale_.load(std::memory_order_relaxed) > 0.0 ||
           mirror_ != nullptr;
  }

  /// Wires this provider into a metrics registry: request/byte/error
  /// counters plus modeled-latency histograms under
  /// `provider.<name>.<metric>` -- the raw feed for health-based placement.
  /// Attach before serving traffic (re-attaching to a *different* registry
  /// mid-traffic is not synchronized; re-attaching the same one is a no-op).
  void attach_telemetry(const std::shared_ptr<obs::Telemetry>& tel) {
    if (tel == nullptr || tel.get() == tele_.owner) return;
    obs::MetricsRegistry& m = tel->metrics();
    const std::string prefix = "provider." + descriptor_.name + ".";
    tele_.requests = &m.counter(prefix + "requests");
    tele_.errors = &m.counter(prefix + "errors");
    tele_.injected_failures = &m.counter(prefix + "injected_failures");
    tele_.io_errors = &m.counter(prefix + "io_errors");
    tele_.scrub_errors = &m.counter(prefix + "scrub_errors");
    tele_.bytes_in = &m.counter(prefix + "bytes_in");
    tele_.bytes_out = &m.counter(prefix + "bytes_out");
    tele_.put_ns = &m.histogram(prefix + "put_ns");
    tele_.get_ns = &m.histogram(prefix + "get_ns");
    tele_.remove_ns = &m.histogram(prefix + "remove_ns");
    tele_.owner = tel.get();
    // Release pairs with the acquire in record(): a thread that observes
    // armed sees every hook pointer above.
    tele_armed_.store(true, std::memory_order_release);
  }

  /// Stores an object. `service_time`, when non-null, receives the modeled
  /// request duration (valid for both success and failure).
  Status put(VirtualId id, BytesView data,
             SimDuration* service_time = nullptr) {
    const BatchPut item{id, data};
    Status st;
    put_items(&item, 1, &st, service_time);
    return st;
  }

  /// Stores a batch of objects as ONE provider request -- batching N shards
  /// costs one round trip, which is its entire point. A scripted FaultPlan
  /// therefore sees the batch as a single request, so per-op and batched
  /// request streams consume the sequence space differently (as they would
  /// against a real endpoint). The returned statuses align with `batch`.
  std::vector<Status> put_many(const std::vector<BatchPut>& batch,
                               SimDuration* service_time = nullptr) {
    counters_.batch_requests.fetch_add(1, std::memory_order_relaxed);
    std::vector<Status> statuses(batch.size());
    put_items(batch.data(), batch.size(), statuses.data(), service_time);
    return statuses;
  }

  [[nodiscard]] Result<Bytes> get(VirtualId id,
                                  SimDuration* service_time = nullptr) {
    double slow = 1.0;
    Status fault = check_faults(&slow);
    if (!fault.ok()) {
      const SimDuration t = scale_time(model_time(0), slow);
      maybe_sleep(t);
      if (service_time != nullptr) *service_time = t;
      record(&Tele::get_ns, t, 0, 0, false);
      return fault;
    }
    Result<Bytes> r = store_.get(id);
    const std::size_t n = r.ok() ? r.value().size() : 0;
    const SimDuration t = scale_time(model_time(n), slow);
    maybe_sleep(t);
    if (service_time != nullptr) *service_time = t;
    if (r.ok()) {
      counters_.gets.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_out.fetch_add(n, std::memory_order_relaxed);
    } else {
      note_io_error();
    }
    record(&Tele::get_ns, t, 0, n, r.ok());
    return r;
  }

  Status remove(VirtualId id, SimDuration* service_time = nullptr) {
    double slow = 1.0;
    Status fault = check_faults(&slow);
    const SimDuration t = scale_time(model_time(0), slow);
    maybe_sleep(t);
    if (service_time != nullptr) *service_time = t;
    if (!fault.ok()) {
      record(&Tele::remove_ns, t, 0, 0, false);
      return fault;
    }
    counters_.removes.fetch_add(1, std::memory_order_relaxed);
    Status st = store_.remove(id);
    if (mirror_ != nullptr) {
      const Status m = mirror_->remove(id);
      // The mirror may legitimately lack the object (attached mid-life).
      if (st.ok() && !m.ok() && m.code() != ErrorCode::kNotFound) st = m;
    }
    if (!st.ok()) note_io_error();
    record(&Tele::remove_ns, t, 0, 0, st.ok());
    return st;
  }

  [[nodiscard]] bool contains(VirtualId id) const { return store_.contains(id); }
  [[nodiscard]] std::size_t object_count() const { return store_.object_count(); }
  [[nodiscard]] std::size_t bytes_stored() const { return store_.bytes_stored(); }
  [[nodiscard]] std::vector<VirtualId> list_ids() const { return store_.list_ids(); }

  /// Monthly storage cost at the provider's price.
  [[nodiscard]] double monthly_cost_usd() const {
    return static_cast<double>(store_.bytes_stored()) / (1024.0 * 1024.0 * 1024.0) *
           descriptor_.price_per_gb_month;
  }

  [[nodiscard]] const ProviderCounters& counters() const { return counters_; }

  // --- fault injection -------------------------------------------------

  /// False while the installed fault plan holds this provider in a kCrash
  /// episode, so its next request fails (an outage: FaultPlan::outage).
  [[nodiscard]] bool online() const {
    std::lock_guard<std::mutex> lock(mu_);
    return plan_ == nullptr || !plan_->crashed(plan_self_, plan_seq_);
  }

  /// Installs a scripted fault schedule (see fault_plan.hpp); this provider
  /// answers to `self` in the plan's episodes. Resets the request-sequence
  /// counter so an identical request stream replays identical faults.
  /// nullptr uninstalls.
  void install_fault_plan(std::shared_ptr<const FaultPlan> plan,
                          ProviderIndex self) {
    std::lock_guard<std::mutex> lock(mu_);
    plan_ = std::move(plan);
    plan_self_ = self;
    plan_seq_ = 0;
  }

  /// Requests seen since the fault plan was installed (the plan's
  /// sequence-space clock; advances on every request, faulted or not).
  [[nodiscard]] std::uint64_t fault_requests() const {
    std::lock_guard<std::mutex> lock(mu_);
    return plan_seq_;
  }

  /// Provider exits the market: all stored data is gone and it stays down
  /// (a sticky outage replaces any installed plan).
  void go_out_of_business() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      plan_ = FaultPlan::outage(plan_self_);
      plan_seq_ = 0;
    }
    store_.wipe();
  }

  /// Silently corrupts one stored byte (attack/integrity experiments).
  Status corrupt_object(VirtualId id, std::size_t offset) {
    return store_.flip_byte(id, offset);
  }

  /// Direct access for the attack harness: a compromised provider exposes
  /// its whole object map to the adversary.
  [[nodiscard]] const MemoryStore& raw_store() const { return store_; }

  /// Write-through mirror: after this call, every successful put/remove is
  /// replayed into `mirror` (e.g. a DiskStore), so the provider's inventory
  /// survives a process crash the instant the request returns OK. A mirror
  /// failure fails the request (and backs the object out of memory) --
  /// half-durable success would lie to the journal's commit records. Set
  /// before serving traffic (not synchronized against in-flight requests);
  /// `mirror` must outlive the provider. nullptr detaches.
  void set_mirror(ObjectStore* mirror) { mirror_ = mirror; }

  /// Charged by a scrubbing heal pass when a shard held here answered with
  /// bytes that fail their digest (see core/migrator.hpp).
  void note_scrub_error() {
    counters_.scrub_errors.fetch_add(1, std::memory_order_relaxed);
    if (tele_armed_.load(std::memory_order_acquire) && tele_.owner->enabled()) {
      tele_.scrub_errors->inc();
    }
  }

 private:
  /// The one put body, behind put() (a batch of one) and put_many(): one
  /// fault decision (a fault fails every item) and one latency draw over
  /// the payload bytes, then every item into memory and through the
  /// mirror. Items fail independently; `statuses[i]` receives item i's.
  void put_items(const BatchPut* items, std::size_t n, Status* statuses,
                 SimDuration* service_time) {
    double slow = 1.0;
    Status fault = check_faults(&slow);
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) bytes += items[i].data.size();
    const SimDuration t = scale_time(model_time(bytes), slow);
    maybe_sleep(t);
    if (service_time != nullptr) *service_time = t;
    if (!fault.ok()) {
      record(&Tele::put_ns, t, bytes, 0, false);
      // Every item gets the fault; the last one takes it by move.
      for (std::size_t i = 0; i + 1 < n; ++i) statuses[i] = fault;
      if (n != 0) statuses[n - 1] = std::move(fault);
      return;
    }
    // Accepted-request accounting: every item the fault model admitted
    // counts, store failures surface as io_errors below.
    counters_.puts.fetch_add(n, std::memory_order_relaxed);
    counters_.bytes_in.fetch_add(bytes, std::memory_order_relaxed);
    // The memory insert never fails, so an item's answer is the mirror's.
    for (std::size_t i = 0; i < n; ++i) {
      (void)store_.put(items[i].id, items[i].data);
    }
    if (mirror_ != nullptr) {
      // One mirror request per provider request, so a DiskStore mirror
      // pays one directory fsync; a single item skips the batch vectors.
      if (n == 1) {
        statuses[0] = mirror_->put(items[0].id, items[0].data);
      } else {
        const std::vector<Status> mirrored =
            mirror_->put_many(std::vector<BatchPut>(items, items + n));
        std::copy(mirrored.begin(), mirrored.end(), statuses);
      }
    }
    bool all_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (statuses[i].ok()) continue;
      // Back out of memory on mirror failure: the two stores must agree.
      (void)store_.remove(items[i].id);
      note_io_error();
      all_ok = false;
    }
    record(&Tele::put_ns, t, bytes, 0, all_ok);
  }

  /// One fault decision per request from the scripted plan. `slow` (never
  /// null) receives the plan's service-time multiplier for this request,
  /// valid whether or not the request fails.
  Status check_faults(double* slow) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t seq = plan_seq_++;
    if (plan_ != nullptr) {
      const FaultDecision d = plan_->decide(plan_self_, seq);
      *slow = d.slow_factor;
      if (d.fail) {
        note_injected();
        return Status::Unavailable(descriptor_.name + " fault injected (seq " +
                                   std::to_string(seq) + ")");
      }
    }
    return Status::Ok();
  }

  SimDuration model_time(std::size_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    return latency_.service_time(bytes, rng_);
  }

  [[nodiscard]] static SimDuration scale_time(SimDuration t, double factor) {
    if (factor == 1.0) return t;
    return SimDuration(static_cast<std::int64_t>(
        static_cast<double>(t.count()) * factor));
  }

  void note_injected() {
    counters_.injected_failures.fetch_add(1, std::memory_order_relaxed);
    if (tele_armed_.load(std::memory_order_acquire) && tele_.owner->enabled()) {
      tele_.injected_failures->inc();
    }
  }

  void note_io_error() {
    counters_.io_errors.fetch_add(1, std::memory_order_relaxed);
    if (tele_armed_.load(std::memory_order_acquire) && tele_.owner->enabled()) {
      tele_.io_errors->inc();
    }
  }

  /// Per-provider telemetry hooks, cached once at attach so the request
  /// path pays one acquire load + one enabled() check when disarmed.
  struct Tele {
    obs::Telemetry* owner = nullptr;  ///< identity only; lifetime is held
                                      ///  by whoever attached us
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* injected_failures = nullptr;
    obs::Counter* io_errors = nullptr;
    obs::Counter* scrub_errors = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    obs::Histogram* put_ns = nullptr;
    obs::Histogram* get_ns = nullptr;
    obs::Histogram* remove_ns = nullptr;
  };

  void record(obs::Histogram* Tele::*hist, SimDuration t, std::size_t in,
              std::size_t out, bool ok) {
    if (!tele_armed_.load(std::memory_order_acquire)) return;
    if (!tele_.owner->enabled()) return;
    tele_.requests->inc();
    if (!ok) tele_.errors->inc();
    if (in != 0) tele_.bytes_in->inc(in);
    if (out != 0) tele_.bytes_out->inc(out);
    (tele_.*hist)->observe(static_cast<double>(t.count()));
  }

  // Sleeps outside mu_ so concurrent requests to one provider overlap.
  void maybe_sleep(SimDuration t) const {
    const double scale = realtime_scale_.load(std::memory_order_relaxed);
    if (scale <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        static_cast<std::int64_t>(static_cast<double>(t.count()) * scale)));
  }

  ProviderDescriptor descriptor_;
  LatencyModel latency_;
  MemoryStore store_;
  ObjectStore* mirror_ = nullptr;  ///< write-through target, see set_mirror
  ProviderCounters counters_;
  Tele tele_;
  std::atomic<bool> tele_armed_{false};
  mutable std::mutex mu_;
  std::shared_ptr<const FaultPlan> plan_;  ///< guarded by mu_
  ProviderIndex plan_self_ = kNoProvider;
  std::uint64_t plan_seq_ = 0;  ///< requests seen since plan install
  Rng rng_;
  std::atomic<double> realtime_scale_{0.0};
};

}  // namespace cshield::storage
