// Cross-operation shard-RPC batcher.
//
// Placement puts every shard of a stripe on a DISTINCT provider (rule 4 in
// core/placement.hpp), so for small files -- one stripe, a handful of
// shards -- there is nothing to coalesce *within* an operation: each
// provider receives exactly one shard. The round-trip amortization the
// batched provider path offers therefore has to come from coalescing
// *across* concurrent operations: under 64 small-file clients, each
// provider sees a steady stream of single-shard puts from different
// stripes, and this batcher folds them into put_many RPCs.
//
// One lane per provider: a queue, a condition variable, and a dedicated
// flusher thread. Writers enqueue a shard and get a future; the flusher
// closes a batch at `batch_shards` items, at kMaxWait after the lane's
// first pending item, or after one idle window with no arrival (whichever
// first -- the journal's group commit closes by the same rule), sends it
// through RequestLayer::put_many (per batch breaker/retry accounting,
// per-shard partial-failure splitting), and completes every future with
// its item's status.
//
// Shard bytes are NOT copied: the BytesView handed to put() must stay
// valid until its future resolves. The distributor guarantees this --
// write_stripe blocks on the futures while the encoded stripe arena is
// alive.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "core/request_layer.hpp"
#include "obs/telemetry.hpp"
#include "util/batch_close.hpp"
#include "util/status.hpp"

namespace cshield::core {

class ShardBatcher {
 public:
  /// What one shard's enqueue resolved to.
  struct PutResult {
    Status status;
    /// This shard's share of the batch RPC's modeled time (batch time
    /// divided evenly -- the round trip was genuinely shared).
    SimDuration time{0};
    /// Batch RPC retries, attributed to the batch's first shard only so
    /// per-op sums stay exact when shards of one batch report to
    /// different operations.
    std::uint32_t retries = 0;
  };

  /// `rt` must outlive the batcher; `providers` sizes the lane array. A
  /// lane flushes once it holds `batch_shards` shards. `telemetry` may be
  /// null (no instrumentation).
  ShardBatcher(RequestLayer& rt, std::size_t providers,
               std::size_t batch_shards, obs::Telemetry* telemetry)
      : rt_(rt),
        batch_shards_(std::max<std::size_t>(batch_shards, 1)),
        telemetry_(telemetry),
        lanes_(providers) {
    if (telemetry_ != nullptr) {
      // Cached once: the queue-depth gauge is touched on every enqueue and
      // every flush (the health engine's batcher-backlog SLO feed).
      depth_gauge_ = &telemetry_->metrics().gauge("cdd.shard_batch_queue_depth");
    }
    threads_.reserve(providers);
    for (std::size_t p = 0; p < providers; ++p) {
      threads_.emplace_back([this, p] { run_lane(p); });
    }
  }

  ~ShardBatcher() {
    for (Lane& lane : lanes_) {
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.stop = true;
      lane.cv.notify_all();
    }
    for (std::thread& t : threads_) t.join();
  }

  ShardBatcher(const ShardBatcher&) = delete;
  ShardBatcher& operator=(const ShardBatcher&) = delete;

  /// Lane capacity. Providers added to the registry after construction have
  /// no lane; the stripe writer routes their shards around the batcher.
  [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

  /// Enqueues one shard put for provider `p`. `data` must stay valid until
  /// the returned future resolves.
  std::future<PutResult> put(ProviderIndex p, VirtualId id, BytesView data) {
    CS_REQUIRE(p < lanes_.size(), "ShardBatcher: provider out of range");
    Lane& lane = lanes_[p];
    Pending item;
    item.id = id;
    item.data = data;
    std::future<PutResult> result = item.promise.get_future();
    {
      std::lock_guard<std::mutex> lock(lane.mu);
      if (lane.queue.empty()) {
        lane.first_enqueue = std::chrono::steady_clock::now();
      }
      lane.queue.push_back(std::move(item));
      lane.cv.notify_all();
    }
    if (depth_gauge_ != nullptr && telemetry_->enabled()) {
      depth_gauge_->add(1);
    }
    return result;
  }

 private:
  /// Flush an under-full lane this long after its first pending shard.
  static constexpr std::chrono::microseconds kMaxWait{500};

  struct Pending {
    VirtualId id = 0;
    BytesView data;
    std::promise<PutResult> promise;
  };

  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    std::chrono::steady_clock::time_point first_enqueue;
    bool stop = false;
  };

  void run_lane(std::size_t p) {
    Lane& lane = lanes_[p];
    std::unique_lock<std::mutex> lk(lane.mu);
    for (;;) {
      lane.cv.wait(lk, [&] { return lane.stop || !lane.queue.empty(); });
      if (lane.queue.empty()) return;  // stop with nothing left to flush
      // Close the batch at batch_shards, at kMaxWait after the lane's first
      // pending shard, or after one idle window with no arrival
      // (util/batch_close.hpp). Shutdown flushes immediately -- enqueued
      // shards still complete.
      wait_for_batch(
          lk, lane.cv, lane.first_enqueue + kMaxWait,
          [&] { return lane.stop || lane.queue.size() >= batch_shards_; },
          [&] { return lane.queue.size(); });
      std::vector<Pending> batch;
      const std::size_t n = std::min(lane.queue.size(), batch_shards_);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(lane.queue.front()));
        lane.queue.pop_front();
      }
      if (!lane.queue.empty()) {
        // Leftovers start the next batch's clock now, not at their
        // original enqueue (their wait so far bought them nothing).
        lane.first_enqueue = std::chrono::steady_clock::now();
      }
      if (depth_gauge_ != nullptr && telemetry_->enabled()) {
        depth_gauge_->add(-static_cast<std::int64_t>(n));
      }
      lk.unlock();
      flush(static_cast<ProviderIndex>(p), batch);
      lk.lock();
    }
  }

  void flush(ProviderIndex p, std::vector<Pending>& batch) {
    std::vector<storage::BatchPut> items;
    items.reserve(batch.size());
    for (const Pending& item : batch) {
      items.push_back(storage::BatchPut{item.id, item.data});
    }
    RequestLayer::BatchOutcome rpc = rt_.put_many(p, items);
    if (telemetry_ != nullptr && telemetry_->enabled()) {
      obs::MetricsRegistry& m = telemetry_->metrics();
      m.counter("cdd.shard_batches").inc();
      m.histogram("cdd.shard_batch_size")
          .observe(static_cast<double>(batch.size()));
      m.histogram("cdd.shard_batch_flush_ns")
          .observe(static_cast<double>(rpc.time.count()));
    }
    const SimDuration share = rpc.time / static_cast<std::int64_t>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      PutResult r;
      r.status = rpc.statuses[i];
      r.time = share;
      r.retries = i == 0 ? rpc.retries : 0;
      batch[i].promise.set_value(std::move(r));
    }
  }

  RequestLayer& rt_;
  const std::size_t batch_shards_;
  obs::Telemetry* telemetry_;
  obs::Gauge* depth_gauge_ = nullptr;  ///< cdd.shard_batch_queue_depth
  std::vector<Lane> lanes_;
  std::vector<std::thread> threads_;
};

}  // namespace cshield::core
