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
// One lane per provider: a queue and a condition variable, no thread.
// Writers enqueue a shard and get a future. An enqueue onto a lane with no
// open batch opens one and submits one collect task to the distributor's
// I/O pool. The collect task closes the batch at `batch_shards` items, at
// kMaxWait after the batch opened, or after one idle window with no
// arrival (whichever first -- the journal's group commit closes by the
// same rule), takes at most `batch_shards` items and, if shards remain,
// opens the next batch with its own collect. Then, with the lane unlocked,
// it sends the batch through RequestLayer::put_many (per batch
// breaker/retry accounting, per-shard partial-failure splitting) and
// completes every future with its item's status. An open batch has exactly
// one collector, so no batch is empty, and a lane opens its next batch
// while the last one's RPC runs: a provider has as many batches in flight
// as the pool has threads.
//
// A collect never waits on another pool task, and each of its waits ends
// by the lane deadline or the RPC deadline, so a caller blocked on its
// futures always wakes, even from a task of another pool.
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
#include <exception>
#include <future>
#include <mutex>
#include <vector>

#include "core/request_layer.hpp"
#include "obs/telemetry.hpp"
#include "util/batch_close.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

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

  /// `rt` must outlive the batcher, and `pool` -- where the collect tasks
  /// run -- must be joined before it is destroyed. `providers` sizes the
  /// lane array. A batch closes once it holds `batch_shards` shards.
  /// `telemetry` may be null (no instrumentation).
  ShardBatcher(RequestLayer& rt, ThreadPool& pool, std::size_t providers,
               std::size_t batch_shards, obs::Telemetry* telemetry)
      : rt_(rt),
        pool_(pool),
        batch_shards_(std::max<std::size_t>(batch_shards, 1)),
        telemetry_(telemetry),
        lanes_(providers) {
    if (telemetry_ != nullptr) {
      // Resolved once: the queue-depth gauge is touched on every enqueue
      // (the health engine's batcher-backlog SLO feed), all four on every
      // flush.
      obs::MetricsRegistry& m = telemetry_->metrics();
      depth_gauge_ = &m.gauge("cdd.shard_batch_queue_depth");
      batches_ = &m.counter("cdd.shard_batches");
      batch_size_ = &m.histogram("cdd.shard_batch_size");
      flush_ns_ = &m.histogram("cdd.shard_batch_flush_ns");
    }
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
    Pending item{id, data, {}};
    std::future<PutResult> result = item.promise.get_future();
    if (instrumented()) depth_gauge_->add(1);
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.queue.push_back(std::move(item));
    if (!lane.open) {
      lane.open = true;
      lane.opened_at = std::chrono::steady_clock::now();
      submit_collect(p);
    }
    lane.cv.notify_one();
    return result;
  }

 private:
  /// Flush an under-full batch this long after it opened.
  static constexpr std::chrono::microseconds kMaxWait{500};

  struct Pending {
    VirtualId id = 0;
    BytesView data;
    std::promise<PutResult> promise;
  };

  struct Lane {
    std::mutex mu;
    std::condition_variable cv;  ///< wakes the open batch's collector
    std::deque<Pending> queue;
    bool open = false;  ///< a collect task owns the queued shards
    std::chrono::steady_clock::time_point opened_at;
  };

  [[nodiscard]] bool instrumented() const {
    return depth_gauge_ != nullptr && telemetry_->enabled();
  }

  void submit_collect(ProviderIndex p) {
    // The future is dropped; flush() hands an RPC's exception to the
    // items' promises, where write_stripe's get() rethrows it.
    static_cast<void>(pool_.submit([this, p] { collect(p); }));
  }

  /// The open batch's one collector: closes it by wait_for_batch's rule
  /// (util/batch_close.hpp), takes it, opens the next batch if shards
  /// remain, then flushes with the lane unlocked.
  void collect(ProviderIndex p) {
    Lane& lane = lanes_[p];
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      wait_for_batch(
          lk, lane.cv, lane.opened_at + kMaxWait,
          [&] { return lane.queue.size() >= batch_shards_; },
          [&] { return lane.queue.size(); });
      const std::size_t n = std::min(lane.queue.size(), batch_shards_);
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(lane.queue.front()));
        lane.queue.pop_front();
      }
      // Leftovers open the next batch, its clock starting now (their wait
      // so far bought them nothing).
      lane.open = !lane.queue.empty();
      lane.opened_at = std::chrono::steady_clock::now();
      if (lane.open) submit_collect(p);
    }
    if (instrumented()) {
      depth_gauge_->add(-static_cast<std::int64_t>(batch.size()));
    }
    flush(p, batch);
  }

  void flush(ProviderIndex p, std::vector<Pending>& batch) {
    std::vector<storage::BatchPut> items;
    items.reserve(batch.size());
    for (const Pending& item : batch) items.push_back({item.id, item.data});
    RequestLayer::BatchOutcome rpc;
    try {
      rpc = rt_.put_many(p, items);
    } catch (...) {
      for (Pending& item : batch) {
        item.promise.set_exception(std::current_exception());
      }
      return;
    }
    if (instrumented()) {
      batches_->inc();
      batch_size_->observe(static_cast<double>(batch.size()));
      flush_ns_->observe(static_cast<double>(rpc.time.count()));
    }
    const SimDuration share = rpc.time / static_cast<std::int64_t>(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(PutResult{std::move(rpc.statuses[i]), share,
                                           i == 0 ? rpc.retries : 0});
    }
  }

  RequestLayer& rt_;
  ThreadPool& pool_;
  const std::size_t batch_shards_;
  obs::Telemetry* telemetry_;
  obs::Gauge* depth_gauge_ = nullptr;       ///< cdd.shard_batch_queue_depth
  obs::Counter* batches_ = nullptr;         ///< cdd.shard_batches
  obs::Histogram* batch_size_ = nullptr;    ///< cdd.shard_batch_size
  obs::Histogram* flush_ns_ = nullptr;      ///< cdd.shard_batch_flush_ns
  std::vector<Lane> lanes_;
};

}  // namespace cshield::core
