// Fixed-size thread pool plus one blocking fan-out primitive, for_each.
//
// The Cloud Data Distributor fans one file's chunk stripe out to many
// simulated providers; the paper (SVII-E) explicitly claims fragmentation
// "exploits the benefit of parallel query processing", so the read/write
// paths run provider RPCs that can block through this pool (requests that
// never wait run inline: a hop would cost more than it overlaps).
// Outside for_each, submit has two callers. core::ShardBatcher's collect
// tasks are joined by nobody, so they cannot be a for_each: the put() that
// opens a batch must return at once, because its caller still has the
// stripe's other shards to enqueue, and the batch also carries other
// operations' shards. Each caller waits on its own shards' futures
// instead. core::Migrator's walk keeps a sliding window of rewrites in
// flight, paced between submissions, and folds each result into its
// progress as the oldest one finishes: a stream of tasks, not a fixed
// fan-out that for_each joins at once. Work
// items are type-erased std::move_only_function-style tasks queued under
// one mutex -- provider latencies (tens of microseconds to milliseconds
// simulated) dwarf queue contention, so a fancier work-stealing deque would
// buy nothing here.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/status.hpp"

namespace cshield {

class ThreadPool {
 public:
  /// Creates `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0) {
    if (threads == 0) {
      threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Schedules `fn(args...)` and returns a future for its result. A
  /// dropped future does not wait, and it swallows `fn`'s exception.
  template <typename Fn, typename... Args>
  [[nodiscard]] auto submit(Fn&& fn, Args&&... args)
      -> std::future<std::invoke_result_t<Fn, Args...>> {
    using R = std::invoke_result_t<Fn, Args...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [f = std::forward<Fn>(fn),
         ... as = std::forward<Args>(args)]() mutable -> R {
          return std::invoke(std::move(f), std::move(as)...);
        });
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      CS_REQUIRE(!stopping_, "submit on stopped ThreadPool");
      queue_.emplace([task]() { (*task)(); });
    }
    cv_.notify_one();
    return result;
  }

  /// Runs body(i) for every i in [0, n) and returns when all have finished.
  /// When `concurrent` is false or n <= 1 the calls run inline on the
  /// caller's thread, in index order, and the first exception propagates at
  /// once. Otherwise each index is one pool task; every task is joined
  /// before the first exception (in index order) is rethrown, so `body` and
  /// whatever it references may live on the caller's stack. A pool task
  /// that calls for_each(..., true, ...) on its own pool can deadlock; nest
  /// only onto a different pool whose tasks never block on further work.
  template <typename Body>
  void for_each(std::size_t n, bool concurrent, Body&& body) {
    if (!concurrent || n <= 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(submit([&body, i] { body(i); }));
    }
    for (auto& f : futures) f.wait();
    for (auto& f : futures) f.get();
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (stopping_ && queue_.empty()) return;
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace cshield
