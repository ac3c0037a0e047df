// The close rule of a batch filled under a lock, shared by the journal's
// group-commit leader and ShardBatcher's provider lanes: a batch closes
// when it is full, at its deadline, or once a whole idle window passes
// with no arrival -- whichever comes first.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace cshield {

/// The idle window. Under light load a batch almost never fills, and
/// waiting out the whole deadline only delays what is already queued (it
/// made 8-client batched RPCs slower than per-op ones). A hot queue keeps
/// filling until it is full or its deadline passes.
inline constexpr std::chrono::microseconds kBatchIdleClose{50};

/// Waits on `cv`, holding `lk`, until `full()` holds, `deadline` passes,
/// or one kBatchIdleClose window passes with `size()` unchanged. Every
/// arrival must signal `cv` under `lk`'s mutex.
template <typename Full, typename Size>
void wait_for_batch(std::unique_lock<std::mutex>& lk,
                    std::condition_variable& cv,
                    std::chrono::steady_clock::time_point deadline, Full full,
                    Size size) {
  while (!full()) {
    const auto close_at =
        std::min(deadline, std::chrono::steady_clock::now() + kBatchIdleClose);
    const std::size_t before = size();
    if (cv.wait_until(lk, close_at) == std::cv_status::timeout &&
        size() == before) {
      return;  // the deadline, or an idle window with no arrival
    }
  }
}

}  // namespace cshield
