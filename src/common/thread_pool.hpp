// Fixed-size work-sharing thread pool used by the tensor kernels.
//
// Design notes (Core Guidelines CP.*): tasks, not raw threads; all waits use
// condition variables with predicates; the pool joins its workers in the
// destructor so no thread outlives the object (CP.23/CP.26).
//
// parallel_for is nesting-safe: a call issued from one of the pool's own
// worker threads runs inline instead of enqueueing, so kernels that dispatch
// to the pool may themselves be called from pooled work items without
// deadlocking on their own queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace pac {

class ThreadPool {
 public:
  // threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }
  // Number of threads that participate in parallel_for (workers + caller).
  std::size_t width() const { return workers_.size() + 1; }

  // Splits [0, n) into contiguous ranges, runs fn(begin, end) on the pool
  // plus the calling thread, and returns when every range is done.
  //
  // `grain` is the minimum number of iterations per range; ranges are never
  // smaller than it, and when n < 2 * grain (or the pool has a single
  // thread, or the caller is itself a pool worker) the whole range runs
  // inline with no dispatch overhead.  grain == 0 picks a default suited to
  // cheap per-element bodies.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::int64_t grain = 0);

  // True when the calling thread is one of this pool's workers.  Used by
  // kernels to decide between nested dispatch (runs inline) and top-level
  // dispatch.
  bool on_worker_thread() const;

  // Test seam: runs on the worker that finishes a parallel_for's last
  // dispatched chunk, after its decrement and before it wakes the caller.
  // Set only while no parallel_for is in flight.
  void set_completion_hook_for_testing(std::function<void()> hook) {
    completion_hook_ = std::move(hook);
  }

  // Process-wide pool shared by the tensor kernels.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool stopping_ = false;
  std::function<void()> completion_hook_;
};

}  // namespace pac
