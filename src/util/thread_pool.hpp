// Fixed-size thread pool with chunked parallel_for.
//
// This is the single parallel substrate for fairDMS: matmul/conv kernels,
// k-means assignment, Voigt labeling, and embedding inference all decompose
// into parallel_for over index ranges (the OpenMP "parallel for" idiom,
// expressed with std::thread so thread count and chunking stay under library
// control and results stay deterministic).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fairdms::util {

class ThreadPool {
 public:
  /// `threads == 0` means hardware_concurrency (at least 1).
  /// `max_queue` bounds the number of *waiting* tasks admitted through
  /// try_submit (tasks already executing don't count); 0 means unbounded.
  /// submit()/parallel_for ignore the bound — they are the internal
  /// data-parallel substrate and must never fail — so the bound only
  /// governs callers that opt into admission control.
  explicit ThreadPool(std::size_t threads = 0, std::size_t max_queue = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue an arbitrary task. Prefer parallel_for for data parallelism.
  void submit(std::function<void()> task);

  /// Bounded enqueue: admits `task` only while fewer than max_queue tasks
  /// are waiting (always admits when max_queue == 0). Returns false — and
  /// does not take ownership of any work — when the queue is full. Never
  /// blocks: this is the admission-control edge, and a submitter stalled
  /// on a saturated queue would just move the unbounded backlog into the
  /// callers.
  [[nodiscard]] bool try_submit(std::function<void()> task);

  /// Tasks admitted but not yet picked up by a worker (the backlog the
  /// max_queue bound applies to). A point-in-time gauge: concurrent
  /// submits/completions may change it immediately after the read.
  [[nodiscard]] std::size_t queue_depth() const EXCLUDES(mutex_);

  [[nodiscard]] std::size_t max_queue() const noexcept { return max_queue_; }

  /// Block until every submitted task has finished.
  void wait_idle() EXCLUDES(mutex_);

  /// Run body(begin, end) over [0, n) split into ~3x-oversubscribed chunks,
  /// blocking until complete. body is invoked concurrently; it must handle
  /// its own synchronization for shared state. Runs inline when n is small
  /// or the pool has a single worker.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_grain = 1);

  /// Like parallel_for but body also receives a dense chunk index, so callers
  /// can maintain per-chunk scratch (e.g. forked RNG streams, partial sums).
  void parallel_for_chunked(
      std::size_t n,
      const std::function<void(std::size_t chunk, std::size_t begin,
                               std::size_t end)>& body,
      std::size_t min_grain = 1);

  /// Process-wide pool (lazily constructed, sized to hardware concurrency).
  static ThreadPool& global();

 private:
  void worker_loop() EXCLUDES(mutex_);
  /// Pop and execute one queued task if available. Returns false when the
  /// queue was empty. Used by parallel_for waiters to help instead of block.
  bool try_run_one() EXCLUDES(mutex_);

  // Written in the constructor, joined in the destructor, size() in
  // between: immutable while any other thread can see the pool.
  std::vector<std::thread> workers_;
  std::size_t max_queue_ = 0;  // const after construction
  mutable Mutex mutex_{LockRank::kThreadPool};
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mutex_);
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool stop_ GUARDED_BY(mutex_) = false;
};

/// Convenience wrapper over the global pool.
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t min_grain = 1) {
  ThreadPool::global().parallel_for(n, body, min_grain);
}

}  // namespace fairdms::util
