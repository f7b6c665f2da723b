// Minimal blocking-queue thread pool used by both the host ("CPU library")
// and each virtual-GPU device. One pool instance = one set of long-lived
// worker threads; parallel_for carves an index range into contiguous chunks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cf {

/// Fixed-size pool of worker threads with a shared FIFO task queue.
///
/// Tasks are `void(std::size_t worker_id)` callables; the worker id is stable
/// in [0, size()) so callers can maintain per-worker scratch buffers without
/// locking. The pool is intentionally simple (no work stealing): every task
/// submitted through parallel_for is a contiguous chunk big enough that queue
/// overhead is negligible.
///
/// parallel_for / parallel_chunks may be called concurrently from several
/// external threads (the service layer's dispatch workers all drive one
/// device pool): each call tracks completion of ITS OWN tasks, so a caller
/// returns as soon as its range is done instead of waiting for the global
/// queue to drain — and cannot be starved by another caller keeping the
/// queue busy. Parallelism stays capped at size(): concurrent callers share
/// the same workers rather than oversubscribing the host.
class ThreadPool {
 public:
  /// Creates `nthreads` workers (0 = hardware_concurrency).
  explicit ThreadPool(std::size_t nthreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i, worker_id) for every i in [begin, end), distributing
  /// contiguous chunks over the workers, and blocks until all complete.
  /// `grain` is the minimum chunk size (tasks never get fewer indices unless
  /// the range is exhausted). Executes inline when the range is tiny or the
  /// pool has a single worker.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Runs fn(chunk_begin, chunk_end, worker_id) over ~nchunk contiguous
  /// chunks; useful when per-chunk setup (scratch, accumulators) dominates.
  void parallel_chunks(
      std::size_t begin, std::size_t end, std::size_t nchunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Enqueues one task; returns immediately. Use wait_idle() to join.
  void submit(std::function<void(std::size_t)> task);

  /// Blocks until the queue is empty and all workers are idle.
  void wait_idle();

  /// True when the calling thread is a pool worker (of any pool). The
  /// parallel_for tiny-range fast path runs the body INLINE on the caller
  /// with worker id 0 while the real worker 0 may concurrently be serving
  /// another caller — so globally shared wid-indexed resources (e.g. the
  /// vgpu per-worker shared-memory arenas) must key off this to give
  /// non-worker callers their own storage instead of worker 0's.
  static bool on_worker_thread();

 private:
  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::queue<std::function<void(std::size_t)>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

}  // namespace cf
