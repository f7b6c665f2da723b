#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace cf {

namespace {

/// Per-call completion latch shared by the tasks one parallel_for submits.
/// Heap-owned (shared_ptr) so a task outliving an early-exiting caller could
/// never dangle, and so concurrent callers each wait on their own latch.
struct CallSync {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining;

  explicit CallSync(std::size_t n) : remaining(n) {}

  void done() {
    std::unique_lock lk(mu);
    if (--remaining == 0) cv.notify_all();
  }
  void wait() {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return remaining == 0; });
  }
};

thread_local bool t_pool_worker = false;

}  // namespace

bool ThreadPool::on_worker_thread() { return t_pool_worker; }

ThreadPool::ThreadPool(std::size_t nthreads) {
  if (nthreads == 0) nthreads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(nthreads);
  for (std::size_t i = 0; i < nthreads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t id) {
  t_pool_worker = true;
  for (;;) {
    std::function<void(std::size_t)> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [&] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    task(id);
    {
      std::unique_lock lk(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::submit(std::function<void(std::size_t)> task) {
  {
    std::unique_lock lk(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn, std::size_t grain) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t nw = size();
  if (nw <= 1 || n <= grain) {
    for (std::size_t i = begin; i < end; ++i) fn(i, 0);
    return;
  }
  // ~4 chunks per worker for light dynamic balance, respecting the grain.
  std::size_t nchunks = std::min(n / std::max<std::size_t>(grain, 1), nw * 4);
  nchunks = std::max<std::size_t>(nchunks, 1);
  const std::size_t chunk = (n + nchunks - 1) / nchunks;
  std::atomic<std::size_t> next{begin};
  auto sync = std::make_shared<CallSync>(nw);
  auto body = [&, sync](std::size_t wid) {
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      const std::size_t hi = std::min(lo + chunk, end);
      for (std::size_t i = lo; i < hi; ++i) fn(i, wid);
    }
    sync->done();
  };
  for (std::size_t t = 0; t < nw; ++t) submit(body);
  sync->wait();
}

void ThreadPool::parallel_chunks(
    std::size_t begin, std::size_t end, std::size_t nchunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  nchunks = std::max<std::size_t>(1, std::min(nchunks, n));
  const std::size_t chunk = (n + nchunks - 1) / nchunks;
  std::atomic<std::size_t> next{begin};
  const std::size_t nw = std::min(size(), nchunks);
  if (nw <= 1) {
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) return;
      fn(lo, std::min(lo + chunk, end), 0);
    }
  }
  auto sync = std::make_shared<CallSync>(nw);
  auto body = [&, sync](std::size_t wid) {
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= end) break;
      fn(lo, std::min(lo + chunk, end), wid);
    }
    sync->done();
  };
  for (std::size_t t = 0; t < nw; ++t) submit(body);
  sync->wait();
}

}  // namespace cf
