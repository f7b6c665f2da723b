#include "service/request_queue.hpp"

#include <algorithm>

#include "common/clock.hpp"

namespace cf::service {

void RequestQueue::push(const GroupKey& key, Pending p) {
  p.at = std::chrono::steady_clock::now();
  const bool interactive = p.interactive;
  const std::uint64_t trace = p.trace;
  std::size_t depth = 0;  // group pending size after this join
  {
    std::lock_guard lk(mu_);
    auto& g = groups_[key];
    if (!g) {
      g = std::make_shared<Group>();
      g->key = key;
    }
    g->pending.push_back(std::move(p));
    depth = g->pending.size();
    if (interactive) ++g->interactive;
    // A draining group is NOT re-enqueued here: the worker that owns it
    // re-checks on finish(), which both serializes per-plan execution and
    // lets late arrivals catch the next batch. (If the owner is still parked
    // in its window, the notify below closes it early for interactive
    // arrivals — the interactive request rides THAT batch immediately.)
    if (!g->queued && !g->draining) {
      g->queued = true;
      if (interactive)
        ready_.push_front(g);
      else
        ready_.push_back(g);
    } else if (g->queued && interactive && ready_.front() != g) {
      // Priority jump: promote an already-queued group the moment it gains
      // an interactive request. Linear scan is fine — the ready FIFO holds
      // distinct (signature, points) pairs, not requests.
      auto it = std::find(ready_.begin(), ready_.end(), g);
      if (it != ready_.end()) {
        ready_.erase(it);
        ready_.push_front(g);
      }
    }
  }
  // notify_all: window-waiters share cv_ with idle poppers, so a notify_one
  // could land on a waiter whose predicate the push does not satisfy and the
  // wakeup would be lost to the worker that needed it.
  cv_.notify_all();
  if (obs::enabled()) {
    const double now = mono::now_us();
    obs::span(obs::SpanKind::QueueEnter, trace, now, 0,
              static_cast<std::int64_t>(depth));
    if (depth > 1)  // joined a group that was already coalescing
      obs::span(obs::SpanKind::GroupJoin, trace, now, 0,
                static_cast<std::int64_t>(depth - 1));
  }
}

std::shared_ptr<Group> RequestQueue::pop_ready(std::chrono::microseconds window,
                                               int max_batch) {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return stop_ || !ready_.empty(); });
  if (ready_.empty()) return nullptr;  // stop requested, queue drained
  auto g = ready_.front();
  ready_.pop_front();
  g->queued = false;
  g->draining = true;
  if (window.count() > 0 && !stop_) {
    const double wt0 = mono::now_us();
    const std::uint64_t wtrace = g->pending.front().trace;
    if (obs::enabled())
      obs::span(obs::SpanKind::WindowOpen, wtrace, wt0, 0,
                static_cast<std::int64_t>(g->pending.size()));
    // Coalescing window: give near-simultaneous submitters of the same
    // (signature, points) pair time to land in this batch. Measured from the
    // OLDEST pending request's own arrival stamp (leftovers from a full
    // batch keep theirs; only take_batch shrinks pending, and only the
    // draining owner calls it), so a window never adds more than `window`
    // latency to any request it delays. A condition-variable wait, not a
    // sleep: shutdown() interrupts it, so a destructing service never waits
    // out residual windows.
    const auto deadline = g->pending.front().at + window;
    // Close early once waiting cannot pay for itself: the batch is already
    // full, the group carries an interactive (latency-class) request, or
    // nothing else is in flight or queued — an idle service has no
    // coalescing partner a window could capture, so waiting is pure added
    // latency. executing_ deliberately excludes workers parked in their own
    // windows (see header) so two idle waiters don't hold each other hostage.
    cv_.wait_until(lk, deadline, [&] {
      return stop_ || g->interactive > 0 ||
             g->pending.size() >= static_cast<std::size_t>(max_batch) ||
             (executing_ == 0 && ready_.empty());
    });
    const double waited = mono::now_us() - wt0;
    if (metrics_) metrics_->window_wait_us->record(waited);
    if (obs::enabled()) {
      std::int64_t reason = obs::kCloseDeadline;
      if (stop_)
        reason = obs::kCloseShutdown;
      else if (g->interactive > 0)
        reason = obs::kCloseInteractive;
      else if (g->pending.size() >= static_cast<std::size_t>(max_batch))
        reason = obs::kCloseBatchFull;
      else if (executing_ == 0 && ready_.empty() && mono::clock::now() < deadline)
        reason = obs::kCloseIdle;
      obs::span(obs::SpanKind::WindowClose, wtrace, wt0, waited, reason);
    }
  }
  ++executing_;  // window over: this worker is now mid-dispatch
  return g;
}

std::vector<Pending> RequestQueue::take_batch(const std::shared_ptr<Group>& g,
                                              int max_batch) {
  std::vector<Pending> batch;
  std::lock_guard lk(mu_);
  const std::size_t n =
      std::min(g->pending.size(), static_cast<std::size_t>(std::max(1, max_batch)));
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (g->pending[i].interactive) --g->interactive;
    batch.push_back(std::move(g->pending[i]));
  }
  g->pending.erase(g->pending.begin(), g->pending.begin() + static_cast<std::ptrdiff_t>(n));
  return batch;
}

void RequestQueue::finish(const std::shared_ptr<Group>& g) {
  {
    std::lock_guard lk(mu_);
    --executing_;
    g->draining = false;
    if (!g->pending.empty()) {
      if (!g->queued) {
        g->queued = true;
        // Leftovers that include an interactive request keep their priority
        // across the re-queue (the request arrived mid-drain and missed the
        // batch; it must not now sit behind every bulk group).
        if (g->interactive > 0)
          ready_.push_front(g);
        else
          ready_.push_back(g);
      }
    } else if (auto it = groups_.find(g->key);
               it != groups_.end() && it->second == g) {
      groups_.erase(it);  // keep the index bounded by live point sets
    }
  }
  // Unconditional: the executing_ decrement (and any re-queue) can satisfy
  // both idle poppers and window-waiters watching for service-idle.
  cv_.notify_all();
}

void RequestQueue::shutdown() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
}

}  // namespace cf::service
