// Coalescing request queue for the concurrent NUFFT service.
//
// Pending requests are grouped by (plan signature, point fingerprint): every
// request in a group can legally ride the SAME batched execute (one plan, one
// set_points, ntransf = group size). Dispatch workers pop ready groups in
// FIFO order and take up to max_batch requests at once — under load the queue
// depth converts directly into batch size, which is what turns the paper's
// many-vector batching into a cross-caller throughput multiplier.
//
// A group is handed to exactly one worker at a time (`draining`): requests
// arriving while it executes accumulate and are re-queued when the drain
// finishes, so per-plan execution is naturally serialized without holding any
// lock across an execute.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "service/plan_registry.hpp"

namespace cf::service {

/// Per-request result delivered through the future: the batched execute's
/// Breakdown snapshot plus how the request was served.
struct ExecReport {
  core::Breakdown breakdown;  ///< snapshot of the coalesced execute
  int batch = 1;              ///< requests coalesced into that execute
  int batch_index = 0;        ///< this request's plane in the batch
  bool plan_reused = false;   ///< registry hit (no plan construction)
  bool points_reused = false; ///< fingerprint hit (no set_points)
  std::uint64_t trace = 0;    ///< the request's trace ID (0 when tracing off)
};

/// One queued request, type-erased: the precision lives in the group key,
/// and the dispatcher casts the pointers back to T / std::complex<T>. The
/// coordinate pointers ride on EVERY request (not the group): a request's
/// buffers are only guaranteed alive until its own future resolves, so a
/// dispatch must read coordinates from a request in the batch it is about to
/// serve, never from an earlier one whose future may already be consumed.
struct Pending {
  std::size_t M = 0;
  const void* x = nullptr;
  const void* y = nullptr;
  const void* z = nullptr;
  std::size_t K = 0;            ///< type 3: target frequency count
  const void* s = nullptr;      ///< type 3: target frequencies per axis
  const void* t = nullptr;
  const void* u = nullptr;
  const void* input = nullptr;  ///< type 1/3: c[M]; type 2: f[prod(N)]
  void* output = nullptr;       ///< type 1: f[prod(N)]; type 2: c[M]; type 3: f[K]
  bool interactive = false;     ///< latency class: skips windows, jumps the FIFO
  std::uint64_t trace = 0;      ///< obs trace ID minted at submit (0 = off)
  std::chrono::steady_clock::time_point at;  ///< arrival (stamped by push)
  std::promise<ExecReport> promise;
};

/// Batch compatibility key: same signature AND same point set.
struct GroupKey {
  PlanKey plan;
  std::uint64_t fingerprint = 0;

  bool operator==(const GroupKey&) const = default;
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const {
    const std::size_t h = PlanKeyHash{}(k.plan);
    return h ^ (static_cast<std::size_t>(k.fingerprint) + 0x9e3779b97f4a7c15ull +
                (h << 6) + (h >> 2));
  }
};

/// Requests awaiting dispatch for one (signature, point set) pair.
struct Group {
  GroupKey key;
  std::vector<Pending> pending;
  bool queued = false;    ///< sitting in the ready FIFO
  bool draining = false;  ///< a worker currently owns it
  int interactive = 0;    ///< pending requests with the interactive class
};

class RequestQueue {
 public:
  /// Points the queue at the owning service's metrics bundle (window-wait
  /// histogram). Call once before any push; nullptr (the default) skips the
  /// histogram but trace spans still record.
  void bind(obs::ServiceMetrics* m) { metrics_ = m; }

  /// Appends a request; enqueues the group if idle. Interactive requests
  /// jump the FIFO: a newly-enqueued group goes to the FRONT of the ready
  /// deque, and a group already queued is promoted to the front. Thread-safe.
  void push(const GroupKey& key, Pending p);

  /// Blocks for the next ready group (nullptr on shutdown with nothing
  /// left). The group is marked draining — no other worker can pop it. When
  /// `window` > 0 the worker then waits at most the remainder of the window
  /// since the group's oldest pending request's ARRIVAL, letting
  /// near-simultaneous submitters coalesce into the same batch while never
  /// delaying any request by more than `window`.
  ///
  /// The window closes EARLY as soon as waiting can no longer help: the
  /// group already holds max_batch requests (the batch cannot grow), it
  /// contains an interactive request (latency class — never hold it for
  /// throughput), or no other worker is mid-dispatch AND nothing else is
  /// queued (the service is otherwise idle, so no coalescing partner can be
  /// in flight that a window would capture). The wait is interruptible:
  /// shutdown() closes it immediately, so stopping the service flushes the
  /// queue without residual window sleeps.
  std::shared_ptr<Group> pop_ready(std::chrono::microseconds window, int max_batch);

  /// Takes up to max_batch pending requests (FIFO) from a draining group.
  std::vector<Pending> take_batch(const std::shared_ptr<Group>& g, int max_batch);

  /// Ends the drain: re-queues the group if requests arrived meanwhile
  /// (front of the FIFO if any of them is interactive), drops it from the
  /// index otherwise. Pairs with pop_ready: also releases the "mid-dispatch"
  /// mark that keeps other workers' windows open.
  void finish(const std::shared_ptr<Group>& g);

  /// Wakes all poppers; pop_ready returns nullptr once the FIFO is empty.
  void shutdown();

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<GroupKey, std::shared_ptr<Group>, GroupKeyHash> groups_;
  std::deque<std::shared_ptr<Group>> ready_;
  bool stop_ = false;
  /// Groups popped and past their window (dispatch in progress). Counted at
  /// the END of pop_ready — a worker still parked in its own window is not
  /// "busy" for another window-waiter's idle check, otherwise two waiters
  /// would each see the other as activity and both sit out their windows on
  /// an idle service.
  int executing_ = 0;
  obs::ServiceMetrics* metrics_ = nullptr;  ///< owning service's bundle (may be null)
};

}  // namespace cf::service
