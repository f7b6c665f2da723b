// Concurrent NUFFT service layer: plan registry + request coalescing +
// async futures (the ROADMAP "serve heavy traffic" north star).
//
// The paper's many-vector batching amortizes all point handling — tap
// evaluation, bin-sorted streaming, the tile-owned writeback — across the
// ntransf stacked vectors of ONE caller's execute. NufftService makes that
// amortization happen automatically ACROSS callers: submit() hands back a
// std::future immediately; dispatch workers coalesce every pending request
// with the same transform signature and point set into one batched execute
// (ntransf = number of coalesced requests) and scatter the planes back
// per-future. A signature-keyed LRU plan registry reuses plan construction,
// and point-set fingerprinting reuses set_points (the expensive bin-sort /
// tap-table / tile-set precomputation) across requests and batches.
//
// Determinism: every SM and GM-sort type-1 spread runs tiled, on every grid
// (ExecReport::breakdown.tiled == 1; type 2 only interpolates), so the
// batched execute is bitwise-deterministic and treats every plane
// independently: a response is bitwise-identical whether it ran alone, in
// any batch composition, at any position, and at any dispatch or device
// worker count. The one exception is the GM method's atomic spread, which
// sums in a timing-dependent order on more than one device worker, so its
// output can differ between executes.
//
// Threading: dispatch workers only gather/scatter and block in
// Plan::execute; the actual kernels run on the device's worker pool, whose
// per-call completion tracking lets concurrent executes share the pool
// without oversubscribing the host (see common/thread_pool.hpp).
//
// Usage:
//   vgpu::Device dev;
//   service::NufftService svc(dev);
//   service::Request<float> req;
//   req.type = 1; req.modes = {64, 64}; req.tol = 1e-5;
//   req.M = M; req.x = x; req.y = y; req.input = c; req.output = f;
//   auto fut = svc.submit(req);       // caller buffers live until get()
//   fut.get();                        // throws on invalid requests
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "obs/obs.hpp"
#include "service/request_queue.hpp"

namespace cf::service {

/// Admission policy once ServiceConfig::max_outstanding is reached.
enum class Admission : std::uint8_t {
  Block = 0,  ///< backpressure: submit() blocks until a slot frees
  Shed = 1,   ///< fail fast: the future throws OverloadedError, submit() never blocks
};

/// Request latency class.
enum class Priority : std::uint8_t {
  Bulk = 0,         ///< throughput traffic: rides the coalescing window
  Interactive = 1,  ///< latency traffic: closes windows early, jumps the ready FIFO
};

/// Delivered through the future when Admission::Shed rejects a submission at
/// the max_outstanding cap. A distinct type (not std::invalid_argument) so
/// callers can tell "overloaded, retry later" from "bad request".
class OverloadedError : public std::runtime_error {
 public:
  explicit OverloadedError(std::size_t cap)
      : std::runtime_error("NufftService: shed at max_outstanding = " +
                           std::to_string(cap)) {}
};

/// Per-service observability knobs (see src/obs/obs.hpp). Tracing is
/// process-global and OFF by default; metrics are always on (their cost is a
/// few relaxed atomic adds per request).
struct ObsOptions {
  /// Trace spans: 1 = enable, 0 = force off, -1 (default) = auto — enable
  /// iff the strict-parsed CF_TRACE env knob is 1. Note the underlying
  /// switch is process-global (obs::set_enabled), so an explicit 0/1 here
  /// flips it for every service in the process.
  int trace = -1;
  /// Slow-request log threshold in milliseconds: any request whose
  /// end-to-end latency crosses it gets its span chain printed to stderr.
  /// 0 disables; negative (default) = auto — read CF_SLOW_MS (ms), else off.
  double slow_request_ms = -1;
};

struct ServiceConfig {
  /// Dispatch worker count; 0 reads CF_SERVICE_THREADS (else 2). More
  /// workers overlap independent signatures; one worker maximizes
  /// coalescing for a single hot signature.
  int threads = 0;
  std::size_t max_plans = 16;  ///< LRU plan registry capacity
  int max_batch = 8;           ///< coalescing cap = plan ntransf
  /// Longest extra time a dispatcher waits (measured from a group's oldest
  /// pending request) so near-simultaneous same-signature submitters
  /// coalesce. The window is adaptive: it closes early when the batch is
  /// full, the group holds an interactive request, or the service is
  /// otherwise idle (see RequestQueue::pop_ready), so window latency is paid
  /// only when a coalescing partner could still show up; shutdown interrupts
  /// it. Negative (default) = auto: read CF_SERVICE_WINDOW_US, else 0. 0 =
  /// dispatch whatever is queued, which under sustained load already batches.
  std::chrono::microseconds coalesce_window{-1};
  /// Admission cap: submitted-but-unfulfilled requests the service holds
  /// before `admission` applies. 0 = unbounded (memory grows with the
  /// submit/serve rate gap — fine for bounded clients, not for open load).
  std::size_t max_outstanding = 0;
  Admission admission = Admission::Block;
  ObsOptions observability;
  /// Per-batch completion hook (optional): called once per dispatched batch
  /// with its group key, the number of requests it served, and how many of
  /// them failed (0 or n — a batch fails as a unit). It runs on the dispatch
  /// thread after the batch's admission slots are freed and before its
  /// futures resolve, so a caller woken by it can resubmit without being
  /// blocked or shed by the batch it just saw complete. Keep it cheap and
  /// never call back into this service from it.
  std::function<void(const GroupKey&, std::size_t n, std::size_t nfailed)>
      on_fulfilled;
};

/// Service counters (monotonic since construction).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;      ///< futures fulfilled with a result
  std::uint64_t failed = 0;         ///< futures fulfilled with an exception
  std::uint64_t shed = 0;           ///< rejected at max_outstanding (subset of failed)
  std::uint64_t batches = 0;        ///< coalesced executes dispatched
  std::uint64_t batched_requests = 0;  ///< requests those executes served
  std::uint64_t max_batch_seen = 0; ///< largest coalesced batch so far
  std::uint64_t plan_hits = 0;      ///< registry signature hits
  std::uint64_t plan_misses = 0;    ///< plans constructed
  std::uint64_t plan_evictions = 0; ///< LRU evictions
  std::uint64_t setpts_builds = 0;  ///< set_points actually run
  std::uint64_t setpts_reuses = 0;  ///< dispatches served by a fingerprint hit
};

/// One transform request. All pointers are borrowed and must stay valid
/// until the returned future resolves. ntransf in `opts` is ignored — the
/// service chooses the batch size by coalescing.
template <typename T>
struct Request {
  int type = 1;                     ///< 1, 2, or 3
  /// N per axis (size = dim, 1..3). Type 3 has no mode grid: modes then only
  /// fixes the dimension (entry values are ignored by the plan signature).
  std::vector<std::int64_t> modes;
  int iflag = 1;                    ///< +1 or -1; 0 is rejected (ambiguous)
  double tol = 1e-6;
  core::Options opts{};
  Priority priority = Priority::Bulk;
  std::size_t M = 0;
  const T* x = nullptr;
  const T* y = nullptr;  ///< required for dim >= 2
  const T* z = nullptr;  ///< required for dim >= 3
  /// Type-3 target frequencies (required iff type == 3).
  std::size_t K = 0;
  const T* s = nullptr;
  const T* t = nullptr;  ///< required for dim >= 2
  const T* u = nullptr;  ///< required for dim >= 3
  const std::complex<T>* input = nullptr;  ///< type 1/3: c[M]; type 2: f[prod(N)]
  std::complex<T>* output = nullptr;  ///< type 1: f[prod(N)]; type 2: c[M]; type 3: f[K]
};

class NufftService {
 public:
  explicit NufftService(vgpu::Device& dev, ServiceConfig cfg = {});

  /// Stops the dispatch workers after flushing every queued request
  /// (futures are always fulfilled). Residual coalescing windows are closed
  /// immediately, so destruction never waits them out.
  ~NufftService();

  NufftService(const NufftService&) = delete;
  NufftService& operator=(const NufftService&) = delete;

  /// Enqueues a transform; returns immediately unless the service is at
  /// max_outstanding under Admission::Block (backpressure: blocks until a
  /// slot frees). The future yields the request's ExecReport, or rethrows
  /// the dispatch failure (bad type / modes / method — the same
  /// std::invalid_argument a direct Plan would throw, plus eager rejection
  /// of missing buffers and iflag == 0), or OverloadedError when
  /// Admission::Shed rejects the request at the cap.
  std::future<ExecReport> submit(const Request<float>& req);
  std::future<ExecReport> submit(const Request<double>& req);

  /// Blocks until every submitted request has been fulfilled.
  void drain();

  int n_threads() const { return static_cast<int>(workers_.size()); }
  const ServiceConfig& config() const { return cfg_; }
  /// ServiceStats is a VIEW over the obs metrics bundle: the ledger counters
  /// (submitted/completed/failed/shed) come from one consistent snapshot, so
  /// submitted == completed + failed holds whenever outstanding() == 0 — and
  /// submitted == completed + failed + outstanding holds at ANY instant.
  ServiceStats stats() const;
  /// Admitted but not yet fulfilled requests (the drain/admission ledger).
  std::size_t outstanding() const;
  /// This service's observability bundle (ledger + counters + histograms).
  const obs::ServiceMetrics& metrics() const { return metrics_; }

 private:
  template <typename T>
  std::future<ExecReport> submit_impl(const Request<T>& req);
  void worker_loop();
  template <typename T>
  void dispatch(Group& g, std::vector<Pending> batch);
  void fulfilled(const GroupKey& key, std::size_t n, std::size_t nfailed);

  vgpu::Device* dev_;
  ServiceConfig cfg_;
  /// Ledger (admission/drain source of truth) + counters + histograms.
  /// Declared before registry_/queue_ so the bundle they count into outlives
  /// them.
  obs::ServiceMetrics metrics_{"service"};
  PlanRegistry registry_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
  double slow_ms_ = 0;  ///< resolved slow-request log threshold (0 = off)
};

}  // namespace cf::service
