#include "service/service.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/clock.hpp"

namespace cf::service {

namespace {

int resolve_threads(int configured) {
  if (configured > 0) return configured;
  return env_int_strict("CF_SERVICE_THREADS", 2, 1, 4096);
}

// Eager rejection of structurally unusable requests (the dispatcher could
// not even form a signature or touch the buffers) and of non-finite
// coordinates; everything else — bad type, bad modes, method constraints —
// fails in plan construction on the dispatch thread and reaches the caller
// through the request future. On success fills the request's group key.
template <typename T>
const char* validate_request(const Request<T>& req, GroupKey& key) {
  const int dim = static_cast<int>(req.modes.size());
  if (dim < 1 || dim > 3) return "NufftService: dim must be 1..3";
  if (req.iflag == 0)
    // The plan key folds iflag to its sign; accepting 0 would silently serve
    // the +1 transform for a request that never chose a direction.
    return "NufftService: iflag must be +1 or -1 (0 is ambiguous)";
  if (!req.input || !req.output) return "NufftService: input/output required";
  // The sort's 32-bit indices bound M and K; checked before the fingerprint
  // pass reads a coordinate.
  if (req.M > spread::kMaxPoints || req.K > spread::kMaxPoints)
    return "NufftService: point count must be < 2^32";
  // The plan would throw the same from width_from_tol, but only after the
  // request had taken an admission slot and a dispatcher had built it.
  if (!spread::valid_tol(req.tol))
    return "NufftService: tol must be a positive normal number below 1";
  if (req.M > 0 && (!req.x || (dim >= 2 && !req.y) || (dim >= 3 && !req.z)))
    return "NufftService: coordinate arrays required for M > 0";
  if (req.type == 3) {
    // Type3Plan::set_points rejects empty point sets anyway; rejecting here
    // fails the request before it takes an admission slot.
    if (req.M == 0 || req.K == 0)
      return "NufftService: type 3 requires nonempty source and target sets";
    if (!req.s || (dim >= 2 && !req.t) || (dim >= 3 && !req.u))
      return "NufftService: target frequency arrays required for type 3";
  }
  key.plan =
      make_plan_key<T>(req.type, dim, req.modes.data(), req.iflag, req.tol, req.opts);
  // O(M) hash on the SUBMITTING thread: fingerprint work parallelizes across
  // callers instead of serializing on the dispatchers. The same pass checks
  // that every coordinate is finite.
  const auto fingerprint =
      req.type == 3
          ? point_fingerprint3<T>(dim, req.M, req.x, req.y, req.z, req.K, req.s,
                                  req.t, req.u)
          : point_fingerprint<T>(dim, req.M, req.x, req.y, req.z);
  if (!fingerprint) return "NufftService: non-finite coordinate";
  key.fingerprint = *fingerprint;
  return nullptr;
}

}  // namespace

NufftService::NufftService(vgpu::Device& dev, ServiceConfig cfg)
    : dev_(&dev), cfg_(cfg), registry_(cfg.max_plans, metrics_) {
  cfg_.threads = resolve_threads(cfg_.threads);
  cfg_.max_batch = std::max(1, cfg_.max_batch);
  // Negative window = auto: the CF_SERVICE_WINDOW_US env knob, else no
  // window. An explicit config value (>= 0) always wins over the env.
  if (cfg_.coalesce_window.count() < 0)
    cfg_.coalesce_window = std::chrono::microseconds(
        env_int_strict("CF_SERVICE_WINDOW_US", 0, 0, 10'000'000));
  // Observability: an explicit 0/1 flips the process-global trace switch;
  // the -1 auto default only ever turns it ON (from CF_TRACE=1), so one
  // service's defaults never silence another's explicit enable.
  if (cfg_.observability.trace >= 0)
    obs::set_enabled(cfg_.observability.trace == 1);
  else if (obs::env_trace_enabled())
    obs::set_enabled(true);
  slow_ms_ = cfg_.observability.slow_request_ms >= 0
                 ? cfg_.observability.slow_request_ms
                 : static_cast<double>(env_int_strict("CF_SLOW_MS", 0, 0, 3'600'000));
  queue_.bind(&metrics_);
  workers_.reserve(static_cast<std::size_t>(cfg_.threads));
  for (int t = 0; t < cfg_.threads; ++t)
    workers_.emplace_back([this] { worker_loop(); });
}

NufftService::~NufftService() {
  // Signal stop FIRST: pop_ready skips/closes coalescing windows once stop_
  // is set, and workers keep popping until the ready FIFO is empty, so every
  // queued request is still fulfilled — just without waiting out residual
  // windows. (The old drain()-then-shutdown() order made a destructing
  // service with a nonzero window stall up to window x groups.)
  queue_.shutdown();
  for (auto& w : workers_) w.join();
  // Auto-export: CF_TRACE_PATH (with tracing on) gets the Chrome trace at
  // teardown. Rings are process-global, so the last service destroyed writes
  // the most complete file; earlier writes are supersets-in-progress.
  if (obs::enabled()) {
    const std::string path = obs::env_trace_path();
    if (!path.empty() && !obs::export_chrome_trace(path))
      std::fprintf(stderr, "NufftService: failed to write CF_TRACE_PATH='%s'\n",
                   path.c_str());
  }
}

std::future<ExecReport> NufftService::submit(const Request<float>& req) {
  return submit_impl(req);
}

std::future<ExecReport> NufftService::submit(const Request<double>& req) {
  return submit_impl(req);
}

template <typename T>
std::future<ExecReport> NufftService::submit_impl(const Request<T>& req) {
  const std::uint64_t trace = obs::trace_begin();
  std::promise<ExecReport> promise;
  auto fut = promise.get_future();

  GroupKey key;
  if (const char* bad = validate_request(req, key)) {
    metrics_.ledger().reject();
    promise.set_exception(std::make_exception_ptr(std::invalid_argument(bad)));
    return fut;
  }

  // Admission gate: the ledger claims the slot (or sheds) as one atomic
  // transition, so a concurrent stats() snapshot can never see a submitted
  // request that is neither outstanding nor failed. The fingerprint above
  // ran OUTSIDE the ledger lock on purpose: a Shed rejection still cost
  // O(M), but a Block wait never serializes other submitters' hashing.
  const bool tracing = obs::enabled();
  const double adm_t0 = tracing ? mono::now_us() : 0;
  bool waited = false;
  if (!metrics_.ledger().admit(cfg_.max_outstanding,
                               cfg_.admission == Admission::Block, &waited)) {
    // Shed requests count in failed too, so the invariant
    // submitted == completed + failed survives every policy; `shed`
    // refines failed with the overload share.
    if (tracing)
      obs::span(obs::SpanKind::Admission, trace, adm_t0, mono::now_us() - adm_t0,
                /*arg=*/-1);
    promise.set_exception(
        std::make_exception_ptr(OverloadedError(cfg_.max_outstanding)));
    return fut;
  }
  if (tracing)
    obs::span(obs::SpanKind::Admission, trace, adm_t0, mono::now_us() - adm_t0,
              waited ? 1 : 0);

  Pending p;
  p.trace = trace;
  p.M = req.M;
  p.x = req.x;
  p.y = req.y;
  p.z = req.z;
  p.K = req.K;
  p.s = req.s;
  p.t = req.t;
  p.u = req.u;
  p.input = req.input;
  p.output = req.output;
  p.interactive = req.priority == Priority::Interactive;
  p.promise = std::move(promise);
  queue_.push(key, std::move(p));
  return fut;
}

void NufftService::worker_loop() {
  while (auto g = queue_.pop_ready(cfg_.coalesce_window, cfg_.max_batch)) {
    auto batch = queue_.take_batch(g, cfg_.max_batch);
    if (!batch.empty()) {
      if (g->key.plan.precision == 1)
        dispatch<double>(*g, std::move(batch));
      else
        dispatch<float>(*g, std::move(batch));
    }
    queue_.finish(g);
  }
}

// Serves one coalesced batch: acquire (or build) the signature's plan, reuse
// or rebuild its point set, gather the requests' inputs into one stacked
// buffer, run ONE batched execute with ntransf = batch size, and scatter the
// planes back through the futures.
template <typename T>
void NufftService::dispatch(Group& g, std::vector<Pending> batch) {
  const int B = static_cast<int>(batch.size());
  // Coordinates come from a request IN THIS BATCH (its future is still
  // pending, so its buffers are alive) — never from an earlier arrival
  // whose future may already have been consumed and its buffers freed.
  const Pending& head = batch.front();
  // Batch-level spans (plan, set_points, execute) carry the oldest member's
  // trace ID: the whole batch shares the work, and the head waited longest.
  const std::uint64_t btrace = head.trace;
  const double dispatch_t0 = mono::now_us();
  for (const Pending& p : batch)
    metrics_.queue_wait_us->record(dispatch_t0 - mono::us(p.at));
  ExecReport report;
  std::exception_ptr err;
  try {
    const double plan_t0 = dispatch_t0;
    auto entry = registry_.acquire(g.key.plan);
    std::lock_guard plan_lk(entry->mu);
    const bool plan_reused = entry->plan.index() != 0;
    if (!plan_reused) entry->plan = make_plan(g.key.plan, *dev_, cfg_.max_batch);
    if (obs::enabled())
      obs::span(plan_reused ? obs::SpanKind::PlanHit : obs::SpanKind::PlanMiss,
                btrace, plan_t0, plan_reused ? 0 : mono::now_us() - plan_t0);

    // make_plan chose the alternative from this very key, so the get for the
    // key's type and precision cannot throw.
    const bool type3 = g.key.plan.type == 3;
    core::Plan<T>* plan = nullptr;
    core::Type3Plan<T>* plan3 = nullptr;
    if (type3)
      plan3 = std::get<std::unique_ptr<core::Type3Plan<T>>>(entry->plan).get();
    else
      plan = std::get<std::unique_ptr<core::Plan<T>>>(entry->plan).get();
    const bool points_reused = entry->fingerprint == g.key.fingerprint &&
                               entry->M == head.M && entry->K == head.K;
    double setpts_t0 = 0, setpts_dur = 0;
    if (!points_reused) {
      mono::Stopwatch sp_sw;
      entry->fingerprint = 0;  // a set_points that throws leaves no points loaded
      if (type3)
        plan3->set_points(head.M, static_cast<const T*>(head.x),
                          static_cast<const T*>(head.y), static_cast<const T*>(head.z),
                          head.K, static_cast<const T*>(head.s),
                          static_cast<const T*>(head.t), static_cast<const T*>(head.u));
      else
        plan->set_points(head.M, static_cast<const T*>(head.x),
                         static_cast<const T*>(head.y), static_cast<const T*>(head.z));
      entry->fingerprint = g.key.fingerprint;
      entry->M = head.M;
      entry->K = head.K;  // 0 for types 1/2
      setpts_t0 = sp_sw.start_us();
      setpts_dur = sp_sw.us();
      metrics_.setpts_builds->add(1);
      metrics_.setpts_us->record(setpts_dur);
    } else {
      metrics_.setpts_reuses->add(1);
      if (obs::enabled())  // zero-duration marker: served by fingerprint reuse
        obs::span(obs::SpanKind::SetPoints, btrace, mono::now_us(), 0, /*built=*/0);
    }
    mono::Stopwatch exec_sw;

    const std::size_t nc = head.M;
    const std::size_t nf = type3 ? 0 : static_cast<std::size_t>(plan->modes_total());
    const bool type1 = g.key.plan.type == 1;
    core::Breakdown bd;
    if (type3) {
      // Type 3 has no batched pipeline (yet): coalescing amortizes the
      // geometry-heavy set_points — the dominant cost, shared by the whole
      // group via the fingerprint — and the executes run per-request on the
      // callers' buffers, each bitwise-identical to a direct Type3Plan run.
      for (int b = 0; b < B; ++b) {
        auto* in = const_cast<std::complex<T>*>(
            static_cast<const std::complex<T>*>(batch[b].input));
        auto* out = static_cast<std::complex<T>*>(batch[b].output);
        plan3->execute(in, out);
      }
    } else if (B == 1) {
      // No coalescing happened: run straight on the caller's buffers — the
      // input is only read (type-1 c by spread, type-2 f by the fused
      // amplify), so the const_cast never turns into a write.
      auto* in = const_cast<std::complex<T>*>(
          static_cast<const std::complex<T>*>(head.input));
      auto* out = static_cast<std::complex<T>*>(head.output);
      bd = type1 ? plan->execute(in, out, 1) : plan->execute(out, in, 1);
    } else {
      // Gather -> one batched execute -> scatter. The staging stack is what
      // lets independent callers' vectors share every per-point cost of the
      // batch-strided pipeline.
      std::vector<std::complex<T>> cbuf(static_cast<std::size_t>(B) * nc);
      std::vector<std::complex<T>> fbuf(static_cast<std::size_t>(B) * nf);
      for (int b = 0; b < B; ++b) {
        const auto* src = static_cast<const std::complex<T>*>(batch[b].input);
        if (type1)
          std::memcpy(cbuf.data() + b * nc, src, nc * sizeof(std::complex<T>));
        else
          std::memcpy(fbuf.data() + b * nf, src, nf * sizeof(std::complex<T>));
      }
      bd = plan->execute(cbuf.data(), fbuf.data(), B);
      for (int b = 0; b < B; ++b) {
        auto* dst = static_cast<std::complex<T>*>(batch[b].output);
        if (type1)
          std::memcpy(dst, fbuf.data() + b * nf, nf * sizeof(std::complex<T>));
        else
          std::memcpy(dst, cbuf.data() + b * nc, nc * sizeof(std::complex<T>));
      }
    }

    const double exec_us = exec_sw.us();
    metrics_.record_execute(bd, B, exec_us);
    if (setpts_dur > 0 && bd.sort > 0) metrics_.stage_sort_us->record(bd.sort * 1e6);
    if (obs::enabled()) {
      // The set_points span waits until here because its sort/cache_build
      // child durations ride the execute's Breakdown snapshot.
      if (setpts_dur > 0) obs::setpts_spans(btrace, setpts_t0, setpts_dur, bd);
      obs::execute_spans(btrace, exec_sw.start_us(), exec_us, bd, B);
    }

    report.breakdown = bd;
    report.batch = B;
    report.plan_reused = plan_reused;
    report.points_reused = points_reused;
  } catch (...) {
    // One failure fails the whole batch identically — every request in it
    // carried the same signature, so they would all have failed alone too.
    err = std::current_exception();
  }

  // The ledger transition (counters AND the admission slots, one atomic
  // unit) lands BEFORE the promises: a caller acting right after
  // future.get() must see its own request counted by stats() and its
  // outstanding slot already freed — otherwise a client that resubmits the
  // moment its future resolves can be spuriously shed (or blocked) at the
  // max_outstanding gate by its own completed request. The user-visible
  // outputs were written by execute above, so nothing a drain()ed caller
  // can touch is still pending here; the promises only publish the report.
  fulfilled(g.key, batch.size(), err ? batch.size() : 0);
  const bool tracing = obs::enabled();
  for (int b = 0; b < B; ++b) {
    const double resolve_us = mono::now_us();
    const double e2e = resolve_us - mono::us(batch[b].at);
    metrics_.e2e_us->record(e2e);
    if (tracing)
      obs::span(obs::SpanKind::FutureResolve, batch[b].trace, mono::us(batch[b].at),
                e2e, b);
    // The slow log prints BEFORE the promise resolves so a caller returning
    // from get() can rely on the diagnostic already being on stderr.
    if (slow_ms_ > 0 && e2e * 1e-3 >= slow_ms_)
      obs::log_slow_request(batch[b].trace, e2e * 1e-3, slow_ms_);
    if (err) {
      batch[b].promise.set_exception(err);
    } else {
      report.batch_index = b;
      report.trace = batch[b].trace;
      batch[b].promise.set_value(report);
    }
  }
}

void NufftService::fulfilled(const GroupKey& key, std::size_t n,
                             std::size_t nfailed) {
  // One ledger transition frees the admission slots and settles the
  // completed/failed counters together; it also wakes Block-policy
  // submitters at the cap and drain() waiters (both park on the ledger cv).
  metrics_.ledger().fulfill(n, nfailed);
  // After the slots are freed, before the promises resolve: a caller the
  // hook wakes can resubmit without meeting this batch's slots at the gate.
  if (cfg_.on_fulfilled) cfg_.on_fulfilled(key, n, nfailed);
}

void NufftService::drain() { metrics_.ledger().wait_drained(); }

std::size_t NufftService::outstanding() const {
  return metrics_.ledger().outstanding();
}

ServiceStats NufftService::stats() const {
  const obs::Ledger::Snap led = metrics_.ledger().snap();
  ServiceStats s;
  s.submitted = led.submitted;
  s.completed = led.completed;
  s.failed = led.failed;
  s.shed = led.shed;
  s.batches = metrics_.batches->value();
  s.batched_requests = metrics_.batched_requests->value();
  s.max_batch_seen = metrics_.max_batch_seen->value();
  s.plan_hits = metrics_.plan_hits->value();
  s.plan_misses = metrics_.plan_misses->value();
  s.plan_evictions = metrics_.plan_evictions->value();
  s.setpts_builds = metrics_.setpts_builds->value();
  s.setpts_reuses = metrics_.setpts_reuses->value();
  return s;
}

}  // namespace cf::service
