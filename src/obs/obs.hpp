// Observability layer: end-to-end trace spans + a metrics registry with
// per-stage latency histograms, threaded through the plan and service
// layers (the "see WHY a request was slow" subsystem).
//
// Two independent planes, both record-only — neither ever changes an output
// bit, only observes it:
//
// TRACING (default OFF; enable via obs::set_enabled, the CF_TRACE env knob
// resolved by ServiceConfig::observability, or cfs_obs_enable):
//   Every Request gets a 64-bit trace ID at submit; spans are recorded at
//   admission (block/shed wait), queue-enter, group join, coalescing-window
//   open/close, plan-registry hit/miss, set_points (build vs fingerprint
//   reuse), execute (with the plan's Breakdown stage timings imported as
//   child spans), and future-resolve. Spans land in
//   per-thread fixed-capacity ring buffers: a thread only ever writes its
//   own ring (no locks, no sharing on the hot path), memory is bounded at
//   ring_capacity spans per thread, and the oldest span is overwritten when
//   a ring wraps. export_chrome_trace() walks every ring into Chrome
//   `trace_event` JSON (load in chrome://tracing or Perfetto).
//
// METRICS (always on; the cost per request is a handful of relaxed atomic
// adds, invisible next to a millisecond-scale transform):
//   Each service owns a ServiceMetrics bundle: a mutex-guarded admission
//   Ledger whose snapshot is CONSISTENT under concurrent submits — the
//   invariant submitted == completed + failed + outstanding holds on every
//   snapshot, not just at quiescence — plus named counters and log-bucketed
//   histograms (queue wait, window wait, batch size, execute time,
//   end-to-end latency, per-stage plan breakdown). Live bundles register
//   here so snapshot_all()/json_string()/prometheus_string() can export the
//   whole process, asserting the ledger invariant on the exported snapshot
//   itself.
//
// A slow-request log (ServiceConfig::observability.slow_request_ms or the
// CF_SLOW_MS env knob) prints the span chain of any request whose
// end-to-end latency crosses the threshold.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "core/plan.hpp"

namespace cf::obs {

// ---- trace spans ------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  Admission = 0,  ///< dur = block wait; arg: 0 immediate, 1 waited, -1 shed
  QueueEnter,     ///< request pushed; arg = group pending size after the join
  GroupJoin,      ///< joined a group that already had pending requests
  WindowOpen,     ///< coalescing window armed; arg = pending at open
  WindowClose,    ///< dur = waited; arg = CloseReason
  PlanHit,        ///< registry signature hit (no plan construction)
  PlanMiss,       ///< dur = plan construction time
  SetPoints,      ///< dur = set_points; arg: 1 built, 0 fingerprint reuse
  Execute,        ///< dur = batched execute; arg = batch size
  StageSort,      ///< Breakdown children (laid out sequentially from the
  StageCacheBuild,///< parent span's t0 — the paper's per-stage cost anatomy)
  StageSpread,
  StageFft,
  StageDeconvolve,
  StageInterp,
  FutureResolve,  ///< dur = end-to-end latency (submit arrival -> resolve)
  kCount,
};

const char* span_name(SpanKind k);

/// WindowClose arg values.
enum CloseReason : std::int64_t {
  kCloseDeadline = 0,     ///< full window elapsed
  kCloseBatchFull = 1,    ///< early: batch cannot grow
  kCloseShutdown = 2,     ///< service stopping
  kCloseInteractive = 3,  ///< early: latency-class request pending
  kCloseIdle = 4,         ///< early: no coalescing partner can show up
};

struct Span {
  std::uint64_t trace = 0;  ///< 0 = not tied to one request (batch-level)
  double t0_us = 0;         ///< start, microseconds since mono::epoch()
  double dur_us = 0;
  std::int64_t arg = 0;     ///< kind-specific (see SpanKind)
  SpanKind kind = SpanKind::Admission;
};

/// Tracing master switch (process-global; default off).
bool enabled();
void set_enabled(bool on);

/// Resolves the CF_TRACE env knob once (strict 0/1 parse). Used by services
/// whose ObsOptions::trace is the -1 "auto" sentinel.
bool env_trace_enabled();
/// CF_TRACE_PATH, or empty: where a service destructor auto-exports the
/// Chrome trace when tracing is enabled.
std::string env_trace_path();

/// Fresh trace ID for one request; 0 when tracing is disabled (spans with
/// trace 0 still export, they just can't be grouped into a request chain).
std::uint64_t trace_begin();

/// Records a span into the calling thread's ring. No-op when disabled; the
/// hot path is one relaxed atomic load + a ring store, no locks.
void span(SpanKind kind, std::uint64_t trace, double t0_us, double dur_us,
          std::int64_t arg = 0);

/// Imports a Breakdown's execute-stage timings as child spans of an Execute
/// span starting at t0_us (children laid out sequentially — Breakdown holds
/// durations, not stamps). Emits nothing when tracing is disabled.
void execute_spans(std::uint64_t trace, double t0_us, double exec_us,
                   const core::Breakdown& bd, int batch);
/// Same for set_points-time stages (sort, cache build).
void setpts_spans(std::uint64_t trace, double t0_us, double setpts_us,
                  const core::Breakdown& bd);

/// Snapshot of every thread ring: (thread index, spans oldest-first).
std::vector<std::pair<std::uint32_t, std::vector<Span>>> collect();
/// All recorded spans for one trace ID, time-ordered (slow-request log).
std::vector<Span> collect_trace(std::uint64_t trace);
/// Writes Chrome trace_event JSON ({"traceEvents":[...]}); false on IO error.
bool export_chrome_trace(const std::string& path);
/// Drops every recorded span (rings stay allocated). Trace IDs keep rising.
void reset_trace();

struct TraceConfig {
  std::size_t ring_capacity = 8192;  ///< spans per thread ring (40 B each)
};
/// Applies to rings created AFTER the call (each thread allocates its ring
/// on first span). Call before the traffic of interest for a clean bound.
void configure(const TraceConfig& cfg);

/// Prints `trace`'s span chain to stderr (the slow-request log body).
void log_slow_request(std::uint64_t trace, double e2e_ms, double threshold_ms);

// ---- metrics registry -------------------------------------------------------

/// Monotonic named counter (relaxed atomic).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Monotonic-max update (e.g. max_batch_seen); exported like a counter.
  void observe_max(std::uint64_t v) {
    std::uint64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Log-bucketed histogram: bucket 0 counts samples < 1, bucket i >= 1 counts
/// [2^(i-1), 2^i). 48 buckets span 2^47 — over four years in microseconds —
/// so every latency metric fits one shape. record() is a few relaxed atomic
/// adds; snapshots may tear against concurrent records (count vs buckets),
/// which is harmless for monitoring and avoided in tests by quiescing.
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void record(double v);

  struct Snap {
    std::uint64_t count = 0;
    double sum = 0;
    std::array<std::uint64_t, kBuckets> buckets{};
    /// Approximate percentile (q in [0, 100]) by linear interpolation inside
    /// the bucket where the rank falls; 0 on an empty histogram.
    double percentile(double q) const;
    std::uint64_t bucket_total() const;
  };
  Snap snap() const;

  /// Upper bound (`le` label) of bucket i: 1, 2, 4, ... 2^(kBuckets-1).
  static double bucket_le(int i);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  ///< double sum via CAS (portable
                                            ///< pre-fetch_add-for-floats)
};

/// Named counters + histograms with stable pointers: creation takes a mutex
/// once; holders then update lock-free. Names are per-registry unique.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, Histogram::Snap>> histograms;
  };
  Snapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> hists_;
};

/// The admission ledger: every transition updates its counters ATOMICALLY
/// with respect to snap(), so the invariant
///   submitted == completed + failed + outstanding
/// holds on a snapshot taken at ANY instant — mid-storm, mid-shed — not just
/// after a drain. This is the source of truth the service's admission
/// gate and drain() waits run on (the mutex was already paid there; the
/// ledger just makes the counters ride the same critical section).
class Ledger {
 public:
  /// Claims a slot: submitted++/outstanding++. With cap > 0 and outstanding
  /// at the cap: blocks until a slot frees when `block`, else records a shed
  /// (submitted++/failed++/shed++) and returns false. `waited`, when
  /// non-null, reports whether the call actually parked at the cap.
  bool admit(std::size_t cap, bool block, bool* waited = nullptr);
  /// Structurally invalid request that never entered: submitted++/failed++.
  void reject();
  /// Frees n slots; n - nfailed completed, nfailed failed. Wakes admission
  /// and drain waiters.
  void fulfill(std::size_t n, std::size_t nfailed);
  /// Blocks until outstanding == 0.
  void wait_drained();

  std::size_t outstanding() const;

  struct Snap {
    std::uint64_t submitted = 0, completed = 0, failed = 0, shed = 0;
    std::uint64_t outstanding = 0;
    bool consistent() const {
      return submitted == completed + failed + outstanding;
    }
  };
  Snap snap() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t submitted_ = 0, completed_ = 0, failed_ = 0, shed_ = 0;
  std::size_t outstanding_ = 0;
};

/// One service's metrics bundle: ledger + registry, with the hot-path
/// counter/histogram handles resolved once at construction. Registers itself
/// in the process-wide export list (snapshot_all / json / prometheus) for its
/// lifetime. `name` gets a process-unique "#<n>" suffix.
class ServiceMetrics {
 public:
  explicit ServiceMetrics(const std::string& name);
  ~ServiceMetrics();
  ServiceMetrics(const ServiceMetrics&) = delete;
  ServiceMetrics& operator=(const ServiceMetrics&) = delete;

  const std::string& name() const { return name_; }
  Ledger& ledger() { return ledger_; }
  const Ledger& ledger() const { return ledger_; }
  MetricsRegistry& registry() { return reg_; }

  // Resolved handles (stable for the bundle's lifetime).
  Counter* batches;
  Counter* batched_requests;
  Counter* max_batch_seen;
  Counter* plan_hits;
  Counter* plan_misses;
  Counter* plan_evictions;
  Counter* setpts_builds;
  Counter* setpts_reuses;
  Histogram* queue_wait_us;   ///< submit arrival -> dispatch start, per request
  Histogram* window_wait_us;  ///< coalescing-window park time, per window
  Histogram* batch_size;      ///< coalesced requests per execute
  Histogram* setpts_us;       ///< set_points builds (fingerprint reuses skip)
  Histogram* execute_us;      ///< batched execute wall time
  Histogram* e2e_us;          ///< submit arrival -> future resolve, per request
  Histogram* stage_sort_us;
  Histogram* stage_spread_us;
  Histogram* stage_fft_us;
  Histogram* stage_deconvolve_us;
  Histogram* stage_interp_us;

  /// Batched-execute bookkeeping: batch/execute histograms, batch counters,
  /// and the per-stage breakdown histograms in one call.
  void record_execute(const core::Breakdown& bd, int batch, double exec_us);

  struct Snapshot {
    std::string name;
    Ledger::Snap ledger;
    MetricsRegistry::Snapshot metrics;
  };
  Snapshot snapshot() const;

 private:
  std::string name_;
  Ledger ledger_;
  MetricsRegistry reg_;
};

/// Snapshots of every live ServiceMetrics bundle (registration order).
std::vector<ServiceMetrics::Snapshot> snapshot_all();
/// JSON dump of snapshot_all(): one object per service with the ledger (and
/// its "consistent" verdict — the exported snapshot asserts the invariant
/// itself), counters, and histograms (nonzero buckets as [le, count] pairs).
/// `all_consistent`, when non-null, reports the AND of the ledger verdicts.
std::string json_string(bool* all_consistent = nullptr);
/// Prometheus text exposition of the same snapshot (counters plus
/// cumulative _bucket/_sum/_count histogram series, service label per line).
std::string prometheus_string();
/// Writes `text` to `path`; false on IO error.
bool write_text_file(const std::string& path, const std::string& text);

}  // namespace cf::obs
