/* C API mirroring cuFINUFFT's interface (cufinufft_makeplan / setpts /
 * execute / destroy), so C and FFI callers can drive the library without C++.
 *
 * Differences from the CUDA original: a device handle replaces the implicit
 * CUDA device (create one per "GPU"), and pointers are host-visible device
 * pointers (see vgpu). Single-precision entry points carry the `f` suffix,
 * exactly as cufinufft does.
 *
 * All functions return 0 on success, nonzero error codes otherwise.
 */
#ifndef CUFINUFFT_SIM_C_API_H_
#define CUFINUFFT_SIM_C_API_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

typedef struct cfs_device_s* cfs_device;
typedef struct cfs_plan_s* cfs_plan;
typedef struct cfs_planf_s* cfs_planf;

/* Error codes. */
enum {
  CFS_SUCCESS = 0,
  CFS_ERR_INVALID_ARG = 1,
  CFS_ERR_METHOD_UNAVAILABLE = 2, /* e.g. SM in 3D double (paper Rmk. 2) */
  CFS_ERR_INTERNAL = 3,
  CFS_ERR_OVERLOADED = 4 /* shed at the service admission cap; retry later */
};

/* Spreading method selector (matches cufinufft's gpu_method option). */
enum {
  CFS_METHOD_AUTO = 0,
  CFS_METHOD_GM = 1,      /* input-driven, unsorted (baseline) */
  CFS_METHOD_GMSORT = 2,  /* bin-sorted global-memory */
  CFS_METHOD_SM = 3       /* shared-memory subproblems (type 1 only) */
};

/* Tunable options; zero-initialize then override (cufinufft_default_opts). */
typedef struct {
  int gpu_method;        /* CFS_METHOD_* */
  int gpu_maxsubprobsize; /* Msub; 0 = 1024 */
  int gpu_binsizex, gpu_binsizey, gpu_binsizez; /* 0 = paper defaults */
  int ntransf;            /* stacked vectors per execute; 0 = 1 */
  int gpu_kerevalmeth;    /* 0 = direct exp/sqrt, 1 = Horner table */
  int modeord;            /* 0 = CMCL (-N/2..N/2-1), 1 = FFT-style */
  int gpu_fastpath;       /* 0 = default (width-specialized SIMD kernels),
                             -1 = runtime-width scalar fallback */
  int gpu_packed_atomics; /* 1 = packed 8-byte CAS for complex<float>
                             writeback; 0 = two float atomic adds (default) */
  int gpu_point_cache;    /* 0 = default (plan-resident tap table built in
                             setpts), 2 = also cache taps for the tiled
                             GM-sort spread (throughput mode; the service
                             layer's plans use it), -1 = rebuild per execute */
  int gpu_interior_fastpath; /* 0 = default (interior-first no-wrap partition
                                for GM/GM-sort), -1 = always wrap */
  int gpu_tiled_spread;   /* 0 = default (tile-owned atomic-free spread
                             writeback with deterministic halo merge),
                             -1 = atomic writeback */
  int gpu_tile_chunk_cap; /* tiled-spread chunk cap (points per work item):
                             0 = auto (points-per-worker heuristic; the
                             CF_TILE_CHUNK env var overrides the auto value),
                             > 0 = explicit cap, -1 = never split a tile */
  double upsampfac;       /* fine-grid sigma: 0 = default (2.0); 1.25 = the
                             low-upsampling mode (~2x 3D fine-grid volume
                             instead of 8x, wider kernel). Other values are
                             rejected at plan creation. */
} cfs_opts;

void cfs_default_opts(cfs_opts* opts);

/* Device lifecycle: workers = 0 uses all host cores. */
int cfs_device_create(cfs_device* dev, int workers);
int cfs_device_destroy(cfs_device dev);
/* Current device memory in use (bytes), for RAM accounting. */
size_t cfs_device_bytes_in_use(cfs_device dev);

/* Double-precision plan: type 1 or 2; dim = 1..3; nmodes has dim entries;
 * iflag is the sign of i in the exponent; tol the requested accuracy. */
int cfs_makeplan(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                 double tol, const cfs_opts* opts, cfs_plan* plan);
int cfs_setpts(cfs_plan plan, size_t M, const double* x, const double* y,
               const double* z);
/* Type 1 reads c (M complex interleaved) and writes f (prod(nmodes));
 * type 2 reads f and writes c. */
int cfs_execute(cfs_plan plan, double* c, double* f);
int cfs_destroy(cfs_plan plan);

/* Tiled-spread statistics from the plan's most recent setpts/execute:
 * tile_chunks = (tile, chunk) work items in the spread schedule (equals
 * tiles_active when no tile was split), chunk_steals = work items the
 * last execute ran off their round-robin home worker (its rebalancing),
 * max_tile_points = largest bin population, tiles_active = non-empty tiles,
 * tiled = 1 when the last execute used the atomic-free tile writeback.
 * Any output pointer may be NULL. */
int cfs_plan_stats(cfs_plan plan, uint64_t* tile_chunks, uint64_t* chunk_steals,
                   uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled);

/* Single-precision variants. */
int cfs_makeplanf(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                  double tol, const cfs_opts* opts, cfs_planf* plan);
int cfs_setptsf(cfs_planf plan, size_t M, const float* x, const float* y, const float* z);
int cfs_executef(cfs_planf plan, float* c, float* f);
int cfs_destroyf(cfs_planf plan);
int cfs_plan_statsf(cfs_planf plan, uint64_t* tile_chunks, uint64_t* chunk_steals,
                    uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled);

/* ---- Concurrent NUFFT service ------------------------------------------- *
 * A service instance owns dispatch threads that coalesce pending requests
 * with the same transform signature and point set into one batched execute
 * (amortizing point handling across callers), reusing plans through a
 * signature-keyed LRU registry and set_points through point fingerprints.
 * Submissions return a request handle immediately; cfs_service_wait blocks
 * for one request and yields its status. All request buffers (points,
 * input, output) must stay valid until the wait returns. */
typedef struct cfs_service_s* cfs_service;
typedef int64_t cfs_request;

/* Admission policy at the max_outstanding cap. */
enum {
  CFS_ADMIT_BLOCK = 0, /* backpressure: submit blocks until a slot frees */
  CFS_ADMIT_SHED = 1   /* fail fast: wait returns CFS_ERR_OVERLOADED */
};

/* Request latency class. */
enum {
  CFS_PRIORITY_BULK = 0,       /* rides the coalescing window */
  CFS_PRIORITY_INTERACTIVE = 1 /* closes windows early, jumps the queue */
};

/* threads = 0 reads CF_SERVICE_THREADS (else 2); max_plans = 0 -> 16 plans;
 * max_batch = 0 -> 8 coalesced requests per execute. Equivalent to
 * cfs_service_create_ex(..., 0, CFS_ADMIT_BLOCK, -1). */
int cfs_service_create(cfs_service* svc, cfs_device dev, int threads, int max_plans,
                       int max_batch);
/* Serving-quality variant. max_outstanding = 0 admits unboundedly; otherwise
 * `admission` (CFS_ADMIT_*) decides what happens to submissions past the cap.
 * window_us is the coalescing window in microseconds: dispatchers hold a
 * batch open that long (measured from its oldest request) so near-simultaneous
 * same-signature submitters coalesce; the window is adaptive — it closes
 * early when the batch is full, holds an interactive request, or the service
 * is otherwise idle. window_us < 0 reads CF_SERVICE_WINDOW_US (else 0);
 * 0 = dispatch immediately. */
int cfs_service_create_ex(cfs_service* svc, cfs_device dev, int threads,
                          int max_plans, int max_batch, int64_t max_outstanding,
                          int admission, int64_t window_us);
/* Drains outstanding requests, then stops the workers. */
int cfs_service_destroy(cfs_service svc);

/* Async transform, double precision: type 1 reads input = c (M complex
 * interleaved) and writes output = f (prod(nmodes) complex); type 2 the
 * reverse. opts->ntransf is ignored (the service batches). */
int cfs_service_submit(cfs_service svc, int type, int dim, const int64_t* nmodes,
                       int iflag, double tol, const cfs_opts* opts, size_t M,
                       const double* x, const double* y, const double* z,
                       const double* input, double* output, cfs_request* req);
/* Single-precision variant. */
int cfs_service_submitf(cfs_service svc, int type, int dim, const int64_t* nmodes,
                        int iflag, double tol, const cfs_opts* opts, size_t M,
                        const float* x, const float* y, const float* z,
                        const float* input, float* output, cfs_request* req);

/* Priority variants: `priority` is CFS_PRIORITY_BULK or
 * CFS_PRIORITY_INTERACTIVE. The plain submit calls are the BULK class. */
int cfs_service_submit_pri(cfs_service svc, int type, int dim, const int64_t* nmodes,
                           int iflag, double tol, const cfs_opts* opts, size_t M,
                           const double* x, const double* y, const double* z,
                           const double* input, double* output, int priority,
                           cfs_request* req);
int cfs_service_submitf_pri(cfs_service svc, int type, int dim, const int64_t* nmodes,
                            int iflag, double tol, const cfs_opts* opts, size_t M,
                            const float* x, const float* y, const float* z,
                            const float* input, float* output, int priority,
                            cfs_request* req);

/* Blocks until the request completes; returns its status (CFS_SUCCESS, the
 * mapped dispatch error, or CFS_ERR_OVERLOADED when the request was shed at
 * the admission cap). A handle can be waited on once. */
int cfs_service_wait(cfs_service svc, cfs_request req);

/* Monotonic counters; any pointer may be NULL. */
int cfs_service_stats(cfs_service svc, uint64_t* batches, uint64_t* batched_requests,
                      uint64_t* plan_misses, uint64_t* setpts_reuses);
/* Admission accounting. After every submitted request has been waited on,
 * submitted == completed + failed always holds; `shed` is the subset of
 * failed rejected at the admission cap. Any pointer may be NULL. */
int cfs_service_stats_ex(cfs_service svc, uint64_t* submitted, uint64_t* completed,
                         uint64_t* failed, uint64_t* shed);

/* ---- Sharded service tier ----------------------------------------------- *
 * N service shards, each owning a private device + worker pool, behind one
 * submit: requests are routed sticky-by-signature (same transform signature
 * -> same shard, keeping plan and set_points reuse hot), a saturated shard
 * spills crowded-out signatures to the least-loaded one, and the
 * max_outstanding/admission gate is GLOBAL across shards. Outputs are
 * bitwise-identical at any shard count or routing decision. The tier owns
 * its devices (no cfs_device argument). */
typedef struct cfs_sharded_s* cfs_sharded;

/* shards = 0 reads CF_SERVICE_SHARDS (else 1); device_workers = 0 splits the
 * hardware threads evenly across shards; threads/max_plans/max_batch are
 * per-shard with the cfs_service_create defaults. Equivalent to
 * cfs_sharded_create_ex(..., 0, CFS_ADMIT_BLOCK, -1). */
int cfs_sharded_create(cfs_sharded* svc, int shards, int device_workers, int threads,
                       int max_plans, int max_batch);
/* Serving-quality variant; max_outstanding/admission/window_us as in
 * cfs_service_create_ex, with the admission cap applied globally. */
int cfs_sharded_create_ex(cfs_sharded* svc, int shards, int device_workers,
                          int threads, int max_plans, int max_batch,
                          int64_t max_outstanding, int admission, int64_t window_us);
/* Drains every shard, then tears them (and their devices) down. */
int cfs_sharded_destroy(cfs_sharded svc);

/* Async type-1/2 submits, same buffer contract as cfs_service_submit(f). */
int cfs_sharded_submit(cfs_sharded svc, int type, int dim, const int64_t* nmodes,
                       int iflag, double tol, const cfs_opts* opts, size_t M,
                       const double* x, const double* y, const double* z,
                       const double* input, double* output, cfs_request* req);
int cfs_sharded_submitf(cfs_sharded svc, int type, int dim, const int64_t* nmodes,
                        int iflag, double tol, const cfs_opts* opts, size_t M,
                        const float* x, const float* y, const float* z,
                        const float* input, float* output, cfs_request* req);
/* Async type-3 submit, double precision: M sources (x/y/z) and K target
 * frequencies (s/t/u); input = c (M complex interleaved), output = f (K
 * complex). Requests with the same (dim, iflag, tol, opts) signature AND the
 * same source/target geometry coalesce onto one shard-resident plan,
 * amortizing its geometry-heavy set_points. */
int cfs_sharded_submit3(cfs_sharded svc, int dim, int iflag, double tol,
                        const cfs_opts* opts, size_t M, const double* x,
                        const double* y, const double* z, size_t K, const double* s,
                        const double* t, const double* u, const double* input,
                        double* output, cfs_request* req);

/* Blocks for one request; same status mapping as cfs_service_wait. */
int cfs_sharded_wait(cfs_sharded svc, cfs_request req);

/* Front-tier roll-up counters; any pointer may be NULL. plan_misses and
 * setpts_reuses are summed over the shards, so a single-signature stream
 * shows plan_misses == 1 at any shard count (sticky routing). */
int cfs_sharded_stats(cfs_sharded svc, int* shards, uint64_t* routed,
                      uint64_t* sticky_hits, uint64_t* migrations,
                      uint64_t* plan_misses, uint64_t* setpts_reuses);
/* Global admission ledger: submitted == completed + failed holds across all
 * shards once every request has been waited on; shed counts global-cap
 * rejections. Any pointer may be NULL. */
int cfs_sharded_stats_ex(cfs_sharded svc, uint64_t* submitted, uint64_t* completed,
                         uint64_t* failed, uint64_t* shed);
/* One shard's own counters (shard in [0, shards)). Any pointer may be NULL. */
int cfs_sharded_shard_stats(cfs_sharded svc, int shard, uint64_t* submitted,
                            uint64_t* completed, uint64_t* batches,
                            uint64_t* plan_misses);

/* ---- observability (src/obs): process-global tracing + metrics ---------- */

/* Master trace switch (default off; also settable via CF_TRACE=1). Spans
 * record into per-thread ring buffers; enabling mid-run is safe. Tracing
 * never changes output bits — it only records timings. */
int cfs_obs_enable(int on);
/* 1 if tracing is currently enabled, else 0. */
int cfs_obs_enabled(void);
/* Writes a JSON snapshot of every live service's metrics (ledger, counters,
 * log-bucketed latency histograms) to `path`. Returns CFS_ERR_INTERNAL if
 * any service's ledger snapshot violates submitted == completed + failed +
 * outstanding (the exported snapshot asserts the invariant itself). */
int cfs_obs_snapshot_json(const char* path);
/* Same snapshot as Prometheus text exposition. */
int cfs_obs_prometheus(const char* path);
/* Exports all recorded spans as Chrome trace_event JSON (load the file in
 * chrome://tracing or Perfetto). */
int cfs_obs_trace_export(const char* path);
/* Drops all recorded spans (ring buffers stay allocated). */
int cfs_obs_trace_reset(void);

/* Type-3 (nonuniform -> nonuniform) plans, double precision. setpts takes
 * both the M source points (x/y/z) and the K target frequencies (s/t/u);
 * execute writes f[k] = sum_j c_j exp(iflag*i*s_k.x_j). */
typedef struct cfs_plan3_s* cfs_plan3;
int cfs_makeplan3(cfs_device dev, int dim, int iflag, double tol, const cfs_opts* opts,
                  cfs_plan3* plan);
int cfs_setpts3(cfs_plan3 plan, size_t M, const double* x, const double* y,
                const double* z, size_t K, const double* s, const double* t,
                const double* u);
int cfs_execute3(cfs_plan3 plan, double* c, double* f);
int cfs_destroy3(cfs_plan3 plan);

#ifdef __cplusplus
}
#endif

#endif /* CUFINUFFT_SIM_C_API_H_ */
