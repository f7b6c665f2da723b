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
  CFS_METHOD_SM = 3       /* load-balanced blocked spread with a cached tap
                             table (type 1 only) */
};

/* Tunable options; zero-initialize then override (cufinufft_default_opts).
 * The width-specialized kernels, the Horner-table kernel evaluation
 * (cufinufft's Horner option; there is no exp/sqrt path), the interior-first
 * no-wrap partition of the atomic spread and interp, and the tile-owned
 * atomic-free writeback of every SM and GM-sort type-1 spread (with its fixed
 * chunk cap) always run, and SM always builds its tap table once in setpts
 * (GM-sort evaluates the same taps inline); they are not options. SM and
 * GM-sort type-1 output is bitwise-identical, to each other and at any
 * worker count; GM's atomic spread is not. */
typedef struct {
  int gpu_method;        /* CFS_METHOD_* */
  int gpu_binsizex, gpu_binsizey, gpu_binsizez; /* 0 = paper defaults */
  int ntransf;            /* stacked vectors per execute; 0 = 1 */
  int modeord;            /* 0 = CMCL (-N/2..N/2-1), 1 = FFT-style */
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
 * iflag is the sign of i in the exponent; tol the requested accuracy, a
 * positive normal number below 1 (else CFS_ERR_INVALID_ARG). */
int cfs_makeplan(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                 double tol, const cfs_opts* opts, cfs_plan* plan);
int cfs_setpts(cfs_plan plan, size_t M, const double* x, const double* y,
               const double* z);
/* Type 1 reads c (M complex interleaved) and writes f (prod(nmodes));
 * type 2 reads f and writes c. The input is not checked: NaN in, NaN out,
 * and the plan stays usable (a later execute on finite input gives a fresh
 * plan's bits). */
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

/* Request precision: the descriptor's point, frequency, input and output
 * arrays are double (and interleaved complex double) or float. */
enum {
  CFS_PRECISION_DOUBLE = 0,
  CFS_PRECISION_SINGLE = 1
};

/* Service settings; fill with cfs_default_service_config, then override. */
typedef struct {
  int threads;             /* dispatch threads; 0 reads CF_SERVICE_THREADS
                              (else 2) */
  int max_plans;           /* LRU plan registry capacity; 0 = 16 plans */
  int max_batch;           /* coalesced requests per execute; 0 = 8 */
  int64_t max_outstanding; /* admission cap on submitted requests not yet
                              served; 0 = unbounded */
  int admission;           /* CFS_ADMIT_*: what happens past the cap */
  int64_t window_us;       /* coalescing window in microseconds: dispatchers
                              hold a batch open that long (from its oldest
                              request) so near-simultaneous same-signature
                              submitters coalesce. The window is adaptive: it
                              closes early when the batch is full, holds an
                              interactive request, or the service is
                              otherwise idle. < 0 reads CF_SERVICE_WINDOW_US
                              (else 0); 0 = dispatch immediately. */
} cfs_service_config;

/* Defaults: threads 0, max_plans 0, max_batch 0, max_outstanding 0,
 * CFS_ADMIT_BLOCK, window_us -1. */
void cfs_default_service_config(cfs_service_config* cfg);

/* cfg = NULL uses cfs_default_service_config. */
int cfs_service_create(cfs_service* svc, cfs_device dev, const cfs_service_config* cfg);
/* Drains outstanding requests, then stops the workers. */
int cfs_service_destroy(cfs_service svc);

/* One transform request; zero-initialize, then fill in. Every pointer is
 * borrowed and must stay valid until cfs_service_wait returns. */
typedef struct {
  int precision;         /* CFS_PRECISION_* */
  int type;              /* 1, 2 or 3 */
  int dim;               /* 1..3 */
  const int64_t* nmodes; /* dim mode counts (types 1/2; type 3 ignores it) */
  int iflag;             /* +1 or -1 (0 is rejected as ambiguous) */
  double tol;
  const cfs_opts* opts;  /* NULL = defaults; ntransf is ignored (the service
                            batches) */
  int priority;          /* CFS_PRIORITY_* */
  size_t M;              /* nonuniform points x/y/z (y for dim >= 2, z for 3) */
  const void* x;
  const void* y;
  const void* z;
  size_t K;              /* type 3: target frequencies s/t/u */
  const void* s;
  const void* t;
  const void* u;
  const void* input;     /* type 1/3: c (M complex); type 2: f (prod(nmodes)) */
  void* output;          /* type 1: f (prod(nmodes)); type 2: c (M);
                            type 3: f (K complex) */
} cfs_service_request;

/* Async transform: returns a request handle immediately (or blocks at the
 * cap under CFS_ADMIT_BLOCK). Returns CFS_ERR_INVALID_ARG at once for a NULL
 * argument, an unknown precision or priority, dim outside 1..3, or NULL
 * nmodes on a type-1/2 request; any other bad request (iflag 0, missing
 * buffers, a type-3 request with no sources or targets, a bad signature) is
 * reported by cfs_service_wait. Requests with the same signature and point
 * set coalesce; type-3 requests share the plan's set_points and execute one
 * by one. */
int cfs_service_submit(cfs_service svc, const cfs_service_request* request,
                       cfs_request* req);

/* Blocks until the request completes; returns its status (CFS_SUCCESS, the
 * mapped dispatch error, or CFS_ERR_OVERLOADED when the request was shed at
 * the admission cap). A handle can be waited on once. */
int cfs_service_wait(cfs_service svc, cfs_request req);

/* Monotonic service counters. Once every submitted request has been waited
 * on, submitted == completed + failed; shed is the subset of failed rejected
 * at the admission cap. */
struct cfs_service_stats {
  uint64_t submitted;
  uint64_t completed;        /* requests fulfilled with a result */
  uint64_t failed;           /* requests fulfilled with an error */
  uint64_t shed;             /* rejected at max_outstanding (subset of failed) */
  uint64_t batches;          /* coalesced executes dispatched */
  uint64_t batched_requests; /* requests those executes served */
  uint64_t max_batch_seen;   /* largest coalesced batch so far */
  uint64_t plan_hits;        /* registry signature hits */
  uint64_t plan_misses;      /* plans constructed */
  uint64_t plan_evictions;   /* LRU evictions */
  uint64_t setpts_builds;    /* set_points actually run */
  uint64_t setpts_reuses;    /* dispatches served by a point-set match */
};
int cfs_service_stats(cfs_service svc, struct cfs_service_stats* stats);

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
