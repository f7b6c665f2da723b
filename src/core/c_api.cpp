#include "core/c_api.h"

#include <complex>
#include <future>
#include <mutex>
#include <new>
#include <unordered_map>

#include "core/plan.hpp"
#include "core/type3.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "vgpu/device.hpp"

namespace {

using cf::core::Method;
using cf::core::Options;
using cf::core::Plan;

Options to_options(const cfs_opts* opts) {
  Options o;
  if (!opts) return o;
  switch (opts->gpu_method) {
    case CFS_METHOD_GM: o.method = Method::GM; break;
    case CFS_METHOD_GMSORT: o.method = Method::GMSort; break;
    case CFS_METHOD_SM: o.method = Method::SM; break;
    default: o.method = Method::Auto; break;
  }
  if (opts->gpu_binsizex > 0)
    o.binsize = {opts->gpu_binsizex, opts->gpu_binsizey > 0 ? opts->gpu_binsizey : 1,
                 opts->gpu_binsizez > 0 ? opts->gpu_binsizez : 1};
  if (opts->ntransf > 0) o.ntransf = opts->ntransf;
  o.modeord = opts->modeord == 1 ? 1 : 0;
  if (opts->upsampfac > 0) o.upsampfac = opts->upsampfac;
  return o;
}

template <typename P>
int plan_stats_impl(P* p, uint64_t* tile_chunks, uint64_t* chunk_steals,
                    uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled) {
  if (!p) return CFS_ERR_INVALID_ARG;
  const auto bd = p->last_breakdown();
  if (tile_chunks) *tile_chunks = bd.tile_chunks;
  if (chunk_steals) *chunk_steals = bd.chunk_steals;
  if (max_tile_points) *max_tile_points = bd.max_tile_points;
  if (tiles_active) *tiles_active = bd.tiles_active;
  if (tiled) *tiled = bd.tiled;
  return CFS_SUCCESS;
}

/// C-side service wrapper: the futures API becomes handle + wait.
struct ServiceHandle {
  explicit ServiceHandle(cf::vgpu::Device& dev, cf::service::ServiceConfig cfg)
      : svc(dev, cfg) {}

  cf::service::NufftService svc;
  std::mutex mu;
  std::unordered_map<int64_t, std::future<cf::service::ExecReport>> inflight;
  int64_t next_id = 1;
};

/// Translates the C descriptor into a typed request (the caller checked
/// precision, priority, dim, and nmodes) and submits it.
template <typename T>
std::future<cf::service::ExecReport> submit_request(cf::service::NufftService& svc,
                                                    const cfs_service_request& d) {
  cf::service::Request<T> r;
  r.type = d.type;
  if (d.type == 3)
    r.modes.assign(static_cast<std::size_t>(d.dim), 1);  // type 3: dim only
  else
    r.modes.assign(d.nmodes, d.nmodes + d.dim);
  r.iflag = d.iflag;
  r.tol = d.tol;
  r.opts = to_options(d.opts);
  r.priority = d.priority == CFS_PRIORITY_INTERACTIVE
                   ? cf::service::Priority::Interactive
                   : cf::service::Priority::Bulk;
  r.M = d.M;
  r.x = static_cast<const T*>(d.x);
  r.y = static_cast<const T*>(d.y);
  r.z = static_cast<const T*>(d.z);
  r.K = d.K;
  r.s = static_cast<const T*>(d.s);
  r.t = static_cast<const T*>(d.t);
  r.u = static_cast<const T*>(d.u);
  r.input = static_cast<const std::complex<T>*>(d.input);
  r.output = static_cast<std::complex<T>*>(d.output);
  return svc.submit(r);
}

template <typename T, typename PlanPtr>
int make_plan_impl(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                   double tol, const cfs_opts* opts, PlanPtr* out) {
  if (!dev || !nmodes || !out || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  try {
    auto* d = reinterpret_cast<cf::vgpu::Device*>(dev);
    auto* p = new Plan<T>(*d, type, std::span(nmodes, static_cast<std::size_t>(dim)),
                          iflag, tol, to_options(opts));
    *out = reinterpret_cast<PlanPtr>(p);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (const std::bad_alloc&) {
    return CFS_ERR_INTERNAL;
  } catch (...) {
    return CFS_ERR_METHOD_UNAVAILABLE;
  }
}

}  // namespace

extern "C" {

void cfs_default_opts(cfs_opts* opts) {
  if (!opts) return;
  opts->gpu_method = CFS_METHOD_AUTO;
  opts->gpu_binsizex = opts->gpu_binsizey = opts->gpu_binsizez = 0;
  opts->ntransf = 0;
  opts->modeord = 0;
  opts->upsampfac = 0.0; /* default sigma = 2 */
}

int cfs_device_create(cfs_device* dev, int workers) {
  if (!dev || workers < 0) return CFS_ERR_INVALID_ARG;
  try {
    *dev = reinterpret_cast<cfs_device>(
        new cf::vgpu::Device(static_cast<std::size_t>(workers)));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_device_destroy(cfs_device dev) {
  delete reinterpret_cast<cf::vgpu::Device*>(dev);
  return CFS_SUCCESS;
}

size_t cfs_device_bytes_in_use(cfs_device dev) {
  if (!dev) return 0;
  return reinterpret_cast<cf::vgpu::Device*>(dev)->bytes_in_use();
}

int cfs_makeplan(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                 double tol, const cfs_opts* opts, cfs_plan* plan) {
  return make_plan_impl<double>(dev, type, dim, nmodes, iflag, tol, opts, plan);
}

int cfs_setpts(cfs_plan plan, size_t M, const double* x, const double* y,
               const double* z) {
  if (!plan || !x) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<double>*>(plan)->set_points(M, x, y, z);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_execute(cfs_plan plan, double* c, double* f) {
  if (!plan) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<double>*>(plan)->execute(
        reinterpret_cast<std::complex<double>*>(c),
        reinterpret_cast<std::complex<double>*>(f));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_destroy(cfs_plan plan) {
  delete reinterpret_cast<Plan<double>*>(plan);
  return CFS_SUCCESS;
}

int cfs_plan_stats(cfs_plan plan, uint64_t* tile_chunks, uint64_t* chunk_steals,
                   uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled) {
  return plan_stats_impl(reinterpret_cast<Plan<double>*>(plan), tile_chunks,
                         chunk_steals, max_tile_points, tiles_active, tiled);
}

int cfs_makeplanf(cfs_device dev, int type, int dim, const int64_t* nmodes, int iflag,
                  double tol, const cfs_opts* opts, cfs_planf* plan) {
  return make_plan_impl<float>(dev, type, dim, nmodes, iflag, tol, opts, plan);
}

int cfs_setptsf(cfs_planf plan, size_t M, const float* x, const float* y,
                const float* z) {
  if (!plan || !x) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<float>*>(plan)->set_points(M, x, y, z);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_executef(cfs_planf plan, float* c, float* f) {
  if (!plan) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<Plan<float>*>(plan)->execute(
        reinterpret_cast<std::complex<float>*>(c),
        reinterpret_cast<std::complex<float>*>(f));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_destroyf(cfs_planf plan) {
  delete reinterpret_cast<Plan<float>*>(plan);
  return CFS_SUCCESS;
}

int cfs_plan_statsf(cfs_planf plan, uint64_t* tile_chunks, uint64_t* chunk_steals,
                    uint64_t* max_tile_points, uint64_t* tiles_active, int* tiled) {
  return plan_stats_impl(reinterpret_cast<Plan<float>*>(plan), tile_chunks,
                         chunk_steals, max_tile_points, tiles_active, tiled);
}

void cfs_default_service_config(cfs_service_config* cfg) {
  if (!cfg) return;
  cfg->threads = 0;
  cfg->max_plans = 0;
  cfg->max_batch = 0;
  cfg->max_outstanding = 0;
  cfg->admission = CFS_ADMIT_BLOCK;
  cfg->window_us = -1;
}

int cfs_service_create(cfs_service* svc, cfs_device dev, const cfs_service_config* cfg) {
  cfs_service_config c;
  cfs_default_service_config(&c);
  if (cfg) c = *cfg;
  if (!svc || !dev || c.threads < 0 || c.max_plans < 0 || c.max_batch < 0 ||
      c.max_outstanding < 0 ||
      (c.admission != CFS_ADMIT_BLOCK && c.admission != CFS_ADMIT_SHED))
    return CFS_ERR_INVALID_ARG;
  try {
    cf::service::ServiceConfig sc;
    sc.threads = c.threads;
    if (c.max_plans > 0) sc.max_plans = static_cast<std::size_t>(c.max_plans);
    if (c.max_batch > 0) sc.max_batch = c.max_batch;
    sc.max_outstanding = static_cast<std::size_t>(c.max_outstanding);
    sc.admission = c.admission == CFS_ADMIT_SHED ? cf::service::Admission::Shed
                                                 : cf::service::Admission::Block;
    // window_us < 0 keeps the config's auto sentinel (CF_SERVICE_WINDOW_US).
    if (c.window_us >= 0) sc.coalesce_window = std::chrono::microseconds(c.window_us);
    *svc = reinterpret_cast<cfs_service>(
        new ServiceHandle(*reinterpret_cast<cf::vgpu::Device*>(dev), sc));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_service_destroy(cfs_service svc) {
  delete reinterpret_cast<ServiceHandle*>(svc);
  return CFS_SUCCESS;
}

int cfs_service_submit(cfs_service svc, const cfs_service_request* request,
                       cfs_request* req) {
  if (!svc || !request || !req) return CFS_ERR_INVALID_ARG;
  const cfs_service_request& d = *request;
  if ((d.precision != CFS_PRECISION_DOUBLE && d.precision != CFS_PRECISION_SINGLE) ||
      (d.priority != CFS_PRIORITY_BULK && d.priority != CFS_PRIORITY_INTERACTIVE) ||
      d.dim < 1 || d.dim > 3 || (d.type != 3 && !d.nmodes))
    return CFS_ERR_INVALID_ARG;
  try {
    auto* h = reinterpret_cast<ServiceHandle*>(svc);
    auto fut = d.precision == CFS_PRECISION_DOUBLE ? submit_request<double>(h->svc, d)
                                                   : submit_request<float>(h->svc, d);
    std::lock_guard lk(h->mu);
    const int64_t id = h->next_id++;
    h->inflight.emplace(id, std::move(fut));
    *req = id;
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_service_wait(cfs_service svc, cfs_request req) {
  if (!svc) return CFS_ERR_INVALID_ARG;
  auto* h = reinterpret_cast<ServiceHandle*>(svc);
  std::future<cf::service::ExecReport> fut;
  {
    std::lock_guard lk(h->mu);
    auto it = h->inflight.find(req);
    if (it == h->inflight.end()) return CFS_ERR_INVALID_ARG;
    fut = std::move(it->second);
    h->inflight.erase(it);
  }
  try {
    fut.get();
    return CFS_SUCCESS;
  } catch (const cf::service::OverloadedError&) {
    return CFS_ERR_OVERLOADED;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_service_stats(cfs_service svc, struct cfs_service_stats* stats) {
  if (!svc || !stats) return CFS_ERR_INVALID_ARG;
  const auto s = reinterpret_cast<ServiceHandle*>(svc)->svc.stats();
  stats->submitted = s.submitted;
  stats->completed = s.completed;
  stats->failed = s.failed;
  stats->shed = s.shed;
  stats->batches = s.batches;
  stats->batched_requests = s.batched_requests;
  stats->max_batch_seen = s.max_batch_seen;
  stats->plan_hits = s.plan_hits;
  stats->plan_misses = s.plan_misses;
  stats->plan_evictions = s.plan_evictions;
  stats->setpts_builds = s.setpts_builds;
  stats->setpts_reuses = s.setpts_reuses;
  return CFS_SUCCESS;
}

int cfs_obs_enable(int on) {
  cf::obs::set_enabled(on != 0);
  return CFS_SUCCESS;
}

int cfs_obs_enabled(void) { return cf::obs::enabled() ? 1 : 0; }

int cfs_obs_snapshot_json(const char* path) {
  if (!path) return CFS_ERR_INVALID_ARG;
  bool consistent = true;
  const std::string json = cf::obs::json_string(&consistent);
  if (!cf::obs::write_text_file(path, json)) return CFS_ERR_INTERNAL;
  // The exported snapshot asserts the ledger invariant on itself: a torn or
  // leaking ledger is an internal error, not a caller mistake.
  return consistent ? CFS_SUCCESS : CFS_ERR_INTERNAL;
}

int cfs_obs_prometheus(const char* path) {
  if (!path) return CFS_ERR_INVALID_ARG;
  return cf::obs::write_text_file(path, cf::obs::prometheus_string())
             ? CFS_SUCCESS
             : CFS_ERR_INTERNAL;
}

int cfs_obs_trace_export(const char* path) {
  if (!path) return CFS_ERR_INVALID_ARG;
  return cf::obs::export_chrome_trace(path) ? CFS_SUCCESS : CFS_ERR_INTERNAL;
}

int cfs_obs_trace_reset(void) {
  cf::obs::reset_trace();
  return CFS_SUCCESS;
}

int cfs_makeplan3(cfs_device dev, int dim, int iflag, double tol, const cfs_opts* opts,
                  cfs_plan3* plan) {
  if (!dev || !plan || dim < 1 || dim > 3) return CFS_ERR_INVALID_ARG;
  try {
    auto* d = reinterpret_cast<cf::vgpu::Device*>(dev);
    *plan = reinterpret_cast<cfs_plan3>(
        new cf::core::Type3Plan<double>(*d, dim, iflag, tol, to_options(opts)));
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_setpts3(cfs_plan3 plan, size_t M, const double* x, const double* y,
                const double* z, size_t K, const double* s, const double* t,
                const double* u) {
  if (!plan || !x || !s) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<cf::core::Type3Plan<double>*>(plan)->set_points(M, x, y, z, K, s, t,
                                                                     u);
    return CFS_SUCCESS;
  } catch (const std::invalid_argument&) {
    return CFS_ERR_INVALID_ARG;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_execute3(cfs_plan3 plan, double* c, double* f) {
  if (!plan) return CFS_ERR_INVALID_ARG;
  try {
    reinterpret_cast<cf::core::Type3Plan<double>*>(plan)->execute(
        reinterpret_cast<std::complex<double>*>(c),
        reinterpret_cast<std::complex<double>*>(f));
    return CFS_SUCCESS;
  } catch (...) {
    return CFS_ERR_INTERNAL;
  }
}

int cfs_destroy3(cfs_plan3 plan) {
  delete reinterpret_cast<cf::core::Type3Plan<double>*>(plan);
  return CFS_SUCCESS;
}

}  // extern "C"
