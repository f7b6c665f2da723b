#include "core/plan.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/timer.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "vgpu/primitives.hpp"

namespace cf::core {

const char* method_name(Method m) {
  switch (m) {
    case Method::Auto: return "auto";
    case Method::GM: return "GM";
    case Method::GMSort: return "GM-sort";
    case Method::SM: return "SM";
  }
  return "?";
}

namespace {

std::vector<std::size_t> fft_dims(const spread::GridSpec& g) {
  std::vector<std::size_t> dims;
  for (int d = 0; d < g.dim; ++d) dims.push_back(static_cast<std::size_t>(g.nf[d]));
  return dims;
}

// The FFT's mode band (spread::make_grid, in the same initializer, rejects a
// count below 1 before the FFT is built).
std::vector<std::size_t> band_modes(std::span<const std::int64_t> nmodes) {
  return std::vector<std::size_t>(nmodes.begin(), nmodes.end());
}

}  // namespace

template <typename T>
Plan<T>::Plan(vgpu::Device& dev, int type, std::span<const std::int64_t> nmodes, int iflag,
              double tol, Options opts)
    : dev_(&dev),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      tol_(tol),
      opts_(opts),
      kp_(spread::KernelParams<T>::from_width(
          spread::width_from_tol(tol, opts.upsampfac), opts.upsampfac)),
      fft_(dev.pool(),
           fft_dims(spread::make_grid(nmodes, opts.upsampfac,
                                      spread::width_from_tol(tol, opts.upsampfac))),
           band_modes(nmodes)) {
  // from_width, above, has rejected any upsampfac but 2.0 and 1.25.
  if (type_ != 1 && type_ != 2) throw std::invalid_argument("Plan: type must be 1 or 2");

  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];
  grid_ = spread::make_grid(nmodes, opts_.upsampfac, kp_.w);

  bins_ = spread::spread_bins(grid_, opts_.binsize, false, kp_.w);

  // Method resolution (paper Sec. III + Rmk. 2).
  method_ = opts_.method;
  if (method_ == Method::Auto) {
    if (type_ == 1 && spread::sm_fits<T>(*dev_, grid_, bins_, kp_.w))
      method_ = Method::SM;
    else
      method_ = Method::GMSort;
  }
  if (method_ == Method::SM) {
    if (type_ == 2)
      throw std::invalid_argument("Plan: SM applies to type 1 only (paper Sec. III-B)");
    if (!spread::sm_fits<T>(*dev_, grid_, bins_, kp_.w))
      throw std::invalid_argument(
          "Plan: SM padded bin exceeds shared memory for this precision/dim "
          "(paper Rmk. 2); use GM-sort");
  }
  need_sort_ = (method_ == Method::GMSort || method_ == Method::SM);
  // Every sorted type-1 spread runs on the tile engine, whose scratch lives
  // in global memory, not the shared memory the paper's bins are sized for:
  // it takes halo-proportioned tiles unless the caller chose bins, clamped
  // to the fine grid (spread_bins). The method above stays on the paper bins.
  bins_ = spread::spread_bins(grid_, opts_.binsize, on_tile_engine(), kp_.w);

  // One fine-grid plane per stacked vector, so a batched execute spreads,
  // transforms, and deconvolves the whole ntransf stack without reusing (and
  // thus serializing on) a single plane.
  const std::size_t nplanes = static_cast<std::size_t>(std::max(1, opts_.ntransf));
  fw_ = vgpu::device_buffer<cplx>(*dev_,
                                  nplanes * static_cast<std::size_t>(grid_.total()));

  // Deconvolution factors per dimension (planning-stage precompute).
  const T beta = kp_.beta;
  auto kernel = [beta](double z) { return double(spread::es_eval(T(z), beta)); };
  for (int d = 0; d < grid_.dim; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(N_[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), kp_.w,
                                        kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = grid_.dim; d < 3; ++d) fser_[d].assign(1, T(1));
}

template <typename T>
spread::NuPoints<T> Plan<T>::nu_points() const {
  return spread::NuPoints<T>{xg_.data(), grid_.dim >= 2 ? yg_.data() : nullptr,
                             grid_.dim >= 3 ? zg_.data() : nullptr, M_};
}

// Iteration order + no-wrap prefix for the per-point GM/GM-sort kernels:
// the interior-first partition when built, else the plain sort permutation
// (GM-sort) or user order (GM) with every point on the wrap path.
template <typename T>
const std::uint32_t* Plan<T>::iter_order(std::size_t& n_nowrap) const {
  if (cache_.valid && !cache_.interior.empty()) {
    n_nowrap = cache_.interior.n_interior;
    return cache_.interior.order.data();
  }
  n_nowrap = 0;
  return method_ == Method::GM ? nullptr : sort_.order.data();
}

template <typename T>
void Plan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  spread::check_point_count(M);
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  std::lock_guard lk(mu_);  // a shared plan may be re-pointed while others wait
  M_ = 0;  // no usable points until the new ones pass the finiteness check
  cache_.invalidate();  // previous points' caches are stale from here on
  Timer t;
  xg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 2) yg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 3) zg_ = vgpu::device_buffer<T>(*dev_, M);
  const std::int64_t nf0 = grid_.nf[0], nf1 = grid_.nf[1], nf2 = grid_.nf[2];
  const int dim = grid_.dim;
  // A NaN or Inf coordinate folds to NaN, whose bin index is undefined, so
  // the fold pass also checks finiteness and the sort never sees one.
  std::atomic<bool> finite{true};
  dev_->launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    xg_[j] = spread::fold_rescale(x[j], nf0);
    if (dim >= 2) yg_[j] = spread::fold_rescale(y[j], nf1);
    if (dim >= 3) zg_[j] = spread::fold_rescale(z[j], nf2);
    if (!(std::isfinite(x[j]) && (dim < 2 || std::isfinite(y[j])) &&
          (dim < 3 || std::isfinite(z[j]))))
      finite.store(false, std::memory_order_relaxed);
  });
  if (!finite.load()) throw std::invalid_argument("set_points: non-finite coordinate");
  M_ = M;
  if (need_sort_)
    spread::bin_sort(*dev_, grid_, bins_, xg_.data(), dim >= 2 ? yg_.data() : nullptr,
                     dim >= 3 ? zg_.data() : nullptr, M, sort_);
  bd_ = Breakdown{};
  bd_.sort = t.seconds();

  // Plan-resident PointCache: everything that depends on the points but not
  // the strengths is paid here, once, and amortized over repeated executes.
  Timer tc;
  if (M_ > 0) {
    spread::NuPoints<T> pts{xg_.data(), dim >= 2 ? yg_.data() : nullptr,
                            dim >= 3 ? zg_.data() : nullptr, M_};
    const std::uint32_t* order = need_sort_ ? sort_.order.data() : nullptr;
    if (on_tile_engine())
      spread::build_tile_set(*dev_, grid_, bins_, kp_.w, sort_,
                             std::max(1, opts_.ntransf), cache_.tiles);
    // SM streams a tap table built here; GM-sort evaluates the same taps
    // inline every execute (bitwise-identical, see spread_tiled.cpp) and
    // keeps the memory the table would take.
    if (method_ == Method::SM) {
      spread::build_tap_table(*dev_, grid_.dim, kp_, pts, order, cache_.taps);
      ++tap_builds_;
    }
    // The partition only feeds the atomic GM spread and interp; the tile
    // engine would not read it, so tiled plans skip it — interior_points
    // then reads 0 for them.
    if (!on_tile_engine())
      spread::classify_interior(*dev_, grid_, kp_, pts, order, cache_.interior);
    // Valid only when something was actually built — cache_hits must mean
    // "an execute consumed plan-resident data".
    cache_.valid =
        !cache_.taps.empty() || !cache_.interior.empty() || cache_.tiles.usable;
  }
  bd_.cache_build = tc.seconds();
  bd_.tap_builds = tap_builds_.load(std::memory_order_relaxed);
  bd_.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  bd_.interior_points = cache_.interior.n_interior;
  bd_.boundary_points = cache_.interior.n_boundary;
  bd_.tiles_active = cache_.tiles.n_active;
  bd_.tile_colors = cache_.tiles.n_colors;
  bd_.arena_bytes = cache_.tiles.arena_bytes;
  bd_.tile_chunks = cache_.tiles.n_chunks;
  bd_.max_tile_points = cache_.tiles.max_tile_points;
}

template <typename T>
void Plan<T>::spread_step(const cplx* c, int B, Breakdown& bd) {
  auto pts = nu_points();
  const std::size_t fwstride = static_cast<std::size_t>(grid_.total());
  vgpu::fill(*dev_, std::span(fw_.data(), static_cast<std::size_t>(B) * fwstride),
             cplx(0, 0));
  bd.tiled = 0;
  switch (method_) {
    case Method::GM: {
      // GM stays on the atomic path by definition (the unsorted baseline and
      // the determinism contract's one exception); it still benefits from
      // the interior-first partition.
      std::size_t nowrap = 0;
      const std::uint32_t* order = iter_order(nowrap);
      pts.n_nowrap = nowrap;
      spread::spread_gm_batch<T>(*dev_, grid_, kp_, pts, c, fw_.data(), order, B, M_,
                                 fwstride);
      break;
    }
    case Method::GMSort:
    case Method::SM: {
      // Tile-owned writeback. SM streams the tap table set_points built;
      // GM-sort evaluates taps inline (same values, see spread_tiled.cpp).
      const spread::TapTable<T>* taps = cache_.taps.empty() ? nullptr : &cache_.taps;
      bd.chunk_steals = spread::spread_tiled_batch<T>(*dev_, grid_, bins_, kp_, pts, c,
                                                      fw_.data(), sort_, cache_.tiles,
                                                      taps, B, M_, fwstride);
      bd.tiled = 1;
      break;
    }
    default:
      throw std::logic_error("unresolved method");
  }
}

template <typename T>
void Plan<T>::interp_step(cplx* c, int B) {
  auto pts = nu_points();
  std::size_t nowrap = 0;
  const std::uint32_t* order = iter_order(nowrap);
  pts.n_nowrap = nowrap;
  spread::interp_batch<T>(*dev_, grid_, kp_, pts, fw_.data(), c, order, B, M_,
                          static_cast<std::size_t>(grid_.total()));
}

// Type-1 step 3 (paper eq. (10)): truncate to the central modes and scale.
// One launch covers the whole ntransf stack, with the per-mode index math and
// correction-factor product computed once per mode.
template <typename T>
void Plan<T>::deconvolve_type1(cplx* f, int B) {
  const auto N = N_;
  const auto nf = grid_.nf;
  const int mo = opts_.modeord;
  const std::int64_t ntot = modes_total();
  const std::size_t fwstride = static_cast<std::size_t>(grid_.total());
  const T* p0 = fser_[0].data();
  const T* p1 = fser_[1].data();
  const T* p2 = fser_[2].data();
  const cplx* fw = fw_.data();
  dev_->launch_items(static_cast<std::size_t>(ntot), 256,
                     [=, this](std::size_t i, vgpu::BlockCtx&) {
    const std::int64_t i0 = static_cast<std::int64_t>(i) % N[0];
    const std::int64_t i1 = (static_cast<std::int64_t>(i) / N[0]) % N[1];
    const std::int64_t i2 = static_cast<std::int64_t>(i) / (N[0] * N[1]);
    const std::int64_t k0 = spread::index_to_mode(i0, N[0], mo);
    const std::int64_t k1 = spread::index_to_mode(i1, N[1], mo);
    const std::int64_t k2 = spread::index_to_mode(i2, N[2], mo);
    const std::int64_t g0 = spread::wrap_index(k0, nf[0]);
    const std::int64_t g1 = spread::wrap_index(k1, nf[1]);
    const std::int64_t g2 = spread::wrap_index(k2, nf[2]);
    const T p = p0[k0 + N[0] / 2] * p1[k1 + N[1] / 2] * p2[k2 + N[2] / 2];
    const std::int64_t lin = g0 + nf[0] * (g1 + nf[1] * g2);
    for (int b = 0; b < B; ++b)
      f[b * static_cast<std::size_t>(ntot) + i] = fw[b * fwstride + lin] * p;
  });
}

template <typename T>
Breakdown Plan<T>::execute(cplx* c, cplx* f, int B) {
  std::lock_guard lk(mu_);  // shared plans serialize; each caller snapshots
  if (B <= 0) B = std::max(1, opts_.ntransf);
  // The B-plane fine-grid stack (which bounds the B-plane mode stack) must
  // be addressable before anything is sized or indexed by it.
  const std::size_t fwstride = static_cast<std::size_t>(grid_.total());
  std::size_t stack;
  if (__builtin_mul_overflow(static_cast<std::size_t>(B), fwstride, &stack) ||
      stack > static_cast<std::size_t>(INT64_MAX))
    throw std::invalid_argument("execute: B * fine-grid size overflows");
  if (M_ == 0) {
    // No points set: type 1 yields zero output; type 2 writes nothing.
    if (type_ == 1)
      for (std::int64_t i = 0; i < B * modes_total(); ++i) f[i] = cplx(0, 0);
    return bd_;
  }
  // Per-execute snapshot: starts from the set_points-era fields (sort /
  // cache_build / classification) and records THIS execute's stage timings,
  // so concurrent callers on a shared plan never see each other's numbers.
  Breakdown bd = bd_;
  bd.spread = bd.fft = bd.deconvolve = bd.interp = 0;
  bd.chunk_steals = 0;  // per-execute counter, refilled by a tiled spread_step
  if (cache_.valid) cache_hits_.fetch_add(1, std::memory_order_relaxed);
  // A coalesced batch larger than the constructed ntransf grows the fine-grid
  // stack once; the batch-strided stages take B as a plain parameter.
  if (stack > fw_.size()) fw_ = vgpu::device_buffer<cplx>(*dev_, stack);
  // One stage pipeline for every batch size: batch-strided spread/interp,
  // one batched FFT launch over the B planes, one deconvolve launch (type-2's
  // amplify is fused into the FFT's first-axis pass). B = 1 runs the same
  // kernels at batch size one.
  Timer t;
  if (type_ == 1) {
    spread_step(c, B, bd);
    bd.spread = t.seconds();
    t.reset();
    // Mode-pruned: only the band deconvolve reads holds the full transform.
    // The other points keep partial sums, which is safe because spread_step
    // zero-fills fw_ before every spread.
    fft_.exec_batch(fw_.data(), static_cast<std::size_t>(B), fwstride, iflag_,
                    fft::Band::out);
    bd.fft = t.seconds();
    t.reset();
    deconvolve_type1(f, B);
    bd.deconvolve = t.seconds();
  } else {
    // Fused amplify + FFT (type-2 step 1, paper eq. (11)): fw_'s rows are
    // produced by amplify_fine_row inside the first-axis pass (zero-padding
    // rows skip their transforms entirely), removing the separate amplify
    // write pass over the B-plane fine grid. Its cost is reported under
    // bd.fft.
    fft_.exec_batch_fused(
        fw_.data(), static_cast<std::size_t>(B), fwstride, iflag_, fft::Band::in,
        [&](cplx* row, std::size_t line, std::size_t b) {
          return spread::amplify_fine_row(
              row, line, f + b * static_cast<std::size_t>(modes_total()), grid_.dim,
              N_, grid_.nf, fser_, opts_.modeord);
        });
    bd.fft = t.seconds();
    t.reset();
    interp_step(c, B);
    bd.interp = t.seconds();
  }
  bd.tap_builds = tap_builds_.load(std::memory_order_relaxed);
  bd.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  bd_ = bd;
  return bd;
}

template class Plan<float>;
template class Plan<double>;

}  // namespace cf::core
