#include "core/type3.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/fft.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/primitives.hpp"

namespace cf::core {

namespace {

/// Center and half-width of a coordinate array (host-side reduction). Throws
/// std::invalid_argument on a NaN or Inf coordinate, which would otherwise
/// reach the bin sort as an undefined bin index.
template <typename T>
void center_halfwidth(const T* v, std::size_t n, double& center, double& half) {
  double lo = v[0], hi = v[0];
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i]))
      throw std::invalid_argument("Type3Plan: non-finite coordinate");
    lo = std::min(lo, double(v[i]));
    hi = std::max(hi, double(v[i]));
  }
  center = 0.5 * (lo + hi);
  half = std::max(0.5 * (hi - lo), 1e-6);  // clamp degenerate clouds
}

}  // namespace

template <typename T>
Type3Plan<T>::Type3Plan(vgpu::Device& dev, int dim, int iflag, double tol, Options opts)
    : dev_(&dev),
      dim_(dim),
      iflag_(iflag >= 0 ? 1 : -1),
      tol_(tol),
      opts_(opts),
      kp_(spread::KernelParams<T>::from_width(
          spread::width_from_tol(tol, opts.upsampfac), opts.upsampfac)) {
  // from_width, above, has rejected any upsampfac but 2.0 and 1.25.
  if (dim < 1 || dim > 3) throw std::invalid_argument("Type3Plan: dim must be 1..3");
}

template <typename T>
void Type3Plan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z,
                              std::size_t K, const T* s, const T* t, const T* u) {
  spread::check_point_count(M);
  spread::check_point_count(K);
  const T* xs[3] = {x, y, z};
  const T* ss[3] = {s, t, u};
  for (int d = 0; d < dim_; ++d)
    if (!xs[d] || !ss[d])
      throw std::invalid_argument("Type3Plan: missing coordinate array");
  if (M == 0 || K == 0) throw std::invalid_argument("Type3Plan: empty point sets");

  // Geometry: centers, half-widths, scales, fine grid (see header comment).
  const double sigma = opts_.upsampfac;
  const int w = kp_.w;
  // Source-packing factor: rescaled sources span [-pi/sigma_s, pi/sigma_s].
  // Kept at 2 even when the grid runs at sigma = 1.25: the per-source
  // correction divides by psihat2((w/2) xt), and at sigma = 1.25 packing
  // (xt up to pi/1.25) that divisor's dynamic range is ~e^{0.50 w} per dim
  // vs ~e^{0.18 w} at pi/2 — for w = 19 in 3D that puts ~1e12 prefactors on
  // corner sources whose contributions must then cancel through the FFT,
  // flooring accuracy near 1e-8 regardless of kernel quality. Packing at
  // pi/2 keeps the roundoff floor below 1e-11 while the fine grid still
  // shrinks (8/5)^dim vs sigma = 2.
  const double sigma_s = std::max(sigma, 2.0);
  // Every array is checked before any member changes, so a rejected set
  // leaves the previous one in place.
  std::array<double, 3> xcen{0, 0, 0}, scen{0, 0, 0};
  double X[3] = {0, 0, 0}, Sw[3] = {0, 0, 0};
  for (int d = 0; d < dim_; ++d) {
    center_halfwidth(xs[d], M, xcen[d], X[d]);
    center_halfwidth(ss[d], K, scen[d], Sw[d]);
  }
  M_ = M;
  K_ = K;
  xc_ = xcen;
  sc_ = scen;
  grid_.dim = dim_;
  for (int d = 0; d < dim_; ++d) {
    gam_[d] = sigma_s * X[d] / std::numbers::pi;
    const double band = 2.0 * gam_[d] * Sw[d] + w;  // modes the targets touch
    grid_.nf[d] = static_cast<std::int64_t>(fft::next235(static_cast<std::size_t>(
        std::max(std::ceil(sigma * band), double(2 * w)))));
  }
  bins_ = spread::spread_bins(grid_, opts_.binsize, false, w);
  method_ = opts_.method;
  if (method_ == Method::Auto)
    method_ = spread::sm_fits<T>(*dev_, grid_, bins_, w) ? Method::SM : Method::GMSort;
  if (method_ == Method::SM && !spread::sm_fits<T>(*dev_, grid_, bins_, w))
    throw std::invalid_argument("Type3Plan: SM padded bin exceeds shared memory");
  // The sorted source spread runs on the tile engine and takes clamped
  // halo-proportioned tiles (see Plan); the target sort shares them, which
  // only reorders the interp.
  bins_ = spread::spread_bins(grid_, opts_.binsize, method_ != Method::GM, w);

  std::vector<std::size_t> dims;
  for (int d = 0; d < dim_; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(dev_->pool(), dims);
  fw_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(grid_.total()));
  hgrid_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(grid_.total()));

  // Deconvolution factors over ALL nf modes per dim (the type-1 inside type-3
  // needs the full band; targets only read |m| <= gam*S + w/2, safely inside
  // the region where phihat stays positive since w*pi/2 < beta at every
  // supported sigma: beta = 2.30w at sigma = 2, 1.84w at sigma = 1.25, both
  // above pi/2 * w ~ 1.57w).
  const T beta = kp_.beta;
  auto kernel = [beta](double zz) { return double(spread::es_eval(T(zz), beta)); };
  for (int d = 0; d < dim_; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(grid_.nf[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), w, kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = dim_; d < 3; ++d) fser_[d].assign(1, T(1));

  // Scaled coordinates. Sources: xt = (x - xc)/gam in [-pi/sigma_s, pi/sigma_s],
  // stored as fine-grid coords. Targets: xi = gam*(s - sc), stored as grid
  // coords u = xi + nf/2 (never wraps: |xi| + w/2 < nf/2).
  xg_ = vgpu::device_buffer<T>(*dev_, M);
  if (dim_ >= 2) yg_ = vgpu::device_buffer<T>(*dev_, M);
  if (dim_ >= 3) zg_ = vgpu::device_buffer<T>(*dev_, M);
  sg_ = vgpu::device_buffer<T>(*dev_, K);
  if (dim_ >= 2) tg_ = vgpu::device_buffer<T>(*dev_, K);
  if (dim_ >= 3) ug_ = vgpu::device_buffer<T>(*dev_, K);
  T* xgs[3] = {xg_.data(), yg_.data(), zg_.data()};
  T* sgs[3] = {sg_.data(), tg_.data(), ug_.data()};
  const auto xc = xc_;
  const auto sc = sc_;
  const auto gam = gam_;
  const auto nf = grid_.nf;
  const int dim = dim_;
  dev_->launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    for (int d = 0; d < dim; ++d) {
      const T xt = static_cast<T>((double(xs[d][j]) - xc[d]) / gam[d]);
      xgs[d][j] = spread::fold_rescale(xt, nf[d]);
    }
  });
  dev_->launch_items(K, 256, [&](std::size_t k, vgpu::BlockCtx&) {
    for (int d = 0; d < dim; ++d)
      sgs[d][k] = static_cast<T>(gam[d] * (double(ss[d][k]) - sc[d]) +
                                 double(nf[d] / 2));  // mode m sits at m+floor(nf/2)
  });

  // Per-source prefactor: 1/prod_d psihat2(xt_jd) times the shift phase
  // e^{i iflag sc.(x_j - xc)}. psihat2(xt) = (w/2)*phihat(w/2 * xt), with
  // phihat via the same Gauss-Legendre quadrature as the deconvolution.
  src_prefac_ = vgpu::device_buffer<cplx>(*dev_, M);
  chat_ = vgpu::device_buffer<cplx>(*dev_, M);
  const int q = 2 + 2 * w + 8;
  std::vector<double> nodes, weights;
  spread::gauss_legendre(q, nodes, weights);
  std::vector<double> zq(q), fq(q);
  for (int i = 0; i < q; ++i) {
    zq[i] = 0.5 * (nodes[i] + 1.0);
    fq[i] = kernel(zq[i]) * weights[i];
  }
  const double halfw = double(w) / 2;
  const int ifl = iflag_;
  dev_->launch_items(M, 64, [&](std::size_t j, vgpu::BlockCtx&) {
    double corr = 1.0, phase = 0.0;
    for (int d = 0; d < dim; ++d) {
      // xt recovered from the folded grid coordinate (inverse of the map
      // above; xt in [-pi/sigma_s, pi/sigma_s] so the fold never wrapped).
      double g = double(xgs[d][j]) / double(nf[d]);
      if (g >= 0.5) g -= 1.0;
      const double xt = g * 2.0 * std::numbers::pi;
      const double xi = halfw * xt;
      double ph = 0;
      for (int i = 0; i < q; ++i) ph += fq[i] * std::cos(xi * zq[i]);
      corr *= halfw * ph;
      phase += sc[d] * (double(xs[d][j]) - xc[d]);
    }
    phase *= ifl;
    src_prefac_[j] = cplx(static_cast<T>(std::cos(phase) / corr),
                          static_cast<T>(std::sin(phase) / corr));
  });

  // Per-target phase e^{i iflag s_k . x_c}.
  trg_phase_ = vgpu::device_buffer<cplx>(*dev_, K);
  dev_->launch_items(K, 256, [&](std::size_t k, vgpu::BlockCtx&) {
    double phase = 0;
    for (int d = 0; d < dim; ++d) phase += double(ss[d][k]) * xc[d];
    phase *= ifl;
    trg_phase_[k] = cplx(static_cast<T>(std::cos(phase)), static_cast<T>(std::sin(phase)));
  });

  // Bin-sort sources (spread) and targets (interp reads).
  spread::bin_sort(*dev_, grid_, bins_, xg_.data(), dim_ >= 2 ? yg_.data() : nullptr,
                   dim_ >= 3 ? zg_.data() : nullptr, M, src_sort_);
  spread::NuPoints<T> srcs{xg_.data(), dim_ >= 2 ? yg_.data() : nullptr,
                           dim_ >= 3 ? zg_.data() : nullptr, M_};
  // Tile-ownership set for the atomic-free source spread (SM and GM-sort).
  src_tiles_ = spread::TileSet<T>{};
  if (method_ != Method::GM)
    spread::build_tile_set(*dev_, grid_, bins_, kp_.w, src_sort_, 1, src_tiles_);
  // SM's source tap table, paid once here and reused by every execute.
  src_taps_ = spread::TapTable<T>{};
  if (method_ == Method::SM)
    spread::build_tap_table(*dev_, dim_, kp_, srcs, src_sort_.order.data(), src_taps_);
  spread::bin_sort(*dev_, grid_, bins_, sg_.data(), dim_ >= 2 ? tg_.data() : nullptr,
                   dim_ >= 3 ? ug_.data() : nullptr, K, trg_sort_);
  // Interior-first partitions for the no-wrap fast path (sources feed the
  // GM method's atomic inner spread; targets the interp). GM partitions USER
  // order: the unsorted baseline must stay unsorted, as in Plan.
  src_part_ = spread::InteriorPartition{};
  trg_part_ = spread::InteriorPartition{};
  if (method_ == Method::GM)
    spread::classify_interior(*dev_, grid_, kp_, srcs, nullptr, src_part_);
  spread::NuPoints<T> trgs{sg_.data(), dim_ >= 2 ? tg_.data() : nullptr,
                           dim_ >= 3 ? ug_.data() : nullptr, K_};
  spread::classify_interior(*dev_, grid_, kp_, trgs, trg_sort_.order.data(), trg_part_);
}

template <typename T>
void Type3Plan<T>::execute(cplx* c, cplx* f) {
  if (M_ == 0) throw std::logic_error("Type3Plan: set_points not called");
  // 1. Kernel-corrected, phase-shifted strengths.
  dev_->launch_items(M_, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    chat_[j] = c[j] * src_prefac_[j];
  });

  // 2. Inner type 1: spread -> FFT -> deconvolve over the full fine grid.
  spread::NuPoints<T> pts{xg_.data(), dim_ >= 2 ? yg_.data() : nullptr,
                          dim_ >= 3 ? zg_.data() : nullptr, M_};
  vgpu::fill(*dev_, fw_.span(), cplx(0, 0));
  if (method_ != Method::GM) {
    // Tile-owned atomic-free writeback; SM streams its cached taps, GM-sort
    // evaluates inline (bitwise-identical values either way).
    spread::spread_tiled_batch<T>(*dev_, grid_, bins_, kp_, pts, chat_.data(),
                                  fw_.data(), src_sort_, src_tiles_,
                                  src_taps_.empty() ? nullptr : &src_taps_, 1, 0, 0);
  } else {
    // The GM baseline: atomic, user order, interior-first partition.
    pts.n_nowrap = src_part_.n_interior;
    spread::spread_gm<T>(*dev_, grid_, kp_, pts, chat_.data(), fw_.data(),
                         src_part_.order.data());
  }
  fft_->exec(fw_.data(), iflag_);

  const auto nf = grid_.nf;
  const T* p0 = fser_[0].data();
  const T* p1 = fser_[1].data();
  const T* p2 = fser_[2].data();
  const cplx* fw = fw_.data();
  cplx* hg = hgrid_.data();
  dev_->launch_items(static_cast<std::size_t>(grid_.total()), 256,
                     [=](std::size_t i, vgpu::BlockCtx&) {
    const std::int64_t i0 = static_cast<std::int64_t>(i) % nf[0];
    const std::int64_t i1 = (static_cast<std::int64_t>(i) / nf[0]) % nf[1];
    const std::int64_t i2 = static_cast<std::int64_t>(i) / (nf[0] * nf[1]);
    const std::int64_t g0 = spread::wrap_index(i0 - nf[0] / 2, nf[0]);
    const std::int64_t g1 = spread::wrap_index(i1 - nf[1] / 2, nf[1]);
    const std::int64_t g2 = spread::wrap_index(i2 - nf[2] / 2, nf[2]);
    hg[i] = fw[g0 + nf[0] * (g1 + nf[1] * g2)] * (p0[i0] * p1[i1] * p2[i2]);
  });

  // 3. Interpolate H at the scaled targets, then apply the target phases.
  spread::NuPoints<T> trg{sg_.data(), dim_ >= 2 ? tg_.data() : nullptr,
                          dim_ >= 3 ? ug_.data() : nullptr, K_};
  trg.n_nowrap = trg_part_.n_interior;  // interior-first partition (no-wrap fast path)
  spread::interp<T>(*dev_, grid_, kp_, trg, hgrid_.data(), f, trg_part_.order.data());
  dev_->launch_items(K_, 256, [&](std::size_t k, vgpu::BlockCtx&) {
    f[k] *= trg_phase_[k];
  });
}

template class Type3Plan<float>;
template class Type3Plan<double>;

}  // namespace cf::core
