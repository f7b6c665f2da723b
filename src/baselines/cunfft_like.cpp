#include "baselines/cunfft_like.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spreadinterp/kernel_ft.hpp"
#include "vgpu/primitives.hpp"

namespace cf::baselines {

int gaussian_width_from_tol(double tol) {
  // Truncated-Gaussian error at sigma = 2 decays like exp(-1.11 w) with the
  // optimal shape below, i.e. w ~ 2.1 log10(1/eps) — about double the ES rule.
  const int w = static_cast<int>(std::ceil(2.1 * std::log10(1.0 / tol))) + 2;
  return std::clamp(w, 4, kMaxGaussWidth);
}

namespace {

// Optimal truncated-Gaussian shape for sigma = 2 on the normalized support
// z in [-1, 1]: phi(z) = exp(-a z^2). Balancing the truncation error
// exp(-a) against the aliasing error exp(-pi^2 s^2), where s^2 = w^2/(8a) in
// grid units and the nearest alias sits at 2*pi - pi/sigma, gives
// a = pi*w/(2*sqrt(2)) ~ 1.11 w.
template <typename T>
T gauss_exponent(int w) {
  return static_cast<T>(3.141592653589793 / (2.0 * std::sqrt(2.0)) * double(w));
}

/// Fast Gaussian gridding (COM_FG_PSI): per point and axis, vals[i] =
/// exp(-a (z0 + i dz)^2) via 3 exponentials and multiplicative recurrences.
template <typename T>
inline std::int64_t gauss_values(T x, int w, T a, T* vals) {
  const std::int64_t l0 = static_cast<std::int64_t>(std::ceil(double(x) - double(w) / 2));
  const T dz = T(2) / T(w);
  const T z0 = (static_cast<T>(l0) - x) * dz;
  const T e0 = std::exp(-a * z0 * z0);
  const T r = std::exp(-2 * a * z0 * dz);
  const T s = std::exp(-a * dz * dz);
  T val = e0;
  T factor = r * s;
  const T s2 = s * s;
  vals[0] = val;
  for (int i = 1; i < w; ++i) {
    val *= factor;
    factor *= s2;
    vals[i] = val;
  }
  return l0;
}

}  // namespace

template <typename T>
CunfftPlan<T>::CunfftPlan(vgpu::Device& dev, int type, std::span<const std::int64_t> nmodes,
                          int iflag, double tol)
    : dev_(&dev),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      w_(gaussian_width_from_tol(tol)),
      a_(gauss_exponent<T>(gaussian_width_from_tol(tol))) {
  if (type_ != 1 && type_ != 2)
    throw std::invalid_argument("CunfftPlan: type must be 1 or 2");
  // The library's sigma = 2 fine grid, which also rejects a bad dim or mode.
  grid_ = spread::make_grid(nmodes, 2.0, w_);
  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];

  std::vector<std::size_t> dims;
  for (int d = 0; d < grid_.dim; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(dev_->pool(), dims);
  fw_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(grid_.total()));

  const double a = double(a_);
  auto kernel = [a](double z) { return std::exp(-a * z * z); };
  for (int d = 0; d < grid_.dim; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(N_[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), w_, kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = grid_.dim; d < 3; ++d) fser_[d].assign(1, T(1));
}

template <typename T>
void CunfftPlan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  M_ = M;
  xg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 2) yg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 3) zg_ = vgpu::device_buffer<T>(*dev_, M);
  const int dim = grid_.dim;
  const auto nf = grid_.nf;
  dev_->launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    xg_[j] = spread::fold_rescale(x[j], nf[0]);
    if (dim >= 2) yg_[j] = spread::fold_rescale(y[j], nf[1]);
    if (dim >= 3) zg_[j] = spread::fold_rescale(z[j], nf[2]);
  });
}

template <typename T>
void CunfftPlan<T>::spread(const cplx* c) {
  vgpu::fill(*dev_, fw_.span(), cplx(0, 0));
  const int dim = grid_.dim;
  const int w = w_;
  const T a = a_;
  const auto nf = grid_.nf;
  cplx* fw = fw_.data();
  dev_->launch_items(M_, 256, [=, this](std::size_t j, vgpu::BlockCtx& blk) {
    T vals[3][kMaxGaussWidth];
    std::int64_t idx[3][kMaxGaussWidth];
    const T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l0 = gauss_values(px[d], w, a, vals[d]);
      for (int i = 0; i < w; ++i) idx[d][i] = spread::wrap_index(l0 + i, nf[d]);
    }
    const cplx cj = c[j];
    if (dim == 1) {
      for (int i0 = 0; i0 < w; ++i0) blk.atomic_add(&fw[idx[0][i0]], cj * vals[0][i0]);
    } else if (dim == 2) {
      for (int i1 = 0; i1 < w; ++i1) {
        const cplx c1 = cj * vals[1][i1];
        const std::int64_t row = idx[1][i1] * nf[0];
        for (int i0 = 0; i0 < w; ++i0)
          blk.atomic_add(&fw[row + idx[0][i0]], c1 * vals[0][i0]);
      }
    } else {
      for (int i2 = 0; i2 < w; ++i2) {
        const cplx c2 = cj * vals[2][i2];
        for (int i1 = 0; i1 < w; ++i1) {
          const cplx c1 = c2 * vals[1][i1];
          const std::int64_t row = (idx[2][i2] * nf[1] + idx[1][i1]) * nf[0];
          for (int i0 = 0; i0 < w; ++i0)
            blk.atomic_add(&fw[row + idx[0][i0]], c1 * vals[0][i0]);
        }
      }
    }
  });
}

template <typename T>
void CunfftPlan<T>::interp(cplx* c) {
  const int dim = grid_.dim;
  const int w = w_;
  const T a = a_;
  const auto nf = grid_.nf;
  const cplx* fw = fw_.data();
  dev_->launch_items(M_, 256, [=, this](std::size_t j, vgpu::BlockCtx&) {
    T vals[3][kMaxGaussWidth];
    std::int64_t idx[3][kMaxGaussWidth];
    const T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l0 = gauss_values(px[d], w, a, vals[d]);
      for (int i = 0; i < w; ++i) idx[d][i] = spread::wrap_index(l0 + i, nf[d]);
    }
    cplx acc(0, 0);
    if (dim == 1) {
      for (int i0 = 0; i0 < w; ++i0) acc += fw[idx[0][i0]] * vals[0][i0];
    } else if (dim == 2) {
      for (int i1 = 0; i1 < w; ++i1) {
        const std::int64_t row = idx[1][i1] * nf[0];
        cplx rowacc(0, 0);
        for (int i0 = 0; i0 < w; ++i0) rowacc += fw[row + idx[0][i0]] * vals[0][i0];
        acc += rowacc * vals[1][i1];
      }
    } else {
      for (int i2 = 0; i2 < w; ++i2) {
        cplx planeacc(0, 0);
        for (int i1 = 0; i1 < w; ++i1) {
          const std::int64_t row = (idx[2][i2] * nf[1] + idx[1][i1]) * nf[0];
          cplx rowacc(0, 0);
          for (int i0 = 0; i0 < w; ++i0) rowacc += fw[row + idx[0][i0]] * vals[0][i0];
          planeacc += rowacc * vals[1][i1];
        }
        acc += planeacc * vals[2][i2];
      }
    }
    c[j] = acc;
  });
}

template <typename T>
void CunfftPlan<T>::deconvolve(cplx* f, bool forward) {
  const auto N = N_;
  const auto nf = grid_.nf;
  const std::int64_t ntot = modes_total();
  const T* p0 = fser_[0].data();
  const T* p1 = fser_[1].data();
  const T* p2 = fser_[2].data();
  cplx* fw = fw_.data();
  if (!forward) vgpu::fill(*dev_, fw_.span(), cplx(0, 0));
  dev_->launch_items(static_cast<std::size_t>(ntot), 256,
                     [=](std::size_t i, vgpu::BlockCtx&) {
    const std::int64_t i0 = static_cast<std::int64_t>(i) % N[0];
    const std::int64_t i1 = (static_cast<std::int64_t>(i) / N[0]) % N[1];
    const std::int64_t i2 = static_cast<std::int64_t>(i) / (N[0] * N[1]);
    const std::int64_t g0 = spread::wrap_index(i0 - N[0] / 2, nf[0]);
    const std::int64_t g1 = spread::wrap_index(i1 - N[1] / 2, nf[1]);
    const std::int64_t g2 = spread::wrap_index(i2 - N[2] / 2, nf[2]);
    const std::int64_t lin = g0 + nf[0] * (g1 + nf[1] * g2);
    const T p = p0[i0] * p1[i1] * p2[i2];
    if (forward)
      f[i] = fw[lin] * p;
    else
      fw[lin] = f[i] * p;
  });
}

template <typename T>
void CunfftPlan<T>::execute(cplx* c, cplx* f) {
  if (M_ == 0) {
    if (type_ == 1)
      for (std::int64_t i = 0; i < modes_total(); ++i) f[i] = cplx(0, 0);
    return;
  }
  if (type_ == 1) {
    spread(c);
    fft_->exec(fw_.data(), iflag_);
    deconvolve(f, true);
  } else {
    deconvolve(f, false);
    fft_->exec(fw_.data(), iflag_);
    interp(c);
  }
}

template class CunfftPlan<float>;
template class CunfftPlan<double>;

}  // namespace cf::baselines
