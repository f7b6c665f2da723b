#include "baselines/gpunufft_like.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spreadinterp/kernel_ft.hpp"
#include "vgpu/primitives.hpp"

namespace cf::baselines {

namespace {

/// Modified Bessel I0 by its power series (adequate for beta <= ~40; used
/// only at plan build for the lookup table and deconvolution quadrature).
double bessel_i0(double x) {
  const double q = x * x / 4.0;
  double term = 1.0, sum = 1.0;
  for (int k = 1; k < 200; ++k) {
    term *= q / (double(k) * double(k));
    sum += term;
    if (term < 1e-18 * sum) break;
  }
  return sum;
}

/// Beatty et al. optimal KB shape for oversampling sigma = 2.
double kb_beta(int w) {
  const double sigma = 2.0;
  const double t = double(w) * (sigma - 0.5) / sigma;
  return 3.141592653589793 * std::sqrt(std::max(t * t - 0.8, 0.1));
}

int kb_width_from_tol(double tol) {
  const int w = static_cast<int>(std::ceil(std::log10(1.0 / tol))) + 1;
  return std::clamp(w, 2, kMaxKbWidth);
}

constexpr int kTableSize = 4096;

}  // namespace

template <typename T>
GpunufftPlan<T>::GpunufftPlan(vgpu::Device& dev, int type,
                              std::span<const std::int64_t> nmodes, int iflag, double tol)
    : dev_(&dev),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      w_(kb_width_from_tol(tol)),
      beta_(static_cast<T>(kb_beta(kb_width_from_tol(tol)))) {
  if (type_ != 1 && type_ != 2)
    throw std::invalid_argument("GpunufftPlan: type must be 1 or 2");
  if (nmodes.size() < 2 || nmodes.size() > 3)
    throw std::invalid_argument("GpunufftPlan: dims 2..3 (as the real library)");
  // The library's sigma = 2 fine grid, which also rejects a bad mode.
  grid_ = spread::make_grid(nmodes, 2.0, w_);
  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];
  sectors_ = spread::BinSpec::make(grid_, {kSectorWidth, kSectorWidth, kSectorWidth});

  std::vector<std::size_t> dims;
  for (int d = 0; d < grid_.dim; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(dev_->pool(), dims);
  fw_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(grid_.total()));

  // Kernel lookup table on z in [0, 1] (texture analogue).
  const double beta = double(beta_);
  const double i0b = bessel_i0(beta);
  kb_table_.resize(kTableSize + 1);
  for (int i = 0; i <= kTableSize; ++i) {
    const double z = double(i) / kTableSize;
    kb_table_[i] =
        static_cast<T>(bessel_i0(beta * std::sqrt(std::max(1.0 - z * z, 0.0))) / i0b);
  }

  auto kernel = [beta, i0b](double z) {
    return bessel_i0(beta * std::sqrt(std::max(1.0 - z * z, 0.0))) / i0b;
  };
  for (int d = 0; d < grid_.dim; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(N_[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), w_, kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = grid_.dim; d < 3; ++d) fser_[d].assign(1, T(1));
}

template <typename T>
T GpunufftPlan<T>::kb_eval(T z) const {
  const T az = std::abs(z);
  if (az >= T(1)) return T(0);
  const T pos = az * T(kTableSize);
  const int i = static_cast<int>(pos);
  const T frac = pos - T(i);
  return kb_table_[i] * (T(1) - frac) + kb_table_[i + 1] * frac;
}

template <typename T>
void GpunufftPlan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  M_ = M;
  xg_ = vgpu::device_buffer<T>(*dev_, M);
  yg_ = vgpu::device_buffer<T>(*dev_, M);
  if (grid_.dim >= 3) zg_ = vgpu::device_buffer<T>(*dev_, M);
  const int dim = grid_.dim;
  const auto nf = grid_.nf;
  dev_->launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    xg_[j] = spread::fold_rescale(x[j], nf[0]);
    yg_[j] = spread::fold_rescale(y[j], nf[1]);
    if (dim >= 3) zg_[j] = spread::fold_rescale(z[j], nf[2]);
  });
  spread::bin_sort(*dev_, grid_, sectors_, xg_.data(), yg_.data(),
                   dim >= 3 ? zg_.data() : nullptr, M, sort_);
}

// Output-driven sector gridding: one block per sector processes every point
// of that sector — no cap, hence the load imbalance on clustered data.
template <typename T>
void GpunufftPlan<T>::spread(const cplx* c) {
  vgpu::fill(*dev_, fw_.span(), cplx(0, 0));
  const int dim = grid_.dim;
  const int w = w_;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < dim; ++d) p[d] = sectors_.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const auto nf = grid_.nf;
  const T inv_half_w = T(2) / T(w);
  cplx* fw = fw_.data();

  dev_->launch(static_cast<std::size_t>(sectors_.total_bins()), 128,
               [=, this](vgpu::BlockCtx& blk) {
    const std::uint32_t b = blk.block_id;
    const std::uint32_t cnt = sort_.bin_counts[b];
    if (cnt == 0) return;
    std::int64_t bc[3], delta[3] = {0, 0, 0};
    std::int64_t rem = b;
    for (int d = 0; d < 3; ++d) {
      bc[d] = rem % sectors_.nbins[d];
      rem /= sectors_.nbins[d];
    }
    for (int d = 0; d < dim; ++d) delta[d] = bc[d] * sectors_.m[d] - pad;

    auto sm = blk.shared<cplx>(padded);
    blk.for_each_thread([&](unsigned t) {
      for (std::size_t i = t; i < padded; i += blk.nthreads) sm[i] = cplx(0, 0);
    });

    const std::uint32_t start = sort_.bin_start[b];
    blk.for_each_thread([&](unsigned t) {
      for (std::uint32_t i = t; i < cnt; i += blk.nthreads) {
        const std::size_t j = sort_.order[start + i];
        const T px[3] = {xg_[j], yg_[j], dim >= 3 ? zg_[j] : T(0)};
        const cplx cj = c[j];
        T vals[3][kMaxKbWidth];
        std::int64_t li0[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) {
          const std::int64_t l0 =
              static_cast<std::int64_t>(std::ceil(double(px[d]) - double(w) / 2));
          for (int i2 = 0; i2 < w; ++i2)
            vals[d][i2] = kb_eval((static_cast<T>(l0 + i2) - px[d]) * inv_half_w);
          li0[d] = l0 - delta[d];
        }
        if (dim == 2) {
          for (int i1 = 0; i1 < w; ++i1) {
            const cplx c1 = cj * vals[1][i1];
            const std::int64_t row = (li0[1] + i1) * p[0];
            for (int i0 = 0; i0 < w; ++i0) sm[row + li0[0] + i0] += c1 * vals[0][i0];
          }
        } else {
          for (int i2 = 0; i2 < w; ++i2) {
            const cplx c2 = cj * vals[2][i2];
            for (int i1 = 0; i1 < w; ++i1) {
              const cplx c1 = c2 * vals[1][i1];
              const std::int64_t row = ((li0[2] + i2) * p[1] + li0[1] + i1) * p[0];
              for (int i0 = 0; i0 < w; ++i0) sm[row + li0[0] + i0] += c1 * vals[0][i0];
            }
          }
        }
        blk.note_shared_op(static_cast<std::uint64_t>(w) * w * (dim > 2 ? w : 1));
      }
    });

    blk.for_each_thread([&](unsigned t) {
      for (std::size_t i = t; i < padded; i += blk.nthreads) {
        std::int64_t s[3];
        std::int64_t r = static_cast<std::int64_t>(i);
        s[0] = r % p[0];
        r /= p[0];
        s[1] = r % p[1];
        s[2] = r / p[1];
        std::int64_t g[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) g[d] = spread::wrap_index(delta[d] + s[d], nf[d]);
        blk.atomic_add(&fw[g[0] + nf[0] * (g[1] + nf[1] * g[2])], sm[i]);
      }
    });
  });
}

template <typename T>
void GpunufftPlan<T>::interp(cplx* c) {
  const int dim = grid_.dim;
  const int w = w_;
  const auto nf = grid_.nf;
  const T inv_half_w = T(2) / T(w);
  const cplx* fw = fw_.data();
  // Forward op: sector blocks gather; points visited in sector order.
  dev_->launch(static_cast<std::size_t>(sectors_.total_bins()), 128,
               [=, this](vgpu::BlockCtx& blk) {
    const std::uint32_t b = blk.block_id;
    const std::uint32_t cnt = sort_.bin_counts[b];
    if (cnt == 0) return;
    const std::uint32_t start = sort_.bin_start[b];
    blk.for_each_thread([&](unsigned t) {
      for (std::uint32_t i = t; i < cnt; i += blk.nthreads) {
        const std::size_t j = sort_.order[start + i];
        const T px[3] = {xg_[j], yg_[j], dim >= 3 ? zg_[j] : T(0)};
        T vals[3][kMaxKbWidth];
        std::int64_t idx[3][kMaxKbWidth];
        for (int d = 0; d < dim; ++d) {
          const std::int64_t l0 =
              static_cast<std::int64_t>(std::ceil(double(px[d]) - double(w) / 2));
          for (int i2 = 0; i2 < w; ++i2) {
            vals[d][i2] = kb_eval((static_cast<T>(l0 + i2) - px[d]) * inv_half_w);
            idx[d][i2] = spread::wrap_index(l0 + i2, nf[d]);
          }
        }
        cplx acc(0, 0);
        if (dim == 2) {
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
      }
    });
  });
}

template <typename T>
void GpunufftPlan<T>::deconvolve(cplx* f, bool forward) {
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
void GpunufftPlan<T>::execute(cplx* c, cplx* f) {
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

template class GpunufftPlan<float>;
template class GpunufftPlan<double>;

}  // namespace cf::baselines
