#include "solver/inverse.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spreadinterp/grid.hpp"

namespace cf::solver {

template <typename T>
InverseNufft<T>::InverseNufft(vgpu::Device& dev, std::span<const std::int64_t> nmodes,
                              int iflag, InverseOptions opts)
    : dev_(&dev), opts_(opts) {
  // sample_ws_ and the right-hand side hold one vector; a batched plan would
  // read and write B of them.
  if (opts.plan_opts.ntransf != 1)
    throw std::invalid_argument("InverseNufft: plan_opts.ntransf must be 1");
  // The adjoint of e^{+i k.x} sampling is summation with e^{-i k.x}: type 1
  // with the opposite sign.
  adj_ = std::make_unique<core::Plan<T>>(dev, 1, nmodes, -iflag, opts.nufft_tol,
                                         opts.plan_opts);
  std::vector<std::size_t> dims, modes;
  for (std::size_t d = 0; d < nmodes.size(); ++d) {
    N_[d] = nmodes[d];
    L_[d] = 2 * nmodes[d];
    ntot_ *= N_[d];
    dims.push_back(static_cast<std::size_t>(L_[d]));
    modes.push_back(static_cast<std::size_t>(N_[d]));
    ltot_ *= dims.back();
  }
  // Mode k sits at k mod 2N, so the modes are exactly the transform's band.
  pad_fft_ = std::make_unique<fft::FftNd<T>>(dev.pool(), dims, modes);
  spectrum_ = vgpu::device_buffer<cplx>(dev, ltot_);
  pad_ = vgpu::device_buffer<cplx>(dev, ltot_);
}

template <typename T>
void InverseNufft<T>::set_points(std::size_t M, const T* x, const T* y, const T* z,
                                 const T* weights) {
  M_ = 0;  // unusable until the kernel for these points is built
  spread::check_point_count(M);  // before M weights are read
  if (weights) {
    weights_.assign(weights, weights + M);
    for (const T w : weights_)
      if (!(w >= 0 && std::isfinite(w)))
        throw std::invalid_argument("InverseNufft: weights must be finite and >= 0");
  } else {
    weights_.clear();
  }
  adj_->set_points(M, x, y, z);
  sample_ws_.resize(M);
  if (M == 0) return;
  build_kernel(x, y, z);
  M_ = M;
}

// t_m for m in [-N, N)^d. The type-1 plan maps strengths w_j e^{i s sigma.x_j}
// (s = its iflag) to t_{k + sigma} over its modes k in
// [-floor(N/2), ceil(N/2)), so per axis sigma = N/2 - N covers [-N, 0) and
// sigma = N/2 covers [0, N). The weights are real, so t_{-m} = conj(t_m): on
// the last axis one piece, sigma = 1 - ceil(N/2), covers [1 - N, 0], and the
// mirror fills (0, N). That is 2^(d-1) executes. The last axis's m = -N slot
// is zeroed: the crop only reads |k - k'| < N.
template <typename T>
void InverseNufft<T>::build_kernel(const T* x, const T* y, const T* z) {
  const int dim = adj_->dim();
  const int a = dim - 1;  // the mirrored axis
  const double s = adj_->iflag();
  const int mo = opts_.plan_opts.modeord;
  const auto N = N_;
  const auto L = L_;
  const T* xs[3] = {x, y, z};
  const T* w = weights_.empty() ? nullptr : weights_.data();
  cplx* c = sample_ws_.data();
  cplx* piece = pad_.data();  // the plan's N^d output; ntot <= ltot
  cplx* spec = spectrum_.data();
  for (int shift = 0; shift < (1 << a); ++shift) {
    std::array<std::int64_t, 3> sigma{0, 0, 0};
    for (int d = 0; d < a; ++d) sigma[d] = N[d] / 2 - ((shift >> d) & 1 ? 0 : N[d]);
    sigma[a] = 1 - (N[a] + 1) / 2;
    dev_->launch_items(sample_ws_.size(), 256, [&](std::size_t j, vgpu::BlockCtx&) {
      double phase = 0;
      for (int d = 0; d < dim; ++d) phase += double(sigma[d]) * double(xs[d][j]);
      phase *= s;
      const T wj = w ? w[j] : T(1);
      c[j] = cplx(static_cast<T>(std::cos(phase)) * wj,
                  static_cast<T>(std::sin(phase)) * wj);
    });
    adj_->execute(c, piece);
    dev_->launch_items(static_cast<std::size_t>(ntot_), 256,
                       [&](std::size_t i, vgpu::BlockCtx&) {
      const std::int64_t ii = static_cast<std::int64_t>(i);
      const std::int64_t i0 = ii % N[0], i1 = (ii / N[0]) % N[1], i2 = ii / (N[0] * N[1]);
      const std::int64_t m0 = spread::index_to_mode(i0, N[0], mo) + sigma[0];
      const std::int64_t m1 = spread::index_to_mode(i1, N[1], mo) + sigma[1];
      const std::int64_t m2 = spread::index_to_mode(i2, N[2], mo) + sigma[2];
      spec[spread::wrap_index(m0, L[0]) +
           L[0] * (spread::wrap_index(m1, L[1]) + L[1] * spread::wrap_index(m2, L[2]))] =
          piece[i];
    });
  }
  dev_->launch_items(ltot_, 256, [&](std::size_t p, vgpu::BlockCtx&) {
    const std::int64_t pp = static_cast<std::int64_t>(p);
    const std::int64_t g[3] = {pp % L[0], (pp / L[0]) % L[1], pp / (L[0] * L[1])};
    if (g[a] == N[a]) {
      spec[p] = cplx(0, 0);
    } else if (g[a] > 0 && g[a] < N[a]) {
      const std::int64_t q = (L[0] - g[0]) % L[0] +
                             L[0] * ((L[1] - g[1]) % L[1] + L[1] * ((L[2] - g[2]) % L[2]));
      spec[p] = std::conj(spec[q]);
    }
  });
  pad_fft_->exec(spec, -1);
  const T scale = static_cast<T>(1.0 / double(ltot_));
  dev_->launch_items(ltot_, 256, [&](std::size_t i, vgpu::BlockCtx&) { spec[i] *= scale; });
}

template <typename T>
void InverseNufft<T>::apply_normal(const cplx* in, cplx* out) {
  const auto N = N_;
  const auto L = L_;
  const int mo = opts_.plan_opts.modeord;
  cplx* pad = pad_.data();
  const cplx* spec = spectrum_.data();
  // Mode k sits at k mod 2N, so one axis's modes fill both ends of a row and
  // the band between them is zero.
  auto pos = [mo](std::int64_t i, std::int64_t n, std::int64_t l) {
    const std::int64_t k = spread::index_to_mode(i, n, mo);
    return k < 0 ? k + l : k;
  };
  // Zero-pad inside the forward transform's first axis pass. The input is the
  // band: rows and (3D) z-slabs that hold no mode skip their transforms.
  pad_fft_->exec_batch_fused(pad, 1, ltot_, -1, fft::Band::in,
                             [&](cplx* row, std::size_t line, std::size_t) {
    const std::int64_t l = static_cast<std::int64_t>(line);
    const std::int64_t i1 = spread::grid_to_index(l % L[1], N[1], L[1], mo);
    const std::int64_t i2 = spread::grid_to_index(l / L[1], N[2], L[2], mo);
    if (i1 < 0 || i2 < 0) return false;
    const cplx* src = in + N[0] * (i1 + N[1] * i2);
    std::fill(row + (N[0] + 1) / 2, row + L[0] - N[0] / 2, cplx(0, 0));
    for (std::int64_t i0 = 0; i0 < N[0]; ++i0) row[pos(i0, N[0], L[0])] = src[i0];
    return true;
  });
  // The product with the spectrum rides the inverse transform's first pass,
  // over every row; the crop reads only the band, so later axes transform
  // only its lines.
  pad_fft_->exec_batch_fused(pad, 1, ltot_, +1, fft::Band::out,
                             [&](cplx* row, std::size_t line, std::size_t) {
    const cplx* p = pad + line * static_cast<std::size_t>(L[0]);
    const cplx* sp = spec + line * static_cast<std::size_t>(L[0]);
    for (std::int64_t g = 0; g < L[0]; ++g) row[g] = p[g] * sp[g];
    return true;
  });
  // Crop back to the modes, one mode row per item, and add the damping.
  const T lam = static_cast<T>(opts_.lambda);
  dev_->launch_items(static_cast<std::size_t>(N[1] * N[2]), 8,
                     [&](std::size_t r, vgpu::BlockCtx&) {
    const std::int64_t rr = static_cast<std::int64_t>(r);
    const cplx* src = pad + L[0] * (pos(rr % N[1], N[1], L[1]) +
                                    L[1] * pos(rr / N[1], N[2], L[2]));
    const cplx* x = in + N[0] * rr;
    cplx* o = out + N[0] * rr;
    for (std::int64_t i0 = 0; i0 < N[0]; ++i0) o[i0] = src[pos(i0, N[0], L[0])] + lam * x[i0];
  });
}

template <typename T>
InverseReport InverseNufft<T>::solve(const cplx* yv, cplx* f) {
  if (M_ == 0) throw std::logic_error("InverseNufft: set_points not called");
  const std::size_t n = static_cast<std::size_t>(ntot_);

  // b = A^H W y.
  std::vector<cplx> b(n);
  for (std::size_t j = 0; j < M_; ++j)
    sample_ws_[j] = weights_.empty() ? yv[j] : yv[j] * weights_[j];
  adj_->execute(sample_ws_.data(), b.data());

  // CG on the (Hermitian positive semidefinite) normal operator.
  std::vector<cplx> r(n), p(n), Ap(n);
  apply_normal(f, Ap.data());  // residual of the starting guess
  double bnorm2 = 0;
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - Ap[i];
    bnorm2 += std::norm(b[i]);
  }
  p = r;
  double rs = 0;
  for (auto& v : r) rs += std::norm(v);
  const double stop2 = opts_.tol * opts_.tol * (bnorm2 > 0 ? bnorm2 : 1.0);

  InverseReport rep;
  rep.history.push_back(std::sqrt(rs / (bnorm2 > 0 ? bnorm2 : 1.0)));
  while (rep.iters < opts_.max_iters && rs > stop2) {
    apply_normal(p.data(), Ap.data());
    std::complex<double> pAp(0, 0);
    for (std::size_t i = 0; i < n; ++i)
      pAp += std::complex<double>(std::conj(p[i]) * Ap[i]);
    if (pAp.real() <= 0) break;  // flat direction: semidefinite operator
    const double alpha = rs / pAp.real();
    double rs_new = 0;
    for (std::size_t i = 0; i < n; ++i) {
      f[i] += static_cast<T>(alpha) * p[i];
      r[i] -= static_cast<T>(alpha) * Ap[i];
      rs_new += std::norm(r[i]);
    }
    const double beta = rs_new / rs;
    rs = rs_new;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + static_cast<T>(beta) * p[i];
    ++rep.iters;
    rep.history.push_back(std::sqrt(rs / (bnorm2 > 0 ? bnorm2 : 1.0)));
  }
  rep.rel_residual = rep.history.back();
  return rep;
}

template class InverseNufft<float>;
template class InverseNufft<double>;

}  // namespace cf::solver
