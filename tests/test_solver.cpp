// Inverse NUFFT solver: exact recovery in well-posed regimes, convergence
// behavior, weighting, damping, misuse handling, the Toeplitz normal
// operator against the NUFFT pair, and worker-count determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/plan.hpp"
#include "solver/inverse.hpp"
#include "vgpu/device.hpp"

namespace solver = cf::solver;
using cf::Rng;

namespace {

/// Builds a well-posed problem: modes f_true on an N grid, M >> N samples at
/// random locations, y = A f_true evaluated with a high-accuracy plan.
template <typename T>
struct InvProblem {
  std::vector<std::int64_t> N;
  std::size_t M;
  std::vector<T> x, y;
  std::vector<std::complex<T>> f_true, samples;

  InvProblem(std::vector<std::int64_t> modes, std::size_t M_, cf::vgpu::Device& dev,
             std::uint64_t seed = 5)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    std::int64_t ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = static_cast<T>(rng.angle());
      if (dim >= 2) y[j] = static_cast<T>(rng.angle());
    }
    f_true.resize(static_cast<std::size_t>(ntot));
    for (auto& v : f_true)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    cf::core::Plan<T> fwd(dev, 2, N, +1, 1e-12);
    fwd.set_points(M, x.data(), dim >= 2 ? y.data() : nullptr, nullptr);
    samples.resize(M);
    auto ft = f_true;
    fwd.execute(samples.data(), ft.data());
  }

  double recovery_error(const std::vector<std::complex<T>>& f) const {
    double num = 0, den = 0;
    for (std::size_t i = 0; i < f.size(); ++i) {
      num += std::norm(f[i] - f_true[i]);
      den += std::norm(f_true[i]);
    }
    return std::sqrt(num / den);
  }
};

}  // namespace

TEST(InverseNufft, RecoversModes1d) {
  cf::vgpu::Device dev(4);
  InvProblem<double> p({48}, 3000, dev, 11);
  solver::InverseOptions opts;
  opts.max_iters = 60;
  opts.tol = 1e-10;
  opts.nufft_tol = 1e-11;
  solver::InverseNufft<double> inv(dev, p.N, +1, opts);
  inv.set_points(p.M, p.x.data(), nullptr, nullptr);
  std::vector<std::complex<double>> f(p.f_true.size(), {0, 0});
  const auto rep = inv.solve(p.samples.data(), f.data());
  EXPECT_LT(rep.rel_residual, 1e-9);
  EXPECT_LT(p.recovery_error(f), 1e-7);
}

TEST(InverseNufft, RecoversModes2d) {
  cf::vgpu::Device dev(4);
  InvProblem<double> p({16, 14}, 4000, dev, 12);
  solver::InverseOptions opts;
  opts.max_iters = 80;
  opts.tol = 1e-10;
  opts.nufft_tol = 1e-11;
  solver::InverseNufft<double> inv(dev, p.N, +1, opts);
  inv.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> f(p.f_true.size(), {0, 0});
  const auto rep = inv.solve(p.samples.data(), f.data());
  EXPECT_LT(p.recovery_error(f), 1e-6) << "residual " << rep.rel_residual;
}

TEST(InverseNufft, ResidualHistoryIsMonotoneOverall) {
  cf::vgpu::Device dev(4);
  InvProblem<double> p({20, 20}, 5000, dev, 13);
  solver::InverseOptions opts;
  opts.max_iters = 25;
  opts.tol = 1e-12;
  solver::InverseNufft<double> inv(dev, p.N, +1, opts);
  inv.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> f(p.f_true.size(), {0, 0});
  const auto rep = inv.solve(p.samples.data(), f.data());
  ASSERT_GE(rep.history.size(), 3u);
  // CG residuals can wiggle locally but the envelope must fall strongly.
  EXPECT_LT(rep.history.back(), 0.01 * rep.history.front());
}

TEST(InverseNufft, WeightsChangeNothingWhenUniform) {
  cf::vgpu::Device dev(4);
  InvProblem<double> p({24}, 2000, dev, 14);
  solver::InverseOptions opts;
  opts.max_iters = 40;
  opts.tol = 1e-11;
  solver::InverseNufft<double> inv(dev, p.N, +1, opts);
  std::vector<double> w(p.M, 1.0);
  inv.set_points(p.M, p.x.data(), nullptr, nullptr, w.data());
  std::vector<std::complex<double>> fw(p.f_true.size(), {0, 0});
  inv.solve(p.samples.data(), fw.data());
  solver::InverseNufft<double> inv0(dev, p.N, +1, opts);
  inv0.set_points(p.M, p.x.data(), nullptr, nullptr);
  std::vector<std::complex<double>> f0(p.f_true.size(), {0, 0});
  inv0.solve(p.samples.data(), f0.data());
  for (std::size_t i = 0; i < f0.size(); ++i)
    EXPECT_NEAR(std::abs(fw[i] - f0[i]), 0.0, 1e-9);
}

TEST(InverseNufft, DampingBiasesTowardZero) {
  cf::vgpu::Device dev(4);
  InvProblem<double> p({20}, 1500, dev, 15);
  auto run = [&](double lambda) {
    solver::InverseOptions opts;
    opts.max_iters = 60;
    opts.tol = 1e-11;
    opts.lambda = lambda;
    solver::InverseNufft<double> inv(dev, p.N, +1, opts);
    inv.set_points(p.M, p.x.data(), nullptr, nullptr);
    std::vector<std::complex<double>> f(p.f_true.size(), {0, 0});
    inv.solve(p.samples.data(), f.data());
    double norm = 0;
    for (auto& v : f) norm += std::norm(v);
    return std::sqrt(norm);
  };
  const double n0 = run(0.0);
  const double n_heavy = run(double(p.M));  // lambda ~ the operator scale
  EXPECT_LT(n_heavy, 0.8 * n0);
}

TEST(InverseNufft, WarmStartConvergesFasterOrEqual) {
  cf::vgpu::Device dev(4);
  InvProblem<double> p({18, 18}, 3500, dev, 16);
  solver::InverseOptions opts;
  opts.max_iters = 10;
  opts.tol = 1e-14;
  solver::InverseNufft<double> inv(dev, p.N, +1, opts);
  inv.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> cold(p.f_true.size(), {0, 0});
  const auto rep_cold = inv.solve(p.samples.data(), cold.data());
  // Warm start from the truth: residual should start (and stay) tiny.
  auto warm = p.f_true;
  const auto rep_warm = inv.solve(p.samples.data(), warm.data());
  EXPECT_LT(rep_warm.history.front(), 0.1 * rep_cold.history.front());
}

TEST(InverseNufft, SinglePrecisionWorks) {
  cf::vgpu::Device dev(4);
  InvProblem<float> p({20, 16}, 3000, dev, 17);
  solver::InverseOptions opts;
  opts.max_iters = 40;
  opts.tol = 1e-6;
  opts.nufft_tol = 1e-6;
  solver::InverseNufft<float> inv(dev, p.N, +1, opts);
  inv.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> f(p.f_true.size(), {0, 0});
  inv.solve(p.samples.data(), f.data());
  EXPECT_LT(p.recovery_error(f), 1e-3);
}

TEST(InverseNufft, MisuseThrows) {
  cf::vgpu::Device dev(2);
  const std::int64_t N[1] = {16};
  solver::InverseNufft<double> inv(dev, std::span(N, 1), +1);
  std::vector<std::complex<double>> y(10), f(16);
  EXPECT_THROW(inv.solve(y.data(), f.data()), std::logic_error);  // no points
  std::vector<double> x(10, 0.1), wneg(10, -1.0);
  EXPECT_THROW(inv.set_points(10, x.data(), nullptr, nullptr, wneg.data()),
               std::invalid_argument);
  std::vector<double> winf(10, std::numeric_limits<double>::infinity()), xnan = x;
  EXPECT_THROW(inv.set_points(10, x.data(), nullptr, nullptr, winf.data()),
               std::invalid_argument);
  xnan[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(inv.set_points(10, xnan.data(), nullptr, nullptr), std::invalid_argument);
  // M >= 2^32 is rejected on the count alone, before the M weights are read
  // from this 4-entry buffer.
  const std::size_t huge = std::size_t{1} << 32;
  std::vector<double> w4(4, 1.0);
  EXPECT_THROW(inv.set_points(huge, x.data(), nullptr, nullptr, w4.data()),
               std::invalid_argument);
  EXPECT_THROW(inv.solve(y.data(), f.data()), std::logic_error);  // still no points
  // The solver's workspaces hold one vector; a batched plan would overrun them.
  solver::InverseOptions batched;
  batched.plan_opts.ntransf = 2;
  EXPECT_THROW(solver::InverseNufft<double>(dev, std::span(N, 1), +1, batched),
               std::invalid_argument);
}

TEST(InverseNufft, PlanOptionsPropagate) {
  // Method preferences flow into the type-1 plan (and through it into the
  // Toeplitz kernel); the result matches the default-path solve.
  cf::vgpu::Device dev(4);
  InvProblem<double> p({20, 20}, 3000, dev, 18);
  solver::InverseOptions base;
  base.max_iters = 30;
  base.tol = 1e-10;
  solver::InverseOptions tuned = base;
  tuned.plan_opts.method = cf::core::Method::SM;
  solver::InverseNufft<double> a(dev, p.N, +1, base), b(dev, p.N, +1, tuned);
  a.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  b.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fa(p.f_true.size(), {0, 0}),
      fb(p.f_true.size(), {0, 0});
  a.solve(p.samples.data(), fa.data());
  b.solve(p.samples.data(), fb.data());
  double num = 0, den = 0;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    num += std::norm(fa[i] - fb[i]);
    den += std::norm(fa[i]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-6);
}

TEST(InverseNufft, NoiseRobustnessWithDamping) {
  // With noisy samples, a small Tikhonov damping must not destroy recovery.
  cf::vgpu::Device dev(4);
  InvProblem<double> p({24}, 3000, dev, 19);
  cf::Rng rng(20);
  auto noisy = p.samples;
  for (auto& v : noisy) v += std::complex<double>(rng.normal(), rng.normal()) * 0.01;
  solver::InverseOptions opts;
  opts.max_iters = 50;
  opts.tol = 1e-10;
  opts.lambda = 1.0;
  solver::InverseNufft<double> inv(dev, p.N, +1, opts);
  inv.set_points(p.M, p.x.data(), nullptr, nullptr);
  std::vector<std::complex<double>> f(p.f_true.size(), {0, 0});
  inv.solve(noisy.data(), f.data());
  EXPECT_LT(p.recovery_error(f), 0.05);
}

namespace {

struct ToeplitzCase {
  std::vector<std::int64_t> N;
  bool weights;
  double lambda;  ///< in units of M, the scale of A^H A
  int modeord;
  double upsampfac;
  int iflag;
};

/// ||T x - (A^H W A + lambda) x|| / ||(A^H W A + lambda) x|| for random x,
/// with the reference built from a type-2 and a type-1 core::Plan.
template <typename T>
double toeplitz_vs_pair(const ToeplitzCase& tc, double tol, std::uint64_t seed) {
  using C = std::complex<T>;
  cf::vgpu::Device dev(4);
  const int dim = static_cast<int>(tc.N.size());
  const std::size_t M = 2000 * static_cast<std::size_t>(dim);
  Rng rng(seed);
  std::vector<T> xyz[3];
  for (int d = 0; d < dim; ++d) {
    xyz[d].resize(M);
    for (auto& v : xyz[d]) v = static_cast<T>(rng.angle());
  }
  const T* x = xyz[0].data();
  const T* y = dim >= 2 ? xyz[1].data() : nullptr;
  const T* z = dim >= 3 ? xyz[2].data() : nullptr;
  std::vector<T> w;
  if (tc.weights)
    for (std::size_t j = 0; j < M; ++j) w.push_back(static_cast<T>(rng.uniform(0.2, 2.0)));

  cf::core::Options po;
  po.modeord = tc.modeord;
  po.upsampfac = tc.upsampfac;
  solver::InverseOptions io;
  io.nufft_tol = tol;
  io.lambda = tc.lambda * double(M);
  io.plan_opts = po;
  solver::InverseNufft<T> inv(dev, tc.N, tc.iflag, io);
  inv.set_points(M, x, y, z, tc.weights ? w.data() : nullptr);
  const auto ntot = static_cast<std::size_t>(inv.modes_total());
  std::vector<C> in(ntot), out(ntot);
  for (auto& v : in)
    v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  inv.apply_normal(in.data(), out.data());

  cf::core::Plan<T> A(dev, 2, tc.N, tc.iflag, tol, po), AH(dev, 1, tc.N, -tc.iflag, tol, po);
  A.set_points(M, x, y, z);
  AH.set_points(M, x, y, z);
  std::vector<C> c(M), ref(ntot), in_copy = in;
  A.execute(c.data(), in_copy.data());
  if (tc.weights)
    for (std::size_t j = 0; j < M; ++j) c[j] *= w[j];
  AH.execute(c.data(), ref.data());
  double num = 0, den = 0;
  for (std::size_t i = 0; i < ntot; ++i) {
    ref[i] += static_cast<T>(io.lambda) * in[i];
    num += std::norm(std::complex<double>(out[i] - ref[i]));
    den += std::norm(std::complex<double>(ref[i]));
  }
  return std::sqrt(num / den);
}

template <typename T>
void check_toeplitz_matrix(double tol) {
  const std::vector<std::vector<std::int64_t>> even = {{40}, {24, 20}, {12, 10, 8}};
  const std::vector<std::vector<std::int64_t>> odd = {{41}, {23, 17}, {11, 9, 7}};
  for (int d = 0; d < 3; ++d) {
    const std::vector<ToeplitzCase> cases = {
        {even[d], false, 0.0, 0, 2.0, +1},
        {even[d], true, 0.1, 0, 2.0, -1},
        {odd[d], false, 0.0, 1, 2.0, +1},
        {odd[d], true, 0.0, 1, 1.25, -1},
        {even[d], false, 0.1, 0, 1.25, +1},
    };
    for (std::size_t k = 0; k < cases.size(); ++k) {
      const auto& tc = cases[k];
      const double rel = toeplitz_vs_pair<T>(tc, tol, 100 + 10 * d + k);
      EXPECT_LE(rel, 10 * tol) << "dim " << d + 1 << " case " << k << " N0 " << tc.N[0]
                               << " weights " << tc.weights << " lambda " << tc.lambda
                               << " modeord " << tc.modeord << " sigma " << tc.upsampfac
                               << " iflag " << tc.iflag;
    }
  }
}

}  // namespace

TEST(InverseNufft, ToeplitzMatchesPlanPair) {
  check_toeplitz_matrix<double>(1e-9);
  check_toeplitz_matrix<float>(1e-5);
}

TEST(InverseNufft, SolveIsBitwiseIdenticalAcrossWorkerCounts) {
  // The Toeplitz kernel comes from the tiled type-1 spread, and the FFT,
  // pad, product and crop are per-element or per-line: no step's bits depend
  // on how the device splits work.
  using C = std::complex<float>;
  const std::vector<std::int64_t> N = {48, 40};
  const std::size_t M = 8000;
  Rng rng(31);
  std::vector<float> x(M), y(M), w(M);
  std::vector<C> yv(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.angle());
    y[j] = static_cast<float>(rng.angle());
    w[j] = static_cast<float>(rng.uniform(0.5, 1.5));
    yv[j] = {static_cast<float>(rng.normal()), static_cast<float>(rng.normal())};
  }
  solver::InverseOptions opts;
  opts.max_iters = 8;
  opts.tol = 0;
  opts.nufft_tol = 1e-5;
  opts.lambda = 10.0;
  std::vector<C> ref;
  std::vector<double> ref_hist;
  for (std::size_t workers : {1, 2, 4}) {
    cf::vgpu::Device dev(workers);
    solver::InverseNufft<float> inv(dev, N, -1, opts);
    inv.set_points(M, x.data(), y.data(), nullptr, w.data());
    std::vector<C> f(static_cast<std::size_t>(inv.modes_total()), C(0, 0));
    const auto rep = inv.solve(yv.data(), f.data());
    EXPECT_EQ(rep.iters, 8);
    if (ref.empty()) {
      ref = f;
      ref_hist = rep.history;
      continue;
    }
    EXPECT_EQ(0, std::memcmp(f.data(), ref.data(), f.size() * sizeof(C)))
        << workers << " workers";
    EXPECT_EQ(rep.history, ref_hist) << workers << " workers";
  }
}
