// Comparator libraries: CUNFFT-like and gpuNUFFT-like must be *correct* at
// their own accuracy envelopes, and must exhibit the structural properties
// the paper attributes to them (wider Gaussian kernel; accuracy floor).
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "baselines/cunfft_like.hpp"
#include "baselines/gpunufft_like.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "cpu/direct.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "vgpu/device.hpp"

namespace baselines = cf::baselines;
namespace cpu = cf::cpu;
using cf::Rng;
using cf::ThreadPool;

namespace {

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c, f;
  std::size_t M;

  Problem(std::vector<std::int64_t> modes, std::size_t M_, std::uint64_t seed = 7)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    std::int64_t ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    y.resize(dim >= 2 ? M : 0);
    z.resize(dim >= 3 ? M : 0);
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = static_cast<T>(rng.angle());
      if (dim >= 2) y[j] = static_cast<T>(rng.angle());
      if (dim >= 3) z[j] = static_cast<T>(rng.angle());
    }
    c.resize(M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    f.resize(static_cast<std::size_t>(ntot));
    for (auto& v : f)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
};

}  // namespace

TEST(GaussianWidth, RoughlyDoubleTheEsWidth) {
  // The structural reason CUNFFT loses at matched accuracy.
  EXPECT_GE(baselines::gaussian_width_from_tol(1e-5), 12);
  EXPECT_LE(baselines::gaussian_width_from_tol(1e-5), 14);
  EXPECT_GE(baselines::gaussian_width_from_tol(1e-2), 5);
}

TEST(CunfftLike, Type1MatchesDirectAtTolerance) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  for (double tol : {1e-2, 1e-4, 1e-6}) {
    Problem<double> p({20, 24}, 1200, 41);
    baselines::CunfftPlan<double> plan(dev, 1, p.N, +1, tol);
    plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
    plan.execute(p.c.data(), got.data());
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), 20 * tol) << "tol=" << tol;
  }
}

TEST(CunfftLike, Type2MatchesDirect) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({18, 20}, 900, 43);
  baselines::CunfftPlan<double> plan(dev, 2, p.N, -1, 1e-5);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> got(p.M), want(p.M);
  plan.execute(got.data(), p.f.data());
  cpu::direct_type2<double>(pool, p.x, p.y, p.z, want, -1, p.N, p.f);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-4);
}

TEST(CunfftLike, Works3d) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({10, 11, 12}, 800, 47);
  baselines::CunfftPlan<double> plan(dev, 1, p.N, +1, 1e-4);
  plan.set_points(p.M, p.x.data(), p.y.data(), p.z.data());
  std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-3);
}

TEST(CunfftLike, SinglePrecision) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<float> p({24, 24}, 1500, 53);
  baselines::CunfftPlan<float> plan(dev, 1, p.N, +1, 1e-4);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<float>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<float>(got, want), 5e-3);
}

TEST(GpunufftLike, Type1MatchesDirectAtItsFloor) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({20, 22}, 1200, 59);
  baselines::GpunufftPlan<double> plan(dev, 1, p.N, +1, 1e-3);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-2);
}

TEST(GpunufftLike, AccuracyFloorsRegardlessOfTolerance) {
  // Asking for 1e-9 cannot beat the width cap: the error stalls above ~1e-5
  // (the paper's observation that gpuNUFFT's eps always exceeds 1e-3).
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({20, 22}, 1200, 61);
  baselines::GpunufftPlan<double> plan(dev, 1, p.N, +1, 1e-9);
  EXPECT_EQ(plan.kernel_width(), baselines::kMaxKbWidth);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
  const double err = cpu::rel_l2_error<double>(got, want);
  EXPECT_GT(err, 1e-7);  // cannot reach the requested 1e-9
  EXPECT_LT(err, 1e-2);  // still a working transform
}

TEST(GpunufftLike, Type2MatchesDirect) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({18, 18}, 700, 67);
  baselines::GpunufftPlan<double> plan(dev, 2, p.N, +1, 1e-3);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> got(p.M), want(p.M);
  plan.execute(got.data(), p.f.data());
  cpu::direct_type2<double>(pool, p.x, p.y, p.z, want, +1, p.N, p.f);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-2);
}

TEST(GpunufftLike, Works3dSingle) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<float> p({10, 10, 12}, 900, 71);
  baselines::GpunufftPlan<float> plan(dev, 1, p.N, +1, 1e-3);
  plan.set_points(p.M, p.x.data(), p.y.data(), p.z.data());
  std::vector<std::complex<float>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<float>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<float>(got, want), 1e-2);
}

TEST(GpunufftLike, Rejects1d) {
  cf::vgpu::Device dev(1);
  const std::int64_t n[1] = {64};
  EXPECT_THROW(baselines::GpunufftPlan<double>(dev, 1, std::span(n, 1), +1, 1e-3),
               std::invalid_argument);
}

TEST(Baselines, BadModesAndDimsThrow) {
  // Both baselines size their fine grids through spread::make_grid, so a
  // zero or negative mode count is rejected instead of reaching an allocation.
  cf::vgpu::Device dev(1);
  for (const std::int64_t bad : {0, -4}) {
    const std::int64_t n[2] = {16, bad};
    EXPECT_THROW(baselines::CunfftPlan<double>(dev, 1, std::span(n, 2), +1, 1e-3),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(baselines::GpunufftPlan<double>(dev, 1, std::span(n, 2), +1, 1e-3),
                 std::invalid_argument)
        << bad;
  }
  const std::int64_t n4[4] = {8, 8, 8, 8};
  EXPECT_THROW(baselines::CunfftPlan<double>(dev, 1, std::span(n4, 0), +1, 1e-3),
               std::invalid_argument);
  EXPECT_THROW(baselines::CunfftPlan<double>(dev, 1, std::span(n4, 4), +1, 1e-3),
               std::invalid_argument);
  EXPECT_THROW(baselines::GpunufftPlan<double>(dev, 1, std::span(n4, 4), +1, 1e-3),
               std::invalid_argument);
}

TEST(Baselines, ClusteredStillCorrect) {
  // Load-imbalance hurts speed, never correctness.
  cf::vgpu::Device dev(4);
  ThreadPool pool(4);
  Rng rng(73);
  const std::size_t M = 2000;
  std::vector<double> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(-3.14159, -3.0);
    y[j] = rng.uniform(-3.14159, -3.0);
  }
  std::vector<std::complex<double>> c(M);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const std::int64_t N[2] = {24, 24};
  std::vector<std::complex<double>> want(24 * 24);
  cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(N, 2), want);

  baselines::CunfftPlan<double> cu(dev, 1, std::span(N, 2), +1, 1e-4);
  cu.set_points(M, x.data(), y.data(), nullptr);
  std::vector<std::complex<double>> got(24 * 24);
  cu.execute(c.data(), got.data());
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-3);

  baselines::GpunufftPlan<double> gp(dev, 1, std::span(N, 2), +1, 1e-3);
  gp.set_points(M, x.data(), y.data(), nullptr);
  gp.execute(c.data(), got.data());
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-2);
}

TEST(CunfftLike, AdjointPair) {
  cf::vgpu::Device dev(4);
  Problem<double> p({20, 20}, 800, 79);
  baselines::CunfftPlan<double> t1(dev, 1, p.N, +1, 1e-6);
  baselines::CunfftPlan<double> t2(dev, 2, p.N, -1, 1e-6);
  t1.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  t2.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> Ac(p.f.size());
  auto c = p.c;
  t1.execute(c.data(), Ac.data());
  std::vector<std::complex<double>> Atf(p.M);
  auto f = p.f;
  t2.execute(Atf.data(), f.data());
  std::complex<double> lhs(0, 0), rhs(0, 0);
  for (std::size_t i = 0; i < Ac.size(); ++i) lhs += Ac[i] * std::conj(p.f[i]);
  for (std::size_t j = 0; j < p.M; ++j) rhs += p.c[j] * std::conj(Atf[j]);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-6 * std::abs(lhs));
}

TEST(CunfftLike, RepeatedExecuteDeterministicEnough) {
  cf::vgpu::Device dev(4);
  Problem<double> p({32, 32}, 3000, 83);
  baselines::CunfftPlan<double> plan(dev, 1, p.N, +1, 1e-5);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> f1(p.f.size()), f2(p.f.size());
  auto c = p.c;
  plan.execute(c.data(), f1.data());
  plan.execute(c.data(), f2.data());
  EXPECT_LT(cpu::rel_l2_error<double>(f1, f2), 1e-12);
}

TEST(CunfftLike, WiderKernelAtTighterTolerance) {
  cf::vgpu::Device dev(1);
  const std::int64_t N[2] = {16, 16};
  baselines::CunfftPlan<double> loose(dev, 1, std::span(N, 2), +1, 1e-2);
  baselines::CunfftPlan<double> tight(dev, 1, std::span(N, 2), +1, 1e-8);
  EXPECT_GT(tight.kernel_width(), loose.kernel_width());
  EXPECT_GE(tight.kernel_width(), 2 * cf::spread::width_from_tol(1e-8) - 4);
}

TEST(GpunufftLike, SectorLoadImbalanceVisibleInBlockTiming) {
  // Clustered points concentrate into a handful of sectors; the block count
  // the device executes stays the same (one per sector), demonstrating the
  // output-driven structure (correctness unaffected; speed tested in bench).
  cf::vgpu::Device dev(4);
  Problem<double> rand_p({32, 32}, 4000, 89);
  baselines::GpunufftPlan<double> plan(dev, 1, rand_p.N, +1, 1e-3);
  plan.set_points(rand_p.M, rand_p.x.data(), rand_p.y.data(), nullptr);
  std::vector<std::complex<double>> f(32 * 32);
  dev.counters.reset();
  auto c = rand_p.c;
  plan.execute(c.data(), f.data());
  EXPECT_GT(dev.counters.shared_ops.load(), 0u);  // sector buffers in use
}

TEST(GpunufftLike, SinglePointMatchesDirect) {
  cf::vgpu::Device dev(1);
  cf::ThreadPool pool(2);
  std::vector<double> x = {0.3}, y = {-1.2};
  std::vector<std::complex<double>> c = {{2, 1}};
  const std::int64_t N[2] = {12, 12};
  baselines::GpunufftPlan<double> plan(dev, 1, std::span(N, 2), +1, 1e-3);
  plan.set_points(1, x.data(), y.data(), nullptr);
  std::vector<std::complex<double>> got(144), want(144);
  plan.execute(c.data(), got.data());
  cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(N, 2), want);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-2);
}
