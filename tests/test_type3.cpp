// Type-3 transform (nonuniform -> nonuniform): accuracy against the direct
// sum across dims, precisions, iflags, and geometries, plus structural
// properties of the two-kernel reduction.
#include <gtest/gtest.h>

#include <cmath>
#include <array>
#include <cmath>
#include <complex>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/type3.hpp"
#include "cpu/direct.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
using cf::Rng;
using cf::ThreadPool;

namespace {

struct T3Problem {
  std::vector<double> x, y, z;  // sources
  std::vector<double> s, t, u;  // target frequencies
  std::vector<std::complex<double>> c;

  T3Problem(int dim, std::size_t M, std::size_t K, double X, double S,
            std::uint64_t seed = 3, double xoff = 0.0, double soff = 0.0) {
    Rng rng(seed);
    x.resize(M);
    s.resize(K);
    if (dim >= 2) {
      y.resize(M);
      t.resize(K);
    }
    if (dim >= 3) {
      z.resize(M);
      u.resize(K);
    }
    c.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = xoff + rng.uniform(-X, X);
      if (dim >= 2) y[j] = xoff + rng.uniform(-X, X);
      if (dim >= 3) z[j] = xoff + rng.uniform(-X, X);
      c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    }
    for (std::size_t k = 0; k < K; ++k) {
      s[k] = soff + rng.uniform(-S, S);
      if (dim >= 2) t[k] = soff + rng.uniform(-S, S);
      if (dim >= 3) u[k] = soff + rng.uniform(-S, S);
    }
  }
};

template <typename T>
double run_type3(int dim, const T3Problem& p, int iflag, double tol,
                 core::Options opts = {}) {
  cf::vgpu::Device dev(4);
  ThreadPool pool(8);
  const std::size_t M = p.x.size(), K = p.s.size();
  std::vector<T> x(M), y, z, s(K), t, u;
  for (std::size_t j = 0; j < M; ++j) x[j] = static_cast<T>(p.x[j]);
  for (std::size_t k = 0; k < K; ++k) s[k] = static_cast<T>(p.s[k]);
  if (dim >= 2) {
    y.resize(M);
    t.resize(K);
    for (std::size_t j = 0; j < M; ++j) y[j] = static_cast<T>(p.y[j]);
    for (std::size_t k = 0; k < K; ++k) t[k] = static_cast<T>(p.t[k]);
  }
  if (dim >= 3) {
    z.resize(M);
    u.resize(K);
    for (std::size_t j = 0; j < M; ++j) z[j] = static_cast<T>(p.z[j]);
    for (std::size_t k = 0; k < K; ++k) u[k] = static_cast<T>(p.u[k]);
  }
  std::vector<std::complex<T>> c(M);
  for (std::size_t j = 0; j < M; ++j)
    c[j] = {static_cast<T>(p.c[j].real()), static_cast<T>(p.c[j].imag())};

  core::Type3Plan<T> plan(dev, dim, iflag, tol, opts);
  plan.set_points(M, x.data(), dim >= 2 ? y.data() : nullptr,
                  dim >= 3 ? z.data() : nullptr, K, s.data(),
                  dim >= 2 ? t.data() : nullptr, dim >= 3 ? u.data() : nullptr);
  std::vector<std::complex<T>> f(K);
  plan.execute(c.data(), f.data());

  std::vector<std::complex<T>> want(K);
  cf::cpu::direct_type3<T>(pool, x, y, z, c, iflag, s, t, u, want);
  return cf::cpu::rel_l2_error<T>(f, want);
}

}  // namespace

using T3Case = std::tuple<int, int>;  // dim, tol-exponent

namespace {
std::string t3_case_name(const ::testing::TestParamInfo<T3Case>& info) {
  return std::to_string(std::get<0>(info.param)) + "d_tol1e" +
         std::to_string(std::get<1>(info.param));
}
}  // namespace

class Type3Accuracy : public ::testing::TestWithParam<T3Case> {};

TEST_P(Type3Accuracy, MeetsToleranceDouble) {
  const auto [dim, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  T3Problem p(dim, 1500, 1200, /*X=*/3.0, /*S=*/dim == 3 ? 8.0 : 20.0, 100 + dim);
  EXPECT_LT(run_type3<double>(dim, p, +1, tol), 30 * tol);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Type3Accuracy,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(2, 5, 8, 11)),
                         t3_case_name);

class Type3AccuracySigma125 : public ::testing::TestWithParam<T3Case> {};

TEST_P(Type3AccuracySigma125, MeetsToleranceDouble) {
  // The low-upsampling fine grid: sigma = 1.25 shrinks nf (8/5 per dim —
  // sources stay packed in [-pi/2, pi/2], see type3.cpp), so the whole
  // two-kernel reduction runs on the smaller grid with the wider kernel.
  const auto [dim, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  T3Problem p(dim, 1500, 1200, /*X=*/3.0, /*S=*/dim == 3 ? 8.0 : 20.0, 200 + dim);
  core::Options low;
  low.upsampfac = 1.25;
  EXPECT_LT(run_type3<double>(dim, p, +1, tol, low), std::max(30 * tol, 1e-10));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Type3AccuracySigma125,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(2, 5, 8, 11)),
                         t3_case_name);

TEST(Type3, Sigma125SinglePrecision) {
  T3Problem p(2, 2000, 1500, 3.0, 15.0, 19);
  core::Options low;
  low.upsampfac = 1.25;
  EXPECT_LT(run_type3<float>(2, p, +1, 1e-4, low), 1e-3);
}

TEST(Type3, Sigma125ShrinksFineGrid) {
  // Same geometry, two sigmas: the sigma = 1.25 inner grid must be smaller
  // per axis (the 2x-oversampled band shrinks to 1.25x) even though the
  // kernel is wider.
  cf::vgpu::Device dev(1);
  T3Problem p(1, 400, 400, 3.0, 40.0, 20);
  core::Type3Plan<double> p2(dev, 1, +1, 1e-6);
  core::Options low;
  low.upsampfac = 1.25;
  core::Type3Plan<double> p125(dev, 1, +1, 1e-6, low);
  p2.set_points(400, p.x.data(), nullptr, nullptr, 400, p.s.data(), nullptr, nullptr);
  p125.set_points(400, p.x.data(), nullptr, nullptr, 400, p.s.data(), nullptr,
                  nullptr);
  EXPECT_LT(p125.fine_grid().nf[0], p2.fine_grid().nf[0]);
}

TEST(Type3, Sigma125RejectsUnsupportedValues) {
  cf::vgpu::Device dev(1);
  core::Options bad;
  bad.upsampfac = 1.5;
  EXPECT_THROW(core::Type3Plan<double>(dev, 1, +1, 1e-6, bad),
               std::invalid_argument);
}

TEST(Type3, SinglePrecision) {
  T3Problem p(2, 2000, 1500, 3.0, 15.0, 7);
  EXPECT_LT(run_type3<float>(2, p, +1, 1e-4), 1e-3);
}

TEST(Type3, BothIflags) {
  T3Problem p(2, 800, 700, 2.0, 12.0, 8);
  EXPECT_LT(run_type3<double>(2, p, +1, 1e-8), 1e-6);
  EXPECT_LT(run_type3<double>(2, p, -1, 1e-8), 1e-6);
}

TEST(Type3, OffCenterClouds) {
  // Centers far from the origin exercise the phase-shift bookkeeping.
  T3Problem p(2, 800, 700, 1.5, 8.0, 9, /*xoff=*/50.0, /*soff=*/-30.0);
  EXPECT_LT(run_type3<double>(2, p, +1, 1e-9), 1e-7);
}

TEST(Type3, AsymmetricSourceTargetScales) {
  // Tiny source spread against wide frequency band, and vice versa.
  T3Problem narrow_x(1, 1000, 900, 0.05, 300.0, 10);
  EXPECT_LT(run_type3<double>(1, narrow_x, +1, 1e-8), 1e-6);
  T3Problem narrow_s(1, 1000, 900, 40.0, 0.2, 11);
  EXPECT_LT(run_type3<double>(1, narrow_s, +1, 1e-8), 1e-6);
}

TEST(Type3, SingleSourceAnalytic) {
  // One source at x0 with unit strength: f_k = e^{i s_k x0} exactly.
  cf::vgpu::Device dev(2);
  const double x0 = 0.83;
  std::vector<double> x = {x0};
  std::vector<std::complex<double>> c = {{1, 0}};
  Rng rng(12);
  const std::size_t K = 200;
  std::vector<double> s(K);
  for (auto& v : s) v = rng.uniform(-25, 25);
  core::Type3Plan<double> plan(dev, 1, +1, 1e-10);
  plan.set_points(1, x.data(), nullptr, nullptr, K, s.data(), nullptr, nullptr);
  std::vector<std::complex<double>> f(K);
  plan.execute(c.data(), f.data());
  for (std::size_t k = 0; k < K; ++k) {
    EXPECT_NEAR(f[k].real(), std::cos(s[k] * x0), 1e-8);
    EXPECT_NEAR(f[k].imag(), std::sin(s[k] * x0), 1e-8);
  }
}

TEST(Type3, LinearityInStrengths) {
  T3Problem p(2, 500, 400, 2.0, 10.0, 13);
  cf::vgpu::Device dev(4);
  core::Type3Plan<double> plan(dev, 2, +1, 1e-9);
  plan.set_points(p.x.size(), p.x.data(), p.y.data(), nullptr, p.s.size(), p.s.data(),
                  p.t.data(), nullptr);
  std::vector<std::complex<double>> c1 = p.c, f1(p.s.size()), f2(p.s.size());
  plan.execute(c1.data(), f1.data());
  for (auto& v : c1) v *= std::complex<double>(2.0, -1.0);
  plan.execute(c1.data(), f2.data());
  for (std::size_t k = 0; k < f1.size(); ++k)
    EXPECT_NEAR(std::abs(f2[k] - std::complex<double>(2.0, -1.0) * f1[k]), 0.0,
                1e-9 * (1.0 + std::abs(f1[k])));
}

TEST(Type3, RepeatedExecuteAfterOneSetpts) {
  T3Problem p(1, 600, 500, 2.0, 15.0, 14);
  cf::vgpu::Device dev(2);
  core::Type3Plan<double> plan(dev, 1, +1, 1e-9);
  plan.set_points(p.x.size(), p.x.data(), nullptr, nullptr, p.s.size(), p.s.data(),
                  nullptr, nullptr);
  std::vector<std::complex<double>> c = p.c, f1(p.s.size()), f2(p.s.size());
  plan.execute(c.data(), f1.data());
  plan.execute(c.data(), f2.data());
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f1, f2), 1e-13);
}

TEST(Type3, GmMethodAlsoWorks) {
  T3Problem p(2, 700, 600, 2.5, 12.0, 16);
  core::Options gm;
  gm.method = core::Method::GM;
  EXPECT_LT(run_type3<double>(2, p, +1, 1e-7, gm), 1e-5);
}

TEST(Type3, InvalidUseThrows) {
  cf::vgpu::Device dev(1);
  EXPECT_THROW(core::Type3Plan<double>(dev, 0, +1, 1e-6), std::invalid_argument);
  EXPECT_THROW(core::Type3Plan<double>(dev, 4, +1, 1e-6), std::invalid_argument);
  for (double tol : {0.0, -1e-6, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(core::Type3Plan<double>(dev, 2, +1, tol), std::invalid_argument) << tol;
    EXPECT_THROW(core::Type3Plan<float>(dev, 2, +1, tol), std::invalid_argument) << tol;
  }
  core::Type3Plan<double> plan(dev, 2, +1, 1e-6);
  std::vector<double> x(5, 0.0);
  EXPECT_THROW(plan.set_points(5, x.data(), nullptr, nullptr, 5, x.data(), x.data(),
                               nullptr),
               std::invalid_argument);  // missing y
  std::vector<std::complex<double>> c(5), f(5);
  EXPECT_THROW(plan.execute(c.data(), f.data()), std::logic_error);  // no setpts
}

TEST(Type3, PointCountOf2To32IsRejected) {
  // M or K >= 2^32 is rejected on the count alone, before any allocation or
  // coordinate read (the arrays here hold 5 points).
  cf::vgpu::Device dev(1);
  core::Type3Plan<double> plan(dev, 1, +1, 1e-6);
  std::vector<double> x(5, 0.0);
  const std::size_t big = std::size_t{1} << 32;
  EXPECT_THROW(plan.set_points(big, x.data(), nullptr, nullptr, 5, x.data(), nullptr,
                               nullptr),
               std::invalid_argument);
  EXPECT_THROW(plan.set_points(5, x.data(), nullptr, nullptr, big, x.data(), nullptr,
                               nullptr),
               std::invalid_argument);
  EXPECT_EQ(plan.nsources(), 0u);
}

TEST(Type3, NonFiniteCoordinatesAreRejected) {
  // NaN or +Inf in any source or target axis is rejected before the sort, and
  // a rejected set leaves the previous points in place.
  cf::vgpu::Device dev(2);
  const std::size_t M = 300, K = 200;
  Rng rng(63);
  std::vector<double> xyz[3], stu[3];
  for (int d = 0; d < 3; ++d) {
    for (std::size_t j = 0; j < M; ++j) xyz[d].push_back(rng.uniform(-2, 2));
    for (std::size_t k = 0; k < K; ++k) stu[d].push_back(rng.uniform(-20, 20));
  }
  std::vector<std::complex<double>> c(M), before(K), after(K);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  core::Type3Plan<double> plan(dev, 3, +1, 1e-6);
  plan.set_points(M, xyz[0].data(), xyz[1].data(), xyz[2].data(), K, stu[0].data(),
                  stu[1].data(), stu[2].data());
  plan.execute(c.data(), before.data());
  const double bads[2] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
  for (int targets = 0; targets < 2; ++targets)
    for (int d = 0; d < 3; ++d)
      for (const double bad : bads) {
        auto src = std::to_array({xyz[0], xyz[1], xyz[2]});
        auto trg = std::to_array({stu[0], stu[1], stu[2]});
        (targets ? trg : src)[d][targets ? K / 2 : M / 2] = bad;
        EXPECT_THROW(plan.set_points(M, src[0].data(), src[1].data(), src[2].data(), K,
                                     trg[0].data(), trg[1].data(), trg[2].data()),
                     std::invalid_argument)
            << (targets ? "target" : "source") << " axis " << d << " value " << bad;
      }
  plan.execute(c.data(), after.data());
  EXPECT_EQ(before, after);
}

TEST(Type3, FineGridScalesWithSpaceBandwidthProduct) {
  cf::vgpu::Device dev(1);
  T3Problem small(1, 100, 100, 1.0, 5.0, 17);
  T3Problem large(1, 100, 100, 4.0, 40.0, 18);
  core::Type3Plan<double> ps(dev, 1, +1, 1e-6), pl(dev, 1, +1, 1e-6);
  ps.set_points(100, small.x.data(), nullptr, nullptr, 100, small.s.data(), nullptr,
                nullptr);
  pl.set_points(100, large.x.data(), nullptr, nullptr, 100, large.s.data(), nullptr,
                nullptr);
  EXPECT_GT(pl.fine_grid().nf[0], 10 * ps.fine_grid().nf[0]);
}
TEST(Type3, ClusteredSourcesStillAccurate) {
  // All sources in a tiny blob (extreme X clustering) with wide targets.
  T3Problem p(2, 1500, 1000, 0.01, 30.0, 55);
  EXPECT_LT(run_type3<double>(2, p, +1, 1e-8), 1e-6);
}

TEST(Type3, Works3dSinglePrecision) {
  T3Problem p(3, 1500, 800, 2.0, 6.0, 56);
  EXPECT_LT(run_type3<float>(3, p, -1, 1e-4), 5e-3);
}

TEST(Type3, ManySourcesFewTargetsAndViceVersa) {
  T3Problem big_m(1, 20000, 50, 3.0, 20.0, 57);
  EXPECT_LT(run_type3<double>(1, big_m, +1, 1e-9), 1e-7);
  T3Problem big_k(1, 50, 20000, 3.0, 20.0, 58);
  EXPECT_LT(run_type3<double>(1, big_k, +1, 1e-9), 1e-7);
}
