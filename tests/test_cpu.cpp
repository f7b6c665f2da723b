// CPU comparator library (FINUFFT-like) and the direct NUDFT reference.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "cpu/cpu_plan.hpp"
#include "cpu/direct.hpp"
#include "vgpu/device.hpp"

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
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
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

TEST(Direct, Type1SinglePointAnalytic) {
  // One point at x=0 with strength 1: f_k = 1 for all k.
  ThreadPool pool(2);
  std::vector<double> x = {0.0};
  std::vector<std::complex<double>> c = {{1, 0}};
  const std::int64_t N[1] = {8};
  std::vector<std::complex<double>> f(8);
  cpu::direct_type1<double>(pool, x, {}, {}, c, +1, std::span(N, 1), f);
  for (auto& v : f) EXPECT_NEAR(std::abs(v - std::complex<double>(1, 0)), 0.0, 1e-14);
}

TEST(Direct, Type1PhaseRamp) {
  // One point at x0: f_k = e^{i k x0}.
  ThreadPool pool(2);
  const double x0 = 0.7;
  std::vector<double> x = {x0};
  std::vector<std::complex<double>> c = {{1, 0}};
  const std::int64_t N[1] = {9};
  std::vector<std::complex<double>> f(9);
  cpu::direct_type1<double>(pool, x, {}, {}, c, +1, std::span(N, 1), f);
  for (std::int64_t i = 0; i < 9; ++i) {
    const double k = double(i - 4);
    EXPECT_NEAR(f[i].real(), std::cos(k * x0), 1e-14);
    EXPECT_NEAR(f[i].imag(), std::sin(k * x0), 1e-14);
  }
}

TEST(Direct, Type2IsTransposeOfType1OnDeltaBasis) {
  ThreadPool pool(4);
  Problem<double> p({6, 5}, 4, 11);
  // Build the dense matrix both ways and compare A^T entries.
  const std::int64_t ntot = 30;
  for (std::size_t j = 0; j < p.M; ++j) {
    std::vector<std::complex<double>> c(p.M, {0, 0});
    c[j] = {1, 0};
    std::vector<std::complex<double>> col(ntot);
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, c, +1, p.N, col);
    // Row j of type 2 applied to a delta in mode i must equal col[i].
    for (std::int64_t i = 0; i < ntot; ++i) {
      std::vector<std::complex<double>> f(ntot, {0, 0});
      f[static_cast<std::size_t>(i)] = {1, 0};
      std::vector<std::complex<double>> out(p.M);
      cpu::direct_type2<double>(pool, p.x, p.y, p.z, out, +1, p.N, f);
      EXPECT_NEAR(std::abs(out[j] - col[static_cast<std::size_t>(i)]), 0.0, 1e-13);
    }
    break;  // one column suffices; the loop documents the property
  }
}

TEST(RelL2Error, BasicProperties) {
  std::vector<std::complex<double>> a = {{1, 0}, {0, 1}};
  std::vector<std::complex<double>> b = {{1, 0}, {0, 1}};
  EXPECT_EQ(cpu::rel_l2_error<double>(a, b), 0.0);
  a[0] = {2, 0};
  EXPECT_NEAR(cpu::rel_l2_error<double>(a, b), 1.0 / std::sqrt(2.0), 1e-15);
}

using CpuCase = std::tuple<int, int, int>;  // dim, type, tol-exponent

namespace {
std::string cpu_case_name(const ::testing::TestParamInfo<CpuCase>& info) {
  return std::to_string(std::get<0>(info.param)) + "d_t" +
         std::to_string(std::get<1>(info.param)) + "_tol1e" +
         std::to_string(std::get<2>(info.param));
}
}  // namespace

class CpuPlanAccuracy : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuPlanAccuracy, MatchesDirect) {
  const auto [dim, type, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{80}
                              : dim == 2 ? std::vector<std::int64_t>{22, 26}
                                         : std::vector<std::int64_t>{10, 11, 12});
  Problem<double> p(N, 1500, 23);
  ThreadPool pool(8);
  cpu::CpuPlan<double> plan(pool, type, p.N, +1, tol);
  plan.set_points(p.M, p.x.data(), dim >= 2 ? p.y.data() : nullptr,
                  dim >= 3 ? p.z.data() : nullptr);
  if (type == 1) {
    std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
    plan.execute(p.c.data(), got.data());
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), 10 * tol);
  } else {
    std::vector<std::complex<double>> got(p.M), want(p.M);
    plan.execute(got.data(), p.f.data());
    cpu::direct_type2<double>(pool, p.x, p.y, p.z, want, +1, p.N, p.f);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), 10 * tol);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuPlanAccuracy,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(2, 6, 10)),
                         cpu_case_name);

class CpuPlanAccuracySigma125 : public ::testing::TestWithParam<CpuCase> {};

TEST_P(CpuPlanAccuracySigma125, MatchesDirect) {
  const auto [dim, type, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{80}
                              : dim == 2 ? std::vector<std::int64_t>{22, 26}
                                         : std::vector<std::int64_t>{10, 11, 12});
  Problem<double> p(N, 1500, 24);
  ThreadPool pool(8);
  cpu::CpuPlan<double>::Options o;
  o.upsampfac = 1.25;
  cpu::CpuPlan<double> plan(pool, type, p.N, +1, tol, o);
  plan.set_points(p.M, p.x.data(), dim >= 2 ? p.y.data() : nullptr,
                  dim >= 3 ? p.z.data() : nullptr);
  // Same 10x-of-eps heuristic as sigma = 2, floored where the sigma = 1.25
  // widths exceed the dispatch range and double rounding dominates.
  const double bound = std::max(10 * tol, 1e-11);
  if (type == 1) {
    std::vector<std::complex<double>> got(p.f.size()), want(p.f.size());
    plan.execute(p.c.data(), got.data());
    cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), bound);
  } else {
    std::vector<std::complex<double>> got(p.M), want(p.M);
    plan.execute(got.data(), p.f.data());
    cpu::direct_type2<double>(pool, p.x, p.y, p.z, want, +1, p.N, p.f);
    EXPECT_LT(cpu::rel_l2_error<double>(got, want), bound);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpuPlanAccuracySigma125,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(2, 6, 10)),
                         cpu_case_name);

TEST(CpuPlan, Sigma125MatchesDeviceLibraryClosely) {
  // Both libraries share the kernel/width selection, so their sigma = 1.25
  // grids and outputs agree the same way the sigma = 2 ones do.
  ThreadPool pool(4);
  cf::vgpu::Device dev(4);
  Problem<double> p({28, 24}, 2500, 32);
  cpu::CpuPlan<double>::Options co;
  co.upsampfac = 1.25;
  cf::core::Options go;
  go.upsampfac = 1.25;
  cpu::CpuPlan<double> cplan(pool, 1, p.N, +1, 1e-9, co);
  cf::core::Plan<double> gplan(dev, 1, p.N, +1, 1e-9, go);
  EXPECT_EQ(cplan.fine_grid().nf[0], gplan.fine_grid().nf[0]);
  EXPECT_EQ(cplan.kernel_width(), gplan.kernel_width());
  cplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  gplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), fg(p.f.size());
  cplan.execute(p.c.data(), fc.data());
  gplan.execute(p.c.data(), fg.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fg, fc), 1e-9);
}

TEST(CpuPlan, Sigma125RejectsUnsupportedValues) {
  ThreadPool pool(1);
  const std::int64_t n[2] = {16, 16};
  cpu::CpuPlan<double>::Options o;
  o.upsampfac = 3.0;
  EXPECT_THROW(cpu::CpuPlan<double>(pool, 1, std::span(n, 2), +1, 1e-6, o),
               std::invalid_argument);
}

TEST(CpuPlan, SinglePrecision) {
  ThreadPool pool(4);
  Problem<float> p({32, 32}, 3000, 29);
  cpu::CpuPlan<float> plan(pool, 1, p.N, -1, 1e-5);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> got(p.f.size()), want(p.f.size());
  plan.execute(p.c.data(), got.data());
  cpu::direct_type1<float>(pool, p.x, p.y, p.z, p.c, -1, p.N, want);
  EXPECT_LT(cpu::rel_l2_error<float>(got, want), 3e-5);
}

TEST(CpuPlan, MatchesDeviceLibraryClosely) {
  // The CPU and device libraries implement the same math; at a given tol
  // their outputs agree to that tol against each other.
  ThreadPool pool(4);
  cf::vgpu::Device dev(4);
  Problem<double> p({28, 24}, 2500, 31);
  cpu::CpuPlan<double> cplan(pool, 1, p.N, +1, 1e-9);
  cf::core::Plan<double> gplan(dev, 1, p.N, +1, 1e-9);
  cplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  gplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), fg(p.f.size());
  cplan.execute(p.c.data(), fc.data());
  gplan.execute(p.c.data(), fg.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fg, fc), 1e-9);
}

TEST(CpuPlan, BreakdownPopulated) {
  ThreadPool pool(4);
  Problem<double> p({48, 48}, 20000, 37);
  cpu::CpuPlan<double> plan(pool, 1, p.N, +1, 1e-8);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> f(p.f.size());
  plan.execute(p.c.data(), f.data());
  const auto& bd = plan.last_breakdown();
  EXPECT_GT(bd.sort, 0.0);
  EXPECT_GT(bd.spread, 0.0);
  EXPECT_GT(bd.fft, 0.0);
}

TEST(CpuPlan, InvalidArgumentsThrow) {
  ThreadPool pool(1);
  const std::int64_t n[2] = {16, 16};
  EXPECT_THROW(cpu::CpuPlan<double>(pool, 5, std::span(n, 2), +1, 1e-6),
               std::invalid_argument);
  cpu::CpuPlan<double> plan(pool, 1, std::span(n, 2), +1, 1e-6);
  EXPECT_THROW(plan.set_points(10, nullptr, nullptr, nullptr), std::invalid_argument);
  // The fine grid checks the mode counts before anything is sized by them.
  for (std::int64_t bad : {std::int64_t{0}, std::int64_t{-4}}) {
    const std::int64_t m[2] = {16, bad};
    EXPECT_THROW(cpu::CpuPlan<double>(pool, 1, std::span(m, 2), +1, 1e-6),
                 std::invalid_argument)
        << "mode " << bad;
  }
  const std::int64_t four[4] = {4, 4, 4, 4};
  EXPECT_THROW(cpu::CpuPlan<double>(pool, 1, std::span(four, 4), +1, 1e-6),
               std::invalid_argument);
  // A tol that is not a positive normal number below 1 has no kernel width.
  for (double tol : {0.0, -1e-6, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(cpu::CpuPlan<double>(pool, 1, std::span(n, 2), +1, tol),
                 std::invalid_argument)
        << tol;
  }
  cpu::CpuPlan<double>::Options o;
  o.msub = 0;
  EXPECT_THROW(cpu::CpuPlan<double>(pool, 1, std::span(n, 2), +1, 1e-6, o),
               std::invalid_argument);
}

TEST(CpuPlan, ModeProductOverflowIsRejectedBeforeAllocation) {
  // 2^66 modes overflow std::int64_t: an invalid argument from the grid
  // check, not a bad_alloc or length_error from sizing the fine grid.
  ThreadPool pool(1);
  const std::int64_t n22 = std::int64_t{1} << 22;
  const std::int64_t n[3] = {n22, n22, n22};
  for (int type : {1, 2})
    EXPECT_THROW(cpu::CpuPlan<float>(pool, type, std::span(n, 3), +1, 1e-5),
                 std::invalid_argument)
        << "type " << type;
}

TEST(CpuPlan, PointCountOf2To32IsRejected) {
  // M >= 2^32 is rejected on M alone, before any allocation or coordinate
  // read (the arrays here hold 8 points).
  ThreadPool pool(1);
  const std::int64_t n[2] = {16, 16};
  std::vector<double> x(8, 0.5), y(8, -0.5);
  for (int type : {1, 2}) {
    cpu::CpuPlan<double> plan(pool, type, std::span(n, 2), +1, 1e-6);
    EXPECT_THROW(plan.set_points(std::size_t{1} << 32, x.data(), y.data(), nullptr),
                 std::invalid_argument)
        << "type " << type;
  }
}

TEST(CpuPlan, NonFiniteCoordinatesThrow) {
  // A NaN or Inf coordinate is rejected before the sort, and the plan keeps
  // no points: a later execute returns zeros rather than garbage.
  ThreadPool pool(2);
  const std::int64_t n[2] = {16, 16};
  const double bad[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (int type : {1, 2}) {
    cpu::CpuPlan<double> plan(pool, type, std::span(n, 2), +1, 1e-6);
    for (int axis = 0; axis < 2; ++axis) {
      for (double v : bad) {
        std::vector<double> x(8, 0.5), y(8, -0.5);
        (axis == 0 ? x : y)[3] = v;
        EXPECT_THROW(plan.set_points(x.size(), x.data(), y.data(), nullptr),
                     std::invalid_argument)
            << "type " << type << " axis " << axis << " value " << v;
      }
    }
    if (type == 1) {
      std::vector<std::complex<double>> c(8, {1, 0}), f(256, {7, 7});
      plan.execute(c.data(), f.data());
      for (const auto& v : f) EXPECT_EQ(v, std::complex<double>(0, 0));
    }
  }
}

TEST(CpuPlan, WrappedSubproblemBoxesMatchDirect) {
  // N = 8 gives nf = 27 at tol 1e-12 (w = 13): a default subproblem over
  // points spanning the domain has a box wider than nf on every axis, and at
  // msub = 1 each box is one point's w-wide footprint, wrapping at the edges.
  const double tol = 1e-12;
  for (int dim = 1; dim <= 3; ++dim) {
    Problem<double> p(std::vector<std::int64_t>(static_cast<std::size_t>(dim), 8), 300,
                      71 + dim);
    p.x[0] = -3.14159;  // pin both domain ends
    p.x[1] = 3.14159;
    for (std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      std::vector<std::complex<double>> want(p.f.size());
      cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
      for (std::uint32_t msub : {1u, 16384u}) {
        cpu::CpuPlan<double>::Options o;
        o.msub = msub;
        cpu::CpuPlan<double> plan(pool, 1, p.N, +1, tol, o);
        ASSERT_EQ(plan.fine_grid().nf[0], 27);
        plan.set_points(p.M, p.x.data(), dim >= 2 ? p.y.data() : nullptr,
                        dim >= 3 ? p.z.data() : nullptr);
        std::vector<std::complex<double>> got(p.f.size());
        auto c = p.c;
        plan.execute(c.data(), got.data());
        EXPECT_LT(cpu::rel_l2_error<double>(got, want), 10 * tol)
            << dim << "D, " << threads << " threads, msub " << msub;
      }
    }
  }
}

TEST(CpuPlan, MsubDoesNotChangeResult) {
  ThreadPool pool(4);
  Problem<double> p({40, 40}, 5000, 41);
  std::vector<std::complex<double>> base;
  for (std::uint32_t msub : {64u, 1024u, 16384u, 1000000u}) {
    cpu::CpuPlan<double>::Options o;
    o.msub = msub;
    cpu::CpuPlan<double> plan(pool, 1, p.N, +1, 1e-9, o);
    plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    std::vector<std::complex<double>> f(p.f.size());
    auto c = p.c;
    plan.execute(c.data(), f.data());
    if (base.empty())
      base = f;
    else
      EXPECT_LT(cpu::rel_l2_error<double>(f, base), 1e-12) << "msub=" << msub;
  }
}

TEST(CpuPlan, AdjointPairProperty) {
  ThreadPool pool(4);
  Problem<double> p({22, 18}, 900, 43);
  cpu::CpuPlan<double> t1(pool, 1, p.N, +1, 1e-11);
  cpu::CpuPlan<double> t2(pool, 2, p.N, -1, 1e-11);
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
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

TEST(CpuPlan, ClusteredPointsAccurate) {
  ThreadPool pool(8);
  Rng rng(47);
  const std::size_t M = 4000;
  std::vector<double> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(-3.14159, -3.1);
    y[j] = rng.uniform(-3.14159, -3.1);
  }
  std::vector<std::complex<double>> c(M);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const std::int64_t N[2] = {24, 24};
  cpu::CpuPlan<double> plan(pool, 1, std::span(N, 2), +1, 1e-9);
  plan.set_points(M, x.data(), y.data(), nullptr);
  std::vector<std::complex<double>> got(24 * 24), want(24 * 24);
  plan.execute(c.data(), got.data());
  cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(N, 2), want);
  EXPECT_LT(cpu::rel_l2_error<double>(got, want), 1e-8);
}

TEST(CpuPlan, ThreadCountInvariance) {
  Problem<double> p({30, 30}, 3000, 53);
  ThreadPool p1(1), p8(8);
  cpu::CpuPlan<double> a(p1, 1, p.N, +1, 1e-10), b(p8, 1, p.N, +1, 1e-10);
  a.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  b.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fa(p.f.size()), fb(p.f.size());
  auto c = p.c;
  a.execute(c.data(), fa.data());
  b.execute(c.data(), fb.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fb, fa), 1e-13);
}

TEST(CpuPlan, ModeOrderingMatchesDeviceLibrary) {
  ThreadPool pool(4);
  cf::vgpu::Device dev(4);
  Problem<double> p({14, 10}, 700, 61);
  cpu::CpuPlan<double>::Options copts;
  copts.modeord = 1;
  cpu::CpuPlan<double> cplan(pool, 1, p.N, +1, 1e-10, copts);
  cf::core::Options gopts;
  gopts.modeord = 1;
  cf::core::Plan<double> gplan(dev, 1, p.N, +1, 1e-10, gopts);
  cplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  gplan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), fg(p.f.size());
  auto c = p.c;
  cplan.execute(c.data(), fc.data());
  gplan.execute(c.data(), fg.data());
  EXPECT_LT(cpu::rel_l2_error<double>(fg, fc), 1e-10);
}

TEST(CpuPlan, BatchedMatchesSingles) {
  ThreadPool pool(4);
  Problem<double> p({18, 18}, 600, 67);
  const int B = 3;
  Rng rng(68);
  std::vector<std::complex<double>> cbatch(B * p.M);
  for (auto& v : cbatch) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  cpu::CpuPlan<double>::Options o;
  o.ntransf = B;
  cpu::CpuPlan<double> batched(pool, 1, p.N, +1, 1e-9, o);
  batched.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fbatch(B * p.f.size());
  batched.execute(cbatch.data(), fbatch.data());
  cpu::CpuPlan<double> single(pool, 1, p.N, +1, 1e-9);
  single.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<double>> fb(p.f.size());
    single.execute(cbatch.data() + b * p.M, fb.data());
    std::vector<std::complex<double>> got(fbatch.begin() + b * p.f.size(),
                                          fbatch.begin() + (b + 1) * p.f.size());
    EXPECT_LT(cpu::rel_l2_error<double>(got, fb), 1e-13);
  }
}
