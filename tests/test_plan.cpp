// End-to-end transform accuracy for the device library: every (dim, type,
// precision, method, tolerance) combination is validated against the exact
// direct NUDFT, plus plan lifecycle and property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "cpu/direct.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace vgpu = cf::vgpu;
using cf::Rng;
using cf::ThreadPool;

namespace {

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c, f;
  std::size_t M;

  Problem(std::vector<std::int64_t> modes, std::size_t M_, bool cluster = false,
          std::uint64_t seed = 7)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    std::int64_t ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    auto coord = [&]() {
      return static_cast<T>(cluster ? rng.uniform(-3.14159, -3.0) : rng.angle());
    };
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = coord();
      if (dim >= 2) y[j] = coord();
      if (dim >= 3) z[j] = coord();
    }
    c.resize(M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    f.resize(static_cast<std::size_t>(ntot));
    for (auto& v : f)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
};

template <typename T>
double run_type1_error(vgpu::Device& dev, ThreadPool& pool, Problem<T>& p, int iflag,
                       double tol, core::Options opts = {}) {
  core::Plan<T> plan(dev, 1, p.N, iflag, tol, opts);
  plan.set_points(p.M, p.x.data(), p.N.size() >= 2 ? p.y.data() : nullptr,
                  p.N.size() >= 3 ? p.z.data() : nullptr);
  std::vector<std::complex<T>> got(p.f.size());
  plan.execute(p.c.data(), got.data());
  std::vector<std::complex<T>> want(p.f.size());
  cf::cpu::direct_type1<T>(pool, p.x, p.y, p.z, p.c, iflag, p.N, want);
  return cf::cpu::rel_l2_error<T>(got, want);
}

template <typename T>
double run_type2_error(vgpu::Device& dev, ThreadPool& pool, Problem<T>& p, int iflag,
                       double tol, core::Options opts = {}) {
  core::Plan<T> plan(dev, 2, p.N, iflag, tol, opts);
  plan.set_points(p.M, p.x.data(), p.N.size() >= 2 ? p.y.data() : nullptr,
                  p.N.size() >= 3 ? p.z.data() : nullptr);
  std::vector<std::complex<T>> got(p.M);
  plan.execute(got.data(), p.f.data());
  std::vector<std::complex<T>> want(p.M);
  cf::cpu::direct_type2<T>(pool, p.x, p.y, p.z, want, iflag, p.N, p.f);
  return cf::cpu::rel_l2_error<T>(got, want);
}

}  // namespace

// ---- the main accuracy sweep -----------------------------------------------

// (dim, type, method, tol-exponent)
using PlanCase = std::tuple<int, int, core::Method, int>;

namespace {
std::string plan_case_name(const ::testing::TestParamInfo<PlanCase>& info) {
  const int dim = std::get<0>(info.param);
  const int type = std::get<1>(info.param);
  const core::Method method = std::get<2>(info.param);
  const int tole = std::get<3>(info.param);
  std::string m = core::method_name(method);
  for (auto& ch : m)
    if (ch == '-') ch = '_';
  return std::to_string(dim) + "d_t" + std::to_string(type) + "_" + m + "_tol1e" +
         std::to_string(tole);
}
}  // namespace

class PlanAccuracyF64 : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanAccuracyF64, MeetsRequestedTolerance) {
  const auto [dim, type, method, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{90}
                              : dim == 2 ? std::vector<std::int64_t>{24, 30}
                                         : std::vector<std::int64_t>{10, 12, 14});
  Problem<double> p(N, 2000);
  vgpu::Device dev(4);
  ThreadPool pool(8);
  core::Options opts;
  opts.method = method;
  double err = 0;
  if (type == 1) {
    if (method == core::Method::SM && dim == 3) {
      // 3D double SM is rejected per paper Rmk. 2 — verified elsewhere.
      GTEST_SKIP();
    }
    err = run_type1_error<double>(dev, pool, p, +1, tol, opts);
  } else {
    if (method == core::Method::SM) GTEST_SKIP();  // SM is type-1 only
    err = run_type2_error<double>(dev, pool, p, +1, tol, opts);
  }
  // The width rule typically yields errors near eps (paper Sec. II); allow 10x.
  EXPECT_LT(err, 10 * tol) << "dim=" << dim << " type=" << type;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanAccuracyF64,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(core::Method::GM,
                                                              core::Method::GMSort,
                                                              core::Method::SM),
                                            ::testing::Values(2, 5, 9, 12)),
                         plan_case_name);

class PlanAccuracyF32 : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanAccuracyF32, MeetsRequestedTolerance) {
  const auto [dim, type, method, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{90}
                              : dim == 2 ? std::vector<std::int64_t>{24, 30}
                                         : std::vector<std::int64_t>{10, 12, 14});
  Problem<float> p(N, 2000, false, 13);
  vgpu::Device dev(4);
  ThreadPool pool(8);
  core::Options opts;
  opts.method = method;
  double err = 0;
  if (type == 1) {
    err = run_type1_error<float>(dev, pool, p, -1, tol, opts);
  } else {
    if (method == core::Method::SM) GTEST_SKIP();
    err = run_type2_error<float>(dev, pool, p, -1, tol, opts);
  }
  // Single precision floors near 1e-6 from rounding (paper measures against
  // a 6e-8 ground truth); allow that floor.
  EXPECT_LT(err, std::max(10 * tol, 3e-5)) << "dim=" << dim << " type=" << type;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanAccuracyF32,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(core::Method::GMSort,
                                                              core::Method::SM),
                                            ::testing::Values(2, 5)),
                         plan_case_name);

// ---- lifecycle / property tests ---------------------------------------------

TEST(Plan, BothIflagSignsWork) {
  Problem<double> p({20, 20}, 500);
  vgpu::Device dev(2);
  ThreadPool pool(4);
  EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-8), 1e-7);
  EXPECT_LT(run_type1_error<double>(dev, pool, p, -1, 1e-8), 1e-7);
}

TEST(Plan, RepeatedExecuteIsDeterministicEnough) {
  // Re-running execute with the same strengths must give results equal up to
  // atomic reassociation (we verify to near machine precision).
  Problem<double> p({32, 32}, 3000);
  vgpu::Device dev(4);
  core::Plan<double> plan(dev, 1, p.N, +1, 1e-9);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> f1(p.f.size()), f2(p.f.size());
  plan.execute(p.c.data(), f1.data());
  plan.execute(p.c.data(), f2.data());
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f1, f2), 1e-13);
}

TEST(Plan, SetPointsCanBeCalledAgain) {
  Problem<double> pa({24, 24}, 1000, false, 1);
  Problem<double> pb({24, 24}, 1500, false, 2);
  vgpu::Device dev(4);
  ThreadPool pool(4);
  core::Plan<double> plan(dev, 1, pa.N, +1, 1e-8);
  plan.set_points(pa.M, pa.x.data(), pa.y.data(), nullptr);
  std::vector<std::complex<double>> got(pa.f.size()), want(pa.f.size());
  plan.execute(pa.c.data(), got.data());
  // New points on the same plan.
  plan.set_points(pb.M, pb.x.data(), pb.y.data(), nullptr);
  plan.execute(pb.c.data(), got.data());
  cf::cpu::direct_type1<double>(pool, pb.x, pb.y, pb.z, pb.c, +1, pb.N, want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(got, want), 1e-7);
}

TEST(Plan, Type1Type2AreAdjoints) {
  // <type1(c), f> == <c, conj-type2(f)> with matching iflag conventions:
  // type-1 with iflag s and type-2 with iflag -s are conjugate transposes.
  Problem<double> p({18, 22}, 800, false, 3);
  vgpu::Device dev(4);
  core::Plan<double> t1(dev, 1, p.N, +1, 1e-10);
  core::Plan<double> t2(dev, 2, p.N, -1, 1e-10);
  t1.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  t2.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> Ac(p.f.size());
  t1.execute(p.c.data(), Ac.data());
  std::vector<std::complex<double>> Atf(p.M);
  t2.execute(Atf.data(), p.f.data());
  std::complex<double> lhs(0, 0), rhs(0, 0);
  for (std::size_t i = 0; i < Ac.size(); ++i) lhs += Ac[i] * std::conj(p.f[i]);
  for (std::size_t j = 0; j < p.M; ++j) rhs += p.c[j] * std::conj(Atf[j]);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

TEST(Plan, ErrorDecreasesWithTolerance) {
  Problem<double> p({30, 30}, 1500, false, 4);
  vgpu::Device dev(4);
  ThreadPool pool(4);
  double prev = 1.0;
  for (int e : {2, 4, 6, 8, 10}) {
    const double err = run_type1_error<double>(dev, pool, p, +1, std::pow(10.0, -e));
    EXPECT_LT(err, prev * 2.0) << "tol=1e-" << e;  // monotone modulo noise
    prev = err;
  }
  EXPECT_LT(prev, 1e-9);
}

TEST(Plan, ClusteredDistributionStillAccurate) {
  Problem<double> p({28, 28}, 4000, /*cluster=*/true, 5);
  vgpu::Device dev(4);
  ThreadPool pool(4);
  core::Options opts;
  opts.method = core::Method::SM;
  EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-6, opts), 1e-5);
}

TEST(Plan, OddAndEvenModeCounts) {
  for (auto n : {std::vector<std::int64_t>{15, 16}, std::vector<std::int64_t>{17, 17},
                 std::vector<std::int64_t>{16, 15}}) {
    Problem<double> p(n, 700, false, 6);
    vgpu::Device dev(2);
    ThreadPool pool(4);
    EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-8), 1e-7);
    EXPECT_LT(run_type2_error<double>(dev, pool, p, +1, 1e-8), 1e-7);
  }
}

TEST(Plan, PointsOutsideCentralBoxAreFolded) {
  // Coordinates in [-3pi, 3pi) must give identical results to their folds.
  Problem<double> p({26, 26}, 400, false, 8);
  auto shifted = p;
  for (std::size_t j = 0; j < p.M; ++j) {
    if (j % 3 == 0) shifted.x[j] += 2 * 3.141592653589793;
    if (j % 3 == 1) shifted.y[j] -= 2 * 3.141592653589793;
  }
  vgpu::Device dev(2);
  core::Plan<double> plan(dev, 1, p.N, +1, 1e-9);
  std::vector<std::complex<double>> f1(p.f.size()), f2(p.f.size());
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  plan.execute(p.c.data(), f1.data());
  plan.set_points(shifted.M, shifted.x.data(), shifted.y.data(), nullptr);
  plan.execute(shifted.c.data(), f2.data());
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f2, f1), 1e-11);
}

TEST(Plan, InvalidArgumentsThrow) {
  vgpu::Device dev(1);
  const std::int64_t n2[2] = {16, 16};
  EXPECT_THROW(core::Plan<double>(dev, 3, std::span(n2, 2), +1, 1e-6),
               std::invalid_argument);
  EXPECT_THROW(core::Plan<double>(dev, 1, std::span(n2, 0), +1, 1e-6),
               std::invalid_argument);
  // Four mode counts: rejected before the grid is built from them.
  const std::int64_t n4[4] = {8, 8, 8, 8};
  EXPECT_THROW(core::Plan<double>(dev, 1, std::span(n4, 4), +1, 1e-6),
               std::invalid_argument);
  const std::int64_t zero_mode[2] = {16, 0};
  EXPECT_THROW(core::Plan<double>(dev, 2, std::span(zero_mode, 2), +1, 1e-6),
               std::invalid_argument);
  // A tol that is not a positive normal number below 1 has no kernel width.
  for (double tol : {0.0, -1e-6, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(core::Plan<double>(dev, 1, std::span(n2, 2), +1, tol),
                 std::invalid_argument)
        << tol;
    EXPECT_THROW(core::Plan<float>(dev, 2, std::span(n2, 2), +1, tol),
                 std::invalid_argument)
        << tol;
  }
  core::Options bad;
  bad.upsampfac = 1.5;  // only 2.0 and 1.25 are supported
  EXPECT_THROW(core::Plan<double>(dev, 1, std::span(n2, 2), +1, 1e-6, bad),
               std::invalid_argument);
  core::Options low;
  low.upsampfac = 1.25;
  EXPECT_NO_THROW(core::Plan<double>(dev, 1, std::span(n2, 2), +1, 1e-6, low));
  // SM for type 2 is rejected.
  core::Options sm;
  sm.method = core::Method::SM;
  EXPECT_THROW(core::Plan<double>(dev, 2, std::span(n2, 2), +1, 1e-6, sm),
               std::invalid_argument);
  // 3D double SM with default bins is rejected (paper Rmk. 2).
  const std::int64_t n3[3] = {32, 32, 32};
  EXPECT_THROW(core::Plan<double>(dev, 1, std::span(n3, 3), +1, 1e-6, sm),
               std::invalid_argument);
  // ... but fits in single precision.
  core::Plan<float> ok(dev, 1, std::span(n3, 3), +1, 1e-5, sm);
  EXPECT_EQ(ok.resolved_method(), core::Method::SM);
}

TEST(Plan, CollidingPointsF32MatchDirectSum) {
  // Every point folds into [-pi, -pi + 0.012)^2, so all taps collide in one
  // bin neighbourhood: the worst case for the atomic writeback of GM and
  // GM-sort, and for the SM block writeback. fp32 against the exact NUDFT.
  Rng rng(13);
  const std::size_t M = 1500;
  const std::vector<std::int64_t> N{24, 24};
  std::vector<float> x(M), y(M);
  std::vector<std::complex<float>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.uniform(-3.14159265, -3.13));
    y[j] = static_cast<float>(rng.uniform(-3.14159265, -3.13));
    c[j] = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  }
  ThreadPool pool(2);
  std::vector<std::complex<double>> want(24 * 24);
  cf::cpu::direct_type1<double>(pool, std::vector<double>(x.begin(), x.end()),
                                std::vector<double>(y.begin(), y.end()), {},
                                std::vector<std::complex<double>>(c.begin(), c.end()), +1,
                                N, want);
  for (core::Method m : {core::Method::GM, core::Method::GMSort, core::Method::SM}) {
    vgpu::Device dev(4);
    core::Options opts;
    opts.method = m;
    core::Plan<float> plan(dev, 1, N, +1, 1e-5, opts);
    plan.set_points(M, x.data(), y.data(), nullptr);
    std::vector<std::complex<float>> f(24 * 24);
    plan.execute(c.data(), f.data());
    EXPECT_LT(cf::cpu::rel_l2_error<double>(
                  std::vector<std::complex<double>>(f.begin(), f.end()), want),
              3e-4)
        << core::method_name(m);
  }
}

namespace {

// Every axis x NaN/+Inf is rejected at set_points on both types, and the plan
// then takes valid points and reproduces a fresh plan's output bit for bit
// (one worker, so a type-1 spread on the atomic fallback adds in one order).
template <typename T>
void check_non_finite_rejected() {
  // Four workers: the 12x10x8 type-1 spread runs on the tile engine (its
  // tiles clamped to the small fine grid), so the re-pointed plan and a
  // fresh one must agree bitwise even with a multi-worker schedule.
  vgpu::Device dev(4);
  Problem<T> p({12, 10, 8}, 600, false, 61);
  const T bads[2] = {std::numeric_limits<T>::quiet_NaN(), std::numeric_limits<T>::infinity()};
  for (int type : {1, 2}) {
    core::Plan<T> plan(dev, type, p.N, +1, 1e-5);
    for (int d = 0; d < 3; ++d)
      for (const T bad : bads) {
        Problem<T> q = p;
        std::vector<T>* axis[3] = {&q.x, &q.y, &q.z};
        (*axis[d])[q.M / 2] = bad;
        EXPECT_THROW(plan.set_points(q.M, q.x.data(), q.y.data(), q.z.data()),
                     std::invalid_argument)
            << "type " << type << " axis " << d << " value " << bad;
      }
    core::Plan<T> fresh(dev, type, p.N, +1, 1e-5);
    std::vector<std::complex<T>> c1 = p.c, f1 = p.f, c2 = p.c, f2 = p.f;
    plan.set_points(p.M, p.x.data(), p.y.data(), p.z.data());
    fresh.set_points(p.M, p.x.data(), p.y.data(), p.z.data());
    plan.execute(c1.data(), f1.data());
    fresh.execute(c2.data(), f2.data());
    EXPECT_EQ(c1, c2) << "type " << type;
    EXPECT_EQ(f1, f2) << "type " << type;
  }
}

}  // namespace

TEST(Plan, NonFiniteCoordinatesAreRejected) {
  check_non_finite_rejected<double>();
  check_non_finite_rejected<float>();
}

namespace {

/// NaN in, NaN out, and the plan stays usable: an execute with one NaN
/// strength (type 1) or mode (type 2) gives NaN output, and the next execute
/// on finite input gives the bits of a fresh plan on the same points.
template <typename T>
void check_nan_input_leaves_plan_usable(int type, core::Method method,
                                        std::size_t workers) {
  vgpu::Device dev(workers);
  Problem<T> p({24, 20}, 500, false, 31);
  core::Options o;
  o.method = method;
  auto make = [&] {
    auto plan = std::make_unique<core::Plan<T>>(dev, type, p.N, +1, 1e-5, o);
    plan->set_points(p.M, p.x.data(), p.y.data(), nullptr);
    return plan;
  };
  auto run = [&](core::Plan<T>& plan, std::vector<std::complex<T>> in) {
    std::vector<std::complex<T>> out(type == 1 ? p.f.size() : p.M);
    if (type == 1)
      plan.execute(in.data(), out.data());
    else
      plan.execute(out.data(), in.data());
    return out;
  };
  const auto& finite = type == 1 ? p.c : p.f;
  auto poisoned = finite;
  poisoned[poisoned.size() / 2] = {std::numeric_limits<T>::quiet_NaN(), T(0)};

  const auto plan = make();
  const auto nan_out = run(*plan, poisoned);
  EXPECT_TRUE(std::any_of(nan_out.begin(), nan_out.end(), [](const std::complex<T>& v) {
    return std::isnan(v.real()) || std::isnan(v.imag());
  })) << "type=" << type << " method=" << core::method_name(method);
  const auto after = run(*plan, finite);
  const auto want = run(*make(), finite);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(after[i], want[i]) << "type=" << type << " method="
                                 << core::method_name(method) << " workers=" << workers
                                 << " i=" << i;
}

}  // namespace

TEST(Plan, NanStrengthGivesNanAndLeavesThePlanUsable) {
  // GM's atomic spread is bitwise-repeatable on one worker only.
  check_nan_input_leaves_plan_usable<double>(1, core::Method::GM, 1);
  check_nan_input_leaves_plan_usable<float>(1, core::Method::GM, 1);
  for (std::size_t workers : {1, 3})
    for (auto method : {core::Method::GMSort, core::Method::SM}) {
      check_nan_input_leaves_plan_usable<double>(1, method, workers);
      check_nan_input_leaves_plan_usable<float>(1, method, workers);
    }
}

TEST(Plan, NanModeGivesNanAndLeavesThePlanUsable) {
  for (std::size_t workers : {1, 3})
    for (auto method : {core::Method::GM, core::Method::GMSort}) {
      check_nan_input_leaves_plan_usable<double>(2, method, workers);
      check_nan_input_leaves_plan_usable<float>(2, method, workers);
    }
}

TEST(Plan, GridSizeOverflowIsRejectedBeforeAllocation) {
  // A mode product (2^66) or a fine-grid cell product (2^63 for 2^20 modes
  // per axis at sigma = 2) past std::int64_t is an invalid argument, raised
  // before the plan allocates any device memory.
  const std::int64_t n22 = std::int64_t{1} << 22, n20 = std::int64_t{1} << 20;
  vgpu::Device dev(1);
  for (const auto& N : {std::vector<std::int64_t>{n22, n22, n22},
                        std::vector<std::int64_t>{n20, n20, n20}})
    for (int type : {1, 2}) {
      EXPECT_THROW(core::Plan<float>(dev, type, N, +1, 1e-5), std::invalid_argument)
          << "type " << type << " N0 " << N[0];
      EXPECT_EQ(dev.bytes_in_use(), 0u);
      EXPECT_EQ(dev.peak_bytes(), 0u);
    }
  EXPECT_THROW(cf::spread::make_grid(std::vector<std::int64_t>{n20, n20, n20}, 2.0, 4),
               std::invalid_argument);
  EXPECT_NO_THROW(cf::spread::make_grid(std::vector<std::int64_t>{n20, n20, n20 / 2}, 2.0, 4));
}

TEST(Plan, PointCountOf2To32IsRejected) {
  // The sort's indices are 32-bit: M >= 2^32 is rejected on M alone, before
  // any allocation or coordinate read (the arrays here hold 4 points), and
  // the plan keeps its previous points.
  vgpu::Device dev(1);
  Problem<double> p({12, 10}, 400, false, 62);
  const std::size_t big = std::size_t{1} << 32;
  for (int type : {1, 2}) {
    core::Plan<double> plan(dev, type, p.N, +1, 1e-6), fresh(dev, type, p.N, +1, 1e-6);
    plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    fresh.set_points(p.M, p.x.data(), p.y.data(), nullptr);
    for (std::size_t M : {big, big + 1, std::numeric_limits<std::size_t>::max()})
      EXPECT_THROW(plan.set_points(M, p.x.data(), p.y.data(), nullptr),
                   std::invalid_argument)
          << "type " << type << " M " << M;
    std::vector<std::complex<double>> c1 = p.c, f1 = p.f, c2 = p.c, f2 = p.f;
    plan.execute(c1.data(), f1.data());
    fresh.execute(c2.data(), f2.data());
    EXPECT_EQ(c1, c2) << "type " << type;
    EXPECT_EQ(f1, f2) << "type " << type;
  }
}

TEST(Plan, AutoMethodResolution) {
  vgpu::Device dev(1);
  const std::int64_t n3[3] = {32, 32, 32};
  core::Plan<float> p1(dev, 1, std::span(n3, 3), +1, 1e-5);
  EXPECT_EQ(p1.resolved_method(), core::Method::SM);
  core::Plan<double> p2(dev, 1, std::span(n3, 3), +1, 1e-5);
  EXPECT_EQ(p2.resolved_method(), core::Method::GMSort);  // Rmk. 2 fallback
  core::Plan<float> p3(dev, 2, std::span(n3, 3), +1, 1e-5);
  EXPECT_EQ(p3.resolved_method(), core::Method::GMSort);
}

TEST(Plan, FineGridFollowsNext235Rule) {
  vgpu::Device dev(1);
  const std::int64_t n[2] = {100, 101};
  core::Plan<double> plan(dev, 1, std::span(n, 2), +1, 1e-5);
  EXPECT_EQ(plan.fine_grid().nf[0], 200);  // 2^3 * 5^2
  EXPECT_EQ(plan.fine_grid().nf[1], 216);  // next235(202) = 2^3*27
  EXPECT_EQ(plan.kernel_width(), 6);
}

TEST(Plan, BreakdownTimesArePopulated) {
  Problem<float> p({64, 64}, 20000, false, 9);
  vgpu::Device dev(4);
  core::Plan<float> plan(dev, 1, p.N, +1, 1e-5);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> f(p.f.size());
  plan.execute(p.c.data(), f.data());
  const auto& bd = plan.last_breakdown();
  EXPECT_GT(bd.sort, 0.0);
  EXPECT_GT(bd.spread, 0.0);
  EXPECT_GT(bd.fft, 0.0);
  EXPECT_GT(bd.deconvolve, 0.0);
  EXPECT_EQ(bd.interp, 0.0);
}

TEST(Plan, DeviceRamAccountingScalesWithProblem) {
  vgpu::Device dev(2);
  const std::int64_t small[3] = {16, 16, 16};
  const std::int64_t big[3] = {48, 48, 48};
  std::size_t peak_small, peak_big;
  {
    core::Plan<float> plan(dev, 1, std::span(small, 3), +1, 1e-2);
    peak_small = dev.bytes_in_use();
  }
  {
    core::Plan<float> plan(dev, 1, std::span(big, 3), +1, 1e-2);
    peak_big = dev.bytes_in_use();
  }
  EXPECT_GT(peak_big, 10 * peak_small);
}

TEST(Plan, BatchedExecuteMatchesLoopOfSingles) {
  // ntransf = B stacked vectors must equal B independent executes.
  Problem<double> p({20, 22}, 600, false, 10);
  const int B = 3;
  Rng rng(11);
  std::vector<std::complex<double>> cbatch(B * p.M);
  for (auto& v : cbatch) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  vgpu::Device dev(4);

  core::Options opts;
  opts.ntransf = B;
  core::Plan<double> batched(dev, 1, p.N, +1, 1e-9, opts);
  batched.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fbatch(B * p.f.size());
  batched.execute(cbatch.data(), fbatch.data());

  core::Plan<double> single(dev, 1, p.N, +1, 1e-9);
  single.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<double>> fb(p.f.size());
    single.execute(cbatch.data() + b * p.M, fb.data());
    std::vector<std::complex<double>> got(fbatch.begin() + b * p.f.size(),
                                          fbatch.begin() + (b + 1) * p.f.size());
    EXPECT_LT(cf::cpu::rel_l2_error<double>(got, fb), 1e-13) << "batch " << b;
  }
}

TEST(Plan, BatchedType2) {
  Problem<float> p({24, 24}, 900, false, 12);
  const int B = 2;
  vgpu::Device dev(4);
  core::Options opts;
  opts.ntransf = B;
  core::Plan<float> batched(dev, 2, p.N, -1, 1e-5, opts);
  batched.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<float>> fbatch(B * p.f.size());
  Rng rng(13);
  for (auto& v : fbatch)
    v = {float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))};
  std::vector<std::complex<float>> cbatch(B * p.M);
  batched.execute(cbatch.data(), fbatch.data());

  ThreadPool pool(4);
  for (int b = 0; b < B; ++b) {
    std::vector<std::complex<float>> want(p.M);
    std::vector<std::complex<float>> fb(fbatch.begin() + b * p.f.size(),
                                        fbatch.begin() + (b + 1) * p.f.size());
    cf::cpu::direct_type2<float>(pool, p.x, p.y, p.z, want, -1, p.N, fb);
    std::vector<std::complex<float>> got(cbatch.begin() + b * p.M,
                                         cbatch.begin() + (b + 1) * p.M);
    EXPECT_LT(cf::cpu::rel_l2_error<float>(got, want), 3e-5) << "batch " << b;
  }
}

TEST(Plan, FftStyleModeOrderingIsAPermutationOfCmcl) {
  Problem<double> p({10, 12}, 400, false, 14);
  vgpu::Device dev(2);
  core::Plan<double> cmcl(dev, 1, p.N, +1, 1e-9);
  core::Options fftord;
  fftord.modeord = 1;
  core::Plan<double> fstyle(dev, 1, p.N, +1, 1e-9, fftord);
  cmcl.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  fstyle.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> fc(p.f.size()), ff(p.f.size());
  cmcl.execute(p.c.data(), fc.data());
  fstyle.execute(p.c.data(), ff.data());
  // fstyle index i maps to mode k = i < (N+1)/2 ? i : i - N; the same mode
  // sits at k + N/2 in CMCL ordering.
  const std::int64_t N0 = 10, N1 = 12;
  for (std::int64_t i1 = 0; i1 < N1; ++i1) {
    for (std::int64_t i0 = 0; i0 < N0; ++i0) {
      const std::int64_t k0 = i0 < (N0 + 1) / 2 ? i0 : i0 - N0;
      const std::int64_t k1 = i1 < (N1 + 1) / 2 ? i1 : i1 - N1;
      const auto a = ff[static_cast<std::size_t>(i0 + N0 * i1)];
      const auto b = fc[static_cast<std::size_t>((k0 + N0 / 2) + N0 * (k1 + N1 / 2))];
      EXPECT_NEAR(std::abs(a - b), 0.0, 1e-13) << i0 << "," << i1;
    }
  }
}

TEST(Plan, FftStyleModeOrderingType2RoundTripsWithType1) {
  // Type 2 in modeord=1 must consume exactly what type 1 in modeord=1
  // produces: run an adjoint-consistency inner-product check in that order.
  Problem<double> p({14, 14}, 500, false, 15);
  vgpu::Device dev(2);
  core::Options fftord;
  fftord.modeord = 1;
  core::Plan<double> t1(dev, 1, p.N, +1, 1e-10, fftord);
  core::Plan<double> t2(dev, 2, p.N, -1, 1e-10, fftord);
  t1.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  t2.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<double>> Ac(p.f.size());
  t1.execute(p.c.data(), Ac.data());
  std::vector<std::complex<double>> Atf(p.M);
  t2.execute(Atf.data(), p.f.data());
  std::complex<double> lhs(0, 0), rhs(0, 0);
  for (std::size_t i = 0; i < Ac.size(); ++i) lhs += Ac[i] * std::conj(p.f[i]);
  for (std::size_t j = 0; j < p.M; ++j) rhs += p.c[j] * std::conj(Atf[j]);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::abs(lhs));
}

TEST(Plan, HornerKernelMeetsToleranceEndToEnd) {
  Problem<float> p({30, 30}, 2000, false, 17);
  vgpu::Device dev(4);
  ThreadPool pool(4);
  EXPECT_LT(run_type1_error<float>(dev, pool, p, +1, 1e-5), 3e-5);
  EXPECT_LT(run_type2_error<float>(dev, pool, p, +1, 1e-5), 3e-5);
}

TEST(Plan, HornerWorksWithSmAndAllWidths) {
  vgpu::Device dev(4);
  ThreadPool pool(4);
  for (int tole : {2, 5, 9, 12}) {
    Problem<double> p({24, 24}, 1000, false, 18);
    core::Options o;
    o.method = core::Method::SM;
    const double tol = std::pow(10.0, -tole);
    EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, tol, o), 10 * tol)
        << "tol=1e-" << tole;
  }
}

TEST(Plan, TinyModeCountsWork) {
  // N as small as 1 or 2 per axis must still be valid (heavily padded grid).
  vgpu::Device dev(2);
  ThreadPool pool(4);
  for (auto modes : {std::vector<std::int64_t>{1}, std::vector<std::int64_t>{2, 3},
                     std::vector<std::int64_t>{1, 5}}) {
    Problem<double> p(modes, 200, false, 70);
    EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-8), 1e-6)
        << "dims " << modes.size();
    EXPECT_LT(run_type2_error<double>(dev, pool, p, +1, 1e-8), 1e-6);
  }
}

TEST(Plan, SinglePointTransform) {
  vgpu::Device dev(1);
  ThreadPool pool(2);
  Problem<double> p({12, 12}, 1, false, 71);
  EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-10), 1e-9);
  EXPECT_LT(run_type2_error<double>(dev, pool, p, +1, 1e-10), 1e-9);
}

TEST(Plan, HighAspectRatioGrids) {
  vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({128, 4}, 1500, false, 72);
  EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-8), 1e-7);
  Problem<double> p3({4, 6, 48}, 1200, false, 73);
  EXPECT_LT(run_type1_error<double>(dev, pool, p3, +1, 1e-6), 1e-5);
}

TEST(Plan, MaxWidthClampAt1eMinus14) {
  // Tolerances beyond double precision clamp w (at 16 for sigma = 2, where
  // w = 16 already means eps ~ 1e-15) and still work.
  vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({20, 20}, 800, false, 74);
  core::Plan<double> plan(dev, 1, p.N, +1, 1e-15);
  EXPECT_EQ(plan.kernel_width(), 16);
  EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-15), 1e-11);
}

// ---- low-upsampling mode (sigma = 1.25) -------------------------------------

class PlanAccuracySigma125F64 : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanAccuracySigma125F64, MeetsRequestedTolerance) {
  const auto [dim, type, method, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{90}
                              : dim == 2 ? std::vector<std::int64_t>{24, 30}
                                         : std::vector<std::int64_t>{10, 12, 14});
  Problem<double> p(N, 2000, false, 21);
  vgpu::Device dev(4);
  ThreadPool pool(8);
  core::Options opts;
  opts.method = method;
  opts.upsampfac = 1.25;
  double err = 0;
  try {
    if (type == 1) {
      err = run_type1_error<double>(dev, pool, p, +1, tol, opts);
    } else {
      if (method == core::Method::SM) GTEST_SKIP();  // SM is type-1 only
      err = run_type2_error<double>(dev, pool, p, +1, tol, opts);
    }
  } catch (const std::invalid_argument&) {
    // The wider sigma = 1.25 kernel can push SM's padded bin past shared
    // memory where the sigma = 2 width fit; the clean reject is correct.
    ASSERT_EQ(method, core::Method::SM);
    GTEST_SKIP();
  }
  // Same heuristic as sigma = 2 (errors near eps, allow 10x), with a floor
  // for the widest kernels (w > 16 at tol <= 1e-12) where double rounding
  // across many taps dominates.
  EXPECT_LT(err, std::max(10 * tol, 1e-11)) << "dim=" << dim << " type=" << type;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanAccuracySigma125F64,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(core::Method::GM,
                                                              core::Method::GMSort,
                                                              core::Method::SM),
                                            ::testing::Values(2, 5, 9, 12)),
                         plan_case_name);

class PlanAccuracySigma125F32 : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanAccuracySigma125F32, MeetsRequestedTolerance) {
  const auto [dim, type, method, tole] = GetParam();
  const double tol = std::pow(10.0, -tole);
  std::vector<std::int64_t> N(dim == 1   ? std::vector<std::int64_t>{90}
                              : dim == 2 ? std::vector<std::int64_t>{24, 30}
                                         : std::vector<std::int64_t>{10, 12, 14});
  Problem<float> p(N, 2000, false, 22);
  vgpu::Device dev(4);
  ThreadPool pool(8);
  core::Options opts;
  opts.method = method;
  opts.upsampfac = 1.25;
  double err = 0;
  try {
    if (type == 1) {
      err = run_type1_error<float>(dev, pool, p, -1, tol, opts);
    } else {
      if (method == core::Method::SM) GTEST_SKIP();
      err = run_type2_error<float>(dev, pool, p, -1, tol, opts);
    }
  } catch (const std::invalid_argument&) {
    ASSERT_EQ(method, core::Method::SM);
    GTEST_SKIP();
  }
  EXPECT_LT(err, std::max(10 * tol, 3e-5)) << "dim=" << dim << " type=" << type;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PlanAccuracySigma125F32,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(core::Method::GMSort,
                                                              core::Method::SM),
                                            ::testing::Values(2, 5)),
                         plan_case_name);

TEST(Plan, Sigma125WidthRuleIsWiderButGridIsSmaller) {
  vgpu::Device dev(1);
  const std::int64_t n[2] = {100, 101};
  core::Options low;
  low.upsampfac = 1.25;
  core::Plan<double> plan(dev, 1, std::span(n, 2), +1, 1e-5, low);
  // w = ceil(ln(1e5) / (pi * sqrt(1 - 1/1.25))) = ceil(8.19) = 9 vs 6 at
  // sigma = 2; the fine grid shrinks from 200x216 to next235-rounded 1.25N.
  EXPECT_EQ(plan.kernel_width(), 9);
  EXPECT_EQ(plan.fine_grid().nf[0], 125);  // 5^3
  EXPECT_EQ(plan.fine_grid().nf[1], 128);  // next235(ceil(126.25))
}

TEST(Plan, Sigma125CutsFineGridBytesBelow40Percent) {
  // The acceptance bar for the mode: at equal 3D modes, a sigma = 1.25 plan
  // allocates at most 0.4x the sigma = 2 fine-grid (fw_) bytes.
  vgpu::Device dev(2);
  const std::int64_t n3[3] = {32, 32, 32};
  std::size_t bytes2, bytes125;
  std::int64_t vol2, vol125;
  {
    core::Plan<float> plan(dev, 1, std::span(n3, 3), +1, 1e-5);
    bytes2 = dev.bytes_in_use();
    vol2 = plan.fine_grid().total();
  }
  {
    core::Options low;
    low.upsampfac = 1.25;
    core::Plan<float> plan(dev, 1, std::span(n3, 3), +1, 1e-5, low);
    bytes125 = dev.bytes_in_use();
    vol125 = plan.fine_grid().total();
  }
  EXPECT_LE(double(vol125), 0.4 * double(vol2));    // 40^3 vs 64^3
  EXPECT_LE(double(bytes125), 0.4 * double(bytes2));
}

TEST(Plan, Sigma125WideWidthMeetsTolerance) {
  // tol = 1e-12 at sigma = 1.25 needs w = 20, wider than any sigma = 2 plan
  // (the width dispatch covers it, up to kMaxWidth = 24).
  vgpu::Device dev(4);
  ThreadPool pool(4);
  Problem<double> p({20, 20}, 800, false, 76);
  core::Options low;
  low.upsampfac = 1.25;
  core::Plan<double> plan(dev, 1, p.N, +1, 1e-12, low);
  EXPECT_EQ(plan.kernel_width(), 20);
  EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-12, low), 1e-10);
}

TEST(Plan, CustomBinSizesStillCorrect) {
  vgpu::Device dev(4);
  ThreadPool pool(4);
  for (int m : {8, 16, 32}) {
    Problem<double> p({28, 28}, 2000, false, 75);
    core::Options o;
    o.binsize = {m, m, 1};
    o.method = core::Method::SM;
    EXPECT_LT(run_type1_error<double>(dev, pool, p, +1, 1e-8, o), 1e-7) << "m=" << m;
  }
  // 64x64 double-precision bins with w=9 blow the 48 KiB budget: clean reject.
  core::Options big;
  big.binsize = {64, 64, 1};
  big.method = core::Method::SM;
  const std::int64_t n2[2] = {28, 28};
  EXPECT_THROW(core::Plan<double>(dev, 1, std::span(n2, 2), +1, 1e-8, big),
               std::invalid_argument);
}
