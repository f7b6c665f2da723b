// PointCache lifecycle (plan -> set_points -> execute):
//  * repeated execute() after one set_points() is bitwise-stable at one
//    worker and performs ZERO tap-table construction (Breakdown counter);
//  * re-set_points with different M/points invalidates and rebuilds the
//    cache exactly once, and results stay correct;
//  * the interior/boundary classification is exercised with an all-boundary
//    point set (everything within w/2 of the grid edge) and an all-interior
//    one, across dims x methods x precisions;
//  * the spread and interp kernels give identical bits with and without the
//    no-wrap split of an interior-first order, and SM's cached tap table
//    gives the bits of GM-sort's inline taps.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/plan.hpp"
#include "cpu/direct.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

std::vector<std::int64_t> modes_for(int dim) {
  if (dim == 1) return {48};
  if (dim == 2) return {18, 22};
  return {10, 12, 8};
}

/// Point placement relative to the periodic fine-grid boundary.
enum class Placement { Anywhere, AllBoundary, AllInterior };

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c;
  std::size_t M;
  std::int64_t ntot;

  /// `nf` is the plan's fine-grid size per axis (needed to aim coordinates at
  /// the boundary band); w the kernel width.
  Problem(std::vector<std::int64_t> modes, std::size_t M_,
          const std::array<std::int64_t, 3>& nf, int w, Placement place,
          std::uint64_t seed)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    c.resize(M);
    auto coord = [&](int d) -> T {
      // Generate a fine-grid coordinate g in the wanted band, then map it to
      // the user domain: fold_rescale(2*pi*g/nf) == g (up to rounding).
      double g;
      switch (place) {
        case Placement::Anywhere: g = rng.uniform(0, double(nf[d])); break;
        case Placement::AllBoundary:
          // Within w/2 of either periodic edge — strictly inside the band
          // where some tap needs the wrap (g <= w/2 - 1 or g > nf - w/2).
          g = rng.uniform() < 0.5 ? rng.uniform(0.0, 0.4)
                                  : rng.uniform(double(nf[d]) - 0.4, double(nf[d]));
          break;
        case Placement::AllInterior:
          g = rng.uniform(double(w), double(nf[d] - w));
          break;
      }
      return static_cast<T>(2.0 * std::numbers::pi * g / double(nf[d]));
    };
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = coord(0);
      if (dim >= 2) y[j] = coord(1);
      if (dim >= 3) z[j] = coord(2);
      c[j] = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    }
  }

  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }
};

template <typename T>
double accuracy_vs_direct(const Problem<T>& p, const std::vector<std::complex<T>>& f) {
  cf::ThreadPool pool(2);
  std::vector<double> xd(p.x.begin(), p.x.end()), yd(p.y.begin(), p.y.end()),
      zd(p.z.begin(), p.z.end());
  std::vector<std::complex<double>> cd(p.M);
  for (std::size_t j = 0; j < p.M; ++j) cd[j] = {p.c[j].real(), p.c[j].imag()};
  std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
  cf::cpu::direct_type1<double>(pool, xd, yd, zd, cd, +1, p.N, want);
  std::vector<std::complex<double>> got(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) got[i] = {f[i].real(), f[i].imag()};
  return cf::cpu::rel_l2_error<double>(got, want);
}

template <typename T>
bool sm_available(int dim, double tol) {
  vgpu::Device probe(1);
  core::Options sm;
  sm.method = core::Method::SM;
  try {
    core::Plan<T> trial(probe, 1, modes_for(dim), +1, tol, sm);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

}  // namespace

// ---- repeated execute: bitwise stability + zero tap construction ------------

template <typename T>
static void check_repeat(int dim, int type, core::Method method) {
  const double tol = 1e-6;
  vgpu::Device dev(1);  // one worker => deterministic accumulation order
  core::Options opts;
  opts.method = method;
  core::Plan<T> plan(dev, type, modes_for(dim), +1, tol, opts);

  Problem<T> p(modes_for(dim), 600, plan.fine_grid().nf, plan.kernel_width(),
               Placement::Anywhere, 7 + dim);
  plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
  const auto builds_after_setpts = plan.last_breakdown().tap_builds;

  std::vector<std::complex<T>> f(static_cast<std::size_t>(p.ntot));
  if (type == 1)
    for (auto& v : f) v = {T(0), T(0)};
  else {
    Rng rng(31);
    for (auto& v : f)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }

  auto run_once = [&] {
    if (type == 1) {
      std::vector<std::complex<T>> out(f.size());
      plan.execute(p.c.data(), out.data());
      return out;
    }
    std::vector<std::complex<T>> out(p.M);
    plan.execute(out.data(), f.data());
    return out;
  };

  const auto first = run_once();
  for (int rep = 0; rep < 3; ++rep) {
    const auto again = run_once();
    ASSERT_EQ(first.size(), again.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first[i], again[i])
          << "dim=" << dim << " type=" << type << " method="
          << core::method_name(method) << " rep=" << rep << " i=" << i;
  }
  // Zero tap-table construction during the four executes.
  EXPECT_EQ(plan.last_breakdown().tap_builds, builds_after_setpts)
      << "dim=" << dim << " method=" << core::method_name(method);
  EXPECT_GE(plan.last_breakdown().cache_hits, 4u);
  if (method == core::Method::SM) {
    EXPECT_EQ(builds_after_setpts, 1u);  // exactly one build, in set_points
  }
}

TEST(PointCache, RepeatedExecuteBitwiseStableZeroTapBuildsF64) {
  for (int dim = 1; dim <= 3; ++dim) {
    check_repeat<double>(dim, 1, core::Method::GM);
    check_repeat<double>(dim, 1, core::Method::GMSort);
    check_repeat<double>(dim, 2, core::Method::GMSort);
    if (sm_available<double>(dim, 1e-6)) check_repeat<double>(dim, 1, core::Method::SM);
  }
}

TEST(PointCache, RepeatedExecuteBitwiseStableZeroTapBuildsF32) {
  for (int dim = 1; dim <= 3; ++dim) {
    check_repeat<float>(dim, 1, core::Method::GM);
    check_repeat<float>(dim, 1, core::Method::GMSort);
    check_repeat<float>(dim, 2, core::Method::GMSort);
    if (sm_available<float>(dim, 1e-6)) check_repeat<float>(dim, 1, core::Method::SM);
  }
}

// ---- re-set_points invalidates and rebuilds ---------------------------------

TEST(PointCache, ReSetPointsInvalidatesAndRebuildsOnce) {
  for (int dim = 2; dim <= 3; ++dim) {
    if (!sm_available<double>(dim, 1e-9)) continue;
    vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
    core::Options opts;
    opts.method = core::Method::SM;
    core::Plan<double> plan(dev, 1, modes_for(dim), +1, 1e-9, opts);

    Problem<double> p1(modes_for(dim), 500, plan.fine_grid().nf, plan.kernel_width(),
                       Placement::Anywhere, 11);
    plan.set_points(p1.M, p1.x.data(), p1.yp(), p1.zp());
    EXPECT_EQ(plan.last_breakdown().tap_builds, 1u);
    std::vector<std::complex<double>> f1(static_cast<std::size_t>(p1.ntot));
    plan.execute(p1.c.data(), f1.data());
    EXPECT_LT(accuracy_vs_direct(p1, f1), 1e-8) << "dim=" << dim << " first points";

    // Different M AND different points: the old cache must not leak through.
    Problem<double> p2(modes_for(dim), 900, plan.fine_grid().nf, plan.kernel_width(),
                       Placement::Anywhere, 23);
    plan.set_points(p2.M, p2.x.data(), p2.yp(), p2.zp());
    EXPECT_EQ(plan.last_breakdown().tap_builds, 2u);  // exactly one more
    std::vector<std::complex<double>> f2(static_cast<std::size_t>(p2.ntot));
    plan.execute(p2.c.data(), f2.data());
    EXPECT_LT(accuracy_vs_direct(p2, f2), 1e-8) << "dim=" << dim << " second points";
    EXPECT_EQ(plan.last_breakdown().tap_builds, 2u);  // execute built nothing
  }
}

// ---- interior/boundary classification ---------------------------------------

template <typename T>
static void check_classification(int dim, core::Method method, Placement place,
                                 std::uint64_t seed) {
  // w = 7 / w = 6: wide enough that the boundary band is substantial, narrow
  // enough that the all-interior band [w, nf - w] is non-degenerate on the
  // smallest 3D grid.
  const double tol = std::is_same_v<T, double> ? 1e-6 : 1e-5;
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(4)));
  core::Options opts;
  opts.method = method;
  // The partition feeds the GM spread and the interp: a sorted type-1 plan
  // spreads on the tile engine (whose accumulation never wraps) and skips
  // it, so GM-sort is checked on a type-2 plan, GM on a type-1 plan whose
  // output is also checked against the direct sum.
  const int type = method == core::Method::GM ? 1 : 2;
  core::Plan<T> plan(dev, type, modes_for(dim), +1, tol, opts);
  Problem<T> p(modes_for(dim), 400, plan.fine_grid().nf, plan.kernel_width(), place,
               seed);
  plan.set_points(p.M, p.x.data(), p.yp(), p.zp());

  const auto& bd = plan.last_breakdown();
  ASSERT_EQ(bd.interior_points + bd.boundary_points, p.M);
  if (place == Placement::AllBoundary) {
    EXPECT_EQ(bd.interior_points, 0u)
        << "dim=" << dim << " method=" << core::method_name(method);
  } else {
    EXPECT_EQ(bd.boundary_points, 0u)
        << "dim=" << dim << " method=" << core::method_name(method);
  }

  if (type != 1) return;
  std::vector<std::complex<T>> f(static_cast<std::size_t>(p.ntot));
  plan.execute(p.c.data(), f.data());
  EXPECT_LT(accuracy_vs_direct(p, f), (std::is_same_v<T, double> ? 1e-5 : 3e-4))
      << "dim=" << dim << " method=" << core::method_name(method)
      << (place == Placement::AllBoundary ? " all-boundary" : " all-interior");
}

TEST(PointCache, AllBoundaryClassificationAllDimsMethodsPrecisions) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GM, core::Method::GMSort}) {
      check_classification<double>(dim, m, Placement::AllBoundary, 41 + dim);
      check_classification<float>(dim, m, Placement::AllBoundary, 43 + dim);
    }
}

TEST(PointCache, AllInteriorClassificationAllDimsMethodsPrecisions) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GM, core::Method::GMSort}) {
      check_classification<double>(dim, m, Placement::AllInterior, 51 + dim);
      check_classification<float>(dim, m, Placement::AllInterior, 53 + dim);
    }
}

// ---- the no-wrap split is bitwise transparent -------------------------------
//
// The no-wrap indices of interior points equal the wrapped ones bit for bit,
// so running one partitioned iteration order with n_nowrap = n_interior or
// with n_nowrap = 0 (every point wraps) must give identical bits: on one
// worker the points accumulate (spread) or gather (interp) in the same order
// either way. Checked at the kernel level, for both the width-specialized
// and the runtime-width kernels, over user order (GM) and bin-sort order
// (GM-sort).

template <typename T>
void check_nowrap_split(int dim, bool fast, bool sorted) {
  namespace spread = cf::spread;
  SCOPED_TRACE(::testing::Message() << "dim=" << dim << " fast=" << fast
                                    << " sorted=" << sorted);
  spread::GridSpec grid;
  grid.dim = dim;
  if (dim == 1) grid.nf = {96, 1, 1};
  if (dim == 2) grid.nf = {40, 44, 1};
  if (dim == 3) grid.nf = {24, 24, 20};
  auto kp = spread::KernelParams<T>::from_width(std::is_same_v<T, double> ? 9 : 6);
  kp.fast = fast;
  const std::size_t M = 700;
  const int B = 2;
  Rng rng(91 + dim);
  std::vector<T> xg(M), yg(dim >= 2 ? M : 0), zg(dim >= 3 ? M : 0);
  T* axes[3] = {xg.data(), yg.data(), zg.data()};
  for (std::size_t j = 0; j < M; ++j)
    for (int d = 0; d < dim; ++d)
      axes[d][j] = static_cast<T>(rng.uniform(0, double(grid.nf[d])));
  std::vector<std::complex<T>> c(B * M), fw(B * static_cast<std::size_t>(grid.total()));
  for (auto& v : c) v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  for (auto& v : fw) v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};

  vgpu::Device dev(1);
  spread::NuPoints<T> pts{xg.data(), dim >= 2 ? yg.data() : nullptr,
                          dim >= 3 ? zg.data() : nullptr, M};
  spread::DeviceSort sort;
  if (sorted)
    spread::bin_sort(dev, grid, spread::BinSpec::make(grid, spread::BinSpec::default_size(dim)),
                     pts.xg, pts.yg, pts.zg, M, sort);
  spread::InteriorPartition part;
  spread::classify_interior(dev, grid, kp, pts, sorted ? sort.order.data() : nullptr, part);
  ASSERT_GT(part.n_interior, 0u);
  ASSERT_GT(part.n_boundary, 0u);

  const std::size_t fwstride = static_cast<std::size_t>(grid.total());
  auto run = [&](std::size_t n_nowrap) {
    spread::NuPoints<T> p = pts;
    p.n_nowrap = n_nowrap;
    std::vector<std::complex<T>> spread_out(fw.size()), interp_out(M), batch_out(B * M);
    spread::spread_gm_batch<T>(dev, grid, kp, p, c.data(), spread_out.data(),
                               part.order.data(), B, M, fwstride);
    spread::interp<T>(dev, grid, kp, p, fw.data(), interp_out.data(), part.order.data());
    spread::interp_batch<T>(dev, grid, kp, p, fw.data(), batch_out.data(),
                            part.order.data(), B, M, fwstride);
    return std::tuple(spread_out, interp_out, batch_out);
  };
  const auto [sa, ia, ba] = run(part.n_interior);
  const auto [sb, ib, bb] = run(0);
  for (std::size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i], sb[i]) << "spread cell " << i;
  for (std::size_t j = 0; j < ia.size(); ++j) ASSERT_EQ(ia[j], ib[j]) << "interp pt " << j;
  for (std::size_t j = 0; j < ba.size(); ++j) ASSERT_EQ(ba[j], bb[j]) << "interp_batch " << j;
}

TEST(PointCache, NoWrapSplitIsBitwiseTransparent) {
  for (int dim = 1; dim <= 3; ++dim)
    for (bool fast : {true, false})
      for (bool sorted : {false, true}) {
        check_nowrap_split<float>(dim, fast, sorted);
        check_nowrap_split<double>(dim, fast, sorted);
      }
}

// ---- SM's cached taps vs GM-sort's inline taps -----------------------------

TEST(PointCache, SmCachedTapsMatchGmSortInlineTapsBitwise) {
  // The two sorted type-1 methods run one tile engine: SM streams the tap
  // table set_points built, GM-sort evaluates the same taps inline each
  // execute. Output must be bitwise-identical, with exactly one table build
  // for SM, in set_points, none for GM-sort, and none in any execute.
  for (int dim = 2; dim <= 3; ++dim) {
    const auto modes = dim == 2 ? std::vector<std::int64_t>{20, 24}
                                : std::vector<std::int64_t>{16, 16, 12};
    vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
    core::Options inline_taps, cached_taps;
    inline_taps.method = core::Method::GMSort;
    cached_taps.method = core::Method::SM;
    core::Plan<float> pa(dev, 1, modes, +1, 1e-5, inline_taps);
    core::Plan<float> pb(dev, 1, modes, +1, 1e-5, cached_taps);
    Problem<float> p(modes, 900, pa.fine_grid().nf, pa.kernel_width(),
                     Placement::Anywhere, 51 + dim);
    pa.set_points(p.M, p.x.data(), p.yp(), p.zp());
    pb.set_points(p.M, p.x.data(), p.yp(), p.zp());
    EXPECT_EQ(pa.last_breakdown().tap_builds, 0u);  // GM-sort: no table
    EXPECT_EQ(pb.last_breakdown().tap_builds, 1u);  // built once, in set_points
    std::vector<std::complex<float>> fa(static_cast<std::size_t>(p.ntot)), fb(fa.size());
    for (int rep = 0; rep < 2; ++rep) {
      pa.execute(p.c.data(), fa.data());
      pb.execute(p.c.data(), fb.data());
      ASSERT_EQ(pa.last_breakdown().tiled, 1) << "dim=" << dim;
      ASSERT_EQ(pb.last_breakdown().tiled, 1) << "dim=" << dim;
      for (std::size_t i = 0; i < fa.size(); ++i)
        ASSERT_EQ(fa[i], fb[i]) << "dim=" << dim << " rep=" << rep << " i=" << i;
    }
    EXPECT_EQ(pa.last_breakdown().tap_builds, 0u);  // zero builds in executes
    EXPECT_EQ(pb.last_breakdown().tap_builds, 1u);
  }
}
