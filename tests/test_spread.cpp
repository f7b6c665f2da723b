// Spreading correctness: GM, GM-sort (atomic kernels), and SM (the tile
// engine streaming a tap table, as plans run it) must all reproduce a serial
// reference spreading exactly (up to floating-point reassociation), across
// dimensions, precisions, and point distributions.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "cpu/direct.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/point_cache.hpp"
#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"  // detail::dispatch_width
#include "vgpu/device.hpp"

namespace spread = cf::spread;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

/// Serial reference: textbook periodized-kernel accumulation (paper eq. (7)).
template <typename T>
std::vector<std::complex<T>> reference_spread(const spread::GridSpec& grid,
                                              const spread::KernelParams<T>& kp,
                                              const std::vector<T>& xg,
                                              const std::vector<T>& yg,
                                              const std::vector<T>& zg,
                                              const std::vector<std::complex<T>>& c) {
  std::vector<std::complex<double>> fw(static_cast<std::size_t>(grid.total()), {0, 0});
  const int dim = grid.dim;
  for (std::size_t j = 0; j < xg.size(); ++j) {
    T vals[3][spread::kMaxWidth];
    std::int64_t idx[3][spread::kMaxWidth];
    const T px[3] = {xg[j], dim >= 2 ? yg[j] : T(0), dim >= 3 ? zg[j] : T(0)};
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l0 = spread::es_values(kp, px[d], vals[d]);
      for (int i = 0; i < kp.w; ++i) idx[d][i] = spread::wrap_index(l0 + i, grid.nf[d]);
    }
    const std::complex<double> cj(c[j].real(), c[j].imag());
    const int w1 = dim >= 2 ? kp.w : 1, w2 = dim >= 3 ? kp.w : 1;
    for (int i2 = 0; i2 < w2; ++i2)
      for (int i1 = 0; i1 < w1; ++i1)
        for (int i0 = 0; i0 < kp.w; ++i0) {
          double v = double(vals[0][i0]);
          if (dim >= 2) v *= double(vals[1][i1]);
          if (dim >= 3) v *= double(vals[2][i2]);
          const std::int64_t lin =
              idx[0][i0] +
              grid.nf[0] * ((dim >= 2 ? idx[1][i1] : 0) +
                            grid.nf[1] * (dim >= 3 ? idx[2][i2] : 0));
          fw[static_cast<std::size_t>(lin)] += cj * v;
        }
  }
  std::vector<std::complex<T>> out(fw.size());
  for (std::size_t i = 0; i < fw.size(); ++i)
    out[i] = {static_cast<T>(fw[i].real()), static_cast<T>(fw[i].imag())};
  return out;
}

template <typename T>
double grid_rel_err(const std::vector<std::complex<T>>& a,
                    const std::vector<std::complex<T>>& b) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += std::norm(std::complex<double>(a[i].real() - b[i].real(),
                                          a[i].imag() - b[i].imag()));
    den += std::norm(std::complex<double>(b[i].real(), b[i].imag()));
  }
  return den > 0 ? std::sqrt(num / den) : std::sqrt(num);
}

enum class Dist { Rand, Cluster, Edge };

template <typename T>
struct Workload {
  spread::GridSpec grid;
  spread::BinSpec bins;
  spread::KernelParams<T> kp;
  std::vector<T> xg, yg, zg;
  std::vector<std::complex<T>> c;

  Workload(int dim, std::int64_t nf, int w, std::size_t M, Dist dist,
           std::uint64_t seed = 17) {
    grid.dim = dim;
    for (int d = 0; d < dim; ++d) grid.nf[d] = nf;
    bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(dim));
    kp = spread::KernelParams<T>::from_width(w);
    Rng rng(seed);
    auto gen = [&](int d) {
      switch (dist) {
        case Dist::Rand: return static_cast<T>(rng.uniform(0, double(grid.nf[d])));
        case Dist::Cluster: return static_cast<T>(rng.uniform(0, 8.0));
        case Dist::Edge:
          // Points hugging both periodic boundaries to exercise wrapping.
          return static_cast<T>(rng.uniform() < 0.5 ? rng.uniform(0, 1.0)
                                                    : rng.uniform(double(grid.nf[d]) - 1,
                                                                  double(grid.nf[d])));
      }
      return T(0);
    };
    xg.resize(M);
    yg.resize(dim >= 2 ? M : 0);
    zg.resize(dim >= 3 ? M : 0);
    c.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      xg[j] = gen(0);
      if (dim >= 2) yg[j] = gen(1);
      if (dim >= 3) zg[j] = gen(2);
      c[j] = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    }
  }

  spread::NuPoints<T> pts() const {
    return {xg.data(), grid.dim >= 2 ? yg.data() : nullptr,
            grid.dim >= 3 ? zg.data() : nullptr, xg.size()};
  }
};

/// SM as plans run it: the tile engine on the clamped tiles spread_bins
/// gives the workload's bins, streaming a tap table. `cap` is the tile chunk
/// cap (points per work item).
template <typename T>
void sm_spread_tiled(vgpu::Device& dev, const Workload<T>& wl,
                     const spread::KernelParams<T>& kp, std::complex<T>* fw,
                     int cap = static_cast<int>(spread::kTileChunkCap)) {
  const auto bins = spread::spread_bins(wl.grid, wl.bins.m, true, kp.w);
  spread::DeviceSort sort;
  spread::bin_sort(dev, wl.grid, bins, wl.xg.data(),
                   wl.grid.dim >= 2 ? wl.yg.data() : nullptr,
                   wl.grid.dim >= 3 ? wl.zg.data() : nullptr, wl.xg.size(), sort);
  spread::TileSet<T> tiles;
  spread::build_tile_set(dev, wl.grid, bins, kp.w, sort, 1, tiles, cap);
  spread::TapTable<T> taps;
  spread::build_tap_table(dev, wl.grid.dim, kp, wl.pts(), sort.order.data(), taps);
  spread::spread_tiled_batch<T>(dev, wl.grid, bins, kp, wl.pts(), wl.c.data(), fw, sort,
                                tiles, &taps, 1, 0, 0);
}

template <typename T>
std::vector<std::complex<T>> run_method(vgpu::Device& dev, const Workload<T>& wl,
                                        cf::core::Method method,
                                        int cap = static_cast<int>(spread::kTileChunkCap)) {
  std::vector<std::complex<T>> fw(static_cast<std::size_t>(wl.grid.total()), {0, 0});
  if (method == cf::core::Method::SM) {
    sm_spread_tiled(dev, wl, wl.kp, fw.data(), cap);
    return fw;
  }
  if (method == cf::core::Method::GM) {
    spread::spread_gm<T>(dev, wl.grid, wl.kp, wl.pts(), wl.c.data(), fw.data(), nullptr);
    return fw;
  }
  spread::DeviceSort sort;
  spread::bin_sort(dev, wl.grid, wl.bins, wl.xg.data(),
                   wl.grid.dim >= 2 ? wl.yg.data() : nullptr,
                   wl.grid.dim >= 3 ? wl.zg.data() : nullptr, wl.xg.size(), sort);
  spread::spread_gm<T>(dev, wl.grid, wl.kp, wl.pts(), wl.c.data(), fw.data(),
                       sort.order.data());
  return fw;
}

}  // namespace

// ---- parameterized equivalence sweep: dim x distribution x width -----------

using SpreadCase = std::tuple<int, int, int>;  // dim, dist, w

namespace {
std::string spread_case_name(const ::testing::TestParamInfo<SpreadCase>& info) {
  const int dim = std::get<0>(info.param);
  const int dist = std::get<1>(info.param);
  const int w = std::get<2>(info.param);
  const char* dn[] = {"rand", "cluster", "edge"};
  return std::to_string(dim) + "d_" + dn[dist] + "_w" + std::to_string(w);
}
}  // namespace

class SpreadEquivalence : public ::testing::TestWithParam<SpreadCase> {};

TEST_P(SpreadEquivalence, AllMethodsMatchReferenceDouble) {
  const auto [dim, dist_i, w] = GetParam();
  const std::int64_t nf = dim == 3 ? 36 : 128;
  const std::size_t M = 3000;
  Workload<double> wl(dim, nf, w, M, static_cast<Dist>(dist_i));
  vgpu::Device dev(4);
  const auto want = reference_spread(wl.grid, wl.kp, wl.xg, wl.yg, wl.zg, wl.c);
  for (auto m : {cf::core::Method::GM, cf::core::Method::GMSort, cf::core::Method::SM}) {
    auto got = run_method<double>(dev, wl, m);
    EXPECT_LT(grid_rel_err(got, want), 1e-12) << "method " << int(m);
  }
}

TEST_P(SpreadEquivalence, AllMethodsMatchReferenceSingle) {
  const auto [dim, dist_i, w] = GetParam();
  const std::int64_t nf = dim == 3 ? 36 : 128;
  const std::size_t M = 3000;
  Workload<float> wl(dim, nf, w, M, static_cast<Dist>(dist_i), 99);
  vgpu::Device dev(4);
  const auto want = reference_spread(wl.grid, wl.kp, wl.xg, wl.yg, wl.zg, wl.c);
  for (auto m : {cf::core::Method::GM, cf::core::Method::GMSort, cf::core::Method::SM}) {
    auto got = run_method<float>(dev, wl, m);
    EXPECT_LT(grid_rel_err(got, want), 2e-5) << "method " << int(m);
  }
}

INSTANTIATE_TEST_SUITE_P(DimsDistsWidths, SpreadEquivalence,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(0, 1, 2),
                                            ::testing::Values(2, 6, 9)),
                         spread_case_name);

// ---- targeted edge cases ----------------------------------------------------

TEST(Spread, SinglePointMassConservation) {
  // The grid sum equals c_j * sum of kernel tensor values (all of the mass).
  Workload<double> wl(2, 64, 6, 1, Dist::Rand);
  vgpu::Device dev(2);
  auto fw = run_method<double>(dev, wl, cf::core::Method::GM);
  std::complex<double> total(0, 0);
  for (auto& v : fw) total += v;
  double vals0[spread::kMaxWidth], vals1[spread::kMaxWidth];
  spread::es_values(wl.kp, wl.xg[0], vals0);
  spread::es_values(wl.kp, wl.yg[0], vals1);
  double mass = 0;
  for (int i1 = 0; i1 < wl.kp.w; ++i1)
    for (int i0 = 0; i0 < wl.kp.w; ++i0) mass += vals0[i0] * vals1[i1];
  EXPECT_NEAR(std::abs(total - wl.c[0] * mass), 0.0, 1e-12 * mass);
}

TEST(Spread, WrapAroundPointTouchesBothEnds) {
  // A point at fine coordinate 0.25 must write to indices on both ends.
  spread::GridSpec grid;
  grid.dim = 1;
  grid.nf = {64, 1, 1};
  auto kp = spread::KernelParams<double>::from_width(6);
  std::vector<double> xg = {0.25};
  std::vector<std::complex<double>> c = {{1, 0}};
  std::vector<std::complex<double>> fw(64, {0, 0});
  vgpu::Device dev(1);
  spread::NuPoints<double> pts{xg.data(), nullptr, nullptr, 1};
  spread::spread_gm<double>(dev, grid, kp, pts, c.data(), fw.data(), nullptr);
  EXPECT_GT(std::abs(fw[0]), 0.0);
  EXPECT_GT(std::abs(fw[63]), 0.0);  // wrapped part
  EXPECT_GT(std::abs(fw[2]), 0.0);
  EXPECT_EQ(std::abs(fw[32]), 0.0);  // far away untouched
}

TEST(Spread, ZeroPointsLeavesGridZero) {
  spread::GridSpec grid;
  grid.dim = 2;
  grid.nf = {32, 32, 1};
  auto kp = spread::KernelParams<float>::from_width(4);
  std::vector<std::complex<float>> fw(32 * 32, {0, 0});
  vgpu::Device dev(2);
  spread::NuPoints<float> pts{nullptr, nullptr, nullptr, 0};
  spread::spread_gm<float>(dev, grid, kp, pts, nullptr, fw.data(), nullptr);
  for (auto& v : fw) EXPECT_EQ(v, std::complex<float>(0, 0));
}

TEST(Spread, SmFitsRejectsPaperBinIn3dDouble) {
  // Paper Rmk. 2: the 3D double padded bin at w = 9 exceeds shared memory, so
  // plans refuse an explicit SM there; the tile engine itself has no limit.
  Workload<double> wl(3, 36, 9, 10, Dist::Rand);
  vgpu::Device dev(2);
  EXPECT_FALSE(spread::sm_fits<double>(dev, wl.grid, wl.bins, wl.kp.w));
  EXPECT_TRUE(spread::sm_fits<float>(dev, wl.grid, wl.bins, 4));
}

TEST(Spread, SmMatchesAtEveryChunkCap) {
  // Splitting bins into many work items must not change the result beyond
  // rounding.
  Workload<double> wl(2, 96, 5, 2000, Dist::Cluster, 5);
  vgpu::Device dev(4);
  const auto want = reference_spread(wl.grid, wl.kp, wl.xg, wl.yg, wl.zg, wl.c);
  for (int cap : {1, 7, 64, 100000}) {
    auto got = run_method<double>(dev, wl, cf::core::Method::SM, cap);
    EXPECT_LT(grid_rel_err(got, want), 1e-12) << "cap=" << cap;
  }
}

TEST(Spread, LinearInStrengths) {
  Workload<double> wl(2, 64, 6, 500, Dist::Rand);
  vgpu::Device dev(2);
  auto f1 = run_method<double>(dev, wl, cf::core::Method::GMSort);
  Workload<double> wl2 = wl;
  for (auto& v : wl2.c) v *= 2.0;
  auto f2 = run_method<double>(dev, wl2, cf::core::Method::GMSort);
  for (std::size_t i = 0; i < f1.size(); ++i)
    EXPECT_NEAR(std::abs(f2[i] - 2.0 * f1[i]), 0.0, 1e-12);
}

TEST(Spread, CountersShowSmUsesNoGlobalAtomics) {
  // The SM design goal (paper Sec. III-A) taken to its end: with many points
  // per bin, GM pays a global atomic per tap while SM's tile writeback pays
  // none, adding halos with plain stores instead.
  Workload<float> wl(2, 128, 6, 20000, Dist::Cluster, 3);
  vgpu::Device dev(4);
  dev.counters.reset();
  (void)run_method<float>(dev, wl, cf::core::Method::GM);
  EXPECT_GT(dev.counters.global_atomics.load(), 0u);
  dev.counters.reset();
  (void)run_method<float>(dev, wl, cf::core::Method::SM);
  EXPECT_EQ(dev.counters.global_atomics.load(), 0u);
  EXPECT_GT(dev.counters.tile_merge_ops.load(), 0u);
}

TEST(Spread, WorkerCountDoesNotChangeSmBits) {
  // The tile writeback's summation order is a pure function of the bins and
  // points, so very different worker counts give the same bits.
  Workload<double> wl(2, 96, 6, 4000, Dist::Rand, 21);
  vgpu::Device d1(1), d8(8);
  auto f1 = run_method<double>(d1, wl, cf::core::Method::SM);
  auto f8 = run_method<double>(d8, wl, cf::core::Method::SM);
  EXPECT_TRUE(f8 == f1);
}

TEST(Spread, CornerPointIn3dWrapsAllEightOctants) {
  spread::GridSpec grid;
  grid.dim = 3;
  grid.nf = {16, 16, 16};
  auto kp = spread::KernelParams<double>::from_width(4);
  std::vector<double> xg = {0.1}, yg = {0.1}, zg = {0.1};  // near the corner
  std::vector<std::complex<double>> c = {{1, 0}};
  std::vector<std::complex<double>> fw(16 * 16 * 16, {0, 0});
  vgpu::Device dev(1);
  spread::NuPoints<double> pts{xg.data(), yg.data(), zg.data(), 1};
  spread::spread_gm<double>(dev, grid, kp, pts, c.data(), fw.data(), nullptr);
  // Mass must appear in all 8 corner octants of the periodic grid.
  auto val = [&](int i, int j, int k) {
    return std::abs(fw[i + 16 * (j + 16 * k)]);
  };
  EXPECT_GT(val(0, 0, 0), 0.0);
  EXPECT_GT(val(15, 15, 15), 0.0);
  EXPECT_GT(val(0, 15, 0), 0.0);
  EXPECT_GT(val(15, 0, 15), 0.0);
}

TEST(Spread, MirroredPointsGiveMirroredGrid) {
  // Reflecting all points about the domain center mirrors the fine grid.
  spread::GridSpec grid;
  grid.dim = 1;
  grid.nf = {64, 1, 1};
  auto kp = spread::KernelParams<double>::from_width(6);
  Rng rng(22);
  const std::size_t M = 50;
  std::vector<double> xg(M), xr(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    xg[j] = rng.uniform(1.0, 63.0);
    xr[j] = 64.0 - xg[j];  // reflect about grid center
    c[j] = {rng.uniform(-1, 1), 0};
  }
  std::vector<std::complex<double>> fa(64, {0, 0}), fb(64, {0, 0});
  vgpu::Device dev(2);
  spread::NuPoints<double> pa{xg.data(), nullptr, nullptr, M};
  spread::NuPoints<double> pb{xr.data(), nullptr, nullptr, M};
  spread::spread_gm<double>(dev, grid, kp, pa, c.data(), fa.data(), nullptr);
  spread::spread_gm<double>(dev, grid, kp, pb, c.data(), fb.data(), nullptr);
  // fb[l] == fa[(64 - l) % 64] by the even symmetry of the kernel.
  for (int l = 0; l < 64; ++l)
    EXPECT_NEAR(std::abs(fb[(64 - l) % 64] - fa[l]), 0.0, 1e-12) << l;
}

// ---- width-specialized fast path vs runtime-width fallback ------------------

template <typename T>
std::vector<std::complex<T>> run_with_params(vgpu::Device& dev, const Workload<T>& wl,
                                             const spread::KernelParams<T>& kp,
                                             cf::core::Method method) {
  std::vector<std::complex<T>> fw(static_cast<std::size_t>(wl.grid.total()), {0, 0});
  if (method == cf::core::Method::SM) {
    sm_spread_tiled(dev, wl, kp, fw.data());
    return fw;
  }
  if (method == cf::core::Method::GM) {
    spread::spread_gm<T>(dev, wl.grid, kp, wl.pts(), wl.c.data(), fw.data(), nullptr);
    return fw;
  }
  spread::DeviceSort sort;
  spread::bin_sort(dev, wl.grid, wl.bins, wl.xg.data(),
                   wl.grid.dim >= 2 ? wl.yg.data() : nullptr,
                   wl.grid.dim >= 3 ? wl.zg.data() : nullptr, wl.xg.size(), sort);
  spread::spread_gm<T>(dev, wl.grid, kp, wl.pts(), wl.c.data(), fw.data(),
                       sort.order.data());
  return fw;
}

TEST(SpreadFastPath, EveryWidthMatchesFallback) {
  // The width-dispatched kernels must reproduce the runtime-w scalar path at
  // every dispatchable width, for all three methods (one Horner table, so the
  // per-tap values are identical up to FMA contraction).
  for (int w = 2; w <= spread::kMaxWidth; ++w) {
    Workload<double> wl(2, 96, w, 1500, Dist::Rand, 40 + w);
    vgpu::Device dev(4);
    auto kp_fast = wl.kp;
    auto kp_scalar = wl.kp;
    kp_scalar.fast = false;
    for (auto m : {cf::core::Method::GM, cf::core::Method::GMSort, cf::core::Method::SM}) {
      if (m == cf::core::Method::SM &&
          !spread::sm_fits<double>(dev, wl.grid, wl.bins, w))
        continue;
      auto got = run_with_params<double>(dev, wl, kp_fast, m);
      auto want = run_with_params<double>(dev, wl, kp_scalar, m);
      EXPECT_LT(grid_rel_err(got, want), 1e-12) << "w=" << w << " method=" << int(m);
    }
  }
}

TEST(SpreadFastPath, AllDimsMatchFallback) {
  for (int dim : {1, 2, 3}) {
    for (int w : {3, 6, 8}) {
      Workload<double> wl(dim, dim == 3 ? 36 : 128, w, 2000, Dist::Edge, 60 + w);
      vgpu::Device dev(4);
      auto kp_scalar = wl.kp;
      kp_scalar.fast = false;
      for (auto m : {cf::core::Method::GM, cf::core::Method::SM}) {
        if (m == cf::core::Method::SM &&
            !spread::sm_fits<double>(dev, wl.grid, wl.bins, w))
          continue;
        auto got = run_with_params<double>(dev, wl, wl.kp, m);
        auto want = run_with_params<double>(dev, wl, kp_scalar, m);
        EXPECT_LT(grid_rel_err(got, want), 1e-12)
            << "dim=" << dim << " w=" << w << " method=" << int(m);
      }
    }
  }
}

TEST(SpreadFastPath, FloatFastPathWithinTolOfScalar) {
  // The full fast path (width dispatch + padded Horner rows) must match the
  // scalar runtime-width path to <= 1e-5 relative error in single precision
  // at the benchmark tolerance.
  Workload<float> wl(3, 36, 7, 4000, Dist::Rand, 71);  // w=7 <=> tol 1e-6
  vgpu::Device dev(4);
  auto kp_scalar = wl.kp;
  kp_scalar.fast = false;
  for (auto m : {cf::core::Method::GMSort, cf::core::Method::SM}) {
    if (m == cf::core::Method::SM && !spread::sm_fits<float>(dev, wl.grid, wl.bins, 7))
      continue;
    auto got = run_with_params<float>(dev, wl, wl.kp, m);
    auto want = run_with_params<float>(dev, wl, kp_scalar, m);
    EXPECT_LT(grid_rel_err(got, want), 1e-5) << "method=" << int(m);
  }
}

// ---- sigma = 1.25 deep-tolerance widths (17..24) ----------------------------

TEST(SpreadFastPath, EveryKernelWidthDispatchesCompileTime) {
  // Every width width_from_tol can select must hit the compile-time fast
  // path — including the sigma = 1.25 range 17..24, which used to fall to
  // the runtime-w scalar fallback; anything outside [2, kMaxWidth] still
  // falls back to it.
  for (int w = 2; w <= spread::kMaxWidth; ++w) {
    int seen = 0;
    EXPECT_TRUE(spread::detail::dispatch_width(w, [&](auto wc) { seen = wc(); }))
        << "w=" << w;
    EXPECT_EQ(seen, w);
  }
  EXPECT_FALSE(spread::detail::dispatch_width(1, [](auto) {}));
  EXPECT_FALSE(spread::detail::dispatch_width(spread::kMaxWidth + 1, [](auto) {}));
}

TEST(SpreadFastPath, Width20PlanBuildsTapsAndMatchesDirect) {
  // sigma = 1.25 at tol 1e-12 selects w = 20 (test_kernel asserts the width
  // rule): the plan must carry that width through the compile-time dispatch,
  // build its plan-resident tap table (SM; 2D fp64 at 16x16 bins fits
  // shared memory), and still deliver deep-tolerance accuracy against the
  // direct sum.
  cf::core::Options o;
  o.upsampfac = 1.25;
  o.method = cf::core::Method::SM;
  o.binsize = {16, 16, 1};
  vgpu::Device dev(2);
  const std::vector<std::int64_t> N{64, 64};
  cf::core::Plan<double> plan(dev, 1, N, +1, 1e-12, o);
  ASSERT_EQ(plan.kernel_width(), 20);

  const std::size_t M = 400, ntot = 64 * 64;
  Rng rng(77);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  plan.set_points(M, x.data(), y.data(), nullptr);
  std::vector<std::complex<double>> f(ntot), want(ntot);
  plan.execute(c.data(), f.data());

  const auto bd = plan.last_breakdown();
  EXPECT_EQ(bd.tap_builds, 1u);
  EXPECT_EQ(bd.tiled, 1);

  cf::ThreadPool pool(4);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, N, want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-9);
}

TEST(Spread, GmSortPermutedOrderSameResultAsUserOrder) {
  // GM and GM-sort differ only in traversal order; sums must agree.
  Workload<float> wl(2, 128, 6, 5000, Dist::Rand, 24);
  vgpu::Device dev(4);
  auto f_gm = run_method<float>(dev, wl, cf::core::Method::GM);
  auto f_sorted = run_method<float>(dev, wl, cf::core::Method::GMSort);
  EXPECT_LT(grid_rel_err(f_sorted, f_gm), 2e-6);
}
