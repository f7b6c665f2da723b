// Tile-owned atomic-free spread writeback, the engine of every SM and
// GM-sort type-1 spread:
//  * bitwise-identical execute output across worker counts {1, 2, hw,
//    $CF_WORKERS} on the tiled path (the whole pipeline is atomic-free and
//    every fine-grid cell has a single owner with a fixed merge order);
//  * zero global atomics across an entire tiled type-1 execute, all-interior
//    and boundary-heavy alike, with the halo-add counter accounting for the
//    traffic that replaced them;
//  * the tile colouring: no two same-colour tiles share a fine-grid cell, and
//    colours and outputs are identical at every worker count;
//  * the M-TIP merge geometry (3D fp64 at 1e-12) runs tiled in bounded
//    memory;
//  * parity against the atomic spread_gm_batch kernel in sort order at one
//    worker across dims x methods x precisions x B in {1, 3};
//  * small grids: tiles clamped to the fine grid keep every plan on the tile
//    engine, bitwise across worker counts and accurate against the direct
//    sum (no atomic fallback exists).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <complex>
#include <limits>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/plan.hpp"
#include "core/type3.hpp"
#include "cpu/direct.hpp"
#include "mtip/geometry.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

/// Modes whose fine grids hold several unclamped tiles per axis at the
/// suite's tolerances. 1D gets an explicit bin size: the 1024-point default
/// bin would clamp to one tile on test-sized grids. The low-upsampling grid
/// takes larger modes: sigma = 1.25 shrinks nf while widening the kernel
/// (w = 15 at double 1e-9).
std::vector<std::int64_t> modes_for(int dim,
                                    double sigma = cf::test::env_upsampfac()) {
  if (dim == 1) return {64};
  if (sigma != 2.0) return dim == 2 ? std::vector<std::int64_t>{40, 40}
                                    : std::vector<std::int64_t>{28, 28, 26};
  if (dim == 2) return {40, 36};
  return {16, 16, 12};
}

core::Options base_opts(int dim, core::Method method, int B = 1) {
  core::Options o;
  o.method = method;
  o.upsampfac = cf::test::env_upsampfac();
  o.ntransf = B;
  if (dim == 1) o.binsize = {32, 1, 1};
  return o;
}

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c;
  std::size_t M;
  std::int64_t ntot;

  /// interior_band > 0 keeps every coordinate at least that many fine-grid
  /// cells away from the periodic edge (all-interior placement).
  Problem(std::vector<std::int64_t> modes, std::size_t M_, int B,
          const std::array<std::int64_t, 3>& nf, int interior_band,
          std::uint64_t seed)
      : N(std::move(modes)), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    auto coord = [&](int d) {
      const double g = rng.uniform(double(interior_band),
                                   double(nf[d] - interior_band));
      return static_cast<T>(2.0 * std::numbers::pi * g / double(nf[d]));
    };
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = coord(0);
      if (dim >= 2) y[j] = coord(1);
      if (dim >= 3) z[j] = coord(2);
    }
    c.resize(static_cast<std::size_t>(B) * M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }

  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }
};

/// One full type-1 execute at the given worker count; returns the mode
/// outputs and reports whether the spread ran tiled and how many global
/// atomics the execute performed.
template <typename T>
std::vector<std::complex<T>> run_type1(std::size_t workers, const Problem<T>& p,
                                       const core::Options& opts, double tol,
                                       int* tiled = nullptr,
                                       std::uint64_t* atomics = nullptr,
                                       core::Breakdown* bd = nullptr) {
  vgpu::Device dev(workers);
  const int B = std::max(1, opts.ntransf);
  core::Plan<T> plan(dev, 1, p.N, +1, tol, opts);
  plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
  std::vector<std::complex<T>> f(static_cast<std::size_t>(B) * p.ntot);
  std::vector<std::complex<T>> c = p.c;
  dev.counters.reset();
  plan.execute(c.data(), f.data());
  if (tiled) *tiled = plan.last_breakdown().tiled;
  if (atomics) *atomics = dev.counters.global_atomics.load();
  if (bd) *bd = plan.last_breakdown();
  return f;
}

std::vector<std::size_t> worker_counts() {
  std::vector<std::size_t> counts{1, 2,
                                  std::max(1u, std::thread::hardware_concurrency())};
  const int env = cf::test::env_int("CF_WORKERS", 0);
  if (env > 0) counts.push_back(static_cast<std::size_t>(env));
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// Upper bound on one execute's tile_merge_ops over `nb` planes: the clipped
/// writeback adds each tile's footprint cells outside its core, at most the
/// padded-minus-core cells of the whole padded box.
template <typename T>
std::uint64_t halo_bound(const core::Plan<T>& plan, int nb) {
  const int pad = (plan.kernel_width() + 1) / 2;
  std::uint64_t padded = 1, core = 1;
  for (int d = 0; d < plan.dim(); ++d) {
    padded *= static_cast<std::uint64_t>(plan.bins().m[d] + 2 * pad);
    core *= static_cast<std::uint64_t>(plan.bins().m[d]);
  }
  return (padded - core) * plan.last_breakdown().tiles_active *
         static_cast<std::uint64_t>(nb);
}

}  // namespace

// ---- bitwise determinism across worker counts --------------------------------

/// SM is unavailable where the padded bin exceeds shared memory (e.g. 3D
/// double, paper Rmk. 2); those combinations are skipped.
template <typename T>
static bool method_available(const std::vector<std::int64_t>& modes, double tol,
                             const core::Options& opts) {
  vgpu::Device probe(1);
  try {
    core::Plan<T> trial(probe, 1, modes, +1, tol, opts);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

template <typename T>
static void check_bitwise_across_workers(int dim, core::Method method, int B,
                                         double sigma = cf::test::env_upsampfac()) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  auto opts = base_opts(dim, method, B);
  opts.upsampfac = sigma;
  const auto modes = modes_for(dim, sigma);
  if (!method_available<T>(modes, tol, opts)) return;
  vgpu::Device probe(1);
  core::Plan<T> trial(probe, 1, modes, +1, tol, opts);
  Problem<T> p(modes, 3000, B, trial.fine_grid().nf, 0, 7 + dim + B);
  int tiled = 0;
  const auto ref = run_type1<T>(1, p, opts, tol, &tiled);
  ASSERT_EQ(tiled, 1) << "tile engine inactive at dim=" << dim
                      << " method=" << core::method_name(method);
  for (std::size_t wc : worker_counts()) {
    const auto got = run_type1<T>(wc, p, opts, tol);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], ref[i]) << "dim=" << dim << " method="
                                << core::method_name(method) << " workers=" << wc
                                << " B=" << B << " i=" << i;
  }
}

TEST(TiledSpread, BitwiseIdenticalAcrossWorkerCountsF32) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM})
      for (int B : {1, 3}) check_bitwise_across_workers<float>(dim, m, B);
}

TEST(TiledSpread, BitwiseIdenticalAcrossWorkerCountsF64) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM})
      for (int B : {1, 3}) check_bitwise_across_workers<double>(dim, m, B);
}

// ---- low-upsampling grid (sigma = 1.25) --------------------------------------

TEST(TiledSpread, Sigma125BitwiseAcrossWorkerCounts) {
  // The tile-owned writeback is sigma-agnostic: the determinism contract must
  // hold verbatim on the sigma = 1.25 grid (smaller nf, wider kernel — w = 9
  // float / w = 15 double at the suite tolerances). Forced here regardless of
  // CF_UPSAMP so the default ctest run covers both grids.
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM}) {
      check_bitwise_across_workers<float>(dim, m, 1, 1.25);
      check_bitwise_across_workers<double>(dim, m, 1, 1.25);
    }
}

TEST(TiledSpread, Sigma125ZeroGlobalAtomicsOnTiledExecute) {
  // Zero global atomics is per-sigma part of the contract: the wider sigma =
  // 1.25 halos go through the same colour-round writeback, never through
  // atomics.
  for (int dim = 2; dim <= 3; ++dim) {
    auto opts = base_opts(dim, core::Method::GMSort);
    opts.upsampfac = 1.25;
    const auto modes = modes_for(dim, 1.25);
    vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
    core::Plan<double> plan(dev, 1, modes, +1, 1e-9, opts);
    Problem<double> p(modes, 2500, 1, plan.fine_grid().nf, 0, 33 + dim);
    plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
    std::vector<std::complex<double>> f(static_cast<std::size_t>(p.ntot));
    auto c = p.c;
    dev.counters.reset();
    plan.execute(c.data(), f.data());
    ASSERT_EQ(plan.last_breakdown().tiled, 1) << "dim=" << dim;
    EXPECT_EQ(dev.counters.global_atomics.load(), 0u) << "dim=" << dim;
    EXPECT_GT(dev.counters.tile_merge_ops.load(), 0u) << "dim=" << dim;
    EXPECT_LE(dev.counters.tile_merge_ops.load(), halo_bound(plan, 1)) << "dim=" << dim;
  }
}

// ---- tile memory does not scale with the active tiles ------------------------

TEST(TiledSpread, ArenaBytesIndependentOfActiveTileCount) {
  // Colour rounds persist nothing per tile: Breakdown::arena_bytes is the
  // per-worker padded scratch plus split-chunk planes, so a point set that
  // lights up every tile costs exactly what one confined to a few tiles does.
  // 2000 points stay under the chunk cap even in one bin, so no split adds
  // point-dependent chunk planes (asserted). Sigma is pinned to 2: the
  // sigma = 1.25 test grids hold too few bins to tell a handful of active
  // tiles from all of them.
  for (int dim = 2; dim <= 3; ++dim) {
    auto opts = base_opts(dim, core::Method::GMSort);
    opts.upsampfac = 2.0;
    const auto modes = modes_for(dim, 2.0);
    vgpu::Device dev(2);
    core::Plan<float> plan(dev, 1, modes, +1, 1e-5, opts);
    const auto& nf = plan.fine_grid().nf;
    Problem<float> spread_out(modes, 2000, 1, nf, 0, 77 + dim);
    // Same strengths, coordinates squeezed into a 4-cell box near the origin.
    Problem<float> few = spread_out;
    auto squeeze = [](std::vector<float>& v, std::int64_t n) {
      for (auto& x : v) x = x * float(4.0 / double(n));
    };
    squeeze(few.x, nf[0]);
    if (dim >= 2) squeeze(few.y, nf[1]);
    if (dim >= 3) squeeze(few.z, nf[2]);

    core::Breakdown bd[2];
    int k = 0;
    for (const auto* p : {&few, &spread_out}) {
      plan.set_points(p->M, p->x.data(), p->yp(), p->zp());
      bd[k] = plan.last_breakdown();
      EXPECT_EQ(bd[k].tile_chunks, bd[k].tiles_active) << "dim=" << dim;
      std::vector<std::complex<float>> f(static_cast<std::size_t>(p->ntot));
      auto c = p->c;
      dev.counters.reset();
      plan.execute(c.data(), f.data());
      EXPECT_EQ(plan.last_breakdown().tiled, 1) << "dim=" << dim;
      EXPECT_EQ(dev.counters.global_atomics.load(), 0u) << "dim=" << dim;
      ++k;
    }
    ASSERT_GT(bd[0].arena_bytes, 0u) << "dim=" << dim;
    ASSERT_GT(bd[1].tiles_active, 4 * bd[0].tiles_active) << "dim=" << dim;
    EXPECT_EQ(bd[1].arena_bytes, bd[0].arena_bytes) << "dim=" << dim;
    EXPECT_EQ(bd[1].tile_colors, bd[0].tile_colors) << "dim=" << dim;
  }
}

// ---- atomic elision ----------------------------------------------------------

TEST(TiledSpread, ZeroGlobalAtomicsOnTiledExecute) {
  // An all-interior point set (the counter claim of the issue) and an
  // unconstrained one: the tiled execute must perform ZERO global atomics
  // either way — spread is tile-owned, FFT and deconvolve never use atomics —
  // while the halo-merge counter shows the plain adds that replaced them.
  for (int dim = 2; dim <= 3; ++dim) {
    for (auto method : {core::Method::GMSort, core::Method::SM}) {
      for (int band : {0, 8}) {
        const auto opts = base_opts(dim, method);
        // SM can't fit the padded bin everywhere (3D float at sigma = 1.25
        // exceeds shared memory); skip before the trial plan would throw.
        if (!method_available<float>(modes_for(dim), 1e-5, opts)) continue;
        vgpu::Device probe(1);
        core::Plan<float> trial(probe, 1, modes_for(dim), +1, 1e-5, opts);
        Problem<float> p(modes_for(dim), 2500, 1, trial.fine_grid().nf, band,
                         21 + dim + band);
        int tiled = 0;
        std::uint64_t atomics = ~0ull;
        vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
        core::Plan<float> plan(dev, 1, p.N, +1, 1e-5, opts);
        plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
        std::vector<std::complex<float>> f(static_cast<std::size_t>(p.ntot));
        auto c = p.c;
        dev.counters.reset();
        plan.execute(c.data(), f.data());
        tiled = plan.last_breakdown().tiled;
        atomics = dev.counters.global_atomics.load();
        ASSERT_EQ(tiled, 1) << "dim=" << dim;
        EXPECT_EQ(atomics, 0u)
            << "dim=" << dim << " method=" << core::method_name(method)
            << " band=" << band;
        EXPECT_GT(dev.counters.tile_merge_ops.load(), 0u);
        EXPECT_LE(dev.counters.tile_merge_ops.load(), halo_bound(plan, 1));
      }
    }
  }
}

TEST(TiledSpread, GmMethodStillCountsAtomics) {
  // Sanity check of the counter: the GM method, the contract's one atomic
  // exception, spreads with global atomics and reports tiled == 0.
  const auto opts = base_opts(2, core::Method::GM);
  vgpu::Device probe(1);
  core::Plan<float> trial(probe, 1, modes_for(2), +1, 1e-5, opts);
  Problem<float> p(modes_for(2), 1500, 1, trial.fine_grid().nf, 0, 31);
  int tiled = -1;
  std::uint64_t atomics = 0;
  run_type1<float>(1, p, opts, 1e-5, &tiled, &atomics);
  EXPECT_EQ(tiled, 0);
  EXPECT_GT(atomics, 0u);
}

// ---- parity vs the atomic writeback ------------------------------------------

/// The plan's tiled fine grid against the atomic spread_gm_batch kernel run
/// in the same sort order on one worker: both at the kernel level, on the
/// plan's grid, bins and kernel (SM streams a tap table, as its plans do).
template <typename T>
static void check_parity(int dim, core::Method method, int B) {
  namespace sp = cf::spread;
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  // The double parity floor widens off the sigma = 2 grid: the w = 15 kernel
  // sums ~2x more taps per point, so summation-order noise between the tiled
  // and atomic writebacks lands near 1e-10 (measured 7.8e-11 at 3D GM-sort).
  const double lim = std::is_same_v<T, double>
                         ? (cf::test::env_upsampfac() == 2.0 ? 1e-11 : 1e-9)
                         : 1e-4;
  const auto opts = base_opts(dim, method, B);
  if (!method_available<T>(modes_for(dim), tol, opts)) return;
  vgpu::Device dev(1);
  core::Plan<T> plan(dev, 1, modes_for(dim), +1, tol, opts);
  const auto grid = plan.fine_grid();
  const auto bins = plan.bins();
  Problem<T> p(modes_for(dim), 2200, B, grid.nf, 0, 41 + dim + B);
  std::vector<T> xg(p.M), yg(p.y.size()), zg(p.z.size());
  for (std::size_t j = 0; j < p.M; ++j) {
    xg[j] = sp::fold_rescale(p.x[j], grid.nf[0]);
    if (!yg.empty()) yg[j] = sp::fold_rescale(p.y[j], grid.nf[1]);
    if (!zg.empty()) zg[j] = sp::fold_rescale(p.z[j], grid.nf[2]);
  }
  const sp::NuPoints<T> pts{xg.data(), yg.empty() ? nullptr : yg.data(),
                            zg.empty() ? nullptr : zg.data(), p.M};
  sp::DeviceSort sort;
  sp::bin_sort(dev, grid, bins, pts.xg, pts.yg, pts.zg, p.M, sort);
  const auto kp = sp::KernelParams<T>::from_width(plan.kernel_width(), opts.upsampfac);
  sp::TileSet<T> tiles;
  sp::build_tile_set(dev, grid, bins, kp.w, sort, B, tiles);
  sp::TapTable<T> taps;
  if (method == core::Method::SM)
    sp::build_tap_table(dev, dim, kp, pts, sort.order.data(), taps);
  const std::size_t total = static_cast<std::size_t>(grid.total());
  std::vector<std::complex<T>> got(B * total), want(B * total);
  sp::spread_tiled_batch<T>(dev, grid, bins, kp, pts, p.c.data(), got.data(), sort, tiles,
                            taps.empty() ? nullptr : &taps, B, p.M, total);
  sp::spread_gm_batch<T>(dev, grid, kp, pts, p.c.data(), want.data(), sort.order.data(),
                         B, p.M, total);
  EXPECT_LT(cf::cpu::rel_l2_error<T>(got, want), lim)
      << "dim=" << dim << " method=" << core::method_name(method) << " B=" << B;
}

TEST(TiledSpread, ParityVsAtomicWritebackOneWorker) {
  for (int dim = 1; dim <= 3; ++dim)
    for (auto m : {core::Method::GMSort, core::Method::SM})
      for (int B : {1, 3}) {
        check_parity<float>(dim, m, B);
        check_parity<double>(dim, m, B);
      }
}

// ---- accuracy against the exact NUDFT ----------------------------------------

TEST(TiledSpread, TiledExecuteMatchesDirect) {
  for (int dim = 2; dim <= 3; ++dim) {
    const auto opts = base_opts(dim, core::Method::GMSort);
    vgpu::Device probe(1);
    core::Plan<double> trial(probe, 1, modes_for(dim), +1, 1e-9, opts);
    Problem<double> p(modes_for(dim), 1200, 1, trial.fine_grid().nf, 0, 51 + dim);
    int tiled = 0;
    const auto f = run_type1<double>(2, p, opts, 1e-9, &tiled);
    ASSERT_EQ(tiled, 1);
    cf::ThreadPool pool(2);
    std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
    cf::cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8) << "dim=" << dim;
  }
}

// ---- re-set_points to M = 0 leaves no stale decomposition --------------------

TEST(TiledSpread, ReSetPointsToZeroIsClean) {
  // A used plan re-pointed at an empty set must not retain the previous
  // tile decomposition or partition; execute must produce zeros, tiled and
  // atomic (GM) alike.
  {
    for (auto method : {core::Method::GMSort, core::Method::SM, core::Method::GM}) {
      const auto opts = base_opts(2, method);
      vgpu::Device dev(2);
      core::Plan<float> plan(dev, 1, modes_for(2), +1, 1e-5, opts);
      Problem<float> p(modes_for(2), 2000, 1, plan.fine_grid().nf, 0, 71);
      plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
      std::vector<std::complex<float>> f(static_cast<std::size_t>(p.ntot));
      auto c = p.c;
      plan.execute(c.data(), f.data());
      plan.set_points(0, p.x.data(), p.yp(), p.zp());
      plan.execute(c.data(), f.data());
      for (const auto& v : f)
        ASSERT_EQ(v, std::complex<float>(0, 0)) << core::method_name(method);
    }
  }
}

// ---- small grids: clamped tiles, no fallback --------------------------------

namespace {

/// One small-grid type-1 case: tiles clamp to the fine grid (as few as w - 1
/// cells per axis), and the plan must still spread tiled, give the same bits
/// at 1, 2 and 4 workers, and match the direct sum.
template <typename T>
void check_small_grid(const std::vector<std::int64_t>& N, core::Method method) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  // The bound of the suite's other direct-sum checks: 10x the tolerance.
  const double lim = 10 * tol;
  core::Options opts;
  opts.method = method;
  opts.upsampfac = cf::test::env_upsampfac();
  if (!method_available<T>(N, tol, opts)) return;  // SM beyond shared memory
  SCOPED_TRACE(::testing::Message()
               << "N0=" << N[0] << " dim=" << N.size() << " method="
               << core::method_name(method) << " double=" << (std::is_same_v<T, double>));
  vgpu::Device probe(1);
  core::Plan<T> trial(probe, 1, N, +1, tol, opts);
  Problem<T> p(N, 500, 1, trial.fine_grid().nf, 0, 61 + N[0] + N.size());
  int tiled = 0;
  std::uint64_t atomics = ~std::uint64_t(0);
  const auto ref = run_type1<T>(1, p, opts, tol, &tiled, &atomics);
  ASSERT_EQ(tiled, 1);
  EXPECT_EQ(atomics, 0u);
  for (std::size_t wc : {2, 4}) {
    const auto got = run_type1<T>(wc, p, opts, tol, &tiled);
    ASSERT_EQ(tiled, 1) << "workers=" << wc;
    ASSERT_TRUE(got == ref) << "workers=" << wc;
  }
  cf::ThreadPool pool(2);
  std::vector<double> x(p.x.begin(), p.x.end()), y(p.y.begin(), p.y.end()),
      z(p.z.begin(), p.z.end());
  std::vector<std::complex<double>> c(p.c.begin(), p.c.end()),
      got(ref.begin(), ref.end()), want(static_cast<std::size_t>(p.ntot));
  cf::cpu::direct_type1<double>(pool, x, y, z, c, +1, p.N, want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(got, want), lim);
}

template <typename T>
void check_small_grids() {
  const std::vector<std::vector<std::int64_t>> shapes = {
      {8}, {16}, {32}, {64}, {8, 8}, {10, 12}, {16, 16}, {6, 6, 6}, {12, 10, 8}, {12, 12, 12}};
  for (const auto& N : shapes)
    for (auto m : {core::Method::Auto, core::Method::GMSort, core::Method::SM})
      check_small_grid<T>(N, m);
}

}  // namespace

TEST(TiledSpread, SmallGridsRunTiledBitwiseAndAccurateF32) { check_small_grids<float>(); }

TEST(TiledSpread, SmallGridsRunTiledBitwiseAndAccurateF64) {
  // Includes {10, 12} at fp64 1e-9, where the paper bins and the halo tiles
  // both exceed the fine grid on every axis and are clamped.
  check_small_grids<double>();
}

TEST(TiledSpread, SmallGridType3SpreadsWithoutAtomics) {
  // Type 3's source spread runs on the same engine: on a small geometry-
  // derived grid its whole execute performs no global atomics and gives the
  // same bits at 1, 2 and 4 workers.
  Rng rng(67);
  const std::size_t M = 300, K = 200;
  std::vector<double> x(M), y(M), s(K), t(K);
  std::vector<std::complex<double>> c(M);
  for (auto& v : x) v = rng.uniform(-1, 1);
  for (auto& v : y) v = rng.uniform(-1, 1);
  for (auto& v : s) v = rng.uniform(-3, 3);
  for (auto& v : t) v = rng.uniform(-3, 3);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  for (auto m : {core::Method::GMSort, core::Method::SM}) {
    core::Options opts;
    opts.method = m;
    std::vector<std::complex<double>> ref;
    for (std::size_t wc : {1, 2, 4}) {
      vgpu::Device dev(wc);
      core::Type3Plan<double> plan(dev, 2, +1, 1e-9, opts);
      plan.set_points(M, x.data(), y.data(), nullptr, K, s.data(), t.data(), nullptr);
      ASSERT_LT(plan.fine_grid().nf[0], 64) << "not a small grid";
      std::vector<std::complex<double>> f(K);
      auto cc = c;
      dev.counters.reset();
      plan.execute(cc.data(), f.data());
      EXPECT_EQ(dev.counters.global_atomics.load(), 0u)
          << core::method_name(m) << " workers=" << wc;
      if (wc == 1)
        ref = f;
      else
        ASSERT_TRUE(f == ref) << core::method_name(m) << " workers=" << wc;
    }
  }
}

// ---- adversarial clustered distributions (chunked scheduler) -----------------

namespace {

/// Clustered coordinate layouts that defeat a per-tile schedule: kind 0 puts
/// every point inside one bin-sized box, kind 1 drops one tight clump per
/// periodic corner (halo-heavy), kind 2 draws power-law bin populations
/// (coordinate ~ nf * u^4). Strengths come from the base Problem.
template <typename T>
Problem<T> cluster_problem(int dim, int kind, std::size_t M,
                           const std::array<std::int64_t, 3>& nf,
                           std::uint64_t seed) {
  Problem<T> p(modes_for(dim), M, 1, nf, 0, seed);
  Rng rng(seed * 2 + 1);
  for (std::size_t j = 0; j < M; ++j) {
    double g[3] = {0, 0, 0};
    for (int d = 0; d < dim; ++d) {
      if (kind == 0) {
        g[d] = 0.3 * double(nf[d]) + rng.uniform(0, 1);
      } else if (kind == 1) {
        const bool hi = (j % (std::size_t(1) << dim)) >> d & 1;
        g[d] = (hi ? double(nf[d]) - 1.5 : 1.5) + rng.uniform(-1, 1);
      } else {
        const double u = rng.uniform(0, 1);
        g[d] = double(nf[d] - 1) * u * u * u * u;
      }
    }
    p.x[j] = static_cast<T>(2.0 * std::numbers::pi * g[0] / double(nf[0]));
    if (dim >= 2) p.y[j] = static_cast<T>(2.0 * std::numbers::pi * g[1] / double(nf[1]));
    if (dim >= 3) p.z[j] = static_cast<T>(2.0 * std::numbers::pi * g[2] / double(nf[2]));
  }
  return p;
}

/// At the fixed chunk cap: still tiled, still zero global atomics, output
/// bitwise-identical at every worker count. 6000 points put bins past the
/// cap, so the split must engage where a bin holds them all (kind 0); other
/// caps are checked against the reference sum in test_spread.
template <typename T>
void check_cluster(int dim, int kind) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  const auto opts = base_opts(dim, core::Method::GMSort);
  if (!method_available<T>(modes_for(dim), tol, opts)) return;
  vgpu::Device probe(1);
  core::Plan<T> trial(probe, 1, modes_for(dim), +1, tol, opts);
  const auto p =
      cluster_problem<T>(dim, kind, 6000, trial.fine_grid().nf, 91 + dim * 7 + kind);

  int tiled = 0;
  std::uint64_t atomics = ~std::uint64_t(0);
  core::Breakdown bd{};
  const auto ref = run_type1<T>(1, p, opts, tol, &tiled, &atomics, &bd);
  ASSERT_EQ(tiled, 1) << "dim=" << dim << " kind=" << kind;
  EXPECT_EQ(atomics, 0u) << "dim=" << dim << " kind=" << kind;
  ASSERT_GT(bd.tiles_active, 0u);
  EXPECT_GT(bd.max_tile_points, 0u);
  if (kind == 0) {
    EXPECT_GT(bd.max_tile_points, cf::spread::kTileChunkCap);
    EXPECT_GT(bd.tile_chunks, bd.tiles_active)
        << "split did not engage at dim=" << dim << " kind=" << kind;
  }
  for (std::size_t wc : worker_counts()) {
    const auto got = run_type1<T>(wc, p, opts, tol);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], ref[i]) << "dim=" << dim << " kind=" << kind
                                << " workers=" << wc << " i=" << i;
  }
}

}  // namespace

TEST(TiledSpread, ClusteredChunkingBitwiseF32) {
  for (int dim = 1; dim <= 3; ++dim)
    for (int kind = 0; kind <= 2; ++kind) check_cluster<float>(dim, kind);
}

TEST(TiledSpread, ClusteredChunkingBitwiseF64) {
  for (int dim = 1; dim <= 3; ++dim)
    for (int kind = 0; kind <= 2; ++kind) check_cluster<double>(dim, kind);
}

// ---- tile colouring ----------------------------------------------------------

namespace {

/// One colouring geometry: a type-1 plan shape plus its bin size.
struct ColorCase {
  const char* name;
  std::vector<std::int64_t> N;
  double sigma, tol;
  std::array<int, 3> binsize;
  int want_w;  ///< kernel width the case is meant to exercise
};

/// The TileSet schedule fields that must not depend on the worker count.
struct TileSchedule {
  std::vector<std::uint32_t> tile_bin, color_tile0, color_chunk0, sched;
  bool operator==(const TileSchedule&) const = default;
};

/// Builds the TileSet of `p`'s points on a `workers`-worker device and checks
/// that no two tiles of one colour share a fine-grid cell: every tile stamps
/// its whole wrapped padded box with its colour, and a cell stamped twice in
/// one colour fails.
TileSchedule check_coloring(const ColorCase& cc, const cf::spread::GridSpec& grid,
                            const Problem<double>& p, std::size_t workers, int cap) {
  namespace sp = cf::spread;
  vgpu::Device dev(workers);
  const auto bins = sp::BinSpec::make(grid, cc.binsize);
  std::vector<double> xg(p.M), yg(p.y.size()), zg(p.z.size());
  for (std::size_t j = 0; j < p.M; ++j) {
    xg[j] = sp::fold_rescale(p.x[j], grid.nf[0]);
    if (!yg.empty()) yg[j] = sp::fold_rescale(p.y[j], grid.nf[1]);
    if (!zg.empty()) zg[j] = sp::fold_rescale(p.z[j], grid.nf[2]);
  }
  sp::DeviceSort sort;
  sp::bin_sort(dev, grid, bins, xg.data(), yg.empty() ? nullptr : yg.data(),
               zg.empty() ? nullptr : zg.data(), p.M, sort);
  sp::TileSet<double> ts;
  sp::build_tile_set(dev, grid, bins, cc.want_w, sort, 1, ts, cap);
  EXPECT_GT(ts.n_active, 0u) << cc.name;
  EXPECT_EQ(ts.color_tile0.size(), ts.n_colors + 1u) << cc.name;

  std::vector<std::uint32_t> stamp(static_cast<std::size_t>(grid.total()), 0);
  std::size_t collisions = 0;
  for (std::uint32_t k = 0; k < ts.n_colors; ++k) {
    for (std::uint32_t s = ts.color_tile0[k]; s < ts.color_tile0[k + 1]; ++s) {
      std::int64_t delta[3], rem = ts.tile_bin[s];
      for (int d = 0; d < 3; ++d) {
        delta[d] = (rem % bins.nbins[d]) * bins.m[d] - (d < grid.dim ? ts.pad : 0);
        rem /= bins.nbins[d];
      }
      for (std::int64_t s2 = 0; s2 < ts.p[2]; ++s2)
        for (std::int64_t s1 = 0; s1 < ts.p[1]; ++s1)
          for (std::int64_t s0 = 0; s0 < ts.p[0]; ++s0) {
            const std::int64_t g0 = sp::wrap_index(delta[0] + s0, grid.nf[0]);
            const std::int64_t g1 = sp::wrap_index(delta[1] + s1, grid.nf[1]);
            const std::int64_t g2 = sp::wrap_index(delta[2] + s2, grid.nf[2]);
            auto& st = stamp[static_cast<std::size_t>(
                g0 + grid.nf[0] * (g1 + grid.nf[1] * g2))];
            if (st == k + 1) ++collisions;
            st = k + 1;
          }
    }
  }
  EXPECT_EQ(collisions, 0u) << cc.name << " cap=" << cap;
  TileSchedule out;
  out.tile_bin.assign(ts.tile_bin.data(), ts.tile_bin.data() + ts.n_active);
  out.color_tile0 = ts.color_tile0;
  out.color_chunk0 = ts.color_chunk0;
  out.sched.assign(ts.sched.data(), ts.sched.data() + ts.n_chunks);
  return out;
}

}  // namespace

TEST(TiledSpread, ColoringDisjointAndWorkerIndependent) {
  // 1D/2D/3D; nf = 162 with m = 16 (11 bins, short last core: the wrap pair
  // needs a third axis colour); bins narrower than 2*pad (the M-TIP z axis,
  // m = 2 at w = 13; sigma = 1.25 at w = 24 with m = 16).
  const std::vector<ColorCase> cases = {
      {"1d-nf162", {81}, 2.0, 1e-12, {16, 1, 1}, 13},
      {"2d-nf162x100", {81, 50}, 2.0, 1e-12, {16, 16, 1}, 13},
      {"3d-mtip-bins", {81, 24, 16}, 2.0, 1e-12, {16, 16, 2}, 13},
      {"2d-sigma125-w24", {40, 40}, 1.25, 1e-15, {16, 16, 1}, 24},
  };
  for (const auto& cc : cases) {
    const int dim = static_cast<int>(cc.N.size());
    core::Options opts;
    opts.method = core::Method::GMSort;
    opts.upsampfac = cc.sigma;
    opts.binsize = cc.binsize;
    vgpu::Device probe(1);
    core::Plan<double> trial(probe, 1, cc.N, +1, cc.tol, opts);
    ASSERT_EQ(trial.kernel_width(), cc.want_w) << cc.name;
    const auto grid = trial.fine_grid();
    Problem<double> p(cc.N, 3000, 1, grid.nf, 0, 500 + dim);
    for (int cap : {static_cast<int>(cf::spread::kTileChunkCap), 1}) {
      TileSchedule ref_sched;
      for (std::size_t wc : {1, 2, 4}) {
        const auto sched = check_coloring(cc, grid, p, wc, cap);
        if (wc == 1)
          ref_sched = sched;
        else
          EXPECT_TRUE(sched == ref_sched) << cc.name << " cap=" << cap << " workers=" << wc;
      }
    }
    std::vector<std::complex<double>> ref;
    for (std::size_t wc : {1, 2, 4}) {
      int tiled = 0;
      const auto got = run_type1<double>(wc, p, opts, cc.tol, &tiled);
      ASSERT_EQ(tiled, 1) << cc.name;
      if (wc == 1) {
        ref = got;
        continue;
      }
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], ref[i]) << cc.name << " workers=" << wc << " i=" << i;
    }
  }
}

// ---- M-TIP merge geometry ----------------------------------------------------

namespace {

struct MtipMergeRun {
  core::Breakdown bd;
  std::array<int, 3> bins;
};

/// The M-TIP merge transform (paper Sec. V): 3D fp64 type 1 at tol 1e-12,
/// N = 81, on 40 Ewald slices of 32^2 detector pixels (w = 13), one execute
/// on a 2-worker device. Checks the tiled path, zero global atomics and 48
/// sampled modes against the exact sum (within 10 tol).
MtipMergeRun run_mtip_merge(const core::Options& opts) {
  const double tol = 1e-12;
  const std::vector<std::int64_t> N = {81, 81, 81};
  std::vector<double> x, y, z;
  cf::mtip::DetectorSpec det;
  for (const auto& R : cf::mtip::random_rotations(40, 42))
    cf::mtip::ewald_slice_points(R, det, x, y, z);
  const std::size_t M = x.size();
  EXPECT_EQ(M, 40u * 32u * 32u);
  Rng rng(43);
  std::vector<std::complex<double>> c(M);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  vgpu::Device dev(2);
  core::Plan<double> plan(dev, 1, N, +1, tol, opts);
  plan.set_points(M, x.data(), y.data(), z.data());
  std::vector<std::complex<double>> f(static_cast<std::size_t>(81 * 81 * 81));
  dev.counters.reset();
  plan.execute(c.data(), f.data());
  const auto bd = plan.last_breakdown();
  EXPECT_EQ(bd.tiled, 1);
  EXPECT_EQ(dev.counters.global_atomics.load(), 0u);

  // Sampled modes against the exact sum (x-fastest, k = i - N/2 per axis).
  std::vector<std::complex<double>> got, want;
  for (int s = 0; s < 48; ++s) {
    const std::int64_t i0 = static_cast<std::int64_t>(rng.uniform(0, 81));
    const std::int64_t i1 = static_cast<std::int64_t>(rng.uniform(0, 81));
    const std::int64_t i2 = static_cast<std::int64_t>(rng.uniform(0, 81));
    const double k0 = double(i0 - 40), k1 = double(i1 - 40), k2 = double(i2 - 40);
    std::complex<double> acc(0, 0);
    for (std::size_t j = 0; j < M; ++j)
      acc += c[j] * std::polar(1.0, k0 * x[j] + k1 * y[j] + k2 * z[j]);
    want.push_back(acc);
    got.push_back(f[static_cast<std::size_t>(i0 + 81 * (i1 + 81 * i2))]);
  }
  EXPECT_LT(cf::cpu::rel_l2_error<double>(got, want), 10 * tol);
  return {bd, plan.bins().m};
}

}  // namespace

TEST(TiledSpread, MtipMergePlanRunsTiledInBoundedMemory) {
  // Pinned to the paper's 16x16x2 bins, where w = 13 reaches 7 cells past a
  // 2-cell-deep bin: thousands of active tiles must run on the tile engine —
  // in memory that does not scale with them. The chunk cap splits nothing
  // here, since no bin reaches kTileChunkCap points (asserted), so no chunk
  // planes are allocated.
  core::Options opts;
  opts.method = core::Method::GMSort;
  opts.binsize = {16, 16, 2};
  const auto r = run_mtip_merge(opts);
  EXPECT_GT(r.bd.tiles_active, 1000u);
  EXPECT_LT(r.bd.max_tile_points, cf::spread::kTileChunkCap);
  EXPECT_EQ(r.bd.tile_chunks, r.bd.tiles_active);
  EXPECT_LT(r.bd.arena_bytes, std::size_t(2) << 20);
}

TEST(TiledSpread, MtipMergePlanDefaultsToHaloProportionedTiles) {
  // The same plan with binsize unset runs on 16^3 tiles (the halo-
  // proportioned geometry at w = 13), still tiled, in the same bounded
  // scratch, at the same accuracy.
  core::Options opts;
  opts.method = core::Method::GMSort;
  const auto r = run_mtip_merge(opts);
  EXPECT_EQ(r.bins, (std::array<int, 3>{16, 16, 16}));
  EXPECT_GT(r.bd.tiles_active, 0u);
  EXPECT_LT(r.bd.arena_bytes, std::size_t(2) << 20);
}

// ---- tile geometry rule ------------------------------------------------------

TEST(TiledSpread, TileSizeRuleGrowsOnlyShallowAxes) {
  namespace sp = cf::spread;
  for (int dim = 1; dim <= 3; ++dim)
    for (int w = 2; w <= 24; ++w) {
      const auto paper = sp::BinSpec::default_size(dim);
      const auto tile = sp::BinSpec::tile_size(dim, w);
      if (dim < 3) {
        EXPECT_EQ(tile, paper) << "dim=" << dim << " w=" << w;
        continue;
      }
      const int halo = 2 * ((w + 1) / 2);
      for (int d = 0; d < 3; ++d) {
        EXPECT_EQ(tile[d], std::max(paper[d], (halo + 7) / 8 * 8)) << "w=" << w;
        EXPECT_GE(tile[d], halo) << "w=" << w;
      }
    }
  EXPECT_EQ(sp::BinSpec::tile_size(3, 13), (std::array<int, 3>{16, 16, 16}));
  EXPECT_EQ(sp::BinSpec::tile_size(3, 7), (std::array<int, 3>{16, 16, 8}));
}

TEST(TiledSpread, MethodResolvesOnPaperBinsTilesOnHaloBins) {
  // fp32 3D type 1 at tol 1e-6 (w = 7): the paper's 16x16x2 bin fits shared
  // memory, so Auto resolves to SM; the tile engine then runs 16x16x8
  // tiles. An explicit binsize wins over both, and plans off the tile engine
  // (type 2) keep the paper bins. Tiles that would not fit the fine grid are
  // clamped to it, axis by axis.
  const std::vector<std::int64_t> N = {32, 32, 32};
  vgpu::Device dev(1);
  auto bins_of = [&](int type, core::Options o) {
    core::Plan<float> plan(dev, type, N, +1, 1e-6, o);
    EXPECT_EQ(plan.kernel_width(), 7);
    if (type == 1) {
      EXPECT_EQ(plan.resolved_method(), core::Method::SM);
    }
    return plan.bins().m;
  };
  core::Options o;
  EXPECT_EQ(bins_of(1, o), (std::array<int, 3>{16, 16, 8}));
  EXPECT_EQ(bins_of(2, o), (std::array<int, 3>{16, 16, 2}));
  o.binsize = {8, 8, 4};
  EXPECT_EQ(bins_of(1, o), (std::array<int, 3>{8, 8, 4}));

  // Clamp: fp64 at tol 1e-12 (w = 13, pad 7) on modes {81, 81, 8} gives
  // nf_z = 27. A 16-deep tile would need 16 + 14 = 30 cells on z, so that
  // axis clamps to 27 - 14 = 13 while x and y keep 16, and the plan spreads
  // tiled with no global atomics.
  const std::vector<std::int64_t> Na = {81, 81, 8};
  core::Plan<double> plan(dev, 1, Na, +1, 1e-12);
  EXPECT_EQ(plan.kernel_width(), 13);
  EXPECT_EQ(plan.fine_grid().nf[2], 27);
  EXPECT_EQ(plan.bins().m, (std::array<int, 3>{16, 16, 13}));
  const std::size_t M = 2000;
  Rng rng(44);
  std::vector<double> x(M), y(M), z(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    z[j] = rng.angle();
  }
  std::vector<std::complex<double>> c(M, {1.0, 0.0}), f(81 * 81 * 8);
  plan.set_points(M, x.data(), y.data(), z.data());
  dev.counters.reset();
  plan.execute(c.data(), f.data());
  EXPECT_EQ(plan.last_breakdown().tiled, 1);
  EXPECT_EQ(dev.counters.global_atomics.load(), 0u);
}

// ---- footprint-clipped, self-clearing writeback -------------------------------

namespace {

/// Sparse point sets on the 162 x 48 x 32 fine grid of modes {81, 24, 16}
/// (16^3 tiles at w = 10; the x axis ends in a 2-cell bin): kind 0 a
/// spherical shell, kind 1 every point in one corner of one bin, kind 2 a
/// slab straddling the periodic wrap on every axis, through the short last
/// x bin.
Problem<double> sparse_problem(int kind, std::size_t M, int B,
                               const std::array<std::int64_t, 3>& nf) {
  Problem<double> p({81, 24, 16}, M, B, nf, 0, 300 + kind);
  Rng rng(400 + kind);
  for (std::size_t j = 0; j < M; ++j) {
    double g[3];
    if (kind == 0) {
      const double th = std::acos(rng.uniform(-1, 1)), ph = rng.angle();
      const double r = 12.0 + rng.uniform(0, 0.5);
      g[0] = 0.5 * double(nf[0]) + r * std::sin(th) * std::cos(ph);
      g[1] = 0.5 * double(nf[1]) + r * std::sin(th) * std::sin(ph);
      g[2] = 0.5 * double(nf[2]) + r * std::cos(th);
    } else {
      for (int d = 0; d < 3; ++d)
        g[d] = kind == 1 ? 16.0 + rng.uniform(0, 1.5)
                         : double(nf[d]) + rng.uniform(-3, 3);
    }
    p.x[j] = 2.0 * std::numbers::pi * g[0] / double(nf[0]);
    p.y[j] = 2.0 * std::numbers::pi * g[1] / double(nf[1]);
    p.z[j] = 2.0 * std::numbers::pi * g[2] / double(nf[2]);
  }
  return p;
}

core::Options sparse_opts(int B = 1) {
  core::Options o;
  o.method = core::Method::GMSort;
  o.ntransf = B;
  return o;
}

}  // namespace

TEST(TiledSpread, SparseFootprintsBitwiseAcrossWorkersAndAccurate) {
  const double tol = 1e-9;
  vgpu::Device probe(1);
  core::Plan<double> trial(probe, 1, std::vector<std::int64_t>{81, 24, 16}, +1, tol,
                           sparse_opts());
  const auto nf = trial.fine_grid().nf;
  ASSERT_EQ(nf[0], 162);
  ASSERT_EQ(trial.bins().m, (std::array<int, 3>{16, 16, 16}));
  cf::ThreadPool pool(2);
  // 3000 points: kind 1's single bin exceeds the chunk cap and is split.
  for (int kind = 0; kind <= 2; ++kind) {
    const auto p = sparse_problem(kind, 3000, 1, nf);
    std::vector<std::complex<double>> want(static_cast<std::size_t>(p.ntot));
    cf::cpu::direct_type1<double>(pool, p.x, p.y, p.z, p.c, +1, p.N, want);
    int tiled = 0;
    core::Breakdown bd{};
    const auto ref = run_type1<double>(1, p, sparse_opts(), tol, &tiled, nullptr, &bd);
    ASSERT_EQ(tiled, 1) << "kind=" << kind;
    if (kind == 1) {
      EXPECT_GT(bd.tile_chunks, bd.tiles_active);
    }
    EXPECT_LT(cf::cpu::rel_l2_error<double>(ref, want), 10 * tol) << "kind=" << kind;
    for (std::size_t wc : {2, 4}) {
      const auto got = run_type1<double>(wc, p, sparse_opts(), tol);
      ASSERT_TRUE(got == ref) << "kind=" << kind << " workers=" << wc;
    }
  }
}

TEST(TiledSpread, ScratchAndChunkPlanesAreCleanAfterSpread) {
  // The clean-scratch invariant: every reader clears what it consumed, so
  // after spread_tiled_batch returns the worker scratch and every split-chunk
  // plane are all zero again — unsplit tiles, maximal splitting, and a batch
  // of 3 planes alike. A second spread then reproduces the first bitwise.
  namespace sp = cf::spread;
  const double tol = 1e-9;
  for (int kind = 0; kind <= 2; ++kind)
    for (int cap : {-1, 1})
      for (int B : {1, 3}) {
        vgpu::Device dev(3);
        core::Plan<double> plan(dev, 1, std::vector<std::int64_t>{81, 24, 16}, +1, tol,
                                sparse_opts(B));
        const auto grid = plan.fine_grid();
        const auto bins = plan.bins();
        const auto p = sparse_problem(kind, 1500, B, grid.nf);
        std::vector<double> xg(p.M), yg(p.M), zg(p.M);
        for (std::size_t j = 0; j < p.M; ++j) {
          xg[j] = sp::fold_rescale(p.x[j], grid.nf[0]);
          yg[j] = sp::fold_rescale(p.y[j], grid.nf[1]);
          zg[j] = sp::fold_rescale(p.z[j], grid.nf[2]);
        }
        sp::DeviceSort sort;
        sp::bin_sort(dev, grid, bins, xg.data(), yg.data(), zg.data(), p.M, sort);
        sp::TileSet<double> ts;
        sp::build_tile_set(dev, grid, bins, plan.kernel_width(), sort, B, ts, cap);
        if (cap == 1) {
          EXPECT_GT(ts.n_split, 0u) << "kind=" << kind;
        }
        auto kp = sp::KernelParams<double>::from_width(plan.kernel_width(), 2.0);
        const sp::NuPoints<double> pts{xg.data(), yg.data(), zg.data(), p.M};
        const std::size_t total = static_cast<std::size_t>(grid.total());
        std::vector<std::complex<double>> fw[2];
        for (auto& f : fw) {
          f.assign(static_cast<std::size_t>(B) * total, {0, 0});
          sp::spread_tiled_batch<double>(dev, grid, bins, kp, pts, p.c.data(), f.data(),
                                         sort, ts, nullptr, B, p.M, total);
          auto all_zero = [](const auto& buf) {
            return std::all_of(buf.data(), buf.data() + buf.size(),
                               [](double v) { return v == 0.0; });
          };
          EXPECT_TRUE(all_zero(ts.scratch_re) && all_zero(ts.scratch_im))
              << "kind=" << kind << " cap=" << cap << " B=" << B;
          EXPECT_TRUE(all_zero(ts.chunk_re) && all_zero(ts.chunk_im))
              << "kind=" << kind << " cap=" << cap << " B=" << B;
        }
        EXPECT_TRUE(fw[0] == fw[1]) << "kind=" << kind << " cap=" << cap << " B=" << B;
      }
}

TEST(TiledSpread, NonFiniteStrengthDoesNotPoisonLaterExecutes) {
  // A NaN (or Inf) strength writes NaN into the zero-tap overhang lanes of
  // the fast path, which can spill past a row's end; clearing must cover
  // them, or the next execute on the same plan inherits the NaNs. Kind 1's
  // 3000 points in one bin also run the split-tile path.
  const double tol = 1e-9;
  for (int kind : {1, 2}) {
    vgpu::Device dev(2);
    const auto opts = sparse_opts();
    core::Plan<double> plan(dev, 1, std::vector<std::int64_t>{81, 24, 16}, +1, tol, opts);
    const auto p = sparse_problem(kind, 3000, 1, plan.fine_grid().nf);
    plan.set_points(p.M, p.x.data(), p.yp(), p.zp());
    std::vector<std::complex<double>> f(static_cast<std::size_t>(p.ntot));
    auto bad = p.c;
    for (std::size_t j = 0; j < bad.size(); j += 97)
      bad[j] = {j % 2 ? std::numeric_limits<double>::quiet_NaN()
                      : std::numeric_limits<double>::infinity(),
                0.0};
    plan.execute(bad.data(), f.data());
    auto c = p.c;
    plan.execute(c.data(), f.data());
    const auto fresh = run_type1<double>(2, p, opts, tol);
    ASSERT_TRUE(f == fresh) << "kind=" << kind;
  }
}
