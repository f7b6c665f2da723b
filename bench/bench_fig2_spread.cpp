// Fig. 2 reproduction: spreading method comparison (GM vs GM-sort vs SM).
//
// Execution time per nonuniform point vs fine-grid size, for "rand" and
// "cluster" distributions, 2D and 3D, density rho = 1, eps = 1e-5 (w = 6),
// single precision. "total" includes the bin-sort (and, for SM, tile-set and
// tap-table) precomputation; "spread" excludes it. SM is the tile engine
// streaming a tap table, as Plan runs it. Annotations report speedup over the GM baseline.
//
// Paper shape to reproduce:
//   - rand, large grids: GM-sort beats GM (3.9x in 2D, 7.6x in 3D at the top)
//   - rand, small grids: sorting brings no benefit
//   - cluster: sorting alone does not help; SM wins big (up to 12.8x in 2D)
//   - SM's throughput is distribution-robust (rand ~ cluster)
//
// A final section benchmarks the width-specialized SIMD fast path against the
// runtime-width scalar fallback (3D SM, M = 1e6, tol = 1e-6, fp32 — the
// tracked configuration), both on the Horner kernel table; later
// sections ablate batching, sigma, the tile writeback (including the
// M-TIP merge transform, `mtip_merge3d`, and small clamped grids,
// `smallgrid`) and worker count. An `fft` section times the FFT substrate alone on the workload grids.
//
// All rows are also emitted as machine-readable JSON (--json <path>, default
// BENCH_spread.json) so the perf trajectory is tracked across PRs.
//
// Flags: --m2d <pts> --m3d <pts> (override rho=1), --reps N, --full (paper
// grid range), --mfast N (fast-path section size), --json <path>.
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "fft/fftnd.hpp"
#include "mtip/geometry.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/primitives.hpp"
#include "vgpu/device.hpp"

using namespace cf;
using bench::Dist;

namespace {

/// "16x16x16": the bin (tile) dimensions a plan's spread ran on.
template <typename T>
std::string tile_dims(const core::Plan<T>& plan) {
  std::string out;
  for (int d = 0; d < plan.dim(); ++d)
    out += (d ? "x" : "") + std::to_string(plan.bins().m[d]);
  return out;
}

struct Row {
  double spread_gm, total_sort, spread_sort, sm_total, sm_spread;
};

Row run_case(vgpu::Device& dev, int dim, std::int64_t nf, Dist dist, int reps) {
  const auto kp = spread::KernelParams<float>::from_width(6);  // eps = 1e-5
  spread::GridSpec grid;
  grid.dim = dim;
  for (int d = 0; d < dim; ++d) grid.nf[d] = nf;
  const auto bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(dim));
  const std::size_t M = static_cast<std::size_t>(grid.total());  // rho = 1

  auto wl = bench::make_workload<float>(dim, M, dist, nf);
  // Fold-rescale once (plan-stage work in the library).
  vgpu::device_buffer<float> xg(dev, M), yg(dev, dim >= 2 ? M : 0),
      zg(dev, dim >= 3 ? M : 0);
  dev.launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    xg[j] = spread::fold_rescale(wl.x[j], grid.nf[0]);
    if (dim >= 2) yg[j] = spread::fold_rescale(wl.y[j], grid.nf[1]);
    if (dim >= 3) zg[j] = spread::fold_rescale(wl.z[j], grid.nf[2]);
  });
  spread::NuPoints<float> pts{xg.data(), dim >= 2 ? yg.data() : nullptr,
                              dim >= 3 ? zg.data() : nullptr, M};
  vgpu::device_buffer<std::complex<float>> fw(dev, static_cast<std::size_t>(grid.total()));

  auto zero = [&] { vgpu::fill(dev, fw.span(), std::complex<float>(0, 0)); };

  Row r{};
  // GM: no precomputation; spread == total.
  r.spread_gm = time_best([&] {
    zero();
    spread::spread_gm<float>(dev, grid, kp, pts, wl.c.data(), fw.data(), nullptr);
  }, reps);

  // GM-sort: sort precomputation + sorted spread.
  spread::DeviceSort sort;
  const double sort_time = time_best([&] {
    spread::bin_sort<float>(dev, grid, bins, xg.data(), pts.yg, pts.zg, M, sort);
  }, reps);
  r.spread_sort = time_best([&] {
    zero();
    spread::spread_gm<float>(dev, grid, kp, pts, wl.c.data(), fw.data(),
                             sort.order.data());
  }, reps);
  r.total_sort = sort_time + r.spread_sort;

  // SM as Plan runs it (where the paper's bin fits shared memory, the rule
  // plans resolve SM by): sort into the clamped halo-proportioned tiles,
  // build the tile set and the tap table, then the tile-owned spread.
  if (spread::sm_fits<float>(dev, grid, bins, kp.w)) {
    const auto tbins = spread::spread_bins(grid, {0, 0, 0}, true, kp.w);
    spread::DeviceSort tsort;
    spread::TileSet<float> tiles;
    spread::TapTable<float> taps;
    const double setup_time = time_best([&] {
      spread::bin_sort<float>(dev, grid, tbins, xg.data(), pts.yg, pts.zg, M, tsort);
      spread::build_tile_set(dev, grid, tbins, kp.w, tsort, 1, tiles);
      spread::build_tap_table(dev, dim, kp, pts, tsort.order.data(), taps);
    }, reps);
    r.sm_spread = time_best([&] {
      zero();
      spread::spread_tiled_batch<float>(dev, grid, tbins, kp, pts, wl.c.data(), fw.data(),
                                        tsort, tiles, &taps, 1, 0, 0);
    }, reps);
    r.sm_total = setup_time + r.sm_spread;
  } else {
    r.sm_spread = r.sm_total = -1;
  }
  return r;
}

void json_row(bench::JsonReport& json, const char* section, Dist dist, int dim,
              std::int64_t nf, std::size_t M, double tol, const char* method,
              const char* path, double spread_s, double total_s) {
  auto& rec = json.add();
  rec.field("bench", section)
      .field("dist", bench::dist_name(dist))
      .field("dim", dim)
      .field("nf", static_cast<std::int64_t>(nf))
      .field("M", M)
      .field("tol", tol)
      .field("method", method)
      .field("path", path)
      .field("spread_s", spread_s)
      .field("pts_per_s", spread_s > 0 ? double(M) / spread_s : 0.0);
  if (total_s >= 0) rec.field("total_s", total_s);
}

void run_sweep(vgpu::Device& dev, int dim, const std::vector<std::int64_t>& sizes,
               Dist dist, int reps, bench::JsonReport& json) {
  std::printf("\n--- %dD %s, rho=1, eps=1e-5 (fp32) --- [ns per nonuniform point]\n", dim,
              bench::dist_name(dist));
  Table t({"nf/axis", "M", "spread GM", "spread GM-sort", "total GM-sort", "spread SM",
           "total SM", "GM-sort spdup", "SM spdup"});
  for (auto nf : sizes) {
    const Row r = run_case(dev, dim, nf, dist, reps);
    std::size_t M = 1;
    for (int d = 0; d < dim; ++d) M *= static_cast<std::size_t>(nf);
    t.add_row({std::to_string(nf), Table::fmt_sci(double(M), 1),
               bench::fmt_ns(r.spread_gm, M), bench::fmt_ns(r.spread_sort, M),
               bench::fmt_ns(r.total_sort, M),
               r.sm_spread < 0 ? "n/a" : bench::fmt_ns(r.sm_spread, M),
               r.sm_total < 0 ? "n/a" : bench::fmt_ns(r.sm_total, M),
               Table::fmt(r.spread_gm / r.spread_sort, 1) + "x",
               r.sm_spread < 0 ? "n/a" : Table::fmt(r.spread_gm / r.sm_spread, 1) + "x"});
    json_row(json, "fig2", dist, dim, nf, M, 1e-5, "GM", "fast", r.spread_gm, -1);
    json_row(json, "fig2", dist, dim, nf, M, 1e-5, "GM-sort", "fast", r.spread_sort,
             r.total_sort);
    if (r.sm_spread >= 0)
      json_row(json, "fig2", dist, dim, nf, M, 1e-5, "SM", "fast", r.sm_spread,
               r.sm_total);
  }
  t.print();
}

/// Fast-path ablation at the tracked configuration: 3D SM spread, rand,
/// tol = 1e-6 (w = 7), single precision. Compares the runtime-width scalar
/// fallback (the pre-fast-path pipeline) against the width-specialized SIMD
/// kernels, both evaluating the padded Horner table.
void run_fastpath(vgpu::Device& dev, std::size_t M, int reps, bench::JsonReport& json) {
  const double tol = 1e-6;
  const int w = spread::width_from_tol(tol);
  spread::GridSpec grid;
  grid.dim = 3;
  // rho ~= 1: cube the cube root of M.
  std::int64_t nf = 2;
  while (nf * nf * nf < static_cast<std::int64_t>(M)) ++nf;
  grid.nf = {nf, nf, nf};
  const auto bins = spread::spread_bins(grid, {0, 0, 0}, true, w);

  std::printf("\n--- fast-path ablation: 3D SM spread, rand, M=%zu, tol=%g, fp32 ---\n",
              M, tol);
  if (!spread::sm_fits<float>(
          dev, grid, spread::BinSpec::make(grid, spread::BinSpec::default_size(3)), w)) {
    std::printf("SM does not fit shared memory at w=%d; skipping.\n", w);
    return;
  }

  auto wl = bench::make_workload<float>(3, M, Dist::Rand, nf);
  vgpu::device_buffer<float> xg(dev, M), yg(dev, M), zg(dev, M);
  dev.launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    xg[j] = spread::fold_rescale(wl.x[j], grid.nf[0]);
    yg[j] = spread::fold_rescale(wl.y[j], grid.nf[1]);
    zg[j] = spread::fold_rescale(wl.z[j], grid.nf[2]);
  });
  spread::NuPoints<float> pts{xg.data(), yg.data(), zg.data(), M};
  vgpu::device_buffer<std::complex<float>> fw(dev, static_cast<std::size_t>(grid.total()));
  spread::DeviceSort sort;
  spread::bin_sort<float>(dev, grid, bins, xg.data(), yg.data(), zg.data(), M, sort);
  spread::TileSet<float> tiles;
  spread::build_tile_set(dev, grid, bins, w, sort, 1, tiles);

  // The tap table is built by the same path (scalar or width-specialized)
  // as the spread it feeds, as in a plan.
  auto run = [&](const spread::KernelParams<float>& kp) {
    spread::TapTable<float> taps;
    spread::build_tap_table(dev, 3, kp, pts, sort.order.data(), taps);
    return time_best([&] {
      vgpu::fill(dev, fw.span(), std::complex<float>(0, 0));
      spread::spread_tiled_batch<float>(dev, grid, bins, kp, pts, wl.c.data(), fw.data(),
                                        sort, tiles, &taps, 1, 0, 0);
    }, reps);
  };

  const auto kp_fast = spread::KernelParams<float>::from_width(w);
  auto kp_scalar = kp_fast;
  kp_scalar.fast = false;

  struct Cfg {
    const char* name;
    double secs;
  } cfgs[] = {{"scalar", run(kp_scalar)}, {"fast-horner", run(kp_fast)}};

  Table t({"path", "spread [s]", "Mpts/s", "speedup vs scalar"});
  for (const auto& cfg : cfgs) {
    t.add_row({cfg.name, Table::fmt(cfg.secs, 3), Table::fmt(M / cfg.secs / 1e6, 2),
               Table::fmt(cfgs[0].secs / cfg.secs, 2) + "x"});
    auto& rec = json.add();
    rec.field("bench", "fastpath3d")
        .field("dist", "rand")
        .field("dim", 3)
        .field("nf", static_cast<std::int64_t>(nf))
        .field("M", M)
        .field("tol", tol)
        .field("method", "SM")
        .field("path", cfg.name)
        .field("spread_s", cfg.secs)
        .field("pts_per_s", double(M) / cfg.secs)
        .field("speedup_vs_scalar", cfgs[0].secs / cfg.secs);
  }
  t.print();
}

/// Tracked execute-ablation problem: 3D rand at density rho ~= 1 — modes N
/// per axis sized so the sigma = 2 fine grid holds ~M points. Shared by the
/// batch / sigma / tile / worker-count ablations so they all bench the same
/// configuration.
struct Tracked3d {
  std::vector<std::int64_t> N;
  std::size_t ntot;
  bench::Workload<float> wl;
};

Tracked3d make_tracked3d(std::size_t M) {
  std::int64_t n = 1;
  while (8 * n * n * n < static_cast<std::int64_t>(M)) ++n;
  Tracked3d t;
  t.N = {n, n, n};
  t.ntot = static_cast<std::size_t>(n * n * n);
  t.wl = bench::make_workload<float>(3, M, Dist::Rand, 2 * n);
  return t;
}

/// Best-of-reps execute timing (one warmup, like time_best) that samples the
/// spread-stage time from the SAME best rep — last_breakdown() after an
/// unrelated rep would pair a best exec_s with a noisy spread_s.
template <typename PlanT, typename Body>
std::pair<double, double> time_exec_best(const PlanT& plan, Body&& body, int reps) {
  double best = 1e300, spread = 0;
  body();
  for (int r = 0; r < reps; ++r) {
    Timer t;
    body();
    const double e = t.seconds();
    if (e < best) {
      best = e;
      spread = plan.last_breakdown().spread;
    }
  }
  return {best, spread};
}

/// Batch ablation at the tracked configuration: 3D SM type-1 execute, rand,
/// tol = 1e-6, fp32, B = 8. One batched execute (Options::ntransf = 8, the
/// batch-strided pipeline: weights evaluated once per point, one batched FFT
/// launch, one deconvolve launch) against 8 serial B = 1 executes on an
/// identical plan with identical points.
void run_batch(vgpu::Device& dev, const Tracked3d& t3, std::size_t M, int reps,
               bench::JsonReport& json) {
  const double tol = 1e-6;
  const int B = 8;
  const auto& [N, ntot, wl] = t3;

  std::printf("\n--- batch ablation: 3D SM type-1 execute, rand, M=%zu, B=%d, tol=%g, "
              "fp32 ---\n", M, B, tol);

  cf::Rng rng(99);
  std::vector<std::complex<float>> c(B * M);
  for (auto& v : c)
    v = {float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))};
  std::vector<std::complex<float>> f(B * ntot);

  core::Options sopts;
  sopts.method = core::Method::SM;
  core::Options bopts = sopts;
  bopts.ntransf = B;
  double serial_s, batched_s;
  try {
    core::Plan<float> serial(dev, 1, N, +1, tol, sopts);
    serial.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
    serial_s = time_best([&] {
      for (int b = 0; b < B; ++b)
        serial.execute(c.data() + b * M, f.data() + b * ntot);
    }, reps);

    core::Plan<float> batched(dev, 1, N, +1, tol, bopts);
    batched.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
    batched_s = time_best([&] { batched.execute(c.data(), f.data()); }, reps);
  } catch (const std::invalid_argument& e) {
    std::printf("SM unavailable at this configuration (%s); skipping.\n", e.what());
    return;
  }

  Table t({"path", "exec [s]", "Mpts/s (xB)", "speedup vs serial"});
  struct Cfg {
    const char* name;
    double secs;
  } cfgs[] = {{"serial-8x", serial_s}, {"batched-ntransf8", batched_s}};
  for (const auto& cfg : cfgs) {
    t.add_row({cfg.name, Table::fmt(cfg.secs, 3),
               Table::fmt(double(B) * double(M) / cfg.secs / 1e6, 2),
               Table::fmt(serial_s / cfg.secs, 2) + "x"});
    auto& rec = json.add();
    rec.field("bench", "batch3d")
        .field("dist", "rand")
        .field("dim", 3)
        .field("M", M)
        .field("ntransf", static_cast<std::int64_t>(B))
        .field("tol", tol)
        .field("method", "SM")
        .field("path", cfg.name)
        .field("exec_s", cfg.secs)
        .field("pts_per_s", double(B) * double(M) / cfg.secs)
        .field("speedup_vs_serial", serial_s / cfg.secs);
  }
  t.print();
}

/// Worker-count ablation (ROADMAP PR-2 follow-up): the tracked 3D SM type-1
/// execute at workers in {1, 2, hw}. Each worker count gets its own Device
/// (its own pool), same points and strengths.
void run_workers(const Tracked3d& t3, std::size_t M, int reps,
                 bench::JsonReport& json) {
  const double tol = 1e-6;
  const auto& [N, ntot, wl] = t3;
  auto c = wl.c;  // execute takes a mutable strengths pointer
  std::vector<std::complex<float>> f(ntot);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> counts{1, 2, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  counts.erase(std::remove_if(counts.begin(), counts.end(),
                              [&](std::size_t c) { return c > hw; }),
               counts.end());

  std::printf("\n--- worker-count ablation: 3D SM type-1 execute, rand, M=%zu, tol=%g, "
              "fp32 ---\n", M, tol);
  Table t({"workers", "exec [s]", "spread [s]", "Mpts/s", "scaling vs 1"});
  double base = 0;
  for (std::size_t wks : counts) {
    vgpu::Device dev(wks);
    core::Options opts;
    opts.method = core::Method::SM;
    double exec_s, spread_s;
    try {
      core::Plan<float> plan(dev, 1, N, +1, tol, opts);
      plan.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
      std::tie(exec_s, spread_s) =
          time_exec_best(plan, [&] { plan.execute(c.data(), f.data()); }, reps);
    } catch (const std::invalid_argument& e) {
      std::printf("SM unavailable (%s); skipping.\n", e.what());
      return;
    }
    if (wks == 1) base = exec_s;
    t.add_row({std::to_string(wks), Table::fmt(exec_s, 3), Table::fmt(spread_s, 3),
               Table::fmt(M / exec_s / 1e6, 2),
               Table::fmt(base / exec_s, 2) + "x"});
    auto& rec = json.add();
    rec.field("bench", "workers3d")
        .field("dist", "rand")
        .field("dim", 3)
        .field("M", M)
        .field("tol", tol)
        .field("method", "SM")
        .field("workers", wks)
        .field("exec_s", exec_s)
        .field("spread_s", spread_s)
        .field("pts_per_s", double(M) / exec_s)
        .field("scaling_vs_1", base / exec_s);
  }
  t.print();
}

/// Tiled-writeback rows at the tracked configuration: 3D type-1 execute,
/// rand, tol = 1e-6, fp32, SM and GM-sort, both on the tile-owned atomic-free
/// writeback every sorted type-1 spread runs. Records per-execute global
/// atomics (zero; the halo-add counter shows the plain adds that replace
/// them), the set_points/cache-build cost of the tile ownership, and whether
/// the output is bitwise-identical across worker counts {1, 2}.
void run_tiled(const Tracked3d& t3, std::size_t M, int reps, bench::JsonReport& json) {
  const double tol = 1e-6;
  const auto& [N, ntot, wl] = t3;
  auto c = wl.c;  // execute takes a mutable strengths pointer
  std::vector<std::complex<float>> f(ntot);

  std::printf("\n--- tiled writeback: 3D type-1 execute, rand, M=%zu, tol=%g, "
              "fp32 ---\n", M, tol);
  Table t({"method", "exec [s]", "spread [s]", "atomics/pt", "merge/pt", "setpts [s]",
           "cache [s]"});
  for (core::Method method : {core::Method::SM, core::Method::GMSort}) {
    vgpu::Device dev;
    core::Options opts;
    opts.method = method;
    try {
      core::Plan<float> plan(dev, 1, N, +1, tol, opts);
      Timer ts;
      plan.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
      const double setpts_s = ts.seconds();
      const auto [exec_s, spread_s] =
          time_exec_best(plan, [&] { plan.execute(c.data(), f.data()); }, reps);
      dev.counters.reset();
      plan.execute(c.data(), f.data());
      const std::uint64_t atomics = dev.counters.global_atomics.load();
      const std::uint64_t merges = dev.counters.tile_merge_ops.load();
      const auto bd = plan.last_breakdown();
      t.add_row({core::method_name(method), Table::fmt(exec_s, 3), Table::fmt(spread_s, 3),
                 Table::fmt(double(atomics) / double(M), 1),
                 Table::fmt(double(merges) / double(M), 1), Table::fmt(setpts_s, 3),
                 Table::fmt(bd.cache_build, 3)});
      // Determinism: compared at explicit worker counts 1 vs 2 so the check
      // is meaningful regardless of the host's core count (the timing device
      // above uses all cores).
      bool bitwise = true;
      std::vector<std::complex<float>> f1(ntot), f2(ntot);
      for (auto [wks, fp] : {std::pair<std::size_t, std::complex<float>*>{1, f1.data()},
                             {2, f2.data()}}) {
        vgpu::Device devw(wks);
        core::Plan<float> planw(devw, 1, N, +1, tol, opts);
        planw.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
        planw.execute(c.data(), fp);
        bitwise = bitwise && planw.last_breakdown().tiled == 1;
      }
      bitwise = bitwise && f1 == f2;
      json.add()
          .field("bench", "tiled3d")
          .field("dist", "rand")
          .field("dim", 3)
          .field("M", M)
          .field("tol", tol)
          .field("method", core::method_name(method))
          .field("path", "tiled")
          .field("tiled_active", static_cast<std::int64_t>(bd.tiled))
          .field("tile_dims", tile_dims(plan))
          .field("tiles", bd.tiles_active)
          .field("exec_s", exec_s)
          .field("spread_s", spread_s)
          .field("setpts_s", setpts_s)
          .field("cache_build_s", bd.cache_build)
          .field("sort_s", bd.sort)
          .field("pts_per_s", double(M) / exec_s)
          .field("global_atomics", atomics)
          .field("atomics_per_pt", double(atomics) / double(M))
          .field("tile_merge_ops", merges)
          .field("tile_chunks", bd.tile_chunks)
          .field("max_tile_points", bd.max_tile_points)
          .field("chunk_steals", bd.chunk_steals)
          .field("bitwise_across_workers", static_cast<std::int64_t>(bitwise));
    } catch (const std::invalid_argument& e) {
      std::printf("%s unavailable (%s); skipping.\n", core::method_name(method), e.what());
    }
  }
  t.print();
}

/// M-TIP merge ablation (paper Sec. V): the merge transform of one M-TIP rank
/// — 3D type 1 at fp64 tol 1e-12, N = 81, on 40 Ewald slices of 32^2
/// detector pixels (default GM-sort, w = 13) — with the colour-scheduled
/// tile writeback on its default halo-proportioned 16^3 tiles and pinned to
/// the paper's 16x16x2 bins. Rows record the bin dims, the execute, spread
/// and FFT times
/// (median and range over the reps), global atomics and halo adds per point,
/// the tile scratch bytes, the colour classes, and whether the tiled output
/// is bitwise-identical across worker counts {1, 2}.
void run_mtip_merge(int reps, bench::JsonReport& json) {
  const double tol = 1e-12;
  const std::vector<std::int64_t> N = {81, 81, 81};
  std::vector<double> x, y, z;
  for (const auto& R : mtip::random_rotations(40, 42))
    mtip::ewald_slice_points(R, mtip::DetectorSpec{}, x, y, z);
  const std::size_t M = x.size(), ntot = 81 * 81 * 81;
  Rng rng(43);
  std::vector<std::complex<double>> c(M), f(ntot);
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  std::printf("\n--- M-TIP merge ablation: 3D type-1 execute, 40 Ewald slices x 32^2 "
              "(M=%zu), N=81, tol=%g, fp64, colour-scheduled tiles ---\n",
              M, tol);
  Table t({"writeback", "bins", "exec [s]", "spread [s]", "fft [s]", "atomics/pt",
           "halo adds/pt", "arena [MB]", "colours"});
  struct Cfg {
    const char* path;
    std::array<int, 3> binsize;
  };
  for (const Cfg& cfg : {Cfg{"tiled-paper-bins", {16, 16, 2}}, Cfg{"tiled", {0, 0, 0}}}) {
    vgpu::Device dev;
    core::Options opts;
    opts.method = core::Method::GMSort;  // what Auto resolves to here (Rmk. 2)
    opts.binsize = cfg.binsize;
    core::Plan<double> plan(dev, 1, N, +1, tol, opts);
    Timer ts;
    plan.set_points(M, x.data(), y.data(), z.data());
    const double setpts_s = ts.seconds();
    // Median and range over the reps (after one warmup execute).
    std::vector<double> ex, sp, ff;
    plan.execute(c.data(), f.data());
    for (int r = 0; r < std::max(1, reps); ++r) {
      Timer te;
      plan.execute(c.data(), f.data());
      ex.push_back(te.seconds());
      sp.push_back(plan.last_breakdown().spread);
      ff.push_back(plan.last_breakdown().fft);
    }
    std::sort(ex.begin(), ex.end());
    std::sort(sp.begin(), sp.end());
    std::sort(ff.begin(), ff.end());
    const double exec_s = ex[ex.size() / 2], spread_s = sp[sp.size() / 2];
    dev.counters.reset();
    plan.execute(c.data(), f.data());
    const auto bd = plan.last_breakdown();
    const std::uint64_t atomics = dev.counters.global_atomics.load();
    const std::uint64_t merges = dev.counters.tile_merge_ops.load();
    bool bitwise = true;
    std::vector<std::complex<double>> f1(ntot), f2(ntot);
    for (auto [wks, fp] : {std::pair<std::size_t, std::complex<double>*>{1, f1.data()},
                           {2, f2.data()}}) {
      vgpu::Device devw(wks);
      core::Plan<double> planw(devw, 1, N, +1, tol, opts);
      planw.set_points(M, x.data(), y.data(), z.data());
      planw.execute(c.data(), fp);
      bitwise = bitwise && planw.last_breakdown().tiled == 1;
    }
    bitwise = bitwise && f1 == f2;
    t.add_row({cfg.path, tile_dims(plan), Table::fmt(exec_s, 3), Table::fmt(spread_s, 3),
               Table::fmt(ff[ff.size() / 2], 3), Table::fmt(double(atomics) / double(M), 1),
               Table::fmt(double(merges) / double(M), 1),
               Table::fmt(double(bd.arena_bytes) / 1e6, 2),
               std::to_string(bd.tile_colors)});
    auto& rec = json.add();
    rec.field("bench", "mtip_merge3d")
        .field("dim", 3)
        .field("M", M)
        .field("N", static_cast<std::int64_t>(81))
        .field("tol", tol)
        .field("method", core::method_name(core::Method::GMSort))
        .field("path", cfg.path)
        .field("tiled_active", static_cast<std::int64_t>(bd.tiled))
        .field("tile_dims", tile_dims(plan))
        .field("tiles", bd.tiles_active)
        .field("tile_colors", bd.tile_colors)
        .field("arena_bytes", bd.arena_bytes)
        .field("reps", static_cast<std::int64_t>(ex.size()))
        .field("exec_s", exec_s)
        .field("exec_min_s", ex.front())
        .field("exec_max_s", ex.back())
        .field("spread_s", spread_s)
        .field("spread_min_s", sp.front())
        .field("spread_max_s", sp.back())
        .field("fft_s", ff[ff.size() / 2])
        .field("fft_min_s", ff.front())
        .field("fft_max_s", ff.back())
        .field("setpts_s", setpts_s)
        .field("global_atomics", atomics)
        .field("atomics_per_pt", double(atomics) / double(M))
        .field("tile_merge_ops", merges)
        .field("bitwise_across_workers", static_cast<std::int64_t>(bitwise));
  }
  t.print();
}

/// Chunked-scheduler ablation on a clustered distribution: the tracked 3D
/// configuration with every point in a handful of Gaussian clumps, so a few
/// tiles own nearly all points and an unsplit per-tile schedule serializes
/// behind them. Tiled SM and GM-sort run at the fixed chunk cap
/// (spread::kTileChunkCap); rows record the (tile, chunk) work-item count,
/// the heaviest tile and the items stolen at 2 workers, and re-check that
/// the output stays bitwise-identical across worker counts.
void run_tiled_cluster(const Tracked3d& t3, std::size_t M, int reps,
                       bench::JsonReport& json) {
  const double tol = 1e-6;
  const auto& N = t3.N;
  const std::size_t ntot = t3.ntot;
  // Fine grid carries ~2x upsampling; a sigma of 1 fine cell keeps each
  // clump inside a few bins — the adversarial all-in-few-bins case.
  auto wl = bench::make_clumped_workload<float>(3, M, /*clumps=*/4, 2 * N[0],
                                                /*sigma_cells=*/1.0);
  auto c = wl.c;  // execute takes a mutable strengths pointer
  std::vector<std::complex<float>> f(ntot);

  std::printf("\n--- chunked-scheduler ablation: 3D type-1 execute, cluster (4 gaussian "
              "clumps), M=%zu, tol=%g, fp32, tiled writeback ---\n", M, tol);
  Table t({"method", "exec [s]", "spread [s]", "chunks", "tiles", "max tile pts",
           "steals@2w"});
  for (core::Method method : {core::Method::SM, core::Method::GMSort}) {
    {
      vgpu::Device dev;
      core::Options opts;
      opts.method = method;
      try {
        core::Plan<float> plan(dev, 1, N, +1, tol, opts);
        plan.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
        const auto [exec_s, spread_s] =
            time_exec_best(plan, [&] { plan.execute(c.data(), f.data()); }, reps);
        dev.counters.reset();
        plan.execute(c.data(), f.data());
        const std::uint64_t merges = dev.counters.tile_merge_ops.load();
        const auto bd = plan.last_breakdown();
        // Re-run at explicit worker counts 1 and 2: the 2-worker run is where
        // stealing can actually happen (the timing device above uses every
        // host core, which may be one), and the pair doubles as the per-cap
        // bitwise determinism check.
        bool bitwise = true;
        std::uint64_t steals2 = 0;
        std::vector<std::complex<float>> f1(ntot), f2(ntot);
        for (auto [wks, fp] : {std::pair<std::size_t, std::complex<float>*>{1, f1.data()},
                               {2, f2.data()}}) {
          vgpu::Device devw(wks);
          core::Plan<float> planw(devw, 1, N, +1, tol, opts);
          planw.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
          planw.execute(c.data(), fp);
          // A silent atomic fallback must not be recorded as a tiled result.
          bitwise = bitwise && planw.last_breakdown().tiled == 1;
          if (wks == 2) steals2 = planw.last_breakdown().chunk_steals;
        }
        for (std::size_t i = 0; i < ntot && bitwise; ++i) bitwise = f1[i] == f2[i];
        t.add_row({core::method_name(method), Table::fmt(exec_s, 3),
                   Table::fmt(spread_s, 3), std::to_string(bd.tile_chunks),
                   std::to_string(bd.tiles_active), std::to_string(bd.max_tile_points),
                   std::to_string(steals2)});
        json.add()
            .field("bench", "tiled3d")
            .field("dist", "cluster")
            .field("dim", 3)
            .field("M", M)
            .field("tol", tol)
            .field("method", core::method_name(method))
            .field("path", "tiled")
            .field("chunk_cap", static_cast<std::int64_t>(spread::kTileChunkCap))
            .field("tiled_active", static_cast<std::int64_t>(bd.tiled))
            .field("tile_dims", tile_dims(plan))
            .field("tiles", bd.tiles_active)
            .field("tile_merge_ops", merges)
            .field("tile_chunks", bd.tile_chunks)
            .field("max_tile_points", bd.max_tile_points)
            .field("chunk_steals_2w", steals2)
            .field("exec_s", exec_s)
            .field("spread_s", spread_s)
            .field("pts_per_s", double(M) / exec_s)
            .field("bitwise_across_workers", static_cast<std::int64_t>(bitwise));
      } catch (const std::invalid_argument& e) {
        std::printf("%s unavailable (%s); skipping.\n", core::method_name(method),
                    e.what());
      }
    }
  }
  t.print();
}

/// Small-grid rows: type-1 executes on grids where the tiles clamp to the
/// fine grid (1D N in {8..64}, 2D N <= 16, 3D N <= 12), SM and GM-sort, fp32
/// at tol 1e-5 and fp64 at tol 1e-9, on 1 and 4 workers, M = 1000 uniform
/// points. Each rep times a burst of executes (these take microseconds);
/// rows carry the per-execute median and range over the reps and confirm the
/// spread ran tiled.
template <typename T>
void smallgrid_rows(int reps, bench::JsonReport& json, Table& t) {
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  const std::size_t M = 1000;
  const int burst = 20;
  const std::vector<std::vector<std::int64_t>> shapes = {
      {8}, {16}, {32}, {64}, {8, 8}, {16, 16}, {8, 8, 8}, {12, 12, 12}};
  for (const auto& N : shapes) {
    const int dim = static_cast<int>(N.size());
    std::int64_t ntot = 1;
    for (auto n : N) ntot *= n;
    Rng rng(29 + ntot);
    std::vector<T> x(M), y(dim >= 2 ? M : 0), z(dim >= 3 ? M : 0);
    std::vector<std::complex<T>> c(M), f(static_cast<std::size_t>(ntot));
    for (auto& v : x) v = static_cast<T>(rng.angle());
    for (auto& v : y) v = static_cast<T>(rng.angle());
    for (auto& v : z) v = static_cast<T>(rng.angle());
    for (auto& v : c) v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
    std::string shape;
    for (int d = 0; d < dim; ++d) shape += (d ? "x" : "") + std::to_string(N[d]);
    for (core::Method method : {core::Method::SM, core::Method::GMSort})
      for (std::size_t workers : {1, 4}) {
        vgpu::Device dev(workers);
        core::Options opts;
        opts.method = method;
        try {
          core::Plan<T> plan(dev, 1, N, +1, tol, opts);
          plan.set_points(M, x.data(), dim >= 2 ? y.data() : nullptr,
                          dim >= 3 ? z.data() : nullptr);
          plan.execute(c.data(), f.data());  // warm-up
          std::vector<double> ex;
          for (int r = 0; r < std::max(5, reps); ++r) {
            Timer te;
            for (int k = 0; k < burst; ++k) plan.execute(c.data(), f.data());
            ex.push_back(te.seconds() / burst);
          }
          std::sort(ex.begin(), ex.end());
          const auto bd = plan.last_breakdown();
          t.add_row({shape, std::is_same_v<T, double> ? "fp64" : "fp32",
                     core::method_name(method), std::to_string(workers),
                     tile_dims(plan), std::to_string(bd.tiled),
                     Table::fmt(ex[ex.size() / 2] * 1e6, 1)});
          json.add()
              .field("bench", "smallgrid")
              .field("dim", dim)
              .field("N", shape)
              .field("nf", static_cast<std::int64_t>(plan.fine_grid().nf[0]))
              .field("M", M)
              .field("tol", tol)
              .field("precision", std::is_same_v<T, double> ? "fp64" : "fp32")
              .field("method", core::method_name(method))
              .field("workers", static_cast<std::int64_t>(workers))
              .field("tiled_active", static_cast<std::int64_t>(bd.tiled))
              .field("tile_dims", tile_dims(plan))
              .field("reps", static_cast<std::int64_t>(ex.size()))
              .field("exec_s", ex[ex.size() / 2])
              .field("exec_min_s", ex.front())
              .field("exec_max_s", ex.back());
        } catch (const std::invalid_argument&) {
          // SM beyond shared memory (3D fp64, paper Rmk. 2): no row.
        }
      }
  }
}

void run_smallgrid(int reps, bench::JsonReport& json) {
  std::printf("\n--- small grids: type-1 execute on clamped tiles, M=1000 ---\n");
  Table t({"N", "prec", "method", "workers", "tiles", "tiled", "exec [us]"});
  smallgrid_rows<float>(reps, json, t);
  smallgrid_rows<double>(reps, json, t);
  t.print();
}

/// Low-upsampling ablation: the tracked 3D type-1 problem at sigma = 2 vs
/// sigma = 1.25 (GM-sort). Reports the fine-grid footprint (fw bytes — the
/// (2/1.25)^3 ~ 4.1x shrink this mode exists for), the set_points / spread /
/// FFT / deconvolve split, and whole-execute time. The smaller grid buys a
/// cheaper FFT and less fw traffic at the cost of a wider kernel (w 7 -> 10
/// at tol 1e-6).
void run_sigma(vgpu::Device& dev, const Tracked3d& t3, std::size_t M, int reps,
               bench::JsonReport& json) {
  const double tol = 1e-6;
  const auto& [N, ntot, wl] = t3;
  auto c = wl.c;  // execute takes a mutable strengths pointer
  std::vector<std::complex<float>> f(ntot);

  std::printf("\n--- upsampling-factor ablation: 3D GM-sort type-1, rand, M=%zu, "
              "tol=%g, fp32, sigma in {2, 1.25} ---\n", M, tol);
  Table t({"sigma", "w", "fw MB", "setpts [s]", "exec [s]", "spread [s]",
           "fft [s]", "deconv [s]"});
  std::size_t fw2 = 0;
  for (double sigma : {2.0, 1.25}) {
    core::Options opts;
    opts.method = core::Method::GMSort;
    opts.upsampfac = sigma;
    core::Plan<float> plan(dev, 1, N, +1, tol, opts);
    const std::size_t fw_bytes = static_cast<std::size_t>(plan.fine_grid().total()) *
                                 sizeof(std::complex<float>);
    if (sigma == 2.0) fw2 = fw_bytes;
    Timer ts;
    plan.set_points(M, wl.x.data(), wl.y.data(), wl.z.data());
    const double setpts_s = ts.seconds();
    const auto [exec_s, spread_s] =
        time_exec_best(plan, [&] { plan.execute(c.data(), f.data()); }, reps);
    const auto bd = plan.last_breakdown();
    t.add_row({Table::fmt(sigma, 2), std::to_string(plan.kernel_width()),
               Table::fmt(double(fw_bytes) / 1048576.0, 2), Table::fmt(setpts_s, 3),
               Table::fmt(exec_s, 3), Table::fmt(spread_s, 3), Table::fmt(bd.fft, 3),
               Table::fmt(bd.deconvolve, 3)});
    auto& rec = json.add();
    rec.field("bench", "sigma3d")
        .field("dist", "rand")
        .field("dim", 3)
        .field("M", M)
        .field("tol", tol)
        .field("method", "GM-sort")
        .field("sigma", sigma)
        .field("width", plan.kernel_width())
        .field("fw_bytes", fw_bytes)
        .field("fw_bytes_vs_sigma2", fw2 ? double(fw_bytes) / double(fw2) : 1.0)
        .field("setpts_s", setpts_s)
        .field("exec_s", exec_s)
        .field("spread_s", spread_s)
        .field("fft_s", bd.fft)
        .field("deconvolve_s", bd.deconvolve)
        .field("pts_per_s", double(M) / exec_s);
  }
  t.print();
}

/// FFT substrate alone: one FftNd transform (alternating forward/backward)
/// of the grids the tracked workloads use — the M-TIP merge, slice and
/// phasing grids (162^3, 90^3, 81^3 fp64) across worker counts, and the 2D
/// fp32 grids of the MRI solve and the service mix (512^2, 256^2) at one
/// worker. Rows give the median and range over the reps and GFlop/s at the
/// nominal 5*n*log2(n) flops of an n-point complex FFT.
template <typename T>
void fft_row(const std::vector<std::size_t>& dims, std::size_t workers, int reps,
             Table& t, bench::JsonReport& json) {
  ThreadPool pool(workers);
  fft::FftNd<T> plan(pool, dims);
  std::vector<std::complex<T>> data(plan.total());
  Rng rng(44);
  for (auto& v : data)
    v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  plan.exec(data.data(), -1);  // warmup
  std::vector<double> ts;
  for (int r = 0; r < reps; ++r) {
    Timer tm;
    plan.exec(data.data(), r % 2 ? -1 : +1);
    ts.push_back(tm.seconds());
  }
  std::sort(ts.begin(), ts.end());
  const double n = double(plan.total()), med = ts[ts.size() / 2];
  const double gflops = 5.0 * n * std::log2(n) / med * 1e-9;
  std::string shape;
  for (std::size_t d : dims) shape += (shape.empty() ? "" : "x") + std::to_string(d);
  const char* prec = sizeof(T) == 8 ? "fp64" : "fp32";
  t.add_row({shape, prec, std::to_string(workers), Table::fmt(med * 1e3, 2),
             Table::fmt(ts.front() * 1e3, 2), Table::fmt(ts.back() * 1e3, 2),
             Table::fmt(gflops, 2)});
  json.add()
      .field("bench", "fft")
      .field("shape", shape)
      .field("dim", dims.size())
      .field("n", plan.total())
      .field("prec", prec)
      .field("workers", workers)
      .field("reps", static_cast<std::int64_t>(ts.size()))
      .field("fft_s", med)
      .field("fft_min_s", ts.front())
      .field("fft_max_s", ts.back())
      .field("gflops", gflops);
}

void run_fft(int reps, bench::JsonReport& json) {
  reps = std::max(5, reps);
  std::printf("\n--- FFT substrate: FftNd alone, median over %d reps ---\n", reps);
  Table t({"grid", "prec", "workers", "median [ms]", "min [ms]", "max [ms]", "GFlop/s"});
  for (std::size_t n : {162, 90, 81})
    for (std::size_t w : {1, 2, 4}) fft_row<double>({n, n, n}, w, reps, t, json);
  for (std::size_t n : {512, 256}) fft_row<float>({n, n}, 1, reps, t, json);
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const bool full = cli.has("full");
  const std::size_t mfast = static_cast<std::size_t>(cli.get_int("mfast", 1000000));
  const std::string json_path = cli.get("json", "BENCH_spread.json");

  bench::banner("Fig. 2 — spreading methods GM / GM-sort / SM",
                "GM-sort up to 3.9x (2D) / 7.6x (3D) over GM on rand at large grids; "
                "SM up to 12.8x (2D) / 3.2x (3D) on cluster; SM distribution-robust");

  vgpu::Device dev;
  bench::JsonReport json;
  std::vector<std::int64_t> sizes2d = full
      ? std::vector<std::int64_t>{128, 256, 512, 1024, 2048, 4096}
      : std::vector<std::int64_t>{128, 256, 512, 1024};
  std::vector<std::int64_t> sizes3d = full ? std::vector<std::int64_t>{32, 64, 128, 256}
                                           : std::vector<std::int64_t>{32, 64, 128};

  for (Dist dist : {Dist::Rand, Dist::Cluster}) run_sweep(dev, 2, sizes2d, dist, reps, json);
  for (Dist dist : {Dist::Rand, Dist::Cluster}) run_sweep(dev, 3, sizes3d, dist, reps, json);

  run_fastpath(dev, mfast, reps, json);
  // One tracked 3D problem shared by the execute ablations, so they all
  // bench the same points.
  const Tracked3d tracked = make_tracked3d(mfast);
  run_batch(dev, tracked, mfast, reps, json);
  run_sigma(dev, tracked, mfast, reps, json);
  run_tiled(tracked, mfast, reps, json);
  run_tiled_cluster(tracked, mfast, reps, json);
  run_mtip_merge(reps, json);
  run_smallgrid(reps, json);
  run_fft(reps, json);
  run_workers(tracked, mfast, reps, json);

  if (json.write(json_path))
    std::printf("\nWrote machine-readable results to %s\n", json_path.c_str());

  std::printf("\nCounters note: the tiled3d and mtip_merge3d rows carry global-atomic\n"
              "counts; SM's zero global atomics is tested in tests/test_spread.cpp\n"
              "(CountersShowSmUsesNoGlobalAtomics).\n");
  return 0;
}
