// Inverse-NUFFT normal operator: the NUFFT pair against the Toeplitz form.
//
// One CG step of solver::InverseNufft applies A^H W A. Rows:
//
//   pair             type 2 + weights + type 1 on the points, timed on two
//                    core::Plans directly (what each step cost before the
//                    Toeplitz operator);
//   toeplitz         InverseNufft::apply_normal: pad, a forward (2N)^d FFT,
//                    the product with the kernel spectrum, an inverse FFT,
//                    crop; both FFTs band-pruned to the modes (1.5 passes
//                    each in 2D, 1.75 in 3D);
//   pair_set_points  set_points on the two plans;
//   set_points       InverseNufft::set_points: the type-1 plan's sort and
//                    cache build plus the Toeplitz kernel build (2^(d-1)
//                    type-1 executes and one (2N)^d FFT);
//   solve            one InverseNufft::solve of --iters CG iterations.
//
// Each row gives the median and min/max over --reps timed runs after one
// warm-up; the toeplitz row also gives its relative difference from the
// pair, and the operator rows the device bytes their objects hold. The run
// exits nonzero when a toeplitz row's difference exceeds 10 * tol, so a
// smoke run guards the pruned FFT passes.
//
// Geometries: the cg2d_mri workload's (256^2 modes, 403 golden-angle spokes
// x 512 readout, fp32, tol 1e-5, 8 CG iterations), and a 3D fp64 case at
// sigma = 2 and at sigma = 1.25. The smaller sigma = 1.25 fine grid makes
// the pair's FFTs cheapest, so a regime where the pair wins would show there.
//
// Flags: --reps R (default 9), --workers W (device workers, default 1 as in
//        cg2d_mri), --iters K (CG iterations per solve, default 8),
//        --json PATH (default BENCH_solver.json).
#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <numbers>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/plan.hpp"
#include "solver/inverse.hpp"
#include "vgpu/device.hpp"

using namespace cf;

namespace {

struct Geometry {
  std::string name;
  std::vector<std::int64_t> N;
  double tol;
  double upsampfac;
};

template <typename F>
bench::Stats time_reps(int reps, F&& f) {
  f();  // warm-up
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) ms.push_back(time_once(f) * 1e3);
  return bench::summarize(ms);
}

// Returns whether the toeplitz row agrees with the pair within 10 * tol.
template <typename T>
bool run(const Geometry& g, const std::vector<std::vector<T>>& pts, int reps, int iters,
         vgpu::Device& dev, bench::JsonReport& json) {
  using C = std::complex<T>;
  const int dim = static_cast<int>(g.N.size());
  const std::size_t M = pts[0].size();
  const T* x = pts[0].data();
  const T* y = dim >= 2 ? pts[1].data() : nullptr;
  const T* z = dim >= 3 ? pts[2].data() : nullptr;
  core::Options po;
  po.upsampfac = g.upsampfac;
  std::int64_t ntot = 1;
  for (auto n : g.N) ntot *= n;
  Rng rng(3);
  std::vector<C> in(static_cast<std::size_t>(ntot)), out(in.size()), ref(in.size());
  for (auto& v : in) v = {T(rng.uniform(-1, 1)), T(rng.uniform(-1, 1))};
  std::vector<C> yv(M), c(M);
  for (auto& v : yv) v = {T(rng.normal()), T(rng.normal())};

  auto add = [&](const char* op, const bench::Stats& s) -> bench::JsonReport::Record& {
    std::printf("  %-16s median %9.2f ms  (min %9.2f, max %9.2f)\n", op, s.median, s.min,
                s.max);
    return json.add()
        .field("geometry", g.name)
        .field("dim", dim)
        .field("precision", sizeof(T) == 4 ? "fp32" : "fp64")
        .field("N0", g.N[0])
        .field("M", M)
        .field("tol", g.tol)
        .field("upsampfac", g.upsampfac)
        .field("workers", dev.n_workers())
        .field("op", op)
        .field("median_ms", s.median)
        .field("min_ms", s.min)
        .field("max_ms", s.max)
        .field("reps", reps);
  };

  std::printf("%s: %dD %s, N0 = %lld, M = %zu, tol %g, sigma %g, %zu workers\n",
              g.name.c_str(), dim, sizeof(T) == 4 ? "fp32" : "fp64", (long long)g.N[0], M,
              g.tol, g.upsampfac, dev.n_workers());
  double rel = 0;
  {
    const std::size_t b0 = dev.bytes_in_use();
    core::Plan<T> A(dev, 2, g.N, -1, g.tol, po), AH(dev, 1, g.N, +1, g.tol, po);
    add("pair_set_points", time_reps(reps, [&] {
      A.set_points(M, x, y, z);
      AH.set_points(M, x, y, z);
    }));
    const std::size_t bytes = dev.bytes_in_use() - b0;
    std::vector<C> in_copy = in;
    add("pair", time_reps(reps, [&] {
      A.execute(c.data(), in_copy.data());
      AH.execute(c.data(), ref.data());
    })).field("device_bytes", bytes);
  }
  {
    solver::InverseOptions io;
    io.max_iters = iters;
    io.tol = 0;  // every solve runs all iterations
    io.nufft_tol = g.tol;
    io.plan_opts = po;
    const std::size_t b0 = dev.bytes_in_use();
    solver::InverseNufft<T> inv(dev, g.N, -1, io);
    add("set_points", time_reps(reps, [&] { inv.set_points(M, x, y, z); }));
    const std::size_t bytes = dev.bytes_in_use() - b0;
    auto& row =
        add("toeplitz", time_reps(reps, [&] { inv.apply_normal(in.data(), out.data()); }));
    double num = 0, den = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      num += std::norm(std::complex<double>(out[i] - ref[i]));
      den += std::norm(std::complex<double>(ref[i]));
    }
    rel = std::sqrt(num / den);
    row.field("device_bytes", bytes).field("rel_diff_vs_pair", rel);
    std::vector<C> f(out.size());
    add("solve", time_reps(reps, [&] {
      std::fill(f.begin(), f.end(), C(0, 0));
      inv.solve(yv.data(), f.data());
    })).field("iters", iters);
  }
  const bool ok = rel <= 10 * g.tol;
  std::printf("  toeplitz vs pair relative difference %.3e%s\n", rel,
              ok ? "" : " -- EXCEEDS 10 * tol");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 9));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers", 1));
  const int iters = static_cast<int>(cli.get_int("iters", 8));
  const std::string json_path = cli.get("json", "BENCH_solver.json");
  vgpu::Device dev(workers);
  bench::JsonReport json;
  bool ok = true;

  {  // cg2d_mri: golden-angle radial trajectory
    const int nspokes = 403, nread = 512;
    std::vector<std::vector<float>> k(2);
    for (int s = 0; s < nspokes; ++s) {
      const double th = s * 2.39996322972865332;
      for (int q = 0; q < nread; ++q) {
        const double rad = std::numbers::pi * (2.0 * (q + 0.5) / nread - 1.0);
        k[0].push_back(float(rad * std::cos(th)));
        k[1].push_back(float(rad * std::sin(th)));
      }
    }
    ok &= run<float>({"cg2d_mri", {256, 256}, 1e-5, 2.0}, k, reps, iters, dev, json);
  }
  {  // 3D fp64, uniform random points
    const auto wl = bench::make_workload<double>(3, 200000, bench::Dist::Rand, 64, 17);
    const std::vector<std::vector<double>> p = {wl.x, wl.y, wl.z};
    for (double sigma : {2.0, 1.25})
      ok &= run<double>({sigma == 2.0 ? "rand3d_fp64" : "rand3d_fp64_sigma125",
                         {32, 32, 32}, 1e-6, sigma},
                        p, reps, iters, dev, json);
  }
  json.write(json_path);
  std::printf("wrote %s\n", json_path.c_str());
  if (!ok)
    std::fprintf(stderr,
                 "bench_solver: a toeplitz row differs from the pair by more than 10 * tol\n");
  return ok ? 0 : 1;
}
