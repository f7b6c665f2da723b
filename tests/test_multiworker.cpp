// Multi-worker parity sweep: type-1 spreading runs under real atomic
// contention only when the vgpu Device has more than one worker. Every
// spreading method (and the batched path) is executed at
// worker counts {1, 2, hardware_concurrency, $CF_WORKERS} and compared
// against the single-worker reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <thread>
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

template <typename T>
struct Problem {
  std::vector<std::int64_t> N{28, 26};
  std::vector<T> x, y;
  std::vector<std::complex<T>> c;
  std::size_t M;

  explicit Problem(std::size_t M_, bool cluster, std::uint64_t seed) : M(M_) {
    Rng rng(seed);
    x.resize(M);
    y.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      // Clustered points maximize bin collisions, the worst case for atomics.
      x[j] = static_cast<T>(cluster ? rng.uniform(-3.14159, -3.0) : rng.angle());
      y[j] = static_cast<T>(cluster ? rng.uniform(-3.14159, -3.0) : rng.angle());
    }
    c.resize(M);
    for (auto& v : c)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
};

std::vector<std::size_t> worker_counts() {
  std::vector<std::size_t> counts{1, 2,
                                  std::max(1u, std::thread::hardware_concurrency())};
  const int env = cf::test::env_int("CF_WORKERS", 0);
  if (env > 0) counts.push_back(static_cast<std::size_t>(env));
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

template <typename T>
std::vector<std::complex<T>> run_type1(std::size_t workers, const Problem<T>& p,
                                       core::Options opts, int ntransf = 1) {
  vgpu::Device dev(workers);
  opts.ntransf = ntransf;
  core::Plan<T> plan(dev, 1, p.N, +1, std::is_same_v<T, double> ? 1e-9 : 1e-5, opts);
  plan.set_points(p.M, p.x.data(), p.y.data(), nullptr);
  std::vector<std::complex<T>> f(static_cast<std::size_t>(ntransf * p.N[0] * p.N[1]));
  std::vector<std::complex<T>> c = p.c;
  if (ntransf > 1) {
    // Reuse the strengths with per-plane phase flips so planes differ.
    c.resize(ntransf * p.M);
    for (int b = 1; b < ntransf; ++b)
      for (std::size_t j = 0; j < p.M; ++j)
        c[b * p.M + j] = p.c[j] * T(b % 2 ? -1 : 1);
  }
  plan.execute(c.data(), f.data());
  return f;
}

template <typename T>
void sweep_methods(bool cluster, double sigma = cf::test::env_upsampfac()) {
  const double tol = std::is_same_v<T, double> ? 1e-11 : 1e-4;
  Problem<T> p(4000, cluster, cluster ? 31 : 32);
  for (core::Method m : {core::Method::GM, core::Method::GMSort, core::Method::SM}) {
    core::Options opts;
    opts.method = m;
    opts.upsampfac = sigma;
    const auto ref = run_type1<T>(1, p, opts);
    for (std::size_t wc : worker_counts()) {
      const auto got = run_type1<T>(wc, p, opts);
      EXPECT_LT(cf::cpu::rel_l2_error<T>(got, ref), tol)
          << core::method_name(m) << " workers=" << wc << " cluster=" << cluster
          << " sigma=" << sigma;
    }
  }
}

}  // namespace

TEST(MultiWorker, Type1ParityAcrossWorkerCountsF64) {
  sweep_methods<double>(false);
  sweep_methods<double>(true);
}

TEST(MultiWorker, Type1ParityAcrossWorkerCountsF32) {
  sweep_methods<float>(false);
  sweep_methods<float>(true);
}

TEST(MultiWorker, Type1ParitySigma125) {
  // Same contention sweep on the low-upsampling grid: the wider kernel (w = 9
  // float / w = 15 double) touches more cells per point, so the collision
  // profile is harsher while nf is smaller. Forced regardless of CF_UPSAMP so
  // the default ctest run covers both grids.
  sweep_methods<double>(true, 1.25);
  sweep_methods<float>(true, 1.25);
}

TEST(MultiWorker, BatchedExecuteParityAcrossWorkerCounts) {
  // The batched pipeline's atomic contention profile differs from the serial
  // one (B planes live at once); sweep it too.
  Problem<float> p(3000, /*cluster=*/false, 34);
  const int B = 3;
  core::Options opts;
  opts.upsampfac = cf::test::env_upsampfac();
  const auto ref = run_type1<float>(1, p, opts, B);
  for (std::size_t wc : worker_counts()) {
    const auto got = run_type1<float>(wc, p, opts, B);
    EXPECT_LT(cf::cpu::rel_l2_error<float>(got, ref), 1e-4) << "workers=" << wc;
  }
}
