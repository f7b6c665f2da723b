// Interpolation correctness (type-2 step 3): GM and GM-sort must match a
// serial reference gather, and interpolation must be the adjoint of spreading.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "common/rng.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/device.hpp"

namespace spread = cf::spread;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

template <typename T>
struct InterpFixture {
  spread::GridSpec grid;
  spread::BinSpec bins;
  spread::KernelParams<T> kp;
  std::vector<T> xg, yg, zg;
  std::vector<std::complex<T>> fw;

  InterpFixture(int dim, std::int64_t nf, int w, std::size_t M, std::uint64_t seed = 21) {
    grid.dim = dim;
    for (int d = 0; d < dim; ++d) grid.nf[d] = nf;
    bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(dim));
    kp = spread::KernelParams<T>::from_width(w);
    Rng rng(seed);
    xg.resize(M);
    yg.resize(dim >= 2 ? M : 0);
    zg.resize(dim >= 3 ? M : 0);
    for (std::size_t j = 0; j < M; ++j) {
      xg[j] = static_cast<T>(rng.uniform(0, double(grid.nf[0])));
      if (dim >= 2) yg[j] = static_cast<T>(rng.uniform(0, double(grid.nf[1])));
      if (dim >= 3) zg[j] = static_cast<T>(rng.uniform(0, double(grid.nf[2])));
    }
    fw.resize(static_cast<std::size_t>(grid.total()));
    for (auto& v : fw)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }

  spread::NuPoints<T> pts() const {
    return {xg.data(), grid.dim >= 2 ? yg.data() : nullptr,
            grid.dim >= 3 ? zg.data() : nullptr, xg.size()};
  }

  /// Serial reference gather in double.
  std::vector<std::complex<T>> reference() const {
    const int dim = grid.dim;
    std::vector<std::complex<T>> out(xg.size());
    for (std::size_t j = 0; j < xg.size(); ++j) {
      T vals[3][spread::kMaxWidth];
      std::int64_t idx[3][spread::kMaxWidth];
      const T px[3] = {xg[j], dim >= 2 ? yg[j] : T(0), dim >= 3 ? zg[j] : T(0)};
      for (int d = 0; d < dim; ++d) {
        const std::int64_t l0 = spread::es_values(kp, px[d], vals[d]);
        for (int i = 0; i < kp.w; ++i) idx[d][i] = spread::wrap_index(l0 + i, grid.nf[d]);
      }
      std::complex<double> acc(0, 0);
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
            const auto& g = fw[static_cast<std::size_t>(lin)];
            acc += std::complex<double>(g.real(), g.imag()) * v;
          }
      out[j] = {static_cast<T>(acc.real()), static_cast<T>(acc.imag())};
    }
    return out;
  }
};

}  // namespace

class InterpDims : public ::testing::TestWithParam<int> {};

TEST_P(InterpDims, GmMatchesReference) {
  const int dim = GetParam();
  InterpFixture<double> f(dim, dim == 3 ? 30 : 128, 6, 2000);
  vgpu::Device dev(4);
  std::vector<std::complex<double>> c(f.xg.size());
  spread::interp<double>(dev, f.grid, f.kp, f.pts(), f.fw.data(), c.data(), nullptr);
  auto want = f.reference();
  for (std::size_t j = 0; j < c.size(); ++j)
    EXPECT_NEAR(std::abs(c[j] - want[j]), 0.0, 1e-12) << j;
}

TEST_P(InterpDims, GmSortMatchesGm) {
  const int dim = GetParam();
  InterpFixture<float> f(dim, dim == 3 ? 30 : 128, 5, 3000, 77);
  vgpu::Device dev(4);
  std::vector<std::complex<float>> c_gm(f.xg.size()), c_sorted(f.xg.size());
  spread::interp<float>(dev, f.grid, f.kp, f.pts(), f.fw.data(), c_gm.data(), nullptr);
  spread::DeviceSort sort;
  spread::bin_sort(dev, f.grid, f.bins, f.xg.data(),
                   dim >= 2 ? f.yg.data() : nullptr, dim >= 3 ? f.zg.data() : nullptr,
                   f.xg.size(), sort);
  spread::interp<float>(dev, f.grid, f.kp, f.pts(), f.fw.data(), c_sorted.data(),
                        sort.order.data());
  // Identical results (each point's gather is an independent deterministic
  // sum; only scheduling differs).
  for (std::size_t j = 0; j < c_gm.size(); ++j) EXPECT_EQ(c_gm[j], c_sorted[j]) << j;
}

INSTANTIATE_TEST_SUITE_P(Dims, InterpDims, ::testing::Values(1, 2, 3));

TEST(Interp, AdjointOfSpread) {
  // <interp(fw), c>_M == <fw, spread(c)>_grid for random fw, c — the defining
  // property linking type-1 and type-2 (paper: "type 2 is the adjoint").
  const int dim = 2;
  InterpFixture<double> f(dim, 64, 6, 500, 31);
  vgpu::Device dev(4);
  Rng rng(32);
  std::vector<std::complex<double>> c(f.xg.size());
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

  // interp: u_j = sum_l fw_l psi(l - x_j)
  std::vector<std::complex<double>> u(f.xg.size());
  spread::interp<double>(dev, f.grid, f.kp, f.pts(), f.fw.data(), u.data(), nullptr);
  // spread: g_l = sum_j c_j psi(l - x_j)
  std::vector<std::complex<double>> g(static_cast<std::size_t>(f.grid.total()), {0, 0});
  spread::spread_gm<double>(dev, f.grid, f.kp, f.pts(), c.data(), g.data(), nullptr);

  std::complex<double> lhs(0, 0), rhs(0, 0);
  for (std::size_t j = 0; j < u.size(); ++j) lhs += u[j] * std::conj(c[j]);
  for (std::size_t l = 0; l < g.size(); ++l) rhs += f.fw[l] * std::conj(g[l]);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-9 * std::abs(lhs));
}

TEST(Interp, WrapAroundGather) {
  spread::GridSpec grid;
  grid.dim = 1;
  grid.nf = {32, 1, 1};
  auto kp = spread::KernelParams<double>::from_width(6);
  std::vector<std::complex<double>> fw(32, {0, 0});
  fw[31] = {1, 0};  // value only at the last grid point
  std::vector<double> xg = {0.5};  // kernel support reaches indices 30,31 via wrap
  std::vector<std::complex<double>> c(1);
  vgpu::Device dev(1);
  spread::NuPoints<double> pts{xg.data(), nullptr, nullptr, 1};
  spread::interp<double>(dev, grid, kp, pts, fw.data(), c.data(), nullptr);
  // Weight of index 31 (= -1 wrapped; taps start at l0 = -2) at distance
  // 1.5h: phi((31-32.5)*2/w) as the kernel evaluates it.
  double vals[spread::kMaxWidth];
  ASSERT_EQ(spread::es_values(kp, 0.5, vals), -2);
  const double want = vals[1];
  EXPECT_NEAR(c[0].real(), want, 1e-13);
  EXPECT_NEAR(c[0].imag(), 0.0, 1e-13);
}

TEST(Interp, ConstantGridGivesKernelSum) {
  // fw == 1 everywhere => c_j = (sum_i phi_i)^dim for every point.
  InterpFixture<double> f(2, 48, 6, 100, 41);
  for (auto& v : f.fw) v = {1, 0};
  vgpu::Device dev(2);
  std::vector<std::complex<double>> c(f.xg.size());
  spread::interp<double>(dev, f.grid, f.kp, f.pts(), f.fw.data(), c.data(), nullptr);
  for (std::size_t j = 0; j < c.size(); ++j) {
    double vx[spread::kMaxWidth], vy[spread::kMaxWidth];
    spread::es_values(f.kp, f.xg[j], vx);
    spread::es_values(f.kp, f.yg[j], vy);
    double sx = 0, sy = 0;
    for (int i = 0; i < f.kp.w; ++i) {
      sx += vx[i];
      sy += vy[i];
    }
    EXPECT_NEAR(c[j].real(), sx * sy, 1e-11 * sx * sy);
  }
}

TEST(InterpFastPath, EveryWidthMatchesFallback) {
  // Width-dispatched gather vs runtime-w scalar gather, every width. Both
  // paths sum identical tap values; ordering/contraction differences stay at
  // rounding level.
  for (int w = 2; w <= spread::kMaxWidth; ++w) {
    InterpFixture<double> f(2, 96, w, 1500, 800 + w);
    vgpu::Device dev(4);
    auto kp_scalar = f.kp;
    kp_scalar.fast = false;
    std::vector<std::complex<double>> c_fast(f.xg.size()), c_scalar(f.xg.size());
    spread::interp<double>(dev, f.grid, f.kp, f.pts(), f.fw.data(), c_fast.data(),
                           nullptr);
    spread::interp<double>(dev, f.grid, kp_scalar, f.pts(), f.fw.data(),
                           c_scalar.data(), nullptr);
    for (std::size_t j = 0; j < c_fast.size(); ++j)
      EXPECT_NEAR(std::abs(c_fast[j] - c_scalar[j]), 0.0,
                  1e-12 * (1 + std::abs(c_scalar[j])))
          << "w=" << w << " j=" << j;
  }
}

TEST(InterpFastPath, FloatWithinTolOfScalar) {
  InterpFixture<float> f(2, 128, 7, 3000, 950);
  vgpu::Device dev(4);
  auto kp_scalar = f.kp;
  kp_scalar.fast = false;
  std::vector<std::complex<float>> c_fast(f.xg.size()), c_scalar(f.xg.size());
  spread::interp<float>(dev, f.grid, f.kp, f.pts(), f.fw.data(), c_fast.data(),
                        nullptr);
  spread::interp<float>(dev, f.grid, kp_scalar, f.pts(), f.fw.data(), c_scalar.data(),
                        nullptr);
  double num = 0, den = 0;
  for (std::size_t j = 0; j < c_fast.size(); ++j) {
    num += std::norm(std::complex<double>(c_fast[j] - c_scalar[j]));
    den += std::norm(std::complex<double>(c_scalar[j]));
  }
  EXPECT_LT(std::sqrt(num / den), 1e-5);
}
