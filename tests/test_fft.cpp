// FFT substrate tests: correctness against the direct DFT for all radix
// mixtures and Bluestein sizes, algebraic properties, N-d plans (including
// lane-group tails and the fused first axis), the lane engine's
// determinism contract, the mode-pruned passes (fft::Band) a NUFFT plan and
// the Toeplitz operator run, and the blocked axis-0 lane transposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/plan.hpp"
#include "fft/fft.hpp"
#include "fft/fftnd.hpp"
#include "vgpu/device.hpp"

using cf::Rng;
using cf::ThreadPool;
namespace fft = cf::fft;

namespace {

template <typename T>
std::vector<std::complex<T>> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::complex<T>> v(n);
  for (auto& x : v)
    x = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  return v;
}

/// Direct DFT in double for reference.
template <typename T>
std::vector<std::complex<double>> direct_dft(const std::vector<std::complex<T>>& in,
                                             int sign) {
  const std::size_t n = in.size();
  std::vector<std::complex<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc(0, 0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi * double(j * k % n) / double(n);
      acc += std::complex<double>(in[j].real(), in[j].imag()) *
             std::complex<double>(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

template <typename T>
double max_err(const std::vector<std::complex<T>>& got,
               const std::vector<std::complex<double>>& want) {
  double m = 0, scale = 0;
  for (const auto& w : want) scale = std::max(scale, std::abs(w));
  for (std::size_t i = 0; i < got.size(); ++i)
    m = std::max(m, std::abs(std::complex<double>(got[i].real(), got[i].imag()) - want[i]));
  return m / std::max(scale, 1e-300);
}

}  // namespace

TEST(Next235, KnownValues) {
  EXPECT_EQ(fft::next235(1), 1u);
  EXPECT_EQ(fft::next235(2), 2u);
  EXPECT_EQ(fft::next235(7), 8u);
  EXPECT_EQ(fft::next235(11), 12u);
  EXPECT_EQ(fft::next235(121), 125u);
  EXPECT_EQ(fft::next235(2000), 2000u);  // 2^4 * 5^3
  EXPECT_EQ(fft::next235(257), 270u);    // 2*3^3*5
}

TEST(Next235, AlwaysFactors235AndGeq) {
  for (std::size_t n = 1; n < 2000; n += 7) {
    const std::size_t m = fft::next235(n);
    EXPECT_GE(m, n);
    EXPECT_TRUE(fft::is_235(m));
  }
}

class Fft1dSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Fft1dSizes, MatchesDirectDftDouble) {
  const std::size_t n = GetParam();
  auto in = random_signal<double>(n, 100 + n);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> out(n), work(plan.workspace_size());
  for (int sign : {-1, +1}) {
    plan.exec(in.data(), 1, out.data(), sign, work.data());
    auto want = direct_dft(in, sign);
    EXPECT_LT(max_err(out, want), 1e-11) << "n=" << n << " sign=" << sign;
  }
}

TEST_P(Fft1dSizes, MatchesDirectDftSingle) {
  const std::size_t n = GetParam();
  auto in = random_signal<float>(n, 200 + n);
  fft::Fft1d<float> plan(n);
  std::vector<std::complex<float>> out(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  auto want = direct_dft(in, -1);
  EXPECT_LT(max_err(out, want), 2e-4) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(AllRadixMixes, Fft1dSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 20, 24,
                                           25, 27, 30, 32, 45, 60, 64, 81, 90, 100, 120,
                                           125, 128, 135, 162, 240, 243, 256, 360, 512, 625,
                                           729, 1024));

INSTANTIATE_TEST_SUITE_P(BluesteinSizes, Fft1dSizes,
                         ::testing::Values(7, 11, 13, 17, 23, 31, 41, 61, 97, 101, 127,
                                           211, 251, 509));

TEST(Fft1d, InverseRoundTrip) {
  for (std::size_t n : {16u, 60u, 101u, 240u}) {
    auto in = random_signal<double>(n, 7 * n);
    fft::Fft1d<double> plan(n);
    std::vector<std::complex<double>> mid(n), out(n), work(plan.workspace_size());
    plan.exec(in.data(), 1, mid.data(), -1, work.data());
    plan.exec(mid.data(), 1, out.data(), +1, work.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(out[i] / double(n) - in[i]), 0.0, 1e-12);
  }
}

TEST(Fft1d, Linearity) {
  const std::size_t n = 120;
  auto a = random_signal<double>(n, 1), b = random_signal<double>(n, 2);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> fa(n), fb(n), fab(n), ab(n),
      work(plan.workspace_size());
  const std::complex<double> alpha(1.5, -0.5);
  for (std::size_t i = 0; i < n; ++i) ab[i] = a[i] + alpha * b[i];
  plan.exec(a.data(), 1, fa.data(), -1, work.data());
  plan.exec(b.data(), 1, fb.data(), -1, work.data());
  plan.exec(ab.data(), 1, fab.data(), -1, work.data());
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fab[i] - (fa[i] + alpha * fb[i])), 0.0, 1e-10);
}

TEST(Fft1d, ParsevalHolds) {
  const std::size_t n = 360;
  auto in = random_signal<double>(n, 3);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> out(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  double e_time = 0, e_freq = 0;
  for (auto& v : in) e_time += std::norm(v);
  for (auto& v : out) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq, e_time * double(n), 1e-8 * e_freq);
}

TEST(Fft1d, StridedInputMatchesContiguous) {
  const std::size_t n = 64, stride = 3;
  auto base = random_signal<double>(n * stride, 4);
  std::vector<std::complex<double>> packed(n);
  for (std::size_t i = 0; i < n; ++i) packed[i] = base[i * stride];
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> o1(n), o2(n), work(plan.workspace_size());
  plan.exec(base.data(), stride, o1.data(), -1, work.data());
  plan.exec(packed.data(), 1, o2.data(), -1, work.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(o1[i], o2[i]);
}

TEST(Fft1d, DeltaGivesConstantSpectrum) {
  const std::size_t n = 100;
  std::vector<std::complex<double>> in(n, {0, 0}), out(n);
  in[0] = {1, 0};
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  for (auto& v : out) EXPECT_NEAR(std::abs(v - std::complex<double>(1, 0)), 0.0, 1e-12);
}

TEST(FftNd, Fft2dMatchesDirect) {
  ThreadPool pool(4);
  const std::size_t n1 = 12, n2 = 10;
  auto in = random_signal<double>(n1 * n2, 5);
  auto data = in;
  fft::FftNd<double> plan(pool, {n1, n2});
  plan.exec(data.data(), -1);
  // Direct 2D DFT.
  for (std::size_t k2 = 0; k2 < n2; ++k2)
    for (std::size_t k1 = 0; k1 < n1; ++k1) {
      std::complex<double> acc(0, 0);
      for (std::size_t j2 = 0; j2 < n2; ++j2)
        for (std::size_t j1 = 0; j1 < n1; ++j1) {
          const double ang = -2.0 * std::numbers::pi *
                             (double(j1 * k1) / n1 + double(j2 * k2) / n2);
          acc += in[j1 + n1 * j2] * std::complex<double>(std::cos(ang), std::sin(ang));
        }
      EXPECT_NEAR(std::abs(data[k1 + n1 * k2] - acc), 0.0, 1e-9);
    }
}

TEST(FftNd, Fft3dRoundTrip) {
  ThreadPool pool(8);
  const std::size_t n1 = 8, n2 = 6, n3 = 5;
  auto in = random_signal<double>(n1 * n2 * n3, 6);
  auto data = in;
  fft::FftNd<double> plan(pool, {n1, n2, n3});
  plan.exec(data.data(), -1);
  plan.exec(data.data(), +1);
  const double scale = 1.0 / double(n1 * n2 * n3);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] * scale - in[i]), 0.0, 1e-12);
}

TEST(FftNd, SeparableDeltaPlane) {
  // A delta at the origin of a 3D grid transforms to the all-ones grid.
  ThreadPool pool(4);
  const std::size_t n = 10;
  std::vector<std::complex<double>> data(n * n * n, {0, 0});
  data[0] = {1, 0};
  fft::FftNd<double> plan(pool, {n, n, n});
  plan.exec(data.data(), -1);
  for (auto& v : data) EXPECT_NEAR(std::abs(v - std::complex<double>(1, 0)), 0.0, 1e-12);
}

TEST(FftNd, RejectsBadDims) {
  ThreadPool pool(2);
  EXPECT_THROW(fft::FftNd<double>(pool, {}), std::invalid_argument);
  EXPECT_THROW(fft::FftNd<double>(pool, {4, 4, 4, 4}), std::invalid_argument);
  EXPECT_THROW(fft::FftNd<double>(pool, {0}), std::invalid_argument);
}

TEST(Fft1d, RejectsBadSign) {
  fft::Fft1d<double> plan(8);
  std::vector<std::complex<double>> in(8), out(8), work(plan.workspace_size());
  EXPECT_THROW(plan.exec(in.data(), 1, out.data(), 0, work.data()), std::invalid_argument);
  EXPECT_THROW(plan.exec(in.data(), 1, out.data(), 2, work.data()), std::invalid_argument);
}

TEST(Fft1d, ShiftTheorem) {
  // Circular shift by m multiplies spectrum by e^{-2*pi*i*m*k/n}.
  const std::size_t n = 90, shift = 7;
  auto in = random_signal<double>(n, 9);
  std::vector<std::complex<double>> shifted(n);
  for (std::size_t j = 0; j < n; ++j) shifted[(j + shift) % n] = in[j];
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> fa(n), fb(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, fa.data(), -1, work.data());
  plan.exec(shifted.data(), 1, fb.data(), -1, work.data());
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -2.0 * std::numbers::pi * double(shift * k % n) / double(n);
    const auto want = fa[k] * std::complex<double>(std::cos(ang), std::sin(ang));
    EXPECT_NEAR(std::abs(fb[k] - want), 0.0, 1e-10);
  }
}

TEST(Fft1d, RealInputConjugateSymmetry) {
  const std::size_t n = 128;
  Rng rng(10);
  std::vector<std::complex<double>> in(n);
  for (auto& v : in) v = {rng.uniform(-1, 1), 0.0};
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> out(n), work(plan.workspace_size());
  plan.exec(in.data(), 1, out.data(), -1, work.data());
  for (std::size_t k = 1; k < n; ++k)
    EXPECT_NEAR(std::abs(out[k] - std::conj(out[n - k])), 0.0, 1e-11) << k;
}

TEST(Fft1d, BluesteinPrimeRoundTrip) {
  for (std::size_t n : {7u, 127u, 509u}) {
    auto in = random_signal<double>(n, 11 * n);
    fft::Fft1d<double> plan(n);
    std::vector<std::complex<double>> mid(n), out(n), work(plan.workspace_size());
    plan.exec(in.data(), 1, mid.data(), -1, work.data());
    plan.exec(mid.data(), 1, out.data(), +1, work.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(out[i] / double(n) - in[i]), 0.0, 1e-11);
  }
}

TEST(Fft1d, WorkspaceIsStateless) {
  // Two transforms sharing one workspace buffer must not interfere.
  const std::size_t n = 60;
  auto a = random_signal<double>(n, 12), b = random_signal<double>(n, 13);
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> fa1(n), fb1(n), fa2(n), work(plan.workspace_size());
  plan.exec(a.data(), 1, fa1.data(), -1, work.data());
  plan.exec(b.data(), 1, fb1.data(), -1, work.data());
  plan.exec(a.data(), 1, fa2.data(), -1, work.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(fa1[i], fa2[i]);
}

TEST(FftNd, AnisotropicDims) {
  ThreadPool pool(4);
  const std::size_t n1 = 4, n2 = 27, n3 = 10;
  auto in = random_signal<double>(n1 * n2 * n3, 14);
  auto data = in;
  fft::FftNd<double> plan(pool, {n1, n2, n3});
  plan.exec(data.data(), -1);
  plan.exec(data.data(), +1);
  const double s = 1.0 / double(n1 * n2 * n3);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] * s - in[i]), 0.0, 1e-11);
}

TEST(FftNd, AxisTransformMatchesManualLoop) {
  // 2D plan equals running 1D transforms along rows then columns.
  ThreadPool pool(2);
  const std::size_t n1 = 8, n2 = 6;
  auto in = random_signal<double>(n1 * n2, 15);
  auto nd = in;
  fft::FftNd<double> plan2(pool, {n1, n2});
  plan2.exec(nd.data(), -1);

  auto manual = in;
  fft::Fft1d<double> p1(n1), p2(n2);
  std::vector<std::complex<double>> line(std::max(n1, n2)),
      work(std::max(p1.workspace_size(), p2.workspace_size()));
  for (std::size_t r = 0; r < n2; ++r) {
    p1.exec(manual.data() + r * n1, 1, line.data(), -1, work.data());
    std::copy(line.begin(), line.begin() + n1, manual.begin() + r * n1);
  }
  for (std::size_t col = 0; col < n1; ++col) {
    p2.exec(manual.data() + col, std::ptrdiff_t(n1), line.data(), -1, work.data());
    for (std::size_t r = 0; r < n2; ++r) manual[col + r * n1] = line[r];
  }
  for (std::size_t i = 0; i < nd.size(); ++i)
    EXPECT_NEAR(std::abs(nd[i] - manual[i]), 0.0, 1e-10);
}

TEST(FftNd, SingleElementDims) {
  ThreadPool pool(2);
  auto in = random_signal<double>(16, 16);
  auto data = in;
  fft::FftNd<double> plan(pool, {16, 1, 1});  // degenerate trailing axes
  plan.exec(data.data(), -1);
  fft::Fft1d<double> p1(16);
  std::vector<std::complex<double>> want(16), work(p1.workspace_size());
  p1.exec(in.data(), 1, want.data(), -1, work.data());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(data[i], want[i]);
}

TEST(FftNd, SinglePrecision3dRoundTrip) {
  ThreadPool pool(4);
  const std::size_t n = 12;
  auto in = random_signal<float>(n * n * n, 77);
  auto data = in;
  fft::FftNd<float> plan(pool, {n, n, n});
  plan.exec(data.data(), -1);
  plan.exec(data.data(), +1);
  const float s = 1.0f / float(n * n * n);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_NEAR(std::abs(data[i] * s - in[i]), 0.0f, 1e-4f);
}

TEST(Fft1d, LargeSizeSmoke) {
  // A paper-scale fine-grid line (2^20) transforms and round-trips.
  const std::size_t n = 1 << 20;
  fft::Fft1d<double> plan(n);
  std::vector<std::complex<double>> in(n), mid(n), out(n),
      work(plan.workspace_size());
  Rng rng(78);
  for (auto& v : in) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  plan.exec(in.data(), 1, mid.data(), -1, work.data());
  plan.exec(mid.data(), 1, out.data(), +1, work.data());
  double maxerr = 0;
  for (std::size_t i = 0; i < n; i += 997)
    maxerr = std::max(maxerr, std::abs(out[i] / double(n) - in[i]));
  EXPECT_LT(maxerr, 1e-10);
}

namespace {

/// Separable direct DFT in double along every axis of a dims[0]-fastest grid.
template <typename T>
std::vector<std::complex<double>> direct_dft_nd(const std::vector<std::complex<T>>& in,
                                                const std::vector<std::size_t>& dims,
                                                int sign) {
  std::vector<std::complex<double>> a(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) a[i] = {in[i].real(), in[i].imag()};
  std::size_t stride = 1;
  for (std::size_t n : dims) {
    std::vector<std::complex<double>> line(n);
    for (std::size_t base = 0; base < a.size(); ++base) {
      if ((base / stride) % n != 0) continue;  // first element of a line
      for (std::size_t j = 0; j < n; ++j) line[j] = a[base + j * stride];
      const auto out = direct_dft(line, sign);
      for (std::size_t k = 0; k < n; ++k) a[base + k * stride] = out[k];
    }
    stride *= n;
  }
  return a;
}

template <typename T>
void check_nd_against_direct(const std::vector<std::size_t>& dims, double tol) {
  ThreadPool pool(3);
  fft::FftNd<T> plan(pool, dims);
  auto in = random_signal<T>(plan.total(), 300 + plan.total());
  for (int sign : {-1, +1}) {
    auto data = in;
    plan.exec(data.data(), sign);
    EXPECT_LT(max_err(data, direct_dft_nd(in, dims, sign)), tol) << "sign=" << sign;
  }
}

}  // namespace

// Lane-group tails: neither the line count nor the stride is a multiple of
// the lane width; a Bluestein dim on a strided axis and on axis 0; the
// workload line sizes (81, 90, 162, 256, 512) inside lane groups.
class FftNdGeometry : public ::testing::TestWithParam<std::vector<std::size_t>> {};

TEST_P(FftNdGeometry, MatchesDirectDftDouble) { check_nd_against_direct<double>(GetParam(), 1e-11); }

TEST_P(FftNdGeometry, MatchesDirectDftSingle) { check_nd_against_direct<float>(GetParam(), 2e-4); }

INSTANTIATE_TEST_SUITE_P(
    Tails, FftNdGeometry,
    ::testing::Values(std::vector<std::size_t>{6, 5, 7}, std::vector<std::size_t>{162, 3, 5},
                      std::vector<std::size_t>{12, 11, 4}, std::vector<std::size_t>{13, 10},
                      std::vector<std::size_t>{9, 17}, std::vector<std::size_t>{81, 9},
                      std::vector<std::size_t>{90, 10}, std::vector<std::size_t>{256, 9},
                      std::vector<std::size_t>{9, 512}));

// One line transformed alone (Fft1d), in every lane slot of a full group next
// to unrelated lanes, and as every line of a 3D FftNd at 1, 2 and 4 workers
// gives the same bits everywhere.
template <typename T>
void check_lane_slot_independence() {
  using cplx = std::complex<T>;
  const std::size_t n = 360;  // radices 4, 2, 3, 3, 5
  const std::size_t L = fft::Fft1d<T>::kLanes;
  const auto line = random_signal<T>(n, 400);
  fft::Fft1d<T> plan(n);
  std::vector<cplx> want(n), work(plan.workspace_size());
  plan.exec(line.data(), 1, want.data(), -1, work.data());

  const auto others = random_signal<T>(n * L, 401);
  std::vector<T> x(2 * n * L), lw(plan.lane_workspace(L));
  for (std::size_t slot = 0; slot < L; ++slot) {
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t v = 0; v < L; ++v) {
        const cplx z = v == slot ? line[j] : others[j * L + v];
        x[j * L + v] = z.real();
        x[n * L + j * L + v] = z.imag();
      }
    const T* y = plan.exec_lanes(x.data(), L, -1, lw.data());
    for (std::size_t k = 0; k < n; ++k)
      ASSERT_EQ(cplx(y[k * L + slot], y[n * L + k * L + slot]), want[k])
          << "slot " << slot << " k " << k;
  }

  // The line sits at (0, 0) of axis 2 in an otherwise zero grid. The axis-0
  // and axis-1 passes (2-3-5 sizes) turn delta rows into exact constants, so
  // every axis-2 line (30 of them: three groups of 8 and a padded tail of 6
  // in fp64) is a copy of `line` when its own transform runs.
  const std::vector<std::size_t> dims = {5, 6, n};
  const std::size_t plane = dims[0] * dims[1];
  for (std::size_t workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    fft::FftNd<T> nd(pool, dims);
    std::vector<cplx> grid(nd.total(), cplx(0, 0));
    for (std::size_t j = 0; j < n; ++j) grid[j * plane] = line[j];
    nd.exec(grid.data(), -1);
    for (std::size_t l = 0; l < plane; ++l)
      for (std::size_t k = 0; k < n; ++k)
        ASSERT_EQ(grid[l + k * plane], want[k]) << workers << " workers, line " << l;
  }
}

TEST(FftLanes, LaneSlotIndependenceDouble) { check_lane_slot_independence<double>(); }

TEST(FftLanes, LaneSlotIndependenceSingle) { check_lane_slot_independence<float>(); }

TEST(FftNd, FusedFirstAxisMatchesUnfused) {
  // 36 rows per plane (groups of 8 in fp64: 4 full and a tail of 4). Zero
  // rows are scattered through the groups, and rows 16..23 — one whole
  // group — are all zero, so both the mixed-group path and the skipped-group
  // path run.
  using cplx = std::complex<double>;
  ThreadPool pool(3);
  const std::vector<std::size_t> dims = {10, 12, 3};
  fft::FftNd<double> plan(pool, dims);
  const std::size_t n0 = dims[0], total = plan.total(), nbatch = 2;
  const auto src = random_signal<double>(total * nbatch, 500);
  auto is_zero = [](std::size_t line, std::size_t b) {
    return (line >= 16 && line < 24) || (line + b) % 3 == 1;
  };
  std::vector<cplx> unfused(total * nbatch, cplx(0, 0));
  for (std::size_t b = 0; b < nbatch; ++b)
    for (std::size_t line = 0; line < total / n0; ++line)
      if (!is_zero(line, b))
        std::copy_n(src.begin() + b * total + line * n0, n0,
                    unfused.begin() + b * total + line * n0);
  plan.exec_batch(unfused.data(), nbatch, total, +1, fft::Band::none);

  std::vector<cplx> fused(total * nbatch, cplx(7, 7));  // fused path overwrites all
  plan.exec_batch_fused(fused.data(), nbatch, total, +1, fft::Band::none,
                        [&](cplx* row, std::size_t line, std::size_t b) {
                          if (is_zero(line, b)) return false;
                          std::copy_n(src.begin() + b * total + line * n0, n0, row);
                          return true;
                        });
  for (std::size_t i = 0; i < fused.size(); ++i) ASSERT_EQ(fused[i], unfused[i]) << i;
}

// ---- mode-pruned passes ------------------------------------------------------

namespace {

// True when every coordinate of the linear index i lies in its axis's mode
// band [0, ceil(N/2)) U [nf - floor(N/2), nf).
bool in_mode_band(std::size_t i, const std::vector<std::size_t>& dims,
                  const std::vector<std::size_t>& modes) {
  for (std::size_t a = 0; a < dims.size(); ++a) {
    const std::size_t c = i % dims[a];
    if (c >= (modes[a] + 1) / 2 && c < dims[a] - modes[a] / 2) return false;
    i /= dims[a];
  }
  return true;
}

// A pruned plan against the full one on the same grid, at `workers` pool
// workers. Band::out (exec_batch and exec_batch_fused) must match the full
// transform bitwise on the band; Band::in (both entry points, input zero
// outside the band) everywhere.
template <typename T>
void check_pruned_matches_full(const std::vector<std::size_t>& modes, double sigma,
                               int sign, std::size_t nbatch, std::size_t workers) {
  using cplx = std::complex<T>;
  std::vector<std::size_t> dims;
  for (std::size_t N : modes)
    dims.push_back(fft::next235(static_cast<std::size_t>(std::ceil(sigma * double(N)))));
  ThreadPool pool(workers);
  fft::FftNd<T> full(pool, dims), pruned(pool, dims, modes);
  const std::size_t total = full.total();
  const std::string where = "dims " + std::to_string(dims[0]) + " x" +
                            std::to_string(dims.size()) + " sigma " + std::to_string(sigma) +
                            " sign " + std::to_string(sign) + " nbatch " +
                            std::to_string(nbatch) + " workers " + std::to_string(workers);
  auto copy_row = [&](const cplx* from) {
    return [&, from](cplx* row, std::size_t line, std::size_t b) {
      std::copy_n(from + b * total + line * dims[0], dims[0], row);
      return true;
    };
  };

  // Band out: arbitrary input everywhere, only the band is read.
  const auto src = random_signal<T>(total * nbatch, 600 + total + nbatch);
  auto want = src, got = src;
  full.exec_batch(want.data(), nbatch, total, sign, fft::Band::none);
  pruned.exec_batch(got.data(), nbatch, total, sign, fft::Band::out);
  auto fused = src;  // the fill reads its own line, as the Toeplitz product does
  pruned.exec_batch_fused(fused.data(), nbatch, total, sign, fft::Band::out,
                          copy_row(fused.data()));
  std::size_t band = 0;
  for (std::size_t b = 0; b < nbatch; ++b)
    for (std::size_t i = 0; i < total; ++i)
      if (in_mode_band(i, dims, modes)) {
        ++band;
        ASSERT_EQ(got[b * total + i], want[b * total + i]) << where << " band out, point " << i;
        ASSERT_EQ(fused[b * total + i], want[b * total + i])
            << where << " fused band out, point " << i;
      }
  std::size_t per_plane = 1;
  for (std::size_t N : modes) per_plane *= N;
  EXPECT_EQ(band, per_plane * nbatch) << where;

  // Band in: input zero outside the band, the full output is compared.
  auto padded = src;
  for (std::size_t b = 0; b < nbatch; ++b)
    for (std::size_t i = 0; i < total; ++i)
      if (!in_mode_band(i, dims, modes)) padded[b * total + i] = cplx(0, 0);
  want = got = padded;
  full.exec_batch(want.data(), nbatch, total, sign, fft::Band::none);
  pruned.exec_batch(got.data(), nbatch, total, sign, fft::Band::in);
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << where << " band in, point " << i;
  got.assign(total * nbatch, cplx(7, 7));  // the fused pass overwrites every point
  pruned.exec_batch_fused(got.data(), nbatch, total, sign, fft::Band::in, copy_row(padded.data()));
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i], want[i]) << where << " fused band in, point " << i;
}

template <typename T>
void check_pruning_matrix() {
  const std::vector<std::vector<std::size_t>> even = {{10}, {12, 10}, {10, 8, 6}};
  const std::vector<std::vector<std::size_t>> odd = {{11}, {9, 13}, {7, 9, 5}};
  for (const auto* set : {&even, &odd})
    for (const auto& modes : *set)
      for (double sigma : {2.0, 1.25})
        for (int sign : {-1, +1})
          for (std::size_t nbatch : {1u, 3u})
            for (std::size_t workers : {1u, 3u})
              check_pruned_matches_full<T>(modes, sigma, sign, nbatch, workers);
}

}  // namespace

TEST(FftNdPruned, BandMatchesFullTransformDouble) { check_pruning_matrix<double>(); }

TEST(FftNdPruned, BandMatchesFullTransformSingle) { check_pruning_matrix<float>(); }

TEST(FftNdPruned, RejectsBadModeCounts) {
  ThreadPool pool(2);
  EXPECT_THROW(fft::FftNd<double>(pool, {8, 8}, {4}), std::invalid_argument);
  EXPECT_THROW(fft::FftNd<double>(pool, {8, 8}, {4, 0}), std::invalid_argument);
  EXPECT_THROW(fft::FftNd<double>(pool, {8, 8}, {4, 9}), std::invalid_argument);
}

namespace {

// exec() on a plan built with mode counts prunes nothing: every point
// matches a plan built without them.
template <typename T>
void check_exec_with_modes_is_full() {
  ThreadPool pool(3);
  for (const auto& [dims, modes] :
       {std::pair{std::vector<std::size_t>{24, 20}, std::vector<std::size_t>{12, 9}},
        std::pair{std::vector<std::size_t>{16, 10, 12}, std::vector<std::size_t>{7, 5, 6}}}) {
    fft::FftNd<T> full(pool, dims), banded(pool, dims, modes);
    const auto src = random_signal<T>(full.total(), 650 + dims.size());
    auto want = src, got = src;
    full.exec(want.data(), -1);
    banded.exec(got.data(), -1);
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << dims.size() << "D, point " << i;
  }
}

}  // namespace

TEST(FftNdPruned, ExecWithModesIsTheFullTransformDouble) {
  check_exec_with_modes_is_full<double>();
}

TEST(FftNdPruned, ExecWithModesIsTheFullTransformSingle) {
  check_exec_with_modes_is_full<float>();
}

// ---- axis-0 lane transposes ---------------------------------------------------

namespace {

// An n x rows grid through FftNd (exec and the fused first axis), against
// Fft1d::exec on every row and then every column. Rows of n points whose
// lane buffer passes FftNd::kL1Bytes are transposed block by block, the
// others line by line; either way the bits must be Fft1d's. The grid
// vectors are exactly total() long, so a read past the last line is caught
// under AddressSanitizer.
template <typename T>
void check_axis0_transpose(std::size_t n, std::size_t rows, std::size_t workers) {
  using cplx = std::complex<T>;
  const std::string where = "n " + std::to_string(n) + " rows " + std::to_string(rows) +
                            " workers " + std::to_string(workers);
  const auto src = random_signal<T>(n * rows, 800 + n + rows);
  auto want = src;
  fft::Fft1d<T> row_plan(n), col_plan(rows);
  std::vector<cplx> work(std::max(row_plan.workspace_size(), col_plan.workspace_size()));
  std::vector<cplx> line(std::max(n, rows));
  for (std::size_t r = 0; r < rows; ++r) {
    row_plan.exec(want.data() + r * n, 1, line.data(), +1, work.data());
    std::copy_n(line.begin(), n, want.begin() + r * n);
  }
  for (std::size_t c = 0; c < n; ++c) {
    col_plan.exec(want.data() + c, static_cast<std::ptrdiff_t>(n), line.data(), +1,
                  work.data());
    for (std::size_t r = 0; r < rows; ++r) want[r * n + c] = line[r];
  }

  ThreadPool pool(workers);
  fft::FftNd<T> nd(pool, {n, rows});
  auto got = src;
  nd.exec(got.data(), +1);
  for (std::size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], want[i]) << where << " " << i;
  std::vector<cplx> fused(n * rows, cplx(7, 7));
  nd.exec_batch_fused(fused.data(), 1, n * rows, +1, fft::Band::none,
                      [&](cplx* row, std::size_t l, std::size_t) {
                        std::copy_n(src.begin() + l * n, n, row);
                        return true;
                      });
  for (std::size_t i = 0; i < fused.size(); ++i)
    ASSERT_EQ(fused[i], want[i]) << where << " fused " << i;
}

// Row lengths on both sides of the threshold, multiples of kLanes and not;
// row counts giving full groups only, a short tail group, and fewer rows
// than kLanes (one narrow group, blocked only for long rows).
template <typename T>
void check_axis0_transpose_matrix(const std::vector<std::size_t>& lengths) {
  const std::size_t L = fft::FftNd<T>::kLanes;
  for (std::size_t n : lengths)
    for (std::size_t rows : {2 * L, L + 3, std::size_t{5}})
      for (std::size_t workers : {1u, 3u}) check_axis0_transpose<T>(n, rows, workers);
}

}  // namespace

TEST(FftNdTranspose, Axis0MatchesPerLineFft1dSingle) {
  // fp32 lane buffer 2*n*16*4 bytes: 256 sits at the 32 KiB threshold (line
  // by line), 512 and 520 (520 = 32*16 + 8) pass it, and 1800 passes it
  // even with 5 lanes.
  check_axis0_transpose_matrix<float>({250, 256, 512, 520, 1800});
}

TEST(FftNdTranspose, Axis0MatchesPerLineFft1dDouble) {
  // fp64 lane buffer 2*n*8*8 bytes: 162 stays line by line, 270 (= 33*8 + 6)
  // and 512 pass the threshold, 1800 even with 5 lanes.
  check_axis0_transpose_matrix<double>({162, 270, 512, 1800});
}

namespace {

// Plan type-1 modes and type-2 outputs (both on pruned passes) at one worker
// count, 3D, default options.
template <typename T>
std::pair<std::vector<std::complex<T>>, std::vector<std::complex<T>>> plan_outputs(
    std::size_t workers, const std::vector<std::int64_t>& N, double sigma, int* tiled) {
  using cplx = std::complex<T>;
  const std::size_t M = 3000;
  Rng rng(700);
  std::vector<T> x(M), y(M), z(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<T>(rng.angle());
    y[j] = static_cast<T>(rng.angle());
    z[j] = static_cast<T>(rng.angle());
  }
  const std::size_t nm = static_cast<std::size_t>(N[0] * N[1] * N[2]);
  const auto c = random_signal<T>(M, 701);
  const auto modes = random_signal<T>(nm, 702);
  const double tol = std::is_same_v<T, double> ? 1e-9 : 1e-5;
  cf::vgpu::Device dev(workers);
  cf::core::Options opts;
  opts.upsampfac = sigma;
  cf::core::Plan<T> t1(dev, 1, N, +1, tol, opts), t2(dev, 2, N, -1, tol, opts);
  t1.set_points(M, x.data(), y.data(), z.data());
  t2.set_points(M, x.data(), y.data(), z.data());
  std::vector<cplx> f(nm), out(M), cin = c, fin = modes;
  *tiled = t1.execute(cin.data(), f.data()).tiled;
  t2.execute(out.data(), fin.data());
  return {f, out};
}

template <typename T>
void check_plan_worker_parity() {
  for (double sigma : {2.0, 1.25})
    for (const std::vector<std::int64_t>& N :
         {std::vector<std::int64_t>{32, 30, 28}, std::vector<std::int64_t>{33, 31, 29}}) {
      int tiled = 0;
      const auto ref = plan_outputs<T>(1, N, sigma, &tiled);
      ASSERT_EQ(tiled, 1) << "the type-1 spread must run tiled to be deterministic";
      for (std::size_t workers : {2u, 4u}) {
        const auto got = plan_outputs<T>(workers, N, sigma, &tiled);
        EXPECT_TRUE(got.first == ref.first) << "type 1, " << workers << " workers";
        EXPECT_TRUE(got.second == ref.second) << "type 2, " << workers << " workers";
      }
    }
}

}  // namespace

TEST(FftNdPruned, PlanOutputsBitwiseAcrossWorkerCountsDouble) {
  check_plan_worker_parity<double>();
}

TEST(FftNdPruned, PlanOutputsBitwiseAcrossWorkerCountsSingle) {
  check_plan_worker_parity<float>();
}
