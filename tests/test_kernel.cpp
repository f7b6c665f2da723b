// ES kernel properties, the width rule, fold-rescale, and the kernel
// Fourier-transform quadrature that feeds the deconvolution step.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/device.hpp"

namespace spread = cf::spread;

TEST(WidthRule, PaperEquation6) {
  // w = ceil(log10(1/eps)) + 1 (clamped to >= 2).
  EXPECT_EQ(spread::width_from_tol(1e-1), 2);
  EXPECT_EQ(spread::width_from_tol(1e-2), 3);
  EXPECT_EQ(spread::width_from_tol(1e-5), 6);   // the paper's fp32 benchmark w
  EXPECT_EQ(spread::width_from_tol(1e-12), 13); // the M-TIP tolerance
  EXPECT_EQ(spread::width_from_tol(1e-14), 15);
}

TEST(WidthRule, BetaIs2Point3W) {
  auto p = spread::KernelParams<double>::from_width(6);
  EXPECT_DOUBLE_EQ(p.beta, 2.30 * 6);
  EXPECT_DOUBLE_EQ(p.half_w, 3.0);
  EXPECT_DOUBLE_EQ(p.inv_half_w, 2.0 / 6.0);
}

TEST(WidthRule, LowUpsamplingFinufftRule) {
  // sigma != 2 switches to w = ceil(ln(1/eps) / (pi sqrt(1 - 1/sigma))):
  // roughly 1.6x the sigma = 2 width at equal tolerance, clamped to
  // kMaxWidth (24) rather than the paper's 16.
  EXPECT_EQ(spread::width_from_tol(1e-2, 1.25), 4);
  EXPECT_EQ(spread::width_from_tol(1e-5, 1.25), 9);
  EXPECT_EQ(spread::width_from_tol(1e-9, 1.25), 15);
  EXPECT_EQ(spread::width_from_tol(1e-12, 1.25), 20);
  EXPECT_EQ(spread::width_from_tol(1e-14, 1.25), 23);
  EXPECT_EQ(spread::width_from_tol(1e-16, 1.25), spread::kMaxWidth);
  // sigma <= 1 has no aliasing headroom at all; the rule must refuse rather
  // than divide by zero (the plan constructors call it before validating).
  EXPECT_THROW(spread::width_from_tol(1e-5, 1.0), std::invalid_argument);
  // sigma just above 1 asks for an unbounded width; it clamps, it does not
  // overflow the int cast.
  EXPECT_EQ(spread::width_from_tol(1e-5, std::nextafter(1.0, 2.0)), spread::kMaxWidth);
}

TEST(WidthRule, TolMustBeAPositiveNormalNumberBelowOne) {
  // The tol of every plan passes through here; 0, negatives, NaN, Inf and
  // subnormals (1/tol overflows) have no width, and tol >= 1 asks for no
  // accuracy at all.
  for (double tol : {0.0, -1e-6, 1.0, 2.0, std::numeric_limits<double>::max(),
                     std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::denorm_min()}) {
    EXPECT_FALSE(spread::valid_tol(tol)) << tol;
    for (double sigma : {2.0, 1.25})
      EXPECT_THROW(spread::width_from_tol(tol, sigma), std::invalid_argument) << tol;
  }
  EXPECT_EQ(spread::width_from_tol(std::numeric_limits<double>::min()), 16);
  EXPECT_EQ(spread::width_from_tol(std::nextafter(1.0, 0.0)), 2);
  EXPECT_EQ(spread::width_from_tol(std::nextafter(1.0, 0.0), 1.25), 2);
}

TEST(WidthRule, BetaGeneralizesAcrossSigma) {
  // beta(w, sigma) = 0.976 pi w (1 - 1/(2 sigma)); at sigma = 2 the exact
  // historical 2.30 w is preserved bit-for-bit, not approximated.
  EXPECT_DOUBLE_EQ(spread::es_beta(6, 2.0), 2.30 * 6);
  EXPECT_DOUBLE_EQ(spread::es_beta(9, 1.25),
                   0.976 * std::numbers::pi * 9 * (1.0 - 1.0 / 2.5));
  auto p = spread::KernelParams<double>::from_width(9, 1.25);
  EXPECT_DOUBLE_EQ(p.beta, spread::es_beta(9, 1.25));
  // Narrower beta per unit width than sigma = 2 (2.30w): the sigma = 1.25
  // kernel is flatter, which is why it needs more taps for the same eps.
  EXPECT_LT(p.beta, 2.30 * 9);
  EXPECT_THROW(spread::KernelParams<double>::from_width(6, 1.0),
               std::invalid_argument);
}

TEST(EsKernel, SupportAndPeak) {
  const double beta = 2.30 * 6;
  EXPECT_DOUBLE_EQ(spread::es_eval(0.0, beta), 1.0);  // phi(0) = e^0
  EXPECT_EQ(spread::es_eval(1.0, beta), std::exp(-beta));
  EXPECT_EQ(spread::es_eval(1.5, beta), 0.0);
  EXPECT_EQ(spread::es_eval(-2.0, beta), 0.0);
}

TEST(EsKernel, EvenSymmetry) {
  const double beta = 2.30 * 8;
  for (double z = 0; z <= 1.0; z += 0.01)
    EXPECT_DOUBLE_EQ(spread::es_eval(z, beta), spread::es_eval(-z, beta));
}

TEST(EsKernel, MonotoneDecreasingOnPositiveHalf) {
  const double beta = 2.30 * 5;
  double prev = spread::es_eval(0.0, beta);
  for (double z = 0.01; z <= 1.0; z += 0.01) {
    const double v = spread::es_eval(z, beta);
    EXPECT_LE(v, prev + 1e-15);
    prev = v;
  }
}

TEST(EsValues, CoversPointAndSumsNearKernelMass) {
  const auto p = spread::KernelParams<double>::from_width(7);
  double vals[spread::kMaxWidth];
  const double x = 123.456;
  const std::int64_t l0 = spread::es_values(p, x, vals);
  // The point lies within the covered index window [l0, l0+w-1].
  EXPECT_LE(double(l0), x + p.half_w);
  EXPECT_GE(double(l0 + p.w - 1), x - p.half_w);
  // All values are in (0, 1]; ends are small.
  for (int i = 0; i < p.w; ++i) {
    EXPECT_GE(vals[i], 0.0);
    EXPECT_LE(vals[i], 1.0);
  }
  EXPECT_LT(vals[0], 0.05);
  EXPECT_LT(vals[p.w - 1], 0.05);
}

TEST(EsValues, TranslationInvariance) {
  const auto p = spread::KernelParams<double>::from_width(6);
  double v1[spread::kMaxWidth], v2[spread::kMaxWidth];
  const std::int64_t l1 = spread::es_values(p, 10.3, v1);
  const std::int64_t l2 = spread::es_values(p, 42.3, v2);
  EXPECT_EQ(l2 - l1, 32);
  for (int i = 0; i < p.w; ++i) EXPECT_NEAR(v1[i], v2[i], 1e-12);
}

TEST(FoldRescale, GridIndexMatchesPosition) {
  // Grid coordinate g satisfies x = g*h (mod 2*pi): x=0 -> 0, x=-pi -> nf/2.
  const std::int64_t nf = 128;
  const double h = 2.0 * std::numbers::pi / nf;
  EXPECT_NEAR(spread::fold_rescale(0.0, nf), 0.0, 1e-12);
  EXPECT_NEAR(spread::fold_rescale(-std::numbers::pi, nf), 64.0, 1e-9);
  EXPECT_NEAR(spread::fold_rescale(5 * h, nf), 5.0, 1e-9);
  EXPECT_NEAR(spread::fold_rescale(-5 * h, nf), 123.0, 1e-9);
}

TEST(FoldRescale, PeriodicFolding) {
  const std::int64_t nf = 100;
  const double x = 0.7;
  const double base = spread::fold_rescale(x, nf);
  EXPECT_NEAR(spread::fold_rescale(x + 2 * std::numbers::pi, nf), base, 1e-8);
  EXPECT_NEAR(spread::fold_rescale(x - 2 * std::numbers::pi, nf), base, 1e-8);
}

TEST(FoldRescale, AlwaysInRange) {
  const std::int64_t nf = 64;
  for (double x = -9.0; x < 9.0; x += 0.0137) {
    const double g = spread::fold_rescale(x, nf);
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, double(nf));
  }
  // float path too
  for (float x = -9.0f; x < 9.0f; x += 0.0137f) {
    const float g = spread::fold_rescale(x, nf);
    EXPECT_GE(g, 0.0f);
    EXPECT_LT(g, float(nf));
  }
}

TEST(WrapIndex, HandlesNegativesAndOverflow) {
  EXPECT_EQ(spread::wrap_index(0, 10), 0);
  EXPECT_EQ(spread::wrap_index(-1, 10), 9);
  EXPECT_EQ(spread::wrap_index(-10, 10), 0);
  EXPECT_EQ(spread::wrap_index(13, 10), 3);
  EXPECT_EQ(spread::wrap_index(-13, 10), 7);
}

TEST(GaussLegendre, IntegratesPolynomialsExactly) {
  std::vector<double> x, w;
  spread::gauss_legendre(8, x, w);
  // Degree <= 15 polynomials are exact with 8 nodes.
  double s0 = 0, s2 = 0, s14 = 0;
  for (int i = 0; i < 8; ++i) {
    s0 += w[i];
    s2 += w[i] * x[i] * x[i];
    s14 += w[i] * std::pow(x[i], 14);
  }
  EXPECT_NEAR(s0, 2.0, 1e-13);
  EXPECT_NEAR(s2, 2.0 / 3.0, 1e-13);
  EXPECT_NEAR(s14, 2.0 / 15.0, 1e-12);
}

TEST(KernelFt, MatchesDenseRiemannIntegration) {
  const int w = 6;
  const double beta = 2.30 * w;
  auto kernel = [beta](double z) { return double(spread::es_eval(z, beta)); };
  std::vector<double> xis = {0.0, 1.0, 3.7, 10.0, 17.5};
  auto got = spread::kernel_ft(kernel, 2 + 2 * w + 8, xis);
  // Dense trapezoid reference.
  const int n = 200000;
  for (std::size_t j = 0; j < xis.size(); ++j) {
    double acc = 0;
    for (int i = 0; i < n; ++i) {
      const double z = (i + 0.5) / n;
      acc += kernel(z) * std::cos(xis[j] * z);
    }
    acc *= 2.0 / n;
    EXPECT_NEAR(got[j], acc, 1e-9 * std::abs(got[0])) << "xi=" << xis[j];
  }
}

TEST(CorrectionFactors, SymmetricAndPositive) {
  const int w = 6;
  const double beta = 2.30 * w;
  auto kernel = [beta](double z) { return double(spread::es_eval(z, beta)); };
  const std::size_t N = 64, nf = 128;
  auto p = spread::correction_factors(N, nf, w, kernel);
  ASSERT_EQ(p.size(), N);
  for (std::size_t i = 0; i < N; ++i) EXPECT_GT(p[i], 0.0);
  // p_k = p_{-k}: index i=N/2 is k=0; i and N-i mirror for i>0.
  for (std::size_t i = 1; i < N; ++i) EXPECT_NEAR(p[i], p[N - i], 1e-12 * p[i]);
  // Factors grow away from DC (kernel FT decays).
  EXPECT_GT(p[0], p[N / 2]);
}

// ---- Horner table vs the exact kernel across every dispatchable width -------

template <typename T>
void check_horner_parity_all_widths(double sigma = 2.0) {
  for (int w = 2; w <= spread::kMaxWidth; ++w) {
    const auto kp = spread::KernelParams<T>::from_width(w, sigma);
    // The polynomial only needs to sit below the width-w aliasing error:
    // ~10^{-(w-1)} at sigma = 2, exp(-pi w sqrt(1 - 1/sigma)) in general; the
    // sqrt cusp at |z|=1 caps what it can do for tiny widths, and the working
    // precision floors the achievable error.
    const double floor = sizeof(T) == 4 ? 4e-6 : 2e-11;
    const double bound = sigma == 2.0
                             ? std::max(floor, 5e-2 * std::pow(10.0, -(w - 1)))
                             : std::max(floor, 0.2 * spread::width_tol(w, sigma));
    T vh[spread::kMaxWidth];
    for (double x = 10.0; x < 90.0; x += 0.377) {
      const T xt = static_cast<T>(x);
      const auto l0 = spread::es_values(kp, xt, vh);
      ASSERT_EQ(l0, static_cast<std::int64_t>(std::ceil(xt - kp.half_w)));
      for (int i = 0; i < w; ++i) {
        const double exact = spread::es_eval((double(l0 + i) - double(xt)) * 2.0 / w,
                                             double(kp.beta));
        EXPECT_NEAR(double(vh[i]), exact, bound) << "w=" << w << " i=" << i;
      }
    }
  }
}

TEST(HornerParity, EveryWidthDouble) { check_horner_parity_all_widths<double>(); }
TEST(HornerParity, EveryWidthFloat) { check_horner_parity_all_widths<float>(); }
TEST(HornerParity, EveryWidthDoubleSigma125) {
  check_horner_parity_all_widths<double>(1.25);
}
TEST(HornerParity, EveryWidthFloatSigma125) {
  check_horner_parity_all_widths<float>(1.25);
}

// ---- the per-(width, sigma) process-wide fit cache ---------------------------

TEST(HornerCache, OneTablePerWidthSigmaPrecision) {
  const auto& a = spread::horner_cache<float>(9, 1.25);
  const auto& b = spread::horner_cache<float>(9, 1.25);
  EXPECT_EQ(&a, &b);  // refit happens once per process, not once per plan
  const auto& c = spread::horner_cache<float>(9, 2.0);
  EXPECT_NE(&a, &c);
  const auto& d = spread::horner_cache<double>(9, 1.25);
  EXPECT_NE(static_cast<const void*>(&a), static_cast<const void*>(&d));
  // Every KernelParams carries its cached table.
  const auto kp = spread::KernelParams<double>::from_width(9, 1.25);
  spread::KernelParams<double> want{};
  d.attach(want);
  EXPECT_EQ(kp.horner, want.horner);
  EXPECT_EQ(kp.horner_degree, want.horner_degree);
}

template <typename T>
void check_every_fit_meets_target() {
  for (double sigma : {2.0, 1.25})
    for (int w = 2; w <= spread::kMaxWidth; ++w) {
      const spread::HornerTable<T>* fit = nullptr;
      ASSERT_NO_THROW(fit = &spread::horner_cache<T>(w, sigma))
          << "w=" << w << " sigma=" << sigma;
      EXPECT_LE(fit->max_residual(), spread::horner_target<T>(w, sigma))
          << "w=" << w << " sigma=" << sigma;
    }
}

// Every plan evaluates its taps from these fits, so each (w, sigma,
// precision) a plan can request must meet the target the cache enforces.
TEST(HornerCache, EveryFitMeetsTargetDouble) { check_every_fit_meets_target<double>(); }
TEST(HornerCache, EveryFitMeetsTargetFloat) { check_every_fit_meets_target<float>(); }

TEST(HornerCache, RejectsUnsupportedWidthAndSigma) {
  for (int w : {0, 1, spread::kMaxWidth + 1})
    EXPECT_THROW(spread::horner_cache<double>(w, 2.0), std::invalid_argument) << w;
  for (double sigma : {1.0, 1.5, 3.0})
    EXPECT_THROW(spread::KernelParams<float>::from_width(6, sigma), std::invalid_argument)
        << sigma;
}

// ---- fixed-width evaluation matches the runtime-width path ------------------

template <int W, typename T>
void check_fixed_width_once() {
  const auto kp = spread::KernelParams<T>::from_width(W);
  T vr[spread::kMaxWidth], vf[spread::kMaxWidth];
  // es_values_fixed runs the same Horner recurrence as es_values over the
  // padded row with unrolled loops; agreement is to rounding.
  const double tol = sizeof(T) == 4 ? 1e-6 : 1e-14;
  for (double x = 5.0; x < 60.0; x += 0.731) {
    const auto l0r = spread::es_values(kp, static_cast<T>(x), vr);
    const auto l0f = spread::es_values_fixed<W>(kp, static_cast<T>(x), vf);
    ASSERT_EQ(l0r, l0f) << "W=" << W;
    for (int i = 0; i < W; ++i)
      EXPECT_NEAR(double(vf[i]), double(vr[i]), tol) << "W=" << W << " i=" << i;
    // The padded variant appends exact zeros.
    T vp[spread::kMaxWidth + spread::kTapPad];
    const auto l0p = spread::es_values_padded<W>(kp, static_cast<T>(x), vp);
    ASSERT_EQ(l0p, l0f);
    for (int i = W; i < spread::pad_width(W); ++i) EXPECT_EQ(vp[i], T(0));
  }
}

template <typename T, int... Ws>
void check_fixed_width_all(std::integer_sequence<int, Ws...>) {
  (check_fixed_width_once<Ws + 2, T>(), ...);
}

// Widths 2..24: the sigma = 1.25 deep-tolerance range 17..24 included, so
// every width the compile-time dispatch can select is parity-checked here
// (w = 20 is the sigma = 1.25, tol = 1e-12 width asserted above).
TEST(EsValuesFixed, EveryWidthMatchesRuntimeDouble) {
  check_fixed_width_all<double>(std::make_integer_sequence<int, 23>{});
}
TEST(EsValuesFixed, EveryWidthMatchesRuntimeFloat) {
  check_fixed_width_all<float>(std::make_integer_sequence<int, 23>{});
}

TEST(SmFits, Paper3dDoubleLimitationReproduced) {
  // Rmk. 2: 3D double precision with default bins exceeds 48 KiB shared for
  // the fp32-design bin size, so SM must be rejected there.
  cf::vgpu::Device dev(1);
  spread::GridSpec g3;
  g3.dim = 3;
  g3.nf = {256, 256, 256};
  auto bins = spread::BinSpec::make(g3, spread::BinSpec::default_size(3));
  EXPECT_TRUE(cf::spread::sm_fits<float>(dev, g3, bins, 6));
  EXPECT_FALSE(cf::spread::sm_fits<double>(dev, g3, bins, 6));
  // 2D fits in both precisions even at the largest width.
  spread::GridSpec g2;
  g2.dim = 2;
  g2.nf = {2048, 2048, 1};
  auto bins2 = spread::BinSpec::make(g2, spread::BinSpec::default_size(2));
  EXPECT_TRUE(cf::spread::sm_fits<float>(dev, g2, bins2, 16));
  EXPECT_TRUE(cf::spread::sm_fits<double>(dev, g2, bins2, 16));
}
