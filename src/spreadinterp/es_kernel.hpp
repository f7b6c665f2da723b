// The "exponential of semicircle" (ES) spreading kernel of FINUFFT/cuFINUFFT:
//
//   phi_beta(z) = exp(beta * (sqrt(1 - z^2) - 1))  for |z| <= 1, else 0,
//
// with width (in fine-grid points) w = ceil(log10(1/eps)) + 1 and
// beta = 2.30 * w at the paper's sigma = 2 upsampling (eq. (5)-(6)). The
// low-upsampling mode (sigma = 1.25) uses the FINUFFT-family generalization
// beta = 0.976 * pi * w * (1 - 1/(2 sigma)) with a wider width rule
// w = ceil(ln(1/eps) / (pi * sqrt(1 - 1/sigma))); see es_beta /
// width_from_tol below.
//
// Every kernel tap is evaluated from a piecewise-polynomial Horner table
// (FINUFFT's default evaluator; cuFINUFFT's Horner option), fit once per
// (width, sigma, precision) and shared process-wide (horner_cache); the
// exact exp/sqrt form es_eval serves only the fit itself, its residual
// check, the deconvolution factors and direct-sum references. Two
// evaluation layers:
//  * es_values      — runtime-width scalar path (the portable fallback),
//  * es_values_fixed<W> — compile-time-width path whose tap loops fully
//    unroll and whose Horner evaluation runs fused multiply-adds *across
//    taps* (degree-major coefficient layout padded to a multiple of 4), the
//    shape that auto-vectorizes. The spreading kernels dispatch every width
//    width_from_tol yields (w=2..24) to the fixed-width path; es_values runs
//    only under KernelParams::fast = false (the tests' reference).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

namespace cf::spread {

/// Maximum supported kernel width; bounds every stack array in the kernels.
/// At sigma = 2, w = 16 already covers eps ~ 1e-15; the sigma = 1.25 width
/// rule needs up to w = 23 at eps = 1e-14, so the bound is 24. Widths above
/// 16 skip the compile-time dispatch and run the runtime-width fallback.
inline constexpr int kMaxWidth = 24;

/// Horner coefficient rows are padded to a multiple of this many taps so the
/// across-tap FMA loop works on full SIMD lanes.
inline constexpr int kTapPad = 4;

/// Width rounded up to the Horner-row padding.
inline constexpr int pad_width(int w) { return (w + kTapPad - 1) / kTapPad * kTapPad; }

/// ES exponent selection: beta = gamma * pi * w * (1 - 1/(2 sigma)) with
/// gamma = 0.976 (the FINUFFT fit), which reproduces the paper's 2.30 * w at
/// sigma = 2 to three digits. The sigma = 2 branch keeps the exact 2.30 * w
/// constant so existing plans keep their output bits.
inline double es_beta(int w, double sigma) {
  if (sigma == 2.0) return 2.30 * w;
  return 0.976 * 3.141592653589793 * w * (1.0 - 1.0 / (2.0 * sigma));
}

/// ES exponent as the kernels use it, rounded to T. sigma = 2 keeps the
/// original per-factor cast so beta is bit-identical to every previous
/// release.
template <typename T>
inline T kernel_beta(int w, double sigma) {
  return sigma == 2.0 ? static_cast<T>(2.30) * static_cast<T>(w)
                      : static_cast<T>(es_beta(w, sigma));
}

/// The smallest tolerance width_from_tol serves with width w:
/// 10^{-(w-1)} at sigma = 2 (paper eq. (6)), exp(-pi w sqrt(1 - 1/sigma))
/// otherwise (the FINUFFT rule). The Horner fit's residual target is a
/// fraction of it (horner_target).
inline double width_tol(int w, double sigma) {
  if (sigma == 2.0) return std::pow(10.0, -(w - 1));
  return std::exp(-3.141592653589793 * w * std::sqrt(1.0 - 1.0 / sigma));
}

/// Kernel shape parameters for one transform, with the Horner table the
/// kernels evaluate. The table lives in the process-wide horner_cache, so a
/// KernelParams may be copied freely and outlives nothing it points at.
template <typename T>
struct KernelParams {
  int w;        ///< width in fine-grid points
  T beta;       ///< ES exponent
  T half_w;     ///< w/2 as T
  T inv_half_w; ///< 2/w as T
  /// Degree-major padded Horner coefficients: horner[k*horner_wpad + i] is
  /// the delta^k coefficient of tap i (taps >= w are zero).
  const T* horner = nullptr;
  int horner_degree = 0;
  int horner_wpad = 0;
  /// Allow the width-specialized kernels; false forces the runtime-w scalar
  /// kernels, which tests and benches keep as the reference. Plans always
  /// leave it true.
  bool fast = true;

  /// The kernel of width w at upsampling sigma (2.0 or 1.25), with its
  /// Horner table attached (fit on first use; see horner_cache).
  static KernelParams from_width(int width, double sigma = 2.0);
};

/// The tolerances a plan accepts: positive normal numbers below 1. For 0,
/// NaN, Inf or a subnormal (whose 1/tol overflows) the width rule's int
/// casts would be undefined, and tol >= 1 asks for no accuracy at all (it
/// would silently get the narrowest kernel). One predicate, so the plans'
/// width rule and the service's submit-time check cannot drift apart.
inline bool valid_tol(double tol) { return std::isnormal(tol) && tol > 0 && tol < 1; }

/// Width rule. sigma = 2: paper eq. (6), w = ceil(log10(1/eps)) + 1, clamped
/// to [2, 16] (the original bound — w = 16 is already eps ~ 1e-15). Other
/// sigma: w = ceil(ln(1/eps) / (pi * sqrt(1 - 1/sigma))) (the FINUFFT rule),
/// clamped to [2, kMaxWidth] — lower upsampling needs a wider kernel for the
/// same tolerance (sigma = 1.25 is roughly 1.6x wider). Every plan derives its
/// width here, so this rejects any tol that valid_tol refuses. The
/// general-sigma width is clamped before its cast, since sigma just above 1
/// makes it arbitrarily large.
inline int width_from_tol(double tol, double sigma = 2.0) {
  if (!valid_tol(tol))
    throw std::invalid_argument(
        "width_from_tol: tol must be a positive normal number below 1");
  if (sigma == 2.0) {
    const int w = static_cast<int>(std::ceil(std::log10(1.0 / tol))) + 1;
    return std::clamp(w, 2, 16);
  }
  if (!(sigma > 1.0))
    throw std::invalid_argument("width_from_tol: upsampfac must be > 1");
  const double w = std::ceil(
      std::log(1.0 / tol) / (3.141592653589793 * std::sqrt(1.0 - 1.0 / sigma)));
  return static_cast<int>(std::clamp(w, 2.0, double(kMaxWidth)));
}

/// phi_beta(z) on the normalized support [-1, 1].
template <typename T>
inline T es_eval(T z, T beta) {
  const T t = 1 - z * z;
  if (t < 0) return 0;
  return std::exp(beta * (std::sqrt(t) - 1));
}

/// One Horner step, a * b + c, as a single fused multiply-add where the target
/// has one. Spelled out rather than left to the compiler's contraction, which
/// it decides per inlining context: the plan-resident tap table and the
/// inline evaluation of the same point would otherwise differ in the last bit.
template <typename T>
inline T horner_step(T a, T b, T c) {
#if defined(FP_FAST_FMA) && defined(FP_FAST_FMAF)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

/// Evaluates the kernel at the w grid offsets covering one nonuniform point.
///
/// `x` is the point's fine-grid coordinate in [0, nf); `l0` (returned) is the
/// leftmost grid index touched (possibly negative; caller wraps); vals[i] =
/// phi((l0 + i - x) * 2/w) for i = 0..w-1, from the Horner table.
template <typename T>
inline std::int64_t es_values(const KernelParams<T>& p, T x, T* vals) {
  assert(p.horner);
  const std::int64_t l0 = static_cast<std::int64_t>(std::ceil(x - p.half_w));
  // delta in [0, 1): position of the leftmost grid point within its cell.
  const T delta = static_cast<T>(l0) - (x - p.half_w);
  const int d = p.horner_degree;
  const int wp = p.horner_wpad;
  const T* co = p.horner;
  T acc[kMaxWidth];
  const T* ctop = co + static_cast<std::size_t>(d) * wp;
  for (int i = 0; i < p.w; ++i) acc[i] = ctop[i];
  for (int k = d - 1; k >= 0; --k) {
    const T* ck = co + static_cast<std::size_t>(k) * wp;
    for (int i = 0; i < p.w; ++i) acc[i] = horner_step(acc[i], delta, ck[i]);
  }
  for (int i = 0; i < p.w; ++i) vals[i] = acc[i];
  return l0;
}

/// Compile-time-width kernel evaluation: identical math to es_values, but
/// every tap loop has a constant bound (fully unrolled / vectorized) and runs
/// over the padded row width.
template <int W, typename T>
inline std::int64_t es_values_fixed(const KernelParams<T>& p, T x, T* vals) {
  static_assert(W >= 2 && W <= kMaxWidth);
  constexpr int WP = pad_width(W);
  assert(p.horner && p.horner_wpad == WP);
  const std::int64_t l0 = static_cast<std::int64_t>(std::ceil(x - p.half_w));
  const T delta = static_cast<T>(l0) - (x - p.half_w);
  const int d = p.horner_degree;
  const T* co = p.horner;
  T acc[WP];
  const T* ctop = co + static_cast<std::size_t>(d) * WP;
  for (int i = 0; i < WP; ++i) acc[i] = ctop[i];
  for (int k = d - 1; k >= 0; --k) {
    const T* ck = co + static_cast<std::size_t>(k) * WP;
    for (int i = 0; i < WP; ++i) acc[i] = horner_step(acc[i], delta, ck[i]);
  }
  for (int i = 0; i < W; ++i) vals[i] = acc[i];
  return l0;
}

/// Like es_values_fixed, but writes pad_width(W) values with an exact-zero
/// tail (taps W..WP-1). The shared-memory kernels run their x-tap loops over
/// the full padded width — whole SIMD vectors, no scalar remainder — and the
/// zero multipliers make the overhanging accumulates exact no-ops.
template <int W, typename T>
inline std::int64_t es_values_padded(const KernelParams<T>& p, T x, T* vals) {
  constexpr int WP = pad_width(W);
  const std::int64_t l0 = es_values_fixed<W>(p, x, vals);
  for (int i = W; i < WP; ++i) vals[i] = T(0);
  return l0;
}

/// Piecewise-polynomial approximation of the ES kernel for Horner evaluation
/// (FINUFFT's default, cuFINUFFT's Horner option): for offset i = 0..w-1 the
/// value phi((delta + i - w/2) * 2/w), delta in [0, 1), is interpolated by a
/// Chebyshev-node Newton polynomial expanded to monomials. Replaces the w
/// exp/sqrt calls per point-axis with w Horner evaluations.
///
/// Coefficients are stored degree-major and tap-padded — row k holds the
/// delta^k coefficient for taps 0..wpad-1 (taps >= w zero) — so evaluation
/// is a stream of FMAs across taps rather than a per-tap scalar recurrence.
template <typename T>
class HornerTable {
 public:
  HornerTable(int w, T beta, int degree)
      : w_(w), wpad_(pad_width(w)), degree_(degree), beta_(beta) {
    const int d = degree_;
    const int q = d + 1;
    coeffs_.assign(static_cast<std::size_t>(q) * wpad_, T(0));
    // Chebyshev nodes on [0, 1].
    std::vector<double> t(q);
    for (int k = 0; k < q; ++k)
      t[k] = 0.5 + 0.5 * std::cos(3.141592653589793 * (k + 0.5) / q);
    const double b = double(beta_);
    const double scale = 2.0 / double(w_);
    std::vector<double> dd(q), mono(q), tmp(q);
    for (int i = 0; i < w_; ++i) {
      // Newton divided differences of f(delta) = phi((delta + i - w/2)*2/w).
      for (int k = 0; k < q; ++k)
        dd[k] = es_eval((t[k] + double(i) - double(w_) / 2) * scale, b);
      for (int lvl = 1; lvl < q; ++lvl)
        for (int k = q - 1; k >= lvl; --k)
          dd[k] = (dd[k] - dd[k - 1]) / (t[k] - t[k - lvl]);
      // Expand Newton form to monomials: P = dd[d]; P = P*(x - t[k]) + dd[k].
      std::fill(mono.begin(), mono.end(), 0.0);
      mono[0] = dd[d];
      int deg = 0;
      for (int k = d - 1; k >= 0; --k) {
        // tmp = mono * (x - t[k])
        std::fill(tmp.begin(), tmp.end(), 0.0);
        for (int j = 0; j <= deg; ++j) {
          tmp[j + 1] += mono[j];
          tmp[j] -= mono[j] * t[k];
        }
        ++deg;
        tmp[0] += dd[k];
        mono = tmp;
      }
      for (int j = 0; j < q; ++j)
        coeffs_[static_cast<std::size_t>(j) * wpad_ + i] = static_cast<T>(mono[j]);
    }
  }

  /// Points the KernelParams at this table (the table must outlive its use).
  void attach(KernelParams<T>& p) const {
    p.horner = coeffs_.data();
    p.horner_degree = degree_;
    p.horner_wpad = wpad_;
  }

  /// Largest |table - exp/sqrt| over a dense delta sample, evaluated on the
  /// stored precision-T coefficients exactly as the kernels do. The fit
  /// cache checks every fit against this before any kernel uses the table.
  double max_residual() const {
    const double scale = 2.0 / double(w_);
    const double b = double(beta_);
    double worst = 0.0;
    for (int s = 0; s < 257; ++s) {
      const T delta = static_cast<T>(s / 257.0);
      for (int i = 0; i < w_; ++i) {
        T acc = coeffs_[static_cast<std::size_t>(degree_) * wpad_ + i];
        for (int k = degree_ - 1; k >= 0; --k)
          acc = horner_step(acc, delta,
                            coeffs_[static_cast<std::size_t>(k) * wpad_ + i]);
        const double z = (double(delta) + double(i) - double(w_) / 2) * scale;
        worst = std::max(worst, std::abs(double(acc) - es_eval(z, b)));
      }
    }
    return worst;
  }

  /// Degree rule: enough for the approximation error to sit below the
  /// target of width w (horner_target).
  static int default_degree(int w) { return std::min(16, w + 4); }

 private:
  int w_;
  int wpad_;
  int degree_;
  T beta_;
  std::vector<T> coeffs_;
};

/// Residual a width-w Horner fit must meet: a fifth of the smallest
/// tolerance the width serves, floored where the coefficients' rounding to T
/// dominates. The floor of the fit is the sqrt cusp at the support's edge
/// (|z| = 1, where phi jumps by e^{-beta}): interpolation converges there
/// only like 1/degree, which leaves the narrow kernels' residual at ~0.04
/// (sigma = 2) to ~0.15 (sigma = 1.25, w = 2) of that tolerance.
template <typename T>
inline double horner_target(int width, double sigma) {
  const double floor_res = sizeof(T) == 4 ? 5e-6 : 1e-13;
  return std::max(floor_res, 0.2 * width_tol(width, sigma));
}

/// Process-wide Horner table cache: each (width, sigma) pair is fit once per
/// precision and shared by every plan. Tables are immutable after
/// construction and never evicted (a few KB each, and only widths actually
/// requested are fit). Each fit is residual-checked against es_eval; a fit
/// that misses horner_target is refit at degree + 2 and + 4, and if those
/// miss too the cache throws std::runtime_error rather than hand the kernels
/// a table that would cost accuracy. Throws std::invalid_argument for a
/// width outside [2, kMaxWidth] or a sigma other than 2.0 or 1.25.
template <typename T>
inline const HornerTable<T>& horner_cache(int width, double sigma) {
  // Every kernel buffer (tap values, Horner accumulators) is sized by
  // kMaxWidth; a wider request would overflow them.
  if (width < 2 || width > kMaxWidth)
    throw std::invalid_argument("KernelParams: width must be in [2, kMaxWidth]");
  if (sigma != 2.0 && sigma != 1.25)
    throw std::invalid_argument("KernelParams: upsampfac must be 2.0 or 1.25");
  static std::mutex mu;
  static std::map<std::pair<int, double>, std::unique_ptr<const HornerTable<T>>>
      tables;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[{width, sigma}];
  if (!slot) {
    const T beta = kernel_beta<T>(width, sigma);
    const double target = horner_target<T>(width, sigma);
    const int d0 = HornerTable<T>::default_degree(width);
    for (int d = d0; d <= d0 + 4 && !slot; d += 2) {
      auto fit = std::make_unique<const HornerTable<T>>(width, beta, d);
      if (fit->max_residual() <= target) slot = std::move(fit);
    }
    if (!slot)
      throw std::runtime_error("horner_cache: no Horner fit meets the residual target");
  }
  return *slot;
}

template <typename T>
KernelParams<T> KernelParams<T>::from_width(int width, double sigma) {
  const HornerTable<T>& table = horner_cache<T>(width, sigma);
  KernelParams p;
  p.w = width;
  p.beta = kernel_beta<T>(width, sigma);
  p.half_w = static_cast<T>(width) / 2;
  p.inv_half_w = static_cast<T>(2) / static_cast<T>(width);
  table.attach(p);
  return p;
}

}  // namespace cf::spread
