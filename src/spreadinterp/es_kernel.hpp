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
// Two evaluation layers:
//  * es_values      — runtime-width scalar path (the portable fallback),
//  * es_values_fixed<W> — compile-time-width path whose tap loops fully
//    unroll and whose Horner evaluation runs fused multiply-adds *across
//    taps* (degree-major coefficient layout padded to a multiple of 4), the
//    shape that auto-vectorizes. The spreading kernels dispatch every width
//    width_from_tol yields (w=2..24) to the fixed-width path; es_values runs
//    only under KernelParams::fast = false (the tests' reference) and in the
//    exact-fit SM scratch corner (sm_scratch_fits in spread_impl.hpp).
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

/// Aliasing-error scale of a width-w kernel at upsampling sigma:
/// eps ~ exp(-pi * w * sqrt(1 - 1/sigma)). At sigma = 2 this tracks the
/// paper's 10^{-(w-1)} heuristic; the fit cache uses it as the accuracy
/// target a Horner refit must stay below.
inline double kernel_alias_eps(int w, double sigma) {
  return std::exp(-3.141592653589793 * w * std::sqrt(1.0 - 1.0 / sigma));
}

/// Kernel shape parameters for one transform. When `horner` is non-null the
/// kernels evaluate the piecewise polynomial it points at instead of the
/// exp/sqrt form (cuFINUFFT's kerevalmeth=1 fast path); the table is owned
/// by whoever built it (see HornerTable) and must outlive the transform.
template <typename T>
struct KernelParams {
  int w;        ///< width in fine-grid points
  T beta;       ///< ES exponent
  T half_w;     ///< w/2 as T
  T inv_half_w; ///< 2/w as T
  /// Degree-major padded Horner coefficients: horner[k*horner_wpad + i] is
  /// the delta^k coefficient of tap i (taps >= w are zero). Null = exp/sqrt.
  const T* horner = nullptr;
  int horner_degree = 0;
  int horner_wpad = 0;
  /// Allow the width-specialized kernels; false forces the runtime-w scalar
  /// kernels, which tests and benches keep as the reference. Plans always
  /// leave it true.
  bool fast = true;

  static KernelParams from_width(int width, double sigma = 2.0) {
    // Every kernel buffer (tap values, Horner accumulators) is sized by
    // kMaxWidth; a wider request would overflow them.
    if (width < 1 || width > kMaxWidth)
      throw std::invalid_argument("KernelParams: width must be in [1, kMaxWidth]");
    if (!(sigma > 1.0))
      throw std::invalid_argument("KernelParams: upsampfac must be > 1");
    KernelParams p;
    p.w = width;
    // sigma = 2 keeps the original per-factor cast so beta is bit-identical
    // to every previous release.
    p.beta = sigma == 2.0 ? static_cast<T>(2.30) * static_cast<T>(width)
                          : static_cast<T>(es_beta(width, sigma));
    p.half_w = static_cast<T>(width) / 2;
    p.inv_half_w = static_cast<T>(2) / static_cast<T>(width);
    return p;
  }
};

/// Width rule. sigma = 2: paper eq. (6), w = ceil(log10(1/eps)) + 1, clamped
/// to [2, 16] (the original bound — w = 16 is already eps ~ 1e-15). Other
/// sigma: w = ceil(ln(1/eps) / (pi * sqrt(1 - 1/sigma))) (the FINUFFT rule),
/// clamped to [2, kMaxWidth] — lower upsampling needs a wider kernel for the
/// same tolerance (sigma = 1.25 is roughly 1.6x wider). Every plan derives its
/// width here, so this rejects a tol that is not a positive normal number:
/// for 0, NaN, Inf or a subnormal (whose 1/tol overflows) the int casts
/// below would be undefined. The general-sigma width is clamped before its
/// cast, since sigma just above 1 makes it arbitrarily large.
inline int width_from_tol(double tol, double sigma = 2.0) {
  if (!(std::isnormal(tol) && tol > 0))
    throw std::invalid_argument("width_from_tol: tol must be a positive normal number");
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

/// Evaluates the kernel at the w grid offsets covering one nonuniform point.
///
/// `x` is the point's fine-grid coordinate in [0, nf); `l0` (returned) is the
/// leftmost grid index touched (possibly negative; caller wraps); vals[i] =
/// phi((l0 + i - x) * 2/w) for i = 0..w-1.
///
/// Two evaluation methods, as in cuFINUFFT's kerevalmeth option: direct
/// exp/sqrt (default), or piecewise-polynomial Horner evaluation when the
/// KernelParams carries a coefficient table (see HornerTable).
template <typename T>
inline std::int64_t es_values(const KernelParams<T>& p, T x, T* vals) {
  const std::int64_t l0 = static_cast<std::int64_t>(std::ceil(x - p.half_w));
  if (p.horner) {
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
      for (int i = 0; i < p.w; ++i) acc[i] = acc[i] * delta + ck[i];
    }
    for (int i = 0; i < p.w; ++i) vals[i] = acc[i];
    return l0;
  }
  for (int i = 0; i < p.w; ++i) {
    const T z = (static_cast<T>(l0 + i) - x) * p.inv_half_w;
    vals[i] = es_eval(z, p.beta);
  }
  return l0;
}

/// Compile-time-width kernel evaluation: identical math to es_values, but
/// every tap loop has a constant bound (fully unrolled / vectorized) and the
/// exp/sqrt fallback is staged through per-point tap buffers so the sqrt
/// lane vectorizes and the exp calls run back to back.
template <int W, typename T>
inline std::int64_t es_values_fixed(const KernelParams<T>& p, T x, T* vals) {
  static_assert(W >= 2 && W <= kMaxWidth);
  const std::int64_t l0 = static_cast<std::int64_t>(std::ceil(x - p.half_w));
  if (p.horner) {
    constexpr int WP = pad_width(W);
    assert(p.horner_wpad == WP);
    const T delta = static_cast<T>(l0) - (x - p.half_w);
    const int d = p.horner_degree;
    const T* co = p.horner;
    T acc[WP];
    const T* ctop = co + static_cast<std::size_t>(d) * WP;
    for (int i = 0; i < WP; ++i) acc[i] = ctop[i];
    for (int k = d - 1; k >= 0; --k) {
      const T* ck = co + static_cast<std::size_t>(k) * WP;
      for (int i = 0; i < WP; ++i) acc[i] = acc[i] * delta + ck[i];
    }
    for (int i = 0; i < W; ++i) vals[i] = acc[i];
    return l0;
  }
  T t[W], s[W];
  for (int i = 0; i < W; ++i) {
    const T z = (static_cast<T>(l0 + i) - x) * p.inv_half_w;
    t[i] = 1 - z * z;
  }
  for (int i = 0; i < W; ++i) s[i] = std::sqrt(t[i] > 0 ? t[i] : T(0));
  for (int i = 0; i < W; ++i)
    vals[i] = t[i] < 0 ? T(0) : std::exp(p.beta * (s[i] - 1));
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
/// (cuFINUFFT's kerevalmeth=1): for offset i = 0..w-1 the value
/// phi((delta + i - w/2) * 2/w), delta in [0, 1), is interpolated by a
/// Chebyshev-node Newton polynomial expanded to monomials. Replaces the w
/// exp/sqrt calls per point-axis with w Horner evaluations.
///
/// Coefficients are stored degree-major and tap-padded — row k holds the
/// delta^k coefficient for taps 0..wpad-1 (taps >= w zero) — so evaluation
/// is a stream of FMAs across taps rather than a per-tap scalar recurrence.
template <typename T>
class HornerTable {
 public:
  HornerTable() = default;

  explicit HornerTable(const KernelParams<T>& base, int degree = 0)
      : w_(base.w),
        wpad_(pad_width(base.w)),
        degree_(degree > 0 ? degree : default_degree(base.w)) {
    const int d = degree_;
    const int q = d + 1;
    coeffs_.assign(static_cast<std::size_t>(q) * wpad_, T(0));
    // Chebyshev nodes on [0, 1].
    std::vector<double> t(q);
    for (int k = 0; k < q; ++k)
      t[k] = 0.5 + 0.5 * std::cos(3.141592653589793 * (k + 0.5) / q);
    const double beta = double(base.beta);
    const double scale = 2.0 / double(w_);
    std::vector<double> dd(q), mono(q), tmp(q);
    for (int i = 0; i < w_; ++i) {
      // Newton divided differences of f(delta) = phi((delta + i - w/2)*2/w).
      for (int k = 0; k < q; ++k)
        dd[k] = es_eval((t[k] + double(i) - double(w_) / 2) * scale, beta);
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

  bool empty() const { return coeffs_.empty(); }

  /// Points the KernelParams at this table (the table must outlive its use).
  void attach(KernelParams<T>& p) const {
    p.horner = coeffs_.data();
    p.horner_degree = degree_;
    p.horner_wpad = wpad_;
  }

  /// Largest |table - exp/sqrt| over a dense delta sample, evaluated on the
  /// stored precision-T coefficients exactly as the kernels do. The fit
  /// cache checks every refit against this before the fast path relies on
  /// the table for a new (width, sigma) pair.
  double max_residual(const KernelParams<T>& base) const {
    const double scale = 2.0 / double(w_);
    const double beta = double(base.beta);
    double worst = 0.0;
    for (int s = 0; s < 257; ++s) {
      const T delta = static_cast<T>(s / 257.0);
      for (int i = 0; i < w_; ++i) {
        T acc = coeffs_[static_cast<std::size_t>(degree_) * wpad_ + i];
        for (int k = degree_ - 1; k >= 0; --k)
          acc = acc * delta + coeffs_[static_cast<std::size_t>(k) * wpad_ + i];
        const double z = (double(delta) + double(i) - double(w_) / 2) * scale;
        worst = std::max(worst, std::abs(double(acc) - es_eval(z, beta)));
      }
    }
    return worst;
  }

  /// Degree rule: enough for the approximation error to sit below the
  /// aliasing error of width w (roughly 10^{-(w-1)}).
  static int default_degree(int w) { return std::min(16, w + 4); }

 private:
  int w_ = 0;
  int wpad_ = 0;
  int degree_ = 0;
  std::vector<T> coeffs_;
};

/// Process-wide Horner table cache: each (width, sigma) pair is fit once per
/// precision and shared by every plan. Tables are immutable after
/// construction and never evicted (a few KB each, and only widths actually
/// requested are fit). Each fit is residual-checked against es_eval; if the
/// default degree ever missed the width-w aliasing target the degree would
/// be bumped and refit — defensive, since the default degree passes for
/// every supported (w, sigma) at both precisions today.
template <typename T>
inline const HornerTable<T>& horner_cache(int width, double sigma) {
  static std::mutex mu;
  static std::map<std::pair<int, double>, std::unique_ptr<const HornerTable<T>>>
      tables;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = tables[{width, sigma}];
  if (!slot) {
    const auto base = KernelParams<T>::from_width(width, sigma);
    // Coefficients round to T, so the residual can't beat a precision floor;
    // above it, demand a margin under the kernel's own aliasing error.
    const double floor_res = sizeof(T) == 4 ? 5e-6 : 1e-13;
    const double target =
        std::max(floor_res, 0.05 * kernel_alias_eps(width, sigma));
    const int d0 = HornerTable<T>::default_degree(width);
    for (int d = d0; ; d += 2) {
      auto fit = std::make_unique<const HornerTable<T>>(base, d);
      const bool ok = fit->max_residual(base) <= target;
      slot = std::move(fit);
      if (ok || d >= d0 + 4) break;
    }
  }
  return *slot;
}

}  // namespace cf::spread
