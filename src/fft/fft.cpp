#include "fft/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace cf::fft {

bool is_235(std::size_t n) {
  if (n == 0) return false;
  for (std::size_t p : {2, 3, 5})
    while (n % p == 0) n /= p;
  return n == 1;
}

std::size_t next235(std::size_t n) {
  if (n <= 1) return 1;
  std::size_t m = n;
  while (!is_235(m)) ++m;
  return m;
}

namespace {

// In-place R-point DFT y_j = sum_k a_k exp(S*2*pi*i*j*k/R) on split re/im.
template <typename T, unsigned R, int S>
inline void butterfly(T (&r)[R], T (&i)[R]) {
  if constexpr (R == 2) {
    const T r0 = r[0], i0 = i[0];
    r[0] = r0 + r[1];
    i[0] = i0 + i[1];
    r[1] = r0 - r[1];
    i[1] = i0 - i[1];
  } else if constexpr (R == 3) {
    // y0 = a0 + t; y1,2 = a0 - t/2 +- i*S*sin(2pi/3)*d, t = a1+a2, d = a1-a2.
    constexpr T k = T(S) * T(0.866025403784438646763723170752936183L);
    const T tr = r[1] + r[2], ti = i[1] + i[2];
    const T dr = r[1] - r[2], di = i[1] - i[2];
    const T mr = r[0] - T(0.5) * tr, mi = i[0] - T(0.5) * ti;
    r[0] += tr;
    i[0] += ti;
    r[1] = mr - k * di;
    i[1] = mi + k * dr;
    r[2] = mr + k * di;
    i[2] = mi - k * dr;
  } else if constexpr (R == 4) {
    // y1,3 = t1 +- i*S*t3, with t1 = a0-a2, t3 = a1-a3.
    const T t0r = r[0] + r[2], t0i = i[0] + i[2];
    const T t1r = r[0] - r[2], t1i = i[0] - i[2];
    const T t2r = r[1] + r[3], t2i = i[1] + i[3];
    const T t3r = r[1] - r[3], t3i = i[1] - i[3];
    r[0] = t0r + t2r;
    i[0] = t0i + t2i;
    r[2] = t0r - t2r;
    i[2] = t0i - t2i;
    if constexpr (S < 0) {
      r[1] = t1r + t3i;
      i[1] = t1i - t3r;
      r[3] = t1r - t3i;
      i[3] = t1i + t3r;
    } else {
      r[1] = t1r - t3i;
      i[1] = t1i + t3r;
      r[3] = t1r + t3i;
      i[3] = t1i - t3r;
    }
  } else {
    static_assert(R == 5);
    // y1,4 = b1 +- i*e1, y2,3 = b2 +- i*e2 with t/d the sums/differences of
    // the mirrored legs (a1,a4) and (a2,a3).
    constexpr T c1 = T(0.309016994374947424102293417182819059L);
    constexpr T c2 = T(-0.809016994374947424102293417182819059L);
    constexpr T s1 = T(S) * T(0.951056516295153572116439333379382143L);
    constexpr T s2 = T(S) * T(0.587785252292473129168705954639072769L);
    const T t1r = r[1] + r[4], t1i = i[1] + i[4];
    const T t2r = r[2] + r[3], t2i = i[2] + i[3];
    const T d1r = r[1] - r[4], d1i = i[1] - i[4];
    const T d2r = r[2] - r[3], d2i = i[2] - i[3];
    const T b1r = r[0] + c1 * t1r + c2 * t2r, b1i = i[0] + c1 * t1i + c2 * t2i;
    const T b2r = r[0] + c2 * t1r + c1 * t2r, b2i = i[0] + c2 * t1i + c1 * t2i;
    const T e1r = s1 * d1r + s2 * d2r, e1i = s1 * d1i + s2 * d2i;
    const T e2r = s2 * d1r - s1 * d2r, e2i = s2 * d1i - s1 * d2i;
    r[0] += t1r + t2r;
    i[0] += t1i + t2i;
    r[1] = b1r - e1i;
    i[1] = b1i + e1r;
    r[4] = b1r + e1i;
    i[4] = b1i - e1r;
    r[2] = b2r - e2i;
    i[2] = b2i + e2r;
    r[3] = b2r + e2i;
    i[3] = b2i - e2r;
  }
}

// Butterflies p in [p_lo, p_hi) of one Stockham stage: with sl = stride*lanes
// values per element row, leg k of butterfly p reads row p + k*m and output
// j lands in row R*p + j after the twiddle w^{j*p} (skipped when TW is
// false, i.e. p = 0). The u loop runs over sl contiguous values.
template <typename T, unsigned R, int S, bool TW>
void stage_rows(const T* __restrict xr, const T* __restrict xi, T* __restrict yr,
                T* __restrict yi, std::size_t m, std::size_t sl, const T* twr,
                const T* twi, std::size_t p_lo, std::size_t p_hi) {
  const std::size_t ks = m * sl;
  for (std::size_t p = p_lo; p < p_hi; ++p) {
    T wr[R] = {}, wi[R] = {};
    if constexpr (TW)
      for (unsigned j = 1; j < R; ++j) {
        wr[j] = twr[p * (R - 1) + j - 1];
        wi[j] = S < 0 ? twi[p * (R - 1) + j - 1] : -twi[p * (R - 1) + j - 1];
      }
    const T* ar = xr + p * sl;
    const T* ai = xi + p * sl;
    T* br = yr + R * p * sl;
    T* bi = yi + R * p * sl;
    for (std::size_t u = 0; u < sl; ++u) {
      T vr[R], vi[R];
      for (unsigned k = 0; k < R; ++k) {
        vr[k] = ar[k * ks + u];
        vi[k] = ai[k * ks + u];
      }
      butterfly<T, R, S>(vr, vi);
      br[u] = vr[0];
      bi[u] = vi[0];
      for (unsigned j = 1; j < R; ++j) {
        if constexpr (TW) {
          br[j * sl + u] = vr[j] * wr[j] - vi[j] * wi[j];
          bi[j * sl + u] = vr[j] * wi[j] + vi[j] * wr[j];
        } else {
          br[j * sl + u] = vr[j];
          bi[j * sl + u] = vi[j];
        }
      }
    }
  }
}

template <typename T, unsigned R, int S>
void stage(const T* xr, const T* xi, T* yr, T* yi, std::size_t m, std::size_t sl,
           const T* twr, const T* twi) {
  stage_rows<T, R, S, false>(xr, xi, yr, yi, m, sl, twr, twi, 0, 1);
  stage_rows<T, R, S, true>(xr, xi, yr, yi, m, sl, twr, twi, 1, m);
}

template <typename T, int S>
void stage(unsigned radix, const T* xr, const T* xi, T* yr, T* yi, std::size_t m,
           std::size_t sl, const T* twr, const T* twi) {
  switch (radix) {
    case 2: return stage<T, 2, S>(xr, xi, yr, yi, m, sl, twr, twi);
    case 3: return stage<T, 3, S>(xr, xi, yr, yi, m, sl, twr, twi);
    case 4: return stage<T, 4, S>(xr, xi, yr, yi, m, sl, twr, twi);
    default: return stage<T, 5, S>(xr, xi, yr, yi, m, sl, twr, twi);
  }
}

}  // namespace

template <typename T>
Fft1d<T>::Fft1d(std::size_t n) : n_(n) {
  if (n == 0) throw std::invalid_argument("Fft1d: n must be >= 1");
  if (is_235(n_)) {
    // Radix-4 stages first (fewest passes over the data), then at most one
    // radix-2, then the radix-3 and radix-5 stages.
    std::vector<unsigned> radices;
    std::size_t rest = n_;
    while (rest % 4 == 0) {
      radices.push_back(4);
      rest /= 4;
    }
    for (unsigned p : {2u, 3u, 5u})
      while (rest % p == 0) {
        radices.push_back(p);
        rest /= p;
      }
    std::size_t n_cur = n_, stride = 1;
    for (unsigned r : radices) {
      const std::size_t m = n_cur / r;
      stages_.push_back({r, m, stride, twr_.size()});
      for (std::size_t p = 0; p < m; ++p)
        for (std::size_t j = 1; j < r; ++j) {
          const double ang = -2.0 * std::numbers::pi * double(j * p) / double(n_cur);
          twr_.push_back(static_cast<T>(std::cos(ang)));
          twi_.push_back(static_cast<T>(std::sin(ang)));
        }
      n_cur = m;
      stride *= r;
    }
    return;
  }
  // Bluestein: circular convolution of length nb >= 2n-1, nb a power of two.
  nb_ = 1;
  while (nb_ < 2 * n_ - 1) nb_ *= 2;
  sub_ = std::make_unique<Fft1d<T>>(nb_);
  chirp_re_.resize(n_);
  chirp_im_.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    // exp(-i*pi*j^2/n); reduce j^2 mod 2n to keep the argument accurate.
    const std::size_t j2 = (j * j) % (2 * n_);
    const double ang = -std::numbers::pi * double(j2) / double(n_);
    chirp_re_[j] = static_cast<T>(std::cos(ang));
    chirp_im_[j] = static_cast<T>(std::sin(ang));
  }
  // Filter b_j = conj(a_j) placed at 0..n-1 and mirrored at nb-j; FFT once.
  std::vector<T> b(2 * nb_, T(0)), work(sub_->lane_workspace(1));
  for (std::size_t j = 0; j < n_; ++j) {
    b[j] = chirp_re_[j];
    b[nb_ + j] = -chirp_im_[j];
    if (j > 0) {
      b[nb_ - j] = chirp_re_[j];
      b[2 * nb_ - j] = -chirp_im_[j];
    }
  }
  const T* bhat = sub_->exec_lanes(b.data(), 1, -1, work.data());
  bhat_re_.assign(bhat, bhat + nb_);
  bhat_im_.assign(bhat + nb_, bhat + 2 * nb_);
}

template <typename T>
Fft1d<T>::~Fft1d() = default;
template <typename T>
Fft1d<T>::Fft1d(Fft1d&&) noexcept = default;
template <typename T>
Fft1d<T>& Fft1d<T>::operator=(Fft1d&&) noexcept = default;

template <typename T>
std::size_t Fft1d<T>::lane_workspace(std::size_t lanes) const {
  // Stockham ping-pong buffer; Bluestein: two nb-point lane buffers.
  return (sub_ ? 4 * nb_ : 2 * n_) * lanes;
}

template <typename T>
std::size_t Fft1d<T>::workspace_size() const {
  // The one-lane input copy (2n values of T) plus the lane workspace.
  return n_ + lane_workspace(1) / 2;
}

template <typename T>
void Fft1d<T>::exec(const cplx* in, std::ptrdiff_t stride, cplx* out, int sign,
                    cplx* work) const {
  if (sign != -1 && sign != 1) throw std::invalid_argument("Fft1d: sign must be +-1");
  T* x = reinterpret_cast<T*>(work);
  for (std::size_t j = 0; j < n_; ++j) {
    const cplx v = in[std::ptrdiff_t(j) * stride];
    x[j] = v.real();
    x[n_ + j] = v.imag();
  }
  const T* y = exec_lanes(x, 1, sign, x + 2 * n_);
  for (std::size_t k = 0; k < n_; ++k) out[k] = cplx(y[k], y[n_ + k]);
}

template <typename T>
T* Fft1d<T>::exec_lanes(T* x, std::size_t lanes, int sign, T* work) const {
  return sub_ ? exec_bluestein(x, lanes, sign, work) : exec_stockham(x, lanes, sign, work);
}

template <typename T>
T* Fft1d<T>::exec_stockham(T* x, std::size_t lanes, int sign, T* work) const {
  const std::size_t nl = n_ * lanes;
  T* src = x;
  T* dst = work;
  for (const Stage& st : stages_) {
    const T* twr = twr_.data() + st.tw;
    const T* twi = twi_.data() + st.tw;
    const std::size_t sl = st.stride * lanes;
    if (sign < 0)
      stage<T, -1>(st.radix, src, src + nl, dst, dst + nl, st.m, sl, twr, twi);
    else
      stage<T, +1>(st.radix, src, src + nl, dst, dst + nl, st.m, sl, twr, twi);
    std::swap(src, dst);
  }
  return src;
}

template <typename T>
T* Fft1d<T>::exec_bluestein(T* x, std::size_t lanes, int sign, T* work) const {
  // Implemented natively for sign=-1; sign=+1 uses conj(FFT(conj(x))).
  const T flip = sign > 0 ? T(-1) : T(1);
  const std::size_t nl = n_ * lanes, bl = nb_ * lanes;
  T* u = work;
  T* v = work + 2 * bl;
  T *ur = u, *ui = u + bl;
  const T *xr = x, *xi = x + nl;
  for (std::size_t j = 0; j < n_; ++j) {
    const T cr = chirp_re_[j], ci = chirp_im_[j];
    for (std::size_t l = j * lanes; l < (j + 1) * lanes; ++l) {
      const T a = xr[l], b = flip * xi[l];
      ur[l] = a * cr - b * ci;
      ui[l] = a * ci + b * cr;
    }
  }
  for (std::size_t l = nl; l < bl; ++l) ur[l] = ui[l] = T(0);
  T* f = sub_->exec_lanes(u, lanes, -1, v);
  T *fr = f, *fi = f + bl;
  for (std::size_t j = 0; j < nb_; ++j) {
    const T br = bhat_re_[j], bi = bhat_im_[j];
    for (std::size_t l = j * lanes; l < (j + 1) * lanes; ++l) {
      const T a = fr[l], b = fi[l];
      fr[l] = a * br - b * bi;
      fi[l] = a * bi + b * br;
    }
  }
  const T* g = sub_->exec_lanes(f, lanes, +1, f == u ? v : u);
  const T *gr = g, *gi = g + bl;
  const T scale = T(1) / static_cast<T>(nb_);
  T *yr = x, *yi = x + nl;
  for (std::size_t k = 0; k < n_; ++k) {
    const T cr = chirp_re_[k], ci = chirp_im_[k];
    for (std::size_t l = k * lanes; l < (k + 1) * lanes; ++l) {
      const T a = gr[l] * scale, b = gi[l] * scale;
      yr[l] = a * cr - b * ci;
      yi[l] = flip * (a * ci + b * cr);
    }
  }
  return x;
}

template class Fft1d<float>;
template class Fft1d<double>;

}  // namespace cf::fft
