// Complex FFT substrate — the cuFFT substitute.
//
// One engine serves every size and every caller: a Stockham autosort
// transform that runs L lines ("lanes") in lockstep. A lane group is held
// split re/im, element j of lane v at re[j*L + v] and im[j*L + v], so every
// butterfly's innermost loop runs over s*L contiguous values of T (s = the
// stage's stride) and auto-vectorizes; the butterflies are written in real
// arithmetic. The NUFFT fine grid is always sized to 2^a 3^b 5^c (see
// next235), factored into radix-4/2/3/5 stages with per-stage twiddle
// tables built at plan time (conjugated on the fly for sign +1). Any other
// size runs Bluestein's algorithm on the same lanes: chirp, a power-of-two
// convolution through the lane engine, chirp. Transforms are unnormalized in both directions,
// matching the paper's eqs. (9) and (12).
//
// Every lane goes through the same sequence of floating-point operations, so
// a line's output bits depend only on its own data — not on L, its lane
// slot, or what the other lanes hold.
#pragma once

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

namespace cf::fft {

/// Smallest integer of the form 2^a 3^b 5^c that is >= n (n >= 1).
/// This is the fine-grid size rule of FINUFFT/cuFINUFFT.
std::size_t next235(std::size_t n);

/// True if n factors completely into 2, 3, and 5.
bool is_235(std::size_t n);

/// One-dimensional complex FFT plan of fixed size n for element type T
/// (float or double). Thread-safe: exec() and exec_lanes() are const and all
/// mutable state lives in the caller-provided workspace.
template <typename T>
class Fft1d {
 public:
  using cplx = std::complex<T>;

  /// Lanes of a full group: one 64-byte vector of T (8 in fp64, 16 in fp32).
  static constexpr std::size_t kLanes = 64 / sizeof(T);

  explicit Fft1d(std::size_t n);
  ~Fft1d();
  Fft1d(Fft1d&&) noexcept;
  Fft1d& operator=(Fft1d&&) noexcept;
  Fft1d(const Fft1d&) = delete;
  Fft1d& operator=(const Fft1d&) = delete;

  std::size_t size() const { return n_; }

  /// Number of cplx elements of scratch exec() requires.
  std::size_t workspace_size() const;

  /// Computes out[k] = sum_j in[j*stride] * exp(sign * 2*pi*i * j*k / n),
  /// k = 0..n-1, out contiguous. sign must be -1 (forward) or +1 (backward);
  /// both are unnormalized. `work` must hold workspace_size() elements.
  /// A one-lane call into exec_lanes().
  void exec(const cplx* in, std::ptrdiff_t stride, cplx* out, int sign, cplx* work) const;

  /// Number of T elements of scratch exec_lanes() requires for `lanes` lanes.
  std::size_t lane_workspace(std::size_t lanes) const;

  /// Transforms `lanes` lines at once. `x` holds 2*n*lanes values: the real
  /// parts x[j*lanes + v] followed by the imaginary parts
  /// x[n*lanes + j*lanes + v] (j < n, v < lanes). `work` holds
  /// lane_workspace(lanes) values. Returns the buffer holding the result in
  /// the same layout — either `x` or a block of `work`. sign must be +-1
  /// (unchecked here; exec() checks it).
  T* exec_lanes(T* x, std::size_t lanes, int sign, T* work) const;

 private:
  struct Stage {
    unsigned radix;
    std::size_t m;       // butterflies per sub-transform: n_cur / radix
    std::size_t stride;  // product of the radices of earlier stages
    std::size_t tw;      // offset of this stage's twiddles in twr_/twi_
  };

  T* exec_stockham(T* x, std::size_t lanes, int sign, T* work) const;
  T* exec_bluestein(T* x, std::size_t lanes, int sign, T* work) const;

  std::size_t n_ = 0;
  std::vector<Stage> stages_;
  // Forward twiddles w_{n_cur}^{j*p} = exp(-2*pi*i*j*p/n_cur) per stage, at
  // tw + p*(radix-1) + (j-1) for p in [0, m), j in [1, radix).
  std::vector<T> twr_, twi_;

  // Bluestein state (only when !is_235(n)): convolution length nb (pow2),
  // chirp a_j = exp(-i*pi*j^2/n), and FFT of the padded chirp filter.
  std::size_t nb_ = 0;
  std::unique_ptr<Fft1d<T>> sub_;
  std::vector<T> chirp_re_, chirp_im_;
  std::vector<T> bhat_re_, bhat_im_;
};

extern template class Fft1d<float>;
extern template class Fft1d<double>;

}  // namespace cf::fft
