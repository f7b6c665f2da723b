// Inverse NUFFT: iterative least-squares inversion of type-2 sampling.
//
// The paper's Sec. I motivates the plan/setpts/execute interface with
// "iterative methods for NUFFT inversion" — this module packages that use
// case. Given off-grid samples y_j ~ sum_k f_k e^{i iflag k.x_j} (a type-2
// forward model A), recover the modes f by conjugate gradients on the
// (optionally weighted) normal equations
//
//     (A^H W A + lambda I) f = A^H W y,
//
// where A^H is the type-1 plan with the opposite iflag, W a diagonal of
// sample weights (e.g. density compensation), and lambda a Tikhonov damping.
//
// A^H W A is a convolution on the mode grid (Wajer & Pruessmann, ISMRM 2001;
// Fessler et al., IEEE TSP 2005):
//
//     (A^H W A f)_k = sum_k' t_{k-k'} f_k',  t_m = sum_j w_j e^{-i iflag m.x_j},
//
// with m in [-N, N)^d. set_points computes t once, with 2^d executes of the
// type-1 plan on phase-modulated weights, and keeps the FFT of its circulant
// embedding on the (2N)^d grid. Each CG iteration then zero-pads, runs a
// forward (2N)^d FFT, multiplies by the spectrum, runs the inverse FFT and
// crops: no nonuniform point is touched inside the loop. Both FFTs are
// band-pruned (fft::Band) to the N^d modes: the forward one's input is the
// zero-padded band and the crop reads only the inverse one's band, so each
// runs 1.5 passes over the grid in 2D (1.75 in 3D) instead of d. A^H runs on
// the points only for the right-hand side A^H W y, once per solve.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/plan.hpp"
#include "fft/fftnd.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::solver {

struct InverseOptions {
  int max_iters = 50;
  double tol = 1e-6;        ///< stop when relative residual norm falls below
  double lambda = 0.0;      ///< Tikhonov damping
  double nufft_tol = 1e-8;  ///< tolerance for the type-1 plan (and so the kernel)
  core::Options plan_opts;  ///< forwarded to the type-1 plan; ntransf must be 1
};

struct InverseReport {
  int iters = 0;
  double rel_residual = 0;  ///< ||r|| / ||A^H W y|| at exit
  std::vector<double> history;  ///< per-iteration relative residuals
};

/// CG-based inverse NUFFT operator for a fixed geometry. T = float/double.
template <typename T>
class InverseNufft {
 public:
  using cplx = std::complex<T>;

  /// nmodes: recovered mode grid (dim = 1..3); iflag: sign in the *forward*
  /// (type-2) model. Throws std::invalid_argument if opts.plan_opts.ntransf
  /// is not 1: the solver runs one vector at a time.
  InverseNufft(vgpu::Device& dev, std::span<const std::int64_t> nmodes, int iflag,
               InverseOptions opts = {});

  /// Registers the M sample locations (device pointers) and optional
  /// nonnegative weights w (nullptr = unweighted). Sorts the points for the
  /// type-1 plan and builds the Toeplitz kernel's spectrum. Throws
  /// std::invalid_argument for M >= 2^32 before reading any weight.
  void set_points(std::size_t M, const T* x, const T* y, const T* z,
                  const T* weights = nullptr);

  /// Solves for f (modes_total() entries) from samples yv (length M).
  /// f's initial content is the starting guess (zeros is fine).
  InverseReport solve(const cplx* yv, cplx* f);

  /// out = (A^H W A + lambda) in, both modes_total() entries in the plan's
  /// mode ordering, through the Toeplitz kernel built by set_points.
  void apply_normal(const cplx* in, cplx* out);

  std::int64_t modes_total() const { return ntot_; }
  std::size_t npoints() const { return M_; }

 private:
  void build_kernel(const T* x, const T* y, const T* z);

  vgpu::Device* dev_;
  InverseOptions opts_;
  std::int64_t ntot_ = 1;
  std::size_t M_ = 0;
  std::array<std::int64_t, 3> N_{1, 1, 1};  ///< modes per axis
  std::array<std::int64_t, 3> L_{1, 1, 1};  ///< circulant length 2N per axis
  std::size_t ltot_ = 1;
  std::unique_ptr<core::Plan<T>> adj_;  ///< type 1, -iflag
  std::unique_ptr<fft::FftNd<T>> pad_fft_;  ///< (2N)^d transform, band = the modes
  vgpu::device_buffer<cplx> spectrum_;  ///< FFT of the circulant kernel / prod L
  vgpu::device_buffer<cplx> pad_;       ///< (2N)^d workspace
  std::vector<T> weights_;
  std::vector<cplx> sample_ws_;  ///< sample-space workspace
};

extern template class InverseNufft<float>;
extern template class InverseNufft<double>;

}  // namespace cf::solver
