// FINUFFT-like multithreaded CPU NUFFT — the paper's CPU comparator.
//
// Same ES kernel (evaluated from the same Horner tables, FINUFFT's default),
// width rule, upsampled fine grid (sigma = 2 or 1.25), and deconvolution as
// the device library, but organized the way the parallel
// CPU code is (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 2019,
// Sec. 3.1): the bin-sorted points are cut into a few subproblems, each
// spread into a worker-local grid sized to the bounding box of its points
// and then added into the fine grid with atomics; interpolation is a plain
// parallel gather over sorted points; the FFT runs on the host pool. None of
// the device library's spread engine is shared, so changes to that engine
// leave this comparator's timings alone.
//
// Every stage is batch-strided (ntransf = B stacked vectors, weights
// evaluated once per point) with B = 1 as the plain single-vector case, the
// spread point loops get the same compile-time width dispatch as the device
// kernels, and type-2's amplify is fused into the FFT's first-axis gather.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "fft/fftnd.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"

namespace cf::cpu {

/// Stage timings (seconds) from the last set_points()/execute().
struct CpuBreakdown {
  double sort = 0;
  double spread = 0;
  double fft = 0;        ///< for type 2 includes the fused amplify
  double deconvolve = 0;
  double interp = 0;
  double total() const { return spread + fft + deconvolve + interp; }
};

/// CPU NUFFT plan; same plan/setpts/execute lifecycle and mode conventions as
/// core::Plan (k from -N/2 to N/2-1 per axis, x-fastest).
template <typename T>
class CpuPlan {
 public:
  using cplx = std::complex<T>;

  struct Options {
    std::uint32_t msub = 16384;  ///< max points per spread subproblem: one
                                 ///< per pool worker, more if one would
                                 ///< exceed msub (FINUFFT's max_subproblem_size)
    double upsampfac = 2.0;      ///< fine-grid sigma: 2.0 or 1.25
    int ntransf = 1;             ///< stacked vectors per execute
    int modeord = 0;             ///< 0 = CMCL (-N/2..), 1 = FFT-style
  };

  CpuPlan(ThreadPool& pool, int type, std::span<const std::int64_t> nmodes, int iflag,
          double tol, Options opts = {});

  int type() const { return type_; }
  int dim() const { return grid_.dim; }
  int kernel_width() const { return kp_.w; }
  std::int64_t modes_total() const { return N_[0] * N_[1] * N_[2]; }
  const spread::GridSpec& fine_grid() const { return grid_; }

  /// Copy of the most recent set_points()/execute() snapshot.
  CpuBreakdown last_breakdown() const {
    std::lock_guard lk(mu_);
    return bd_;
  }

  /// Registers M points (host pointers; y/z null below dim 2/3), bin-sorts
  /// them and, for type 1, sets up the spread subproblems. Throws
  /// std::invalid_argument on a NaN/Inf coordinate, leaving no points set,
  /// and on M >= 2^32 before anything is touched.
  void set_points(std::size_t M, const T* x, const T* y, const T* z);

  /// Type 1: reads c (length M), writes f (modes). Type 2: reads f, writes c.
  /// With batch size B > 1, c/f hold B stacked vectors; every stage runs once
  /// over the whole stack. B = 0 (default) uses Options::ntransf; any
  /// positive B works (the service layer coalesces a variable number of
  /// requests), growing the fine-grid stack on first use. Thread-safe like
  /// core::Plan: concurrent executes on a shared plan serialize internally
  /// and each caller receives its own per-execute snapshot.
  CpuBreakdown execute(cplx* c, cplx* f, int B = 0);

 private:
  // Batch-strided stages; B = 1 is the single-vector case. The fused type-2
  // amplify row producer is the shared spread::amplify_fine_row.
  void spread_subproblems(const cplx* c, int B);
  void interp_sorted(cplx* c, int B);
  void deconvolve_type1(cplx* f, int B);

  ThreadPool* pool_;
  int type_;
  int iflag_;
  Options opts_;

  std::array<std::int64_t, 3> N_{1, 1, 1};
  spread::GridSpec grid_;
  spread::BinSpec bins_;  ///< the paper's default_size bins (sort only)
  spread::KernelParams<T> kp_;  ///< its Horner table lives in the process-wide
                                ///< per-(w, sigma) horner_cache
  std::unique_ptr<fft::FftNd<T>> fft_;

  std::vector<cplx> fw_;  ///< fine grid (ntransf stacked planes)
  std::array<std::vector<T>, 3> fser_;

  std::vector<T> xg_, yg_, zg_;
  std::size_t M_ = 0;
  std::vector<std::uint32_t> order_;  ///< bin-sorted point indices

  /// A spread subproblem: the sorted points [first, last) and the box of
  /// fine-grid cells their taps reach, origin `off` (unwrapped, may be
  /// negative) and extent `size` per axis (1 on unused axes). Built in
  /// set_points for type 1.
  struct Subproblem {
    std::size_t first = 0, last = 0;
    std::int64_t off[3] = {0, 0, 0};
    std::int64_t size[3] = {1, 1, 1};
  };
  std::vector<Subproblem> subprobs_;
  std::vector<std::vector<cplx>> box_;  ///< per-worker box buffers (B planes),
                                        ///< all zero between subproblems

  mutable std::mutex mu_;  ///< serializes set_points/execute; guards bd_
  CpuBreakdown bd_;
};

extern template class CpuPlan<float>;
extern template class CpuPlan<double>;

}  // namespace cf::cpu
