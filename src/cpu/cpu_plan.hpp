// FINUFFT-like multithreaded CPU NUFFT — the paper's CPU comparator.
//
// Same ES kernel, width rule, upsampled fine grid (sigma = 2 or 1.25), and
// deconvolution as the device library, but organized the way the parallel
// CPU code is: bin-sorted
// points are spread in subproblems into thread-local padded-bin buffers that
// are merged into the fine grid — by default with the same colour-scheduled
// atomic-free tile writeback as the device library (deterministic at any
// pool size), with FINUFFT's atomic padded-bin merge as the
// Options::tiled_spread = 0 fallback; interpolation is a plain parallel
// gather over sorted points; the FFT runs on the host pool.
//
// Mirrors the device library's stage-pipeline shape: every stage is
// batch-strided (ntransf = B stacked vectors, weights evaluated once per
// point) with B = 1 as the plain single-vector case, the spread point loops
// get the same compile-time width dispatch as the device kernels, and
// type-2's amplify is fused into the FFT's first-axis gather.
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
    std::uint32_t msub = 16384;           ///< CPU subproblem cap (larger caches)
    std::array<int, 3> binsize{0, 0, 0};  ///< 0 = defaults (tile_size for a
                                          ///< tiled spread, as in core::Plan)
    double upsampfac = 2.0;               ///< fine-grid sigma: 2.0 or 1.25
    int ntransf = 1;                      ///< stacked vectors per execute
    int modeord = 0;                      ///< 0 = CMCL (-N/2..), 1 = FFT-style
    int kerevalmeth = 0;                  ///< 0 = exp/sqrt; 1 = Horner table
    int tiled_spread = 1;  ///< 1 = tile-owned atomic-free spread merge (same
                           ///< scheme as the device library: colour rounds of
                           ///< disjoint padded-box writes, bitwise-
                           ///< deterministic at any pool size); 0 = atomic
                           ///< padded-bin merge (FINUFFT's strategy)
    int tile_chunk_cap = 0;  ///< tiled-spread chunk cap (points per work item),
                             ///< same encoding as the device library: 0 = auto
                             ///< (CF_TILE_CHUNK env override), > 0 = explicit,
                             ///< < 0 = never split a tile
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

  /// Registers M points (host pointers; y/z null below dim 2/3) and bin-sorts.
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
  void spread_sorted(const cplx* c, int B);
  void spread_tiled(const cplx* c, int B);
  void build_tile_cache();
  void interp_sorted(cplx* c, int B);
  void deconvolve_type1(cplx* f, int B);

  ThreadPool* pool_;
  int type_;
  int iflag_;
  Options opts_;

  std::array<std::int64_t, 3> N_{1, 1, 1};
  spread::GridSpec grid_;
  spread::BinSpec bins_;
  spread::KernelParams<T> kp_;  ///< kerevalmeth=1 tables live in the
                                ///< process-wide per-(w, sigma) horner_cache
  std::unique_ptr<fft::FftNd<T>> fft_;

  std::vector<cplx> fw_;  ///< fine grid (ntransf stacked planes)
  std::array<std::vector<T>, 3> fser_;

  std::vector<T> xg_, yg_, zg_;
  std::size_t M_ = 0;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> bin_start_;  // size nbins+1

  // Tile cache for the atomic-free spread, built in set_points (mirrors the
  // device library's build_tile_set): geometry gate, active bins grouped by
  // tile colour, and the per-worker padded scratch reused by every execute.
  bool tile_ok_ = false;
  int tile_nb_ = 1;  ///< batch planes per scratch / chunk plane (like device)
  std::vector<std::uint32_t> tile_active_;   ///< slot -> bin, grouped by colour
  std::vector<std::uint32_t> color_chunk0_;  ///< colour -> first chunk (+1 end)
  std::vector<std::uint32_t> color_split0_;  ///< colour -> first split_tile_
                                             ///< entry (+1 end)
  std::vector<cplx> tile_scratch_;           ///< pool size * tile_nb_ planes

  // Canonical (tile, chunk) split mirroring the device TileSet: overfull bins
  // are cut into balanced point-chunks (pure function of the points, never of
  // the pool size), claimed largest-first within each colour from a shared
  // counter; split tiles reduce their chunk planes in fixed
  // chunk order before the writeback, so the spread stays
  // bitwise-deterministic.
  std::uint32_t chunk_cap_ = 0;  ///< applied cap (UINT32_MAX = no splitting)
  std::vector<std::uint32_t> tile_chunk0_;  ///< slot -> first chunk (size +1)
  std::vector<std::uint32_t> chunk_tile_, chunk_off_, chunk_cnt_, chunk_plane_;
  std::vector<std::uint32_t> chunk_sched_;  ///< chunk ids largest-first per colour
  std::vector<std::uint32_t> split_tile_;   ///< slots with > 1 chunk
  std::vector<cplx> chunk_arena_;  ///< split-chunk planes (plane-major)
  std::vector<spread::TileBox> chunk_box_;  ///< chunk plane -> its footprint

  mutable std::mutex mu_;  ///< serializes set_points/execute; guards bd_
  CpuBreakdown bd_;
};

extern template class CpuPlan<float>;
extern template class CpuPlan<double>;

}  // namespace cf::cpu
