// Batched multi-dimensional FFT execution over a thread pool.
//
// FftNd plays the role cuFFT plays in the paper: a planned, in-place,
// unnormalized d-dimensional complex transform executed with device
// parallelism (the vgpu Device hands its pool to this class; the CPU
// comparator library hands its host pool).
//
// Every axis pass works on lane groups: it gathers up to Fft1d::kLanes lines
// into one worker's split re/im lane buffer, runs the lane engine
// (Fft1d::exec_lanes) once for the whole group, and scatters the lines back.
// On a strided axis a group is kLanes consecutive inner indices, so each
// element row is one contiguous read; on axis 0 a group is kLanes
// consecutive rows, transposed into lanes. Once the lane buffer outgrows L1
// (kL1Bytes), the axis-0 transpose moves one kLanes-element block of every
// line at a time, so the block's rows of the buffer stay in L1. An axis with
// fewer lines per slab than kLanes runs groups of that many lanes; otherwise
// a short tail group is padded with zero lanes. Since the engine treats
// every lane alike, a line's bits do not depend on its group, its lane slot
// or the worker count.
//
// Mode band: a NUFFT plan reads (type 1) or writes (type 2) only N of the
// nf fine-grid points per axis, the band [0, ceil(N/2)) U [nf - floor(N/2),
// nf). A plan built with the mode counts picks per call which side of a
// transform the band limits (Band): none runs the full transform; Band::in
// (type 2) takes an input that is zero outside the band and skips the lines
// that are still zero; Band::out (type 1) skips the lines whose values no
// band point needs. Band points, and with Band::in every point, match the
// full transform bitwise. Without mode counts the band is the whole grid.
#pragma once

#include <algorithm>
#include <array>
#include <complex>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "fft/fft.hpp"

namespace cf::fft {

/// Which side of a transform the mode band limits (see the header).
enum class Band {
  none,  ///< the full transform
  in,    ///< input zero outside the band; every output point (type 2)
  out,   ///< any input; only the band's output points (type 1)
};

/// Planned d-dimensional (d = 1..3) in-place complex FFT; dims[0] is the
/// fastest-varying (contiguous) axis, matching the NUFFT fine-grid layout.
template <typename T>
class FftNd {
 public:
  using cplx = std::complex<T>;
  static constexpr std::size_t kLanes = Fft1d<T>::kLanes;
  /// An axis-0 lane buffer (2*n*lanes values of T) larger than this is
  /// transposed a block at a time; smaller ones line by line.
  static constexpr std::size_t kL1Bytes = 32 * 1024;

  /// `modes` (empty, or one count per axis with 1 <= modes[d] <= dims[d])
  /// sets the mode band; empty means the whole grid.
  FftNd(ThreadPool& pool, std::vector<std::size_t> dims, std::vector<std::size_t> modes = {})
      : pool_(&pool), dims_(std::move(dims)) {
    if (dims_.empty() || dims_.size() > 3)
      throw std::invalid_argument("FftNd: 1..3 dims supported");
    if (modes.empty()) modes = dims_;
    if (modes.size() != dims_.size())
      throw std::invalid_argument("FftNd: one mode count per axis");
    total_ = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      if (dims_[d] == 0) throw std::invalid_argument("FftNd: zero dim");
      if (modes[d] == 0 || modes[d] > dims_[d])
        throw std::invalid_argument("FftNd: mode count outside 1..dim");
      total_ *= dims_[d];
      std::vector<bool> in(dims_[d], false);
      std::fill_n(in.begin(), (modes[d] + 1) / 2, true);
      std::fill(in.end() - static_cast<std::ptrdiff_t>(modes[d] / 2), in.end(), true);
      band_.push_back(std::move(in));
    }
    std::size_t stride = 1;
    for (std::size_t a = 0; a < dims_.size(); ++a) {
      plans_.emplace_back(dims_[a]);
      geoms_.push_back(make_geom(a, stride));
      // Per-worker scratch: the lane group plus the engine's workspace, which
      // also stages the fused pass's rows.
      const std::size_t lanes = geoms_.back().lanes;
      ws_ = std::max(ws_, 2 * dims_[a] * lanes + plans_.back().lane_workspace(lanes));
      stride *= dims_[a];
    }
    scratch_.resize(pool_->size());
    for (auto& s : scratch_) s.resize(ws_ / 2 + kLanes);  // room to 64-byte align
  }

  std::size_t total() const { return total_; }
  const std::vector<std::size_t>& dims() const { return dims_; }

  /// In-place full transform of `data` (length total()); sign = -1 forward,
  /// +1 backward, both unnormalized. Same as exec_batch with one grid and
  /// Band::none.
  void exec(cplx* data, int sign) { exec_batch(data, 1, total_, sign, Band::none); }

  /// Batched in-place transform: `nbatch` grids at data + b*batch_stride
  /// (b = 0..nbatch-1), each of length total(). Planes are transformed
  /// PLANE-major (all axes of grid b before grid b+1): every axis pass then
  /// rereads the one plane the previous pass just wrote — the cache reuse a
  /// B = 1 execute gets implicitly — instead of streaming the whole
  /// nbatch-plane stack per axis. Each per-axis launch still spreads its
  /// lane groups over the pool, so multi-worker devices stay saturated.
  ///
  /// `band` picks the pruning:
  ///  - Band::none: the full transform.
  ///  - Band::in: `data` must be zero outside the band. Axis 0 transforms
  ///    only the rows whose higher-axis coordinates lie in the band, and each
  ///    later axis only the slabs that do (3D at sigma = 2: 1/4 + 1/2 + 1 of
  ///    three passes). Every point holds the full transform.
  ///  - Band::out: axis 0 transforms every line, and each later axis only the
  ///    lines whose lower-axis coordinates all lie in the band (3D at
  ///    sigma = 2: 1 + 1/2 + 1/4). Only the band points hold the full
  ///    transform; every other point holds a partial sum, so the caller must
  ///    rewrite the whole grid before the next transform.
  void exec_batch(cplx* data, std::size_t nbatch, std::size_t batch_stride, int sign,
                  Band band) {
    const auto k = static_cast<std::size_t>(band);
    for (std::size_t b = 0; b < nbatch; ++b)
      for (std::size_t axis = 0; axis < dims_.size(); ++axis)
        exec_axis(data + b * batch_stride, 1, 0, axis, sign, geoms_[axis].groups[k],
                  geoms_[axis].slabs[k]);
  }

  /// Fused batched transform: the first (contiguous) axis's input rows are
  /// produced by `fill(row, line, b)` instead of read from `data` — the
  /// caller's pre-processing (e.g. the NUFFT type-2 amplify + zero-pad)
  /// writes each row straight into FFT scratch, eliminating one full
  /// write+read pass over the nbatch-plane grid. `fill` must either populate
  /// all dims()[0] entries of `row` and return true, or return false to
  /// declare the row identically zero — in which case the row in `data` is
  /// zero-filled, and a lane group whose rows are all zero is not transformed
  /// (the DFT of zero is zero). `data` need not be initialized beforehand,
  /// but `fill` may read line `line` of plane b of `data`: the pass writes a
  /// line only after the fills of its lane group return. `fill` may be
  /// called concurrently from pool workers.
  ///
  /// `band` prunes as in exec_batch. With Band::in, a row whose higher-axis
  /// coordinates leave the band is zero without a `fill` call; with
  /// Band::none and Band::out every row is filled.
  template <typename RowFill>
  void exec_batch_fused(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                        int sign, Band band, RowFill&& fill) {
    exec_axis0_fused(data, nbatch, batch_stride, sign, band == Band::in, fill);
    const auto k = static_cast<std::size_t>(band);
    for (std::size_t axis = 1; axis < dims_.size(); ++axis)
      exec_axis(data, nbatch, batch_stride, axis, sign, geoms_[axis].groups[k],
                geoms_[axis].slabs[k]);
  }

 private:
  // One lane group: lines [first, first + cnt) of a slab, cnt <= lanes.
  struct Group {
    std::size_t first, cnt;
  };

  // Where an axis pass finds its lines: lane v of a group sits at line
  // first + v, and element j of that line at
  // slab_base + (first + v)*lane_pitch + j*elem_pitch. The group and slab
  // lists are fixed per plan, so an execute only walks them.
  struct AxisGeom {
    std::size_t n, lanes, slab_pitch, lane_pitch, elem_pitch;
    // Axis 0: elements [0, block_end) of a line are transposed kLanes at a
    // time (0 while the lane buffer fits kL1Bytes).
    std::size_t block_end;
    // Indexed by Band: the lane groups of a slab, and the slabs, a pass visits.
    std::array<std::vector<Group>, 3> groups;
    std::array<std::vector<std::size_t>, 3> slabs;
  };

  // True when every coordinate of the axes [lo, hi) of the linear index
  // `idx` (axis lo fastest) lies in the band.
  bool in_band(std::size_t idx, std::size_t lo, std::size_t hi) const {
    for (std::size_t a = lo; a < hi; ++a) {
      if (!band_[a][idx % dims_[a]]) return false;
      idx /= dims_[a];
    }
    return true;
  }

  // Cuts the lines l in [0, lines) with keep(l) into lane groups, each a run
  // of consecutive lines at most `lanes` long.
  template <typename Keep>
  static std::vector<Group> make_groups(std::size_t lines, std::size_t lanes, Keep&& keep) {
    std::vector<Group> out;
    for (std::size_t l = 0; l < lines; ++l) {
      if (!keep(l)) continue;
      if (!out.empty() && out.back().first + out.back().cnt == l && out.back().cnt < lanes)
        ++out.back().cnt;
      else
        out.push_back({l, 1});
    }
    return out;
  }

  // Axis `a` of length n whose elements lie `stride` apart (stride 1: axis
  // 0). Lines per slab are all rows on axis 0 and the inner extent (the
  // lower axes) otherwise; slabs run over the higher axes. An axis with
  // fewer lines than kLanes runs groups of that many lanes.
  AxisGeom make_geom(std::size_t a, std::size_t stride) const {
    AxisGeom g{};
    g.n = dims_[a];
    std::size_t lines, nslabs;
    if (stride == 1) {
      lines = total_ / g.n;
      nslabs = 1;
      g.lane_pitch = g.n;
      g.elem_pitch = 1;
    } else {
      lines = stride;
      nslabs = total_ / (stride * g.n);
      g.slab_pitch = stride * g.n;
      g.lane_pitch = 1;
      g.elem_pitch = stride;
    }
    g.lanes = std::min(kLanes, lines);
    if (stride == 1 && 2 * g.n * g.lanes * sizeof(T) > kL1Bytes)
      g.block_end = g.n - g.n % kLanes;
    // Band::in skips what is still zero: the axis-0 rows, and on later axes
    // the slabs, outside the band in their higher-axis coordinates. Band::out
    // skips the lines no band point reads: those outside it in their
    // lower-axis coordinates (none on axis 0).
    const std::size_t d = dims_.size();
    for (const Band band : {Band::none, Band::in, Band::out}) {
      const auto k = static_cast<std::size_t>(band);
      g.groups[k] = make_groups(lines, g.lanes, [&](std::size_t l) {
        if (band == Band::in) return stride > 1 || in_band(l, 1, d);
        return band == Band::none || in_band(l, 0, a);
      });
      for (std::size_t s = 0; s < nslabs; ++s)
        if (band != Band::in || in_band(s, a + 1, d)) g.slabs[k].push_back(s);
    }
    return g;
  }

  // Worker wid's scratch as complex values; the lane buffers view it as T.
  cplx* scratch(std::size_t wid) {
    void* p = scratch_[wid].data();
    std::size_t space = scratch_[wid].size() * sizeof(cplx);
    return static_cast<cplx*>(std::align(64, ws_ * sizeof(T), p, space));
  }

  // Copies `cnt` lines into the lane buffer x (re block, then im block) and
  // zero-fills lanes [cnt, lanes). On axis 0 each kLanes-element block of
  // the lines fills kLanes consecutive rows of the buffer, which stay in L1
  // until every line has written them.
  static void gather(const cplx* base, const AxisGeom& g, std::size_t cnt, T* x) {
    const std::size_t L = g.lanes;
    T* xr = x;
    T* xi = x + g.n * L;
    if (g.elem_pitch == 1) {
      for (std::size_t j0 = 0; j0 < g.block_end; j0 += kLanes)
        for (std::size_t v = 0; v < cnt; ++v) {
          const cplx* src = base + v * g.lane_pitch + j0;
          T* br = xr + j0 * L + v;
          T* bi = xi + j0 * L + v;
          for (std::size_t j = 0; j < kLanes; ++j) {
            br[j * L] = src[j].real();
            bi[j * L] = src[j].imag();
          }
        }
      for (std::size_t v = 0; v < cnt; ++v) {
        const cplx* src = base + v * g.lane_pitch;
        for (std::size_t j = g.block_end; j < g.n; ++j) {
          xr[j * L + v] = src[j].real();
          xi[j * L + v] = src[j].imag();
        }
      }
    } else {
      for (std::size_t j = 0; j < g.n; ++j) {
        const cplx* src = base + j * g.elem_pitch;
        for (std::size_t v = 0; v < cnt; ++v) {
          xr[j * L + v] = src[v].real();
          xi[j * L + v] = src[v].imag();
        }
      }
    }
    if (cnt < L)
      for (std::size_t j = 0; j < g.n; ++j)
        for (std::size_t v = cnt; v < L; ++v) xr[j * L + v] = xi[j * L + v] = T(0);
  }

  // Writes lanes [0, cnt) of the lane buffer y back to their lines, on axis
  // 0 block by block as gather reads them.
  static void scatter(const T* y, const AxisGeom& g, std::size_t cnt, cplx* base) {
    const std::size_t L = g.lanes;
    const T* yr = y;
    const T* yi = y + g.n * L;
    if (g.elem_pitch == 1) {
      for (std::size_t j0 = 0; j0 < g.block_end; j0 += kLanes)
        for (std::size_t v = 0; v < cnt; ++v) {
          cplx* dst = base + v * g.lane_pitch + j0;
          const T* br = yr + j0 * L + v;
          const T* bi = yi + j0 * L + v;
          for (std::size_t j = 0; j < kLanes; ++j) dst[j] = cplx(br[j * L], bi[j * L]);
        }
      for (std::size_t v = 0; v < cnt; ++v) {
        cplx* dst = base + v * g.lane_pitch;
        for (std::size_t j = g.block_end; j < g.n; ++j)
          dst[j] = cplx(yr[j * L + v], yi[j * L + v]);
      }
    } else {
      for (std::size_t j = 0; j < g.n; ++j) {
        cplx* dst = base + j * g.elem_pitch;
        for (std::size_t v = 0; v < cnt; ++v) dst[v] = cplx(yr[j * L + v], yi[j * L + v]);
      }
    }
  }

  // Axis 0 with rows from `fill`. With `band_in`, rows outside the band in
  // their higher-axis coordinates are zero without a fill.
  template <typename RowFill>
  void exec_axis0_fused(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                        int sign, bool band_in, RowFill&& fill) {
    const AxisGeom& g = geoms_[0];
    const Fft1d<T>& plan = plans_[0];
    const auto& groups = g.groups[static_cast<std::size_t>(Band::none)];
    auto body = [&](std::size_t lo, std::size_t hi, std::size_t wid) {
      cplx* s = scratch(wid);
      T* x = reinterpret_cast<T*>(s);
      T* work = x + 2 * g.n * g.lanes;
      cplx* rows = s + g.n * g.lanes;  // `work` staging the rows; the engine reuses it
      for (std::size_t idx = lo; idx < hi; ++idx) {
        const std::size_t b = idx / groups.size();
        const auto [first, cnt] = groups[idx % groups.size()];
        cplx* base = data + b * batch_stride + first * g.n;
        bool nz[kLanes];
        bool any = false;
        for (std::size_t v = 0; v < cnt; ++v)
          any |= nz[v] = (!band_in || in_band(first + v, 1, dims_.size())) &&
                         fill(rows + v * g.n, first + v, b);
        if (!any) {
          std::memset(static_cast<void*>(base), 0, cnt * g.n * sizeof(cplx));
          continue;
        }
        for (std::size_t v = 0; v < cnt; ++v)
          if (!nz[v]) std::fill_n(rows + v * g.n, g.n, cplx(0, 0));
        gather(rows, g, cnt, x);
        scatter(plan.exec_lanes(x, g.lanes, sign, work), g, cnt, base);
        for (std::size_t v = 0; v < cnt; ++v)
          if (!nz[v]) std::memset(static_cast<void*>(base + v * g.n), 0, g.n * sizeof(cplx));
      }
    };
    pool_->parallel_chunks(0, nbatch * groups.size(), pool_->size() * 4, body);
  }

  // One pass over `axis`: the lane groups `groups` of each slab in `slabs`.
  void exec_axis(cplx* data, std::size_t nbatch, std::size_t batch_stride,
                 std::size_t axis, int sign, const std::vector<Group>& groups,
                 const std::vector<std::size_t>& slabs) {
    if (dims_[axis] == 1) return;
    const AxisGeom& g = geoms_[axis];
    const Fft1d<T>& plan = plans_[axis];
    const std::size_t ngroups = groups.size();
    const std::size_t per_batch = slabs.size() * ngroups;
    auto body = [&](std::size_t lo, std::size_t hi, std::size_t wid) {
      T* x = reinterpret_cast<T*>(scratch(wid));
      T* work = x + 2 * g.n * g.lanes;
      for (std::size_t idx = lo; idx < hi; ++idx) {
        const std::size_t b = idx / per_batch;
        const std::size_t slab = slabs[(idx % per_batch) / ngroups];
        const auto [first, cnt] = groups[idx % ngroups];
        cplx* base = data + b * batch_stride + slab * g.slab_pitch + first * g.lane_pitch;
        gather(base, g, cnt, x);
        scatter(plan.exec_lanes(x, g.lanes, sign, work), g, cnt, base);
      }
    };
    pool_->parallel_chunks(0, nbatch * per_batch, pool_->size() * 4, body);
  }

  ThreadPool* pool_;
  std::vector<std::size_t> dims_;
  std::vector<Fft1d<T>> plans_;
  std::vector<AxisGeom> geoms_;
  std::vector<std::vector<bool>> band_;  // per axis: is the point in the mode band
  std::vector<std::vector<cplx>> scratch_;
  std::size_t ws_ = 0;  // values of T each worker's scratch needs
  std::size_t total_ = 0;
};

}  // namespace cf::fft
