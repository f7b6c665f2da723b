// Shared machinery for the spread/interp translation units (spread_gm.cpp,
// spread_tiled.cpp, interp.cpp, point_cache.cpp) and the CPU comparator: the
// width-dispatch switch, per-point tabulation, tile geometry, and the
// small loop helpers the kernels are built from. This header is the single
// home of the dispatch machinery — kernels in any TU get identical
// specialization behavior by construction.
//
// Internal to the library (everything lives in cf::spread::detail); the
// public entry points are declared in spread.hpp.
#pragma once

#include <algorithm>
#include <bit>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/spread.hpp"
#include "vgpu/device.hpp"

#if defined(_MSC_VER)
#define CF_RESTRICT __restrict
#define CF_PREFETCH(addr, rw) ((void)0)
#define CF_SCALAR_LOOP() ((void)0)
#else
#define CF_RESTRICT __restrict__
#define CF_PREFETCH(addr, rw) __builtin_prefetch((addr), (rw))
/// Keeps the ENCLOSING loop scalar (an empty asm defeats the loop
/// vectorizer) without touching inner loops. Used on short per-plane loops
/// whose strided group accesses GCC 12 turns into unmasked gap loads that
/// read past the array (wrong-code class of GCC PR107451); the tap loops
/// inside keep their SIMD codegen. Gated to the affected compilers: GCC 13
/// fixed the gap-load masking, and clang never mis-vectorized these loops,
/// so newer toolchains keep full SIMD on the per-plane loops.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ <= 12
#define CF_SCALAR_LOOP() asm volatile("")
#else
#define CF_SCALAR_LOOP() ((void)0)
#endif
#endif

namespace cf::spread::detail {

template <int DIM, typename T>
inline void load_point(const NuPoints<T>& pts, std::size_t j, T* px) {
  px[0] = pts.xg[j];
  if constexpr (DIM > 1) px[1] = pts.yg[j];
  if constexpr (DIM > 2) px[2] = pts.zg[j];
}

/// Distance (in points) the per-point loops prefetch ahead. Bin-sorted
/// traversal reads the coordinate/strength arrays through a permutation —
/// random access that otherwise stalls on a cache miss per point.
inline constexpr std::size_t kPointPrefetch = 8;

template <int DIM, typename T>
inline void prefetch_point(const NuPoints<T>& pts, const std::complex<T>* c,
                           std::size_t j) {
  CF_PREFETCH(&pts.xg[j], 0);
  if constexpr (DIM > 1) CF_PREFETCH(&pts.yg[j], 0);
  if constexpr (DIM > 2) CF_PREFETCH(&pts.zg[j], 0);
  if (c) CF_PREFETCH(&c[j], 0);
}

/// Per-point kernel tabulation with runtime width: w values and global
/// indices per axis. `nowrap` (from the plan's interior classification)
/// skips the periodic wrap — bitwise-identical indices for interior points.
template <int DIM, typename T>
struct PointTab {
  T vals[DIM][kMaxWidth];
  std::int64_t idx[DIM][kMaxWidth];

  void compute(const GridSpec& grid, const KernelParams<T>& kp, const T* px,
               bool nowrap) {
    for (int d = 0; d < DIM; ++d) {
      const std::int64_t l0 = es_values(kp, px[d], vals[d]);
      if (nowrap) {
        for (int i = 0; i < kp.w; ++i) idx[d][i] = l0 + i;
      } else {
        for (int i = 0; i < kp.w; ++i) idx[d][i] = wrap_index(l0 + i, grid.nf[d]);
      }
    }
  }
};

/// Per-point tabulation with compile-time width (the fast path).
template <int DIM, int W, typename T>
struct PointTabF {
  T vals[DIM][W];
  std::int64_t idx[DIM][W];

  void compute(const GridSpec& grid, const KernelParams<T>& kp, const T* px,
               bool nowrap) {
    for (int d = 0; d < DIM; ++d) {
      const std::int64_t l0 = es_values_fixed<W>(kp, px[d], vals[d]);
      if (nowrap) {
        for (int i = 0; i < W; ++i) idx[d][i] = l0 + i;
      } else {
        for (int i = 0; i < W; ++i) idx[d][i] = wrap_index(l0 + i, grid.nf[d]);
      }
    }
  }
};

/// Contiguous [lo, hi) slice of n items for virtual thread t of nthreads.
/// The vgpu executes a block's threads sequentially, so chunked ranges (one
/// contiguous sweep per thread) beat the CUDA-style stride-by-nthreads loop
/// on real caches while keeping the same per-thread work split.
inline std::pair<std::size_t, std::size_t> thread_chunk(std::size_t n, unsigned t,
                                                        unsigned nthreads) {
  const std::size_t chunk = (n + nthreads - 1) / nthreads;
  const std::size_t lo = std::min(n, t * chunk);
  return {lo, std::min(n, lo + chunk)};
}

/// Decodes linear bin id `b` into per-axis bin coordinates.
inline void bin_coords(const BinSpec& bins, std::uint32_t b, std::int64_t bc[3]) {
  std::int64_t rem = b;
  for (int d = 0; d < 3; ++d) {
    bc[d] = rem % bins.nbins[d];
    rem /= bins.nbins[d];
  }
}

/// Decodes tile bin `b` into the padded-bin offset Delta (paper Fig. 1).
inline void subprob_delta(const BinSpec& bins, std::uint32_t b, int dim, int pad,
                          std::int64_t delta[3]) {
  std::int64_t bc[3];
  bin_coords(bins, b, bc);
  delta[0] = delta[1] = delta[2] = 0;
  for (int d = 0; d < dim; ++d) delta[d] = bc[d] * bins.m[d] - pad;
}

// ---- tile colouring (tiled spread writeback) --------------------------------
//
// A tile's padded scratch covers the cells [q*m - pad, q*m + m + pad) (mod
// nf) on each axis: its bin's core plus the halo its points reach. The tiled
// writeback adds a finished tile's footprint (TileBox, a sub-box of the
// padded box) to fw with plain stores, so two tiles may write concurrently
// only if their padded boxes are disjoint. Colouring guarantees that: each
// axis is coloured greedily in ascending tile index (the smallest colour no
// earlier overlapping tile holds), and a tile's colour is the mixed-radix
// number of its axis colours. Two distinct tiles of one colour differ on
// some axis where they share an axis colour, so their extents on that axis
// — hence their boxes — are disjoint. The engine writes the colours back in
// ascending order, so every fw cell sums its contributions in colour order:
// a pure function of the bins and points, never of the worker schedule
// (zero global atomics, bitwise-deterministic spreading).
//
// Requires p = m + 2*pad <= nf on every axis (tile_fits): a padded extent
// then covers each cell at most once, so a tile's own writeback never hits a
// cell twice. spread_bins clamps every tiled spread's bins to satisfy it.

/// In-range core of bin `bc` on one axis: cells [c0, c0 + ce).
inline void tile_core(std::int64_t bc, std::int64_t m, std::int64_t nf,
                      std::int64_t& c0, std::int64_t& ce) {
  c0 = bc * m;
  ce = std::min<std::int64_t>((bc + 1) * m, nf) - c0;
}

/// Halo cells the clipped writeback of `box` adds for bin `b`: the box's
/// cells outside the bin's in-range core (local core = [pad, pad + ce) per
/// axis). Bounded by the padded-minus-core cells of the whole padded box.
inline std::uint64_t box_halo_cells(const GridSpec& grid, const BinSpec& bins,
                                    std::uint32_t b, int dim, int pad,
                                    const TileBox& box) {
  std::int64_t bc[3];
  bin_coords(bins, b, bc);
  std::uint64_t cells = 1, core = 1;
  for (int d = 0; d < dim; ++d) {
    std::int64_t c0, ce;
    tile_core(bc[d], bins.m[d], grid.nf[d], c0, ce);
    cells *= static_cast<std::uint64_t>(box.hi[d] - box.lo[d]);
    core *= static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::min(box.hi[d], pad + ce) - std::max(box.lo[d], std::int64_t(pad))));
  }
  return cells - core;
}

/// Greedy canonical colouring of the nbins tiles on one axis (bin size m,
/// halo pad, fine-grid size nf >= m + 2*pad): writes color[q] and returns the
/// number of colours. Only tiles whose starts lie less than p apart around
/// the wrap can overlap, so each tile checks its reach-window of predecessors
/// plus the first `reach` tiles (the wrap-around neighbours); there are at
/// most 2*reach + 1 <= 51 colours (pad <= 12), so a 64-bit mask holds them.
inline int tile_axis_colors(std::int64_t m, std::int64_t nbins, std::int64_t nf,
                            std::int64_t pad, std::uint32_t* color) {
  const std::int64_t p = m + 2 * pad;
  const std::int64_t reach = (p + m - 1) / m;
  int ncolors = 0;
  for (std::int64_t q = 0; q < nbins; ++q) {
    std::uint64_t used = 0;
    auto mark = [&](std::int64_t q2) {
      const std::int64_t d = (q - q2) * m;  // start distance, in (0, nf)
      if (d < p || nf - d < p) used |= std::uint64_t(1) << color[q2];
    };
    for (std::int64_t q2 = 0; q2 < std::min(q, reach); ++q2) mark(q2);
    for (std::int64_t q2 = std::max(reach, q - reach); q2 < q; ++q2) mark(q2);
    color[q] = static_cast<std::uint32_t>(std::countr_one(used));
    ncolors = std::max(ncolors, static_cast<int>(color[q]) + 1);
  }
  return ncolors;
}

/// Tile colour of every bin: the mixed-radix number of its axis colours
/// (x fastest). Fills color[b] for all bins and returns the number of colour
/// classes (the product of the per-axis colour counts).
inline std::uint32_t tile_colors(const GridSpec& grid, const BinSpec& bins, int pad,
                                 std::vector<std::uint32_t>& color) {
  std::vector<std::uint32_t> axis[3];
  std::uint32_t ncol[3] = {1, 1, 1};
  for (int d = 0; d < 3; ++d) {
    axis[d].assign(static_cast<std::size_t>(bins.nbins[d]), 0);
    if (d < grid.dim)
      ncol[d] = static_cast<std::uint32_t>(
          tile_axis_colors(bins.m[d], bins.nbins[d], grid.nf[d], pad, axis[d].data()));
  }
  color.resize(static_cast<std::size_t>(bins.total_bins()));
  for (std::size_t b = 0; b < color.size(); ++b) {
    std::int64_t bc[3];
    bin_coords(bins, static_cast<std::uint32_t>(b), bc);
    color[b] = axis[0][bc[0]] + ncol[0] * (axis[1][bc[1]] + ncol[1] * axis[2][bc[2]]);
  }
  return ncol[0] * ncol[1] * ncol[2];
}

/// Rows (y fastest, then z) of `box`, a sub-box of the padded bin.
inline std::size_t box_rows(const TileBox& box) {
  return static_cast<std::size_t>((box.hi[1] - box.lo[1]) * (box.hi[2] - box.lo[2]));
}

/// Iterates rows [row_lo, row_hi) of `box` (a sub-box of the padded bin with
/// unused axes [0, 1); rows counted as in box_rows), handing `f` maximal
/// runs of each row's x-extent [lo[0], hi[0]) that are contiguous in both
/// the scratch (src index) and the periodic fine grid (global index):
/// f(scratch_offset, global_linear_index, run_length). One division per row
/// replaces the per-element div/mod + wrap of the scalar path, and the runs
/// give the caller vectorizable/streamed bodies.
template <int DIM, typename T, typename F>
inline void for_box_rows(const GridSpec& grid, const std::int64_t* p,
                         const std::int64_t* delta, const TileBox& box,
                         std::size_t row_lo, std::size_t row_hi, F&& f) {
  const std::int64_t ny = box.hi[1] - box.lo[1];
  for (std::size_t rr = row_lo; rr < row_hi; ++rr) {
    std::int64_t s1 = 0, s2 = 0, g1 = 0, g2 = 0;
    if constexpr (DIM >= 2) {
      s1 = box.lo[1] + static_cast<std::int64_t>(rr) % ny;
      s2 = box.lo[2] + static_cast<std::int64_t>(rr) / ny;
      g1 = wrap_index(delta[1] + s1, grid.nf[1]);
      if constexpr (DIM >= 3) g2 = wrap_index(delta[2] + s2, grid.nf[2]);
    }
    const std::int64_t rowbase = grid.nf[0] * (g1 + grid.nf[1] * g2);
    const std::int64_t src0 = (s2 * p[1] + s1) * p[0];
    std::int64_t g0 = wrap_index(delta[0] + box.lo[0], grid.nf[0]);
    for (std::int64_t i = box.lo[0]; i < box.hi[0];) {
      const std::int64_t run = std::min<std::int64_t>(box.hi[0] - i, grid.nf[0] - g0);
      f(static_cast<std::size_t>(src0 + i), rowbase + g0, run);
      i += run;
      g0 = 0;
    }
  }
}

/// for_box_rows over the whole padded bin.
template <int DIM, typename T, typename F>
inline void for_padded_rows(const GridSpec& grid, const std::int64_t* p,
                            const std::int64_t* delta, std::size_t row_lo,
                            std::size_t row_hi, F&& f) {
  TileBox whole;
  for (int d = 0; d < 3; ++d) {
    whole.lo[d] = 0;
    whole.hi[d] = p[d];
  }
  for_box_rows<DIM, T>(grid, p, delta, whole, row_lo, row_hi, f);
}

/// Hands `f` the scratch spans [first, last) covering x in [lo[0], xend) of
/// every row of `box` — xend may run past the row end, continuing into the
/// next row as the fast-path overhang lanes do — merged where consecutive
/// rows' spans touch, so a full-width box is one span per z-slab.
template <typename F>
inline void for_box_spans(const std::int64_t* p, const TileBox& box, std::int64_t xend,
                          F&& f) {
  std::int64_t first = 0, last = -1;
  for (std::int64_t s2 = box.lo[2]; s2 < box.hi[2]; ++s2)
    for (std::int64_t s1 = box.lo[1]; s1 < box.hi[1]; ++s1) {
      const std::int64_t row = (s2 * p[1] + s1) * p[0];
      if (row + box.lo[0] > last) {
        if (last >= 0) f(static_cast<std::size_t>(first), static_cast<std::size_t>(last));
        first = row + box.lo[0];
      }
      last = row + xend;
    }
  if (last >= 0) f(static_cast<std::size_t>(first), static_cast<std::size_t>(last));
}

/// Grid-stride launch over the iteration positions [lo, hi): f(jj, blk).
/// The per-point kernels use this to run the interior-first partition as two
/// launches — one all-no-wrap, one all-wrap — so the hot loops never test a
/// per-point flag (see PointCache / classify_interior).
template <typename F>
inline void launch_point_range(vgpu::Device& dev, std::size_t lo, std::size_t hi,
                               unsigned block, F&& f) {
  if (hi <= lo) return;
  const std::size_t n = hi - lo;
  dev.launch((n + block - 1) / block, block, [&, lo, n, block](vgpu::BlockCtx& blk) {
    const std::size_t base = lo + static_cast<std::size_t>(blk.block_id) * block;
    blk.for_each_thread([&](unsigned t) {
      const std::size_t jj = base + t;
      if (jj < lo + n) f(jj, blk);
    });
  });
}

/// Invokes f(integral_constant<int, w>) for w in [2, kMaxWidth]; returns
/// false (leaving the runtime-w fallback to the caller) otherwise.
template <typename F>
bool dispatch_width(int w, F&& f) {
  switch (w) {
#define CF_WIDTH_CASE(W_)                        \
  case W_:                                       \
    f(std::integral_constant<int, W_>{});        \
    return true;
    CF_WIDTH_CASE(2)
    CF_WIDTH_CASE(3)
    CF_WIDTH_CASE(4)
    CF_WIDTH_CASE(5)
    CF_WIDTH_CASE(6)
    CF_WIDTH_CASE(7)
    CF_WIDTH_CASE(8)
    CF_WIDTH_CASE(9)
    CF_WIDTH_CASE(10)
    CF_WIDTH_CASE(11)
    CF_WIDTH_CASE(12)
    CF_WIDTH_CASE(13)
    CF_WIDTH_CASE(14)
    CF_WIDTH_CASE(15)
    CF_WIDTH_CASE(16)
    // sigma = 1.25 deep-tolerance widths (width_from_tol clamps [2, 24] at
    // sigma != 2); without these cases they'd fall to the runtime-w scalar
    // fallback precisely on the plans that need the most taps per point.
    CF_WIDTH_CASE(17)
    CF_WIDTH_CASE(18)
    CF_WIDTH_CASE(19)
    CF_WIDTH_CASE(20)
    CF_WIDTH_CASE(21)
    CF_WIDTH_CASE(22)
    CF_WIDTH_CASE(23)
    CF_WIDTH_CASE(24)
#undef CF_WIDTH_CASE
  }
  return false;
}

template <typename F1, typename F2, typename F3>
void dispatch_dim(int dim, F1&& f1, F2&& f2, F3&& f3) {
  switch (dim) {
    case 1: f1(); break;
    case 2: f2(); break;
    case 3: f3(); break;
    default: throw std::invalid_argument("spread: dim must be 1..3");
  }
}

}  // namespace cf::spread::detail
