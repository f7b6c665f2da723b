// Fine-grid and bin geometry shared by the spreading/interpolation kernels.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>

#include "fft/fft.hpp"

namespace cf::spread {

/// The upsampled ("fine") grid. Layout is x-fastest: linear index
/// l = l1 + nf1*(l2 + nf2*l3). Unused trailing dims are 1.
struct GridSpec {
  int dim = 2;
  std::array<std::int64_t, 3> nf{1, 1, 1};

  std::int64_t total() const { return nf[0] * nf[1] * nf[2]; }
};

/// a * b, or std::invalid_argument naming `what` when the product overflows
/// std::int64_t (operands are positive).
inline std::int64_t checked_mul(std::int64_t a, std::int64_t b, const char* what) {
  std::int64_t r;
  if (__builtin_mul_overflow(a, b, &r))
    throw std::invalid_argument(std::string(what) + " overflows int64");
  return r;
}

/// The fine grid for `nmodes` at sigma = `upsampfac` and kernel width `w`:
/// per axis the next 2,3,5-smooth size >= max(ceil(sigma * N), 2w). Checks
/// dim and modes first, since every caller indexes GridSpec::nf by them, and
/// rejects a mode count or fine-grid cell count that overflows std::int64_t
/// before anything sized by them is allocated.
inline GridSpec make_grid(std::span<const std::int64_t> nmodes, double upsampfac, int w) {
  if (nmodes.empty() || nmodes.size() > 3) throw std::invalid_argument("dim must be 1..3");
  std::int64_t modes = 1;
  for (auto n : nmodes) {
    if (n < 1) throw std::invalid_argument("modes must be >= 1");
    modes = checked_mul(modes, n, "mode product");
  }
  GridSpec g;
  g.dim = static_cast<int>(nmodes.size());
  std::int64_t cells = 1;
  for (int d = 0; d < g.dim; ++d) {
    // ceil: a non-integral sigma * N (possible at sigma = 1.25) must round up
    // so the fine grid never under-samples. No-op at sigma = 2.
    const auto lower = static_cast<std::int64_t>(std::ceil(upsampfac * double(nmodes[d])));
    g.nf[d] = static_cast<std::int64_t>(
        fft::next235(static_cast<std::size_t>(std::max<std::int64_t>(lower, 2 * w))));
    cells = checked_mul(cells, g.nf[d], "fine-grid cell product");
  }
  return g;
}

/// Point sets index into 32-bit sort permutations and bin counts (binsort,
/// TileSet), so M (or a type-3 target count K) must stay below 2^32.
/// Every set_points and the service's submit check the count first, before
/// any allocation or coordinate read.
inline constexpr std::size_t kMaxPoints = 0xFFFFFFFFu;

inline void check_point_count(std::size_t n) {
  if (n > kMaxPoints) throw std::invalid_argument("point count must be < 2^32");
}

/// Cartesian bins covering the fine grid (paper Sec. III-A). Bins are ordered
/// x-fastest, echoing the fine-grid ordering; edge bins may be smaller.
struct BinSpec {
  std::array<int, 3> m{1, 1, 1};               ///< bin dims in fine-grid points
  std::array<std::int64_t, 3> nbins{1, 1, 1};  ///< bin counts per axis

  std::int64_t total_bins() const { return nbins[0] * nbins[1] * nbins[2]; }

  static BinSpec make(const GridSpec& g, std::array<int, 3> m) {
    BinSpec b;
    for (int d = 0; d < 3; ++d) {
      b.m[d] = d < g.dim ? m[d] : 1;
      if (b.m[d] <= 0) throw std::invalid_argument("BinSpec: bin size must be positive");
      b.nbins[d] = (g.nf[d] + b.m[d] - 1) / b.m[d];
    }
    return b;
  }

  /// The paper's bins (Rmk. 1): 32x32 in 2D, 16x16x2 in 3D, sized so an fp32
  /// padded bin fits the SM shared-memory budget (Rmk. 2); 1D (our
  /// future-work extension) uses 1024. SM vs GM-sort resolves on these. A
  /// spread on the tile engine, whose scratch lives in global memory, uses
  /// tile_size instead; an explicit Options::binsize overrides both.
  static std::array<int, 3> default_size(int dim) {
    if (dim == 1) return {1024, 1, 1};
    if (dim == 2) return {32, 32, 1};
    return {16, 16, 2};
  }

  /// Halo-proportioned tiles for the tile engine: each axis of the paper bin
  /// grown to at least its halo depth 2*pad (pad = ceil(w/2)), rounded up to
  /// a multiple of 8, so a tile's core is not dwarfed by the halo it zeroes
  /// and writes back. 16x16x16 in 3D at w = 13 (paper: 16x16x2); 1D and 2D
  /// bins are unchanged at every width up to 24.
  static std::array<int, 3> tile_size(int dim, int w) {
    auto m = default_size(dim);
    const int halo = (2 * ((w + 1) / 2) + 7) / 8 * 8;
    for (int d = 0; d < dim; ++d) m[d] = std::max(m[d], halo);
    return m;
  }
};

/// The cells a tile's points reach, in local padded-tile coordinates:
/// [lo[d], hi[d]) per axis (the min/max of the points' leftmost taps, plus
/// the kernel width). `xend` ends the x-lanes the accumulation wrote: the
/// fast path runs pad_width(w) lanes, whose zero-tap overhang may spill
/// past the row end into the next row (or the plane slack). Those lanes add
/// c * 0 — harmless for finite c, NaN otherwise — so clearing covers them.
struct TileBox {
  std::int64_t lo[3] = {INT64_MAX, INT64_MAX, INT64_MAX};
  std::int64_t hi[3] = {INT64_MIN, INT64_MIN, INT64_MIN};
  std::int64_t xend = INT64_MIN;

  void merge(const TileBox& o) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], o.lo[d]);
      hi[d] = std::max(hi[d], o.hi[d]);
    }
    xend = std::max(xend, o.xend);
  }
};

/// The tile geometry invariant: every padded tile extent m + 2*pad (pad =
/// ceil(w/2)) fits the fine grid, so a tile's writeback covers each cell at
/// most once (see spread_impl.hpp). spread_bins guarantees it for every
/// tiled spread; build_tile_set checks it.
inline bool tile_fits(const GridSpec& grid, const BinSpec& bins, int w) {
  const int pad = (w + 1) / 2;
  for (int d = 0; d < grid.dim; ++d)
    if (bins.m[d] + 2 * pad > grid.nf[d]) return false;
  return true;
}

/// A plan's bins. Off the tile engine (SM vs GM-sort resolution, interp):
/// an explicit `binsize` (m[0] > 0), else the paper's default_size. On the
/// tile engine (`tile_engine`: every sorted type-1 spread): the explicit
/// binsize or the halo-proportioned tile_size, clamped per axis to
/// nf - 2*pad so the padded tile fits the grid. make_grid's nf >= 2w leaves
/// every axis at least w - 1 >= 1 cells, so the clamp never empties a tile.
inline BinSpec spread_bins(const GridSpec& grid, const std::array<int, 3>& binsize,
                           bool tile_engine, int w) {
  std::array<int, 3> m = binsize[0] > 0 ? binsize : BinSpec::default_size(grid.dim);
  if (tile_engine) {
    if (binsize[0] <= 0) m = BinSpec::tile_size(grid.dim, w);
    const int pad = (w + 1) / 2;
    for (int d = 0; d < grid.dim; ++d)
      m[d] = static_cast<int>(std::min<std::int64_t>(m[d], grid.nf[d] - 2 * pad));
  }
  return BinSpec::make(grid, m);
}

/// Maps a nonuniform coordinate (any real; typically [-pi, pi)) to its
/// fine-grid coordinate in [0, nf) with periodic folding (the FINUFFT
/// "fold-and-rescale"). Grid index l represents position x = l*h mod 2*pi,
/// so the FFT phase e^{2*pi*i*l*k/nf} equals e^{i*k*x} exactly.
template <typename T>
inline T fold_rescale(T x, std::int64_t nf) {
  constexpr T inv2pi = static_cast<T>(1.0 / (2.0 * std::numbers::pi));
  T z = x * inv2pi;
  z -= std::floor(z);
  T g = z * static_cast<T>(nf);
  if (g >= static_cast<T>(nf)) g = 0;  // guard the z==1-ulp rounding case
  return g;
}

/// Periodic wrap of a (possibly negative) fine-grid index into [0, nf).
inline std::int64_t wrap_index(std::int64_t l, std::int64_t nf) {
  l %= nf;
  return l < 0 ? l + nf : l;
}

/// Output index -> signed mode, honoring the mode-ordering option:
/// modeord 0 (CMCL): k = i - N/2; modeord 1 (FFT-style): k = i, wrapping
/// past the Nyquist to the negative half.
inline std::int64_t index_to_mode(std::int64_t i, std::int64_t N, int modeord) {
  if (modeord == 0) return i - N / 2;
  return i < (N + 1) / 2 ? i : i - N;
}

/// Inverse of index_to_mode composed with wrap_index: the output index whose
/// mode lands on fine-grid position g, or -1 when g lies in the zero-padded
/// band (no retained mode maps there). Requires nf > N - 1 so the positive
/// and negative mode ranges cannot overlap on the fine grid (always true for
/// the upsampled grid at any supported sigma: nf >= ceil(sigma * N) >= N for
/// sigma >= 1.25).
inline std::int64_t grid_to_index(std::int64_t g, std::int64_t N, std::int64_t nf,
                                  int modeord) {
  std::int64_t k;
  if (g <= N - 1 - N / 2)
    k = g;
  else if (g >= nf - N / 2)
    k = g - nf;
  else
    return -1;
  if (modeord == 0) return k + N / 2;
  return k >= 0 ? k : k + N;
}

}  // namespace cf::spread
