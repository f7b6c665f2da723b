// The paper's three spreading methods (Sec. III-A) and the interpolation
// methods (Sec. III-B), running on a vgpu Device.
//
//  * GM       — input-driven: one thread per point in user order, global
//               atomic adds (the CUNFFT-style baseline).
//  * GM-sort  — GM but with points visited in bin-sorted order, which
//               localizes the grid region touched by nearby threads.
//  * SM       — the paper's load-balanced blocked spread: per-bin work items
//               of capped size accumulate into a padded-bin scratch that is
//               written back without atomics. Here that is the tile engine
//               (spread_tiled_batch), reading the plan's cached tap table.
//
// A type-1 plan runs every sorted spread — SM and GM-sort alike — on the
// tile engine; GM-sort differs only in evaluating taps inline. The atomic
// spread_gm kernels remain for the GM method (and as the tests' reference).
//
// All functions take fine-grid coordinates (already fold-rescaled to
// [0, nf)) and accumulate into `fw` without zeroing it first.
//
// Every stage is batch-strided: B strength vectors c + b*cstride run against
// B stacked fine grids fw + b*fwstride with each point's tap weights
// evaluated once for the whole stack. The single-vector entry points are the
// B = 1 instantiations of the same kernels (identical operations in identical
// order), so there is exactly one implementation of each stage.
//
// Every entry point dispatches on the kernel width: widths 2..24 (all the
// tolerance rule can produce) run width-specialized kernels whose tap loops
// fully unroll and whose scratch accumulation is deinterleaved into
// real/imag FMA streams; KernelParams::fast == false (the tests' reference)
// takes the runtime-width scalar kernels. Both compute the same sums, so
// results agree to rounding.
//
// Point-dependent precomputation (point_cache.hpp) plugs in three ways:
//  * Tiled spreading can consume a TapTable (per-point tap values in
//    bin-sorted order). SM plans always build it once in set_points; GM-sort
//    plans pass none, and the engine evaluates the same taps inline.
//  * The interior-first iteration partition (InteriorPartition) drives the
//    branch-free no-wrap path of GM spread and interp: the caller
//    passes the partitioned order plus NuPoints::n_nowrap, and the kernels
//    run the two segments as separate launches (no per-point flag test).
//  * The TileSet drives the tile-owned atomic-free spread writeback
//    (spread_tiled_batch): tiles run in colour classes whose padded boxes
//    are disjoint, each adding its footprint to the fine grid with plain
//    stores in a fixed colour order — zero global atomics and
//    bitwise-deterministic results at any worker count.
#pragma once

#include <complex>
#include <cstdint>

#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/point_cache.hpp"
#include "vgpu/device.hpp"

namespace cf::spread {

/// Nonuniform points in fine-grid coordinates; device pointers; unused axes
/// are nullptr.
template <typename T>
struct NuPoints {
  const T* xg = nullptr;
  const T* yg = nullptr;
  const T* zg = nullptr;
  std::size_t M = 0;
  /// Number of leading points in ITERATION order whose taps all lie in
  /// [0, nf) on every axis, so GM/GM-sort spread and interp skip the periodic
  /// wrap for them (bitwise-identical indices, no per-tap modulo, and no
  /// per-point branch — the kernels split the launch at this count).
  /// Requires the iteration order to be partitioned interior-first; pass the
  /// InteriorPartition's order as the kernels' `order` argument and its
  /// n_interior here (see classify_interior). 0 = every point wraps.
  std::size_t n_nowrap = 0;
};

/// GM / GM-sort spreading: accumulates the M points into fw with global
/// atomics. `order` == nullptr gives user order (GM); a bin-sort permutation
/// gives GM-sort.
template <typename T>
void spread_gm(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
               const NuPoints<T>& pts, const std::complex<T>* c, std::complex<T>* fw,
               const std::uint32_t* order);

/// Batch-strided GM / GM-sort spreading (many-vector "ntransf" execution).
template <typename T>
void spread_gm_batch(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                     const NuPoints<T>& pts, const std::complex<T>* c,
                     std::complex<T>* fw, const std::uint32_t* order, int B,
                     std::size_t cstride, std::size_t fwstride);

/// True if the SM padded bin fits the device's per-block shared memory
/// (paper Rmk. 2: 16*(m1+w)(m2+w)(m3+w) <= 49000 in their fp32 terms). Plans
/// resolve Auto to SM, and accept an explicit SM, on the paper's bins only
/// where this holds; the spread itself then runs on the tile engine.
template <typename T>
bool sm_fits(const vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, int w) {
  const int pad = (w + 1) / 2;
  std::size_t padded = 1;
  for (int d = 0; d < grid.dim; ++d)
    padded *= static_cast<std::size_t>(bins.m[d] + 2 * pad);
  return padded * sizeof(std::complex<T>) <= dev.props.shared_mem_per_block;
}

/// Tile-owned atomic-free spread writeback in tile colour classes (TileSet): persistent blocks claim the (tile, chunk) work
/// items colour by colour, largest-first within a colour, and accumulate a
/// canonical chunk of the bin's sorted points into a deinterleaved padded
/// scratch (taps from `taps` when non-null — the SM cached table — or
/// evaluated inline, identical values either way). Split tiles (bins over
/// TileSet::chunk_cap points) are reduced plane by plane in fixed chunk
/// order first. Every finished tile adds its footprint (the box its points'
/// taps reach) to fw with plain vectorizable stores once all earlier colours
/// are written, then clears it, leaving the TileSet's scratch and chunk
/// planes all zero on return; tiles of one colour never share a cell. Zero
/// global atomics; output is
/// bitwise-identical at every worker count (given the deterministic
/// bin_sort) because the colour order, the summation split and every
/// reduction order are pure functions of the bins and points, never of the
/// schedule. Requires tiles built by build_tile_set; the batch runs in
/// chunks of tiles.nb planes. Returns the number of work items that ran off
/// their round-robin home worker (item index mod workers) — the rebalancing
/// the dynamic schedule did; 0 on single-worker devices.
template <typename T>
std::uint64_t spread_tiled_batch(vgpu::Device& dev, const GridSpec& grid,
                                 const BinSpec& bins, const KernelParams<T>& kp,
                                 const NuPoints<T>& pts, const std::complex<T>* c,
                                 std::complex<T>* fw, const DeviceSort& sort,
                                 TileSet<T>& tiles, const TapTable<T>* taps, int B,
                                 std::size_t cstride, std::size_t fwstride);

/// Interpolation (type-2 step 3): c[j] = weighted sum of fw near point j.
/// `order` == nullptr is GM; the bin-sort permutation gives GM-sort (reads
/// coalesce; no write conflicts exist, Sec. III-B).
template <typename T>
void interp(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
            const NuPoints<T>& pts, const std::complex<T>* fw, std::complex<T>* c,
            const std::uint32_t* order);

/// Batch-strided interpolation: gathers every c + b*cstride from its grid
/// fw + b*fwstride with one weight evaluation per point.
template <typename T>
void interp_batch(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                  const NuPoints<T>& pts, const std::complex<T>* fw, std::complex<T>* c,
                  const std::uint32_t* order, int B, std::size_t cstride,
                  std::size_t fwstride);

}  // namespace cf::spread
