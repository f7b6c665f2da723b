// Plan-resident point-dependent precomputation (the paper's Sec. I-A setpts
// amortization argument): everything that depends only on the nonuniform
// points — not on the strengths — is computed once when the points are set
// and reused by every subsequent execute.
//
// Three caches:
//  * TapTable   — per-point kernel tap values and leftmost grid indices, laid
//                 out in ITERATION order (bin-sorted position when a sort
//                 permutation is in use) so the tile engine streams it
//                 contiguously. SM plans always build it; GM-sort plans
//                 never do and evaluate the same taps inline, trading the
//                 per-execute evaluation for the table's memory
//                 (M * dim * wpad values).
//  * InteriorPartition — the iteration order stably partitioned into an
//                 interior-first prefix (every tap of every axis in [0, nf))
//                 and a boundary suffix. GM/GM-sort spread and interp run the
//                 two segments as separate launches, so the no-wrap hot loop
//                 is branch-free instead of testing a per-point flag.
//  * TileSet    — the tile-ownership geometry for the atomic-free spread
//                 writeback: the active (non-empty) bins grouped into colour
//                 classes of tiles with disjoint padded boxes, the canonical
//                 (tile, chunk) work split, and the per-worker scratch. See
//                 the tile colouring notes in spread_impl.hpp.
//
// Lifetime: built by Plan::set_points (or a caller's equivalent), invalidated
// by the next set_points; plan options are fixed at construction so no other
// invalidation source exists.
#pragma once

#include <cstdint>
#include <vector>

#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::spread {

template <typename T>
struct NuPoints;

/// Per-point tap values (rows of dim * wpad, exact-zero tail past w) and
/// leftmost grid indices, in iteration order: row jj describes point
/// order[jj] (or point jj when no permutation was supplied at build time).
template <typename T>
struct TapTable {
  vgpu::device_buffer<T> vals;
  vgpu::device_buffer<std::int32_t> l0;
  int wpad = 0;

  bool empty() const { return vals.empty(); }
};

/// Builds the tap table for M points. `order` selects iteration order (the
/// bin-sort permutation for SM; nullptr = user order). Values are evaluated
/// through the width-specialized path when kp.fast allows (identical numbers
/// to the inline evaluation of the fast kernels), else the runtime-w path.
template <typename T>
void build_tap_table(vgpu::Device& dev, int dim, const KernelParams<T>& kp,
                     const NuPoints<T>& pts, const std::uint32_t* order,
                     TapTable<T>& out);

/// Iteration order stably partitioned interior-first: order[0 .. n_interior)
/// are the points whose taps never wrap (in their original relative order),
/// order[n_interior ..] the boundary points. Consumed as the `order` argument
/// of the GM/GM-sort kernels together with NuPoints::n_nowrap = n_interior.
struct InteriorPartition {
  vgpu::device_buffer<std::uint32_t> order;
  std::size_t n_interior = 0;
  std::size_t n_boundary = 0;

  bool empty() const { return order.empty(); }
};

/// Tile-ownership precomputation for the atomic-free spread writeback that
/// every sorted type-1 spread runs. `usable` is true once build_tile_set has
/// filled the set for the current sort (false only for an empty, invalidated
/// cache).
///
/// Colour classes: every tile carries the canonical colour of spread_impl.hpp
/// (tile_axis_colors), and the active tiles are stored grouped by colour —
/// slots [color_tile0[k], color_tile0[k+1]) hold colour k's tiles in
/// ascending bin order. The engine writes the colours back in ascending
/// order; tiles of one colour have disjoint padded boxes, so each finished
/// tile adds its footprint (TileBox) to fw with plain stores and every cell
/// sums its contributions in colour order. Nothing persists per tile: a tile
/// accumulates in a PER-WORKER full padded scratch (`scratch_re/im`, `plane`
/// cells per batch plane) and is written out before the worker moves on, so
/// memory does not scale with the active-tile count.
///
/// Clean-scratch invariant: the scratch and chunk planes are zero when
/// allocated, and whoever consumes a footprint clears exactly the cells its
/// accumulation wrote, so every plane is all zero again between spreads and
/// no pass zeroes a plane up front.
///
/// Chunked scheduling: a tile whose bin holds more than `chunk_cap` points is
/// split into several canonical point-CHUNKS (balanced sizes, fixed order
/// within the bin's sorted run) so workers can cooperate on one overfull bin
/// instead of serializing behind it. Every (tile, chunk) pair is a work item;
/// chunk ids follow slot order, so each colour owns the contiguous range
/// [color_chunk0[k], color_chunk0[k+1]), which `sched` lists largest-first
/// — the order the engine claims the colour's items in. A singleton chunk
/// (unsplit tile) runs the whole per-tile pipeline; chunks of a split tile
/// accumulate into dedicated planes of `chunk_re/im` that the tile's fold,
/// claimed after the colour's chunks, reduces in canonical chunk order — the
/// per-cell summation order is a pure function of the split, never of the
/// schedule, keeping the spread bitwise-deterministic across worker counts.
template <typename T>
struct TileSet {
  static constexpr std::uint32_t kNoTile = 0xffffffffu;

  vgpu::device_buffer<std::uint32_t> tile_bin;  ///< slot -> bin id (by colour)
  std::uint32_t n_active = 0;
  std::uint32_t n_colors = 0;  ///< colour classes (product of axis colours)
  std::vector<std::uint32_t> color_tile0;   ///< colour -> first slot (+1 end)
  std::vector<std::uint32_t> color_chunk0;  ///< colour -> first chunk (+1 end)
  std::vector<std::uint32_t> color_split0;  ///< colour -> first split_tile
                                            ///< entry (+1 end)
  int pad = 0;
  std::int64_t p[3] = {1, 1, 1};  ///< padded tile dims (unused axes 1)
  std::size_t padded = 0;         ///< cells per padded tile
  std::size_t plane = 0;          ///< scratch stride: padded + fast-path slack
  int nb = 1;                     ///< batch planes held per scratch / chunk plane
  vgpu::device_buffer<T> scratch_re, scratch_im;  ///< n_workers * nb * plane
  std::size_t arena_bytes = 0;  ///< worker scratch + split-chunk plane bytes

  // -- chunked (tile, chunk) work items, canonical order ---------------------
  std::uint32_t n_chunks = 0;       ///< total work items (== n_active unsplit)
  std::uint32_t n_split = 0;        ///< tiles split into more than one chunk
  std::uint32_t n_split_chunks = 0; ///< chunks owning a dedicated scratch plane
  std::uint32_t chunk_cap = 0;      ///< applied cap (UINT32_MAX = no splitting)
  std::uint32_t max_tile_points = 0;       ///< largest bin population
  vgpu::device_buffer<std::uint32_t> tile_chunk0;  ///< slot -> first chunk id
                                                   ///< (size n_active + 1)
  vgpu::device_buffer<std::uint32_t> chunk_tile;   ///< chunk -> slot
  vgpu::device_buffer<std::uint32_t> chunk_off;    ///< chunk -> offset in the
                                                   ///< bin's sorted point run
  vgpu::device_buffer<std::uint32_t> chunk_cnt;    ///< chunk -> point count
  vgpu::device_buffer<std::uint32_t> chunk_plane;  ///< chunk -> chunk-scratch
                                                   ///< plane | kNoTile (unsplit)
  vgpu::device_buffer<std::uint32_t> sched;   ///< chunk ids largest-first
                                              ///< within each colour (stable)
  vgpu::device_buffer<std::uint32_t> split_tile;  ///< slots with > 1 chunk
  vgpu::device_buffer<T> chunk_re, chunk_im;  ///< n_split_chunks * nb * plane
  std::vector<TileBox> chunk_box;  ///< chunk plane -> footprint of the chunk
                                   ///< accumulated there (per execute)

  bool usable = false;
};

/// The chunk cap every plan applies: a bin holding more points than this is
/// split into work items. A constant, so the summation split (and with it
/// the output bits) depends on nothing but the points; 2048 beat both no
/// splitting and the finer caps on every clustered tiled3d row.
inline constexpr std::uint32_t kTileChunkCap = 2048;

/// Budget for the per-chunk scratch planes of split tiles; the chunk cap is
/// doubled until one batch plane of them fits. Deliberately worker-count
/// independent (the worker scratch is not counted) so the applied cap — and
/// with it the summation split — is identical at every worker count. The
/// number of batch planes held at once (TileSet::nb) is bounded by the same
/// budget over worker scratch plus chunk planes.
inline constexpr std::size_t kTileChunkArenaMaxBytes = std::size_t(64) << 20;

/// Builds the TileSet for the current bin sort: tile colours, active tiles
/// grouped by colour, the canonical chunk split, and the worker scratch +
/// chunk planes sized for ntransf = B (chunked to `nb` planes). The bins must
/// satisfy tile_fits (spread_bins guarantees it for tiled spreads); anything
/// else throws std::logic_error. `chunk_cap` is the per-chunk point cap
/// (> 0; <= 0 = never split, one chunk per tile). Plans always run the
/// kTileChunkCap default; other caps are for tests of the split itself.
template <typename T>
void build_tile_set(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, int w,
                    const DeviceSort& sort, int B, TileSet<T>& out,
                    int chunk_cap = static_cast<int>(kTileChunkCap));

/// The plan-resident cache; any part may be empty when the owning plan's
/// method does not use it.
template <typename T>
struct PointCache {
  TapTable<T> taps;
  InteriorPartition interior;
  TileSet<T> tiles;
  bool valid = false;

  void invalidate() {
    taps = TapTable<T>{};
    interior = InteriorPartition{};
    tiles = TileSet<T>{};
    valid = false;
  }
};

/// Classifies every point (interior = ceil(x - w/2) >= 0 and
/// ceil(x - w/2) + w <= nf on every axis — exactly the l0 the kernels derive,
/// so no-wrap indices equal the wrapped ones bit for bit) and fills `out`
/// with the stably partitioned iteration order. `order` is the incoming
/// iteration order (bin-sort permutation or nullptr = user order); the
/// partition preserves the relative order inside each class, so bin locality
/// survives for the (vast) interior majority.
template <typename T>
void classify_interior(vgpu::Device& dev, const GridSpec& grid,
                       const KernelParams<T>& kp, const NuPoints<T>& pts,
                       const std::uint32_t* order, InteriorPartition& out);

}  // namespace cf::spread
