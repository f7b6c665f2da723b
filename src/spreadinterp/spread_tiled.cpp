// Tile-owned atomic-free spread writeback: the engine behind every sorted
// type-1 spread (SM and GM-sort in Plan, the source spread in Type3Plan).
//
// Atomic spreading (spread_gm.cpp, and the paper's SM kernel) funnels every
// point's or subproblem's output through global atomic adds — on this vgpu,
// real locked RMW instructions whose cost dominates the writeback and whose
// float summation order varies with worker scheduling. Colour classes remove both problems:
// tiles of one colour (TileSet, spread_impl.hpp's tile_axis_colors) have
// pairwise disjoint padded boxes, so within a colour every fine-grid cell has
// at most one writer. The colours are written back in ascending order; one
// launch of persistent blocks (one per worker) claims the work items in that
// order from a shared counter:
//
//  (tile, chunk) items, largest-first within a colour (TileSet::sched):
//    accumulate a chunk of the bin's sorted points into a padded scratch
//    (the per-tile generalization of the SM shared-memory scratch — living
//    in global memory, it is not limited by the 48 KiB shared budget, so the
//    engine also covers configurations where SM cannot run, e.g. 3D double),
//    recording the chunk's footprint: the box its points' taps reach.
//    Unsplit tiles are a single chunk and run the whole per-tile pipeline in
//    the WORKER's scratch, ending with the writeback: once every earlier
//    colour has finished, the footprint is added to fw with plain
//    vectorizable stores, row runs resolved by for_box_rows, and then
//    cleared. Tiles whose bin exceeds the chunk cap (TileSet::chunk_cap) are
//    split into canonical point-chunks that accumulate into dedicated chunk
//    planes, so a Gaussian clump that lands in one bin is carved across
//    workers instead of serializing behind one block — the Msub-capped
//    load-balancing idea of the paper's SM scheme, applied to the tile
//    engine.
//
//  split-tile folds, after the colour's chunk items: fold the tile's chunk
//    planes into the worker scratch in FIXED chunk order over the union of
//    their footprints, clear each chunk's footprint, then the same
//    writeback.
//
// Zero and writeback traffic therefore scale with the cells the points
// reach, not with the padded box: scratch and chunk planes are zero when
// allocated and every reader clears what it consumed (TileSet's
// clean-scratch invariant), so no pass zeroes a whole plane. Only +0 adds
// (zero-tap overhang lanes, untouched cells) are skipped, so the output bits
// are those of a whole-box writeback.
//
// Tile geometry: the paper's bins (BinSpec::default_size, e.g. 16x16x2 in
// 3D) are the SM shared-memory choice. Here scratch is global, so a plan
// whose spread runs on this engine takes halo-proportioned tiles
// (BinSpec::tile_size: 16x16x16 at w = 13, where a 2-deep bin would carry a
// 14-deep halo); an explicit Options::binsize overrides both, and either is
// clamped per axis to nf - 2*pad so the padded tile fits the grid
// (spread_bins) — small grids run here too, with smaller tiles.
//
// Each cell therefore sums its contributions in colour order, each one a
// per-tile sum in the canonical split — pure functions of the bins and the
// points, never of the schedule — so the whole spread is
// bitwise-deterministic at every worker count. Accumulation overlaps the
// previous colour's writebacks, and no colour pays a launch of its own (with
// only a few tiles per colour on small grids, per-colour launches cost more
// than the spread). No per-tile state persists: memory is the per-worker
// scratch plus the split-chunk planes.
//
// Tap values come from the plan's cached TapTable when provided (SM) or are
// evaluated inline (GM-sort) — the same es_values_* routines either way, so
// the two sources are bitwise-identical.
#include <atomic>
#include <thread>
#include <vector>

#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::spread {

namespace {

using namespace detail;

/// The colour-ordered tiled spread for batch planes [b0, b0+nb). W > 0 is the
/// width-specialized deinterleaved fast path; W == 0 the runtime-width
/// fallback. HasTaps selects table rows vs inline evaluation. Returns the
/// number of work items that ran off their round-robin home worker.
template <int DIM, int W, bool HasTaps, typename T>
std::uint64_t tiled_accumulate(vgpu::Device& dev, const GridSpec& grid,
                               const BinSpec& bins, const KernelParams<T>& kp,
                               const NuPoints<T>& pts, const std::complex<T>* c,
                               std::complex<T>* fw, const DeviceSort& sort,
                               TileSet<T>& ts, const TapTable<T>* tt, int b0, int nb,
                               std::size_t cstride, std::size_t fwstride) {
  constexpr int WP = W > 0 ? pad_width(W > 0 ? W : 2) : 0;
  const int w = kp.w;
  const int wpad = HasTaps ? tt->wpad : 0;
  const int pad = ts.pad;
  const std::int64_t* p = ts.p;
  const std::size_t plane = ts.plane;
  const int nba = ts.nb;  // allocated planes per worker scratch / chunk plane
  T* const scre = ts.scratch_re.data();
  T* const scim = ts.scratch_im.data();
  T* const cre = ts.chunk_re.data();
  T* const cim = ts.chunk_im.data();

  // The per-tile pipeline, split into pieces the (tile, chunk) work items
  // compose: accumulate a slice of the bin's sorted run into a clean padded
  // scratch, recording its footprint; add the finished tile's footprint to
  // fw; clear exactly what was written. A singleton chunk runs them back to
  // back — numerically the exact unchunked per-tile path.

  // Restores the clean-scratch invariant: zeroes the spans an accumulation
  // with footprint `box` wrote, overhang lanes included, in every plane.
  auto clear = [p, plane, nb](const TileBox& box, T* zre, T* zim) {
    for_box_spans(p, box, box.xend, [&](std::size_t lo, std::size_t hi) {
      for (int bb = 0; bb < nb; ++bb) {
        std::fill(zre + plane * bb + lo, zre + plane * bb + hi, T(0));
        std::fill(zim + plane * bb + lo, zim + plane * bb + hi, T(0));
      }
    });
  };

  // Accumulates points [first, first + cnt) of bin b's sorted run and
  // returns their footprint; tap-table rows are indexed by absolute sorted
  // position, so chunks of one tile read disjoint row ranges.
  auto accum_points = [&, w, wpad, pad, plane, b0, nb](
                          vgpu::BlockCtx& blk, std::uint32_t b, std::uint32_t first,
                          std::uint32_t cnt, T* sre0, T* sim0) {
    const std::uint32_t start = sort.bin_start[b] + first;
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);
    std::int64_t lmin[DIM], lmax[DIM];
    for (int d = 0; d < DIM; ++d) {
      lmin[d] = INT64_MAX;
      lmax[d] = INT64_MIN;
    }
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(cnt, t, blk.nthreads);
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t j = sort.order[start + i];
        if (i + kPointPrefetch < cnt) {
          const std::size_t jn = sort.order[start + i + kPointPrefetch];
          if constexpr (!HasTaps)
            prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr), jn);
          for (int bb = 0; bb < nb; ++bb)
            CF_PREFETCH(&c[(b0 + bb) * cstride + jn], 0);
        }
        // Tap values and LOCAL tile indices. Points of this bin only reach
        // pad cells past the nominal core, so local coords never wrap.
        std::int64_t li0[DIM];
        if constexpr (W > 0) {
          T v0[WP], v1[DIM > 1 ? W : 1], v2[DIM > 2 ? W : 1];
          if constexpr (HasTaps) {
            const T* row = &tt->vals[(start + i) * static_cast<std::size_t>(DIM * WP)];
            const std::int32_t* lrow = &tt->l0[(start + i) * DIM];
            for (int i0 = 0; i0 < WP; ++i0) v0[i0] = row[i0];
            if constexpr (DIM > 1)
              for (int i1 = 0; i1 < W; ++i1) v1[i1] = row[WP + i1];
            if constexpr (DIM > 2)
              for (int i2 = 0; i2 < W; ++i2) v2[i2] = row[2 * WP + i2];
            for (int d = 0; d < DIM; ++d) li0[d] = lrow[d] - delta[d];
          } else {
            T px[3];
            load_point<DIM>(pts, j, px);
            li0[0] = es_values_padded<W>(kp, px[0], v0) - delta[0];
            if constexpr (DIM > 1)
              li0[1] = es_values_fixed<W>(kp, px[1], v1) - delta[1];
            if constexpr (DIM > 2)
              li0[2] = es_values_fixed<W>(kp, px[2], v2) - delta[2];
          }
          for (int bb = 0; bb < nb; ++bb) {
            CF_SCALAR_LOOP();  // plane loop stays scalar; tap loops vectorize
            const std::complex<T> cj = c[(b0 + bb) * cstride + j];
            const T cr = cj.real(), ci = cj.imag();
            T* CF_RESTRICT sre = sre0 + plane * bb;
            T* CF_RESTRICT sim = sim0 + plane * bb;
            if constexpr (DIM == 1) {
              T* CF_RESTRICT rre = sre + li0[0];
              T* CF_RESTRICT rim = sim + li0[0];
              for (int i0 = 0; i0 < WP; ++i0) rre[i0] += cr * v0[i0];
              for (int i0 = 0; i0 < WP; ++i0) rim[i0] += ci * v0[i0];
            } else if constexpr (DIM == 2) {
              for (int i1 = 0; i1 < W; ++i1) {
                const T wr = cr * v1[i1], wi = ci * v1[i1];
                const std::int64_t rrow = (li0[1] + i1) * p[0] + li0[0];
                T* CF_RESTRICT rre = sre + rrow;
                T* CF_RESTRICT rim = sim + rrow;
                for (int i0 = 0; i0 < WP; ++i0) rre[i0] += wr * v0[i0];
                for (int i0 = 0; i0 < WP; ++i0) rim[i0] += wi * v0[i0];
              }
            } else {
              for (int i2 = 0; i2 < W; ++i2) {
                const T c2r = cr * v2[i2], c2i = ci * v2[i2];
                const std::int64_t pl = (li0[2] + i2) * p[1];
                for (int i1 = 0; i1 < W; ++i1) {
                  const T wr = c2r * v1[i1], wi = c2i * v1[i1];
                  const std::int64_t rrow = (pl + li0[1] + i1) * p[0] + li0[0];
                  T* CF_RESTRICT rre = sre + rrow;
                  T* CF_RESTRICT rim = sim + rrow;
                  for (int i0 = 0; i0 < WP; ++i0) rre[i0] += wr * v0[i0];
                  for (int i0 = 0; i0 < WP; ++i0) rim[i0] += wi * v0[i0];
                }
              }
            }
          }
        } else {
          // Runtime-width fallback.
          T vals[3][kMaxWidth];
          const T* vrow[3];
          if constexpr (HasTaps) {
            const T* row = &tt->vals[(start + i) * static_cast<std::size_t>(DIM * wpad)];
            const std::int32_t* lrow = &tt->l0[(start + i) * DIM];
            for (int d = 0; d < DIM; ++d) {
              vrow[d] = row + d * wpad;
              li0[d] = lrow[d] - delta[d];
            }
          } else {
            T px[3];
            load_point<DIM>(pts, j, px);
            for (int d = 0; d < DIM; ++d) {
              li0[d] = es_values(kp, px[d], vals[d]) - delta[d];
              vrow[d] = vals[d];
            }
          }
          for (int bb = 0; bb < nb; ++bb) {
            CF_SCALAR_LOOP();  // see the fast-path plane loop above
            const std::complex<T> cj = c[(b0 + bb) * cstride + j];
            const T cr = cj.real(), ci = cj.imag();
            T* sre = sre0 + plane * bb;
            T* sim = sim0 + plane * bb;
            for (int i2 = 0; i2 < (DIM > 2 ? w : 1); ++i2) {
              const T w2 = DIM > 2 ? vrow[2][i2] : T(1);
              const std::int64_t pl = DIM > 2 ? (li0[2] + i2) * p[1] : 0;
              for (int i1 = 0; i1 < (DIM > 1 ? w : 1); ++i1) {
                const T w1 = DIM > 1 ? w2 * vrow[1][i1] : T(1);
                const std::int64_t rrow =
                    DIM > 1 ? (pl + li0[1] + i1) * p[0] + li0[0] : li0[0];
                const T wr = cr * w1, wi = ci * w1;
                for (int i0 = 0; i0 < w; ++i0) {
                  sre[rrow + i0] += wr * vrow[0][i0];
                  sim[rrow + i0] += wi * vrow[0][i0];
                }
              }
            }
          }
        }
        for (int d = 0; d < DIM; ++d) {
          lmin[d] = std::min(lmin[d], li0[d]);
          lmax[d] = std::max(lmax[d], li0[d]);
        }
        blk.note_shared_op(static_cast<std::uint64_t>(nb) * w * (DIM > 1 ? w : 1) *
                           (DIM > 2 ? w : 1));
      }
    });
    blk.sync_threads();
    TileBox box;
    for (int d = 0; d < 3; ++d) {
      box.lo[d] = d < DIM ? lmin[d] : 0;
      box.hi[d] = d < DIM ? lmax[d] + w : 1;
    }
    box.xend = lmax[0] + (W > 0 ? WP : w);
    return box;
  };

  // Adds a finished tile's footprint `box` (scratch sre0/sim0) to fw, then
  // clears it. No other tile of the running colour touches these cells, so
  // the adds are plain stores; the wrapped box is walked as row runs
  // contiguous in both the scratch and fw. Cells outside the footprint hold
  // only the +0 of overhang lanes, so skipping them leaves fw's bits
  // unchanged. The box cells outside the bin's in-range core are the halo
  // adds that replaced global atomics (tile_merge_ops).
  auto writeback = [&, pad, plane, b0, nb](vgpu::BlockCtx& blk, std::uint32_t b,
                                           const TileBox& box, T* sre0, T* sim0) {
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);
    const std::size_t nrows = box_rows(box);
    blk.for_each_thread([&](unsigned t) {
      const auto [lo, hi] = thread_chunk(nrows, t, blk.nthreads);
      for_box_rows<DIM, T>(
          grid, p, delta, box, lo, hi,
          [&](std::size_t src, std::int64_t dst, std::int64_t run) {
            for (int bb = 0; bb < nb; ++bb) {
              std::complex<T>* CF_RESTRICT fwb = fw + (b0 + bb) * fwstride + dst;
              const T* CF_RESTRICT sre = sre0 + plane * bb + src;
              const T* CF_RESTRICT sim = sim0 + plane * bb + src;
              for (std::int64_t i = 0; i < run; ++i)
                fwb[i] += std::complex<T>(sre[i], sim[i]);
            }
          });
    });
    blk.sync_threads();
    clear(box, sre0, sim0);
    blk.note_tile_merge(box_halo_cells(grid, bins, b, DIM, pad, box) * nb);
  };

  // One launch runs every colour round. n_workers persistent blocks claim
  // work items from a shared counter in colour-major order: colour k's
  // (tile, chunk) items largest-first, then its split-tile folds. A tile
  // accumulates as soon as it is claimed but writes back only once every
  // earlier colour has finished, and a fold starts once its colour's chunks
  // have — so colour rounds overlap without two tiles ever writing one cell
  // concurrently, and no round pays a launch. Waits only ever target items
  // earlier in the claim order, all of which are held by running blocks, so
  // the schedule cannot deadlock.
  const std::uint32_t ncol = ts.n_colors;
  const std::uint32_t nitems = ts.n_chunks + ts.n_split;
  // Per colour: items not yet finished, and split-tile chunks not yet
  // accumulated (what the colour's folds wait for).
  std::vector<std::atomic<std::uint32_t>> left(ncol), chunks_left(ncol);
  for (std::uint32_t k = 0; k < ncol; ++k) {
    std::uint32_t nsplit = 0;
    for (std::uint32_t ck = ts.color_chunk0[k]; ck < ts.color_chunk0[k + 1]; ++ck)
      nsplit += ts.chunk_plane[ck] != TileSet<T>::kNoTile;
    chunks_left[k].store(nsplit);
    left[k].store(ts.color_chunk0[k + 1] - ts.color_chunk0[k] + ts.color_split0[k + 1] -
                  ts.color_split0[k]);
  }
  auto wait_zero = [](const std::atomic<std::uint32_t>& n) {
    while (n.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  };
  std::atomic<std::uint32_t> next{0};
  std::atomic<std::uint64_t> moved{0};
  const std::size_t nw = dev.n_workers();
  dev.launch(std::min<std::size_t>(nw, nitems), 128, [&, plane, nba, nb](vgpu::BlockCtx& blk) {
    // Blocks on one worker run sequentially, so the worker scratch is
    // private to the running block.
    T* const sre0 = scre + blk.worker * (static_cast<std::size_t>(nba) * plane);
    T* const sim0 = scim + blk.worker * (static_cast<std::size_t>(nba) * plane);
    std::uint32_t k = 0, done_colors = 0;
    auto wait_earlier_colors = [&] {
      for (; done_colors < k; ++done_colors) wait_zero(left[done_colors]);
    };
    std::uint64_t off_home = 0;
    for (;;) {
      const std::uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= nitems) break;
      while (i >= ts.color_chunk0[k + 1] + ts.color_split0[k + 1]) ++k;
      if (i % nw != blk.worker) ++off_home;
      const std::uint32_t first_fold = ts.color_chunk0[k + 1] + ts.color_split0[k];
      if (i < first_fold) {
        const std::uint32_t ck = ts.sched[i - ts.color_split0[k]];
        const std::uint32_t b = ts.tile_bin[ts.chunk_tile[ck]];
        const std::uint32_t cpl = ts.chunk_plane[ck];
        if (cpl == TileSet<T>::kNoTile) {
          // Unsplit tile: the whole pipeline in the worker scratch.
          const TileBox box = accum_points(blk, b, 0, sort.bin_counts[b], sre0, sim0);
          wait_earlier_colors();
          writeback(blk, b, box, sre0, sim0);
        } else {
          // Chunk of a split tile: accumulate this slice of the bin's sorted
          // run into the chunk's dedicated plane for the tile's fold.
          T* const dre0 = cre + cpl * (static_cast<std::size_t>(nba) * plane);
          T* const dim0 = cim + cpl * (static_cast<std::size_t>(nba) * plane);
          ts.chunk_box[cpl] =
              accum_points(blk, b, ts.chunk_off[ck], ts.chunk_cnt[ck], dre0, dim0);
          chunks_left[k].fetch_sub(1, std::memory_order_release);
        }
      } else {
        // Split tile: fold its chunk planes into the worker scratch in
        // canonical (ascending) chunk order over the union of their
        // footprints, clear each chunk plane, then write back. The reduction
        // order is a pure function of the split, so the result is
        // bitwise-identical at every worker count.
        const std::uint32_t slot = ts.split_tile[i - ts.color_chunk0[k + 1]];
        wait_zero(chunks_left[k]);
        wait_earlier_colors();
        const std::uint32_t ck0 = ts.tile_chunk0[slot];
        const std::uint32_t ck1 = ts.tile_chunk0[slot + 1];
        TileBox box;
        for (std::uint32_t ck = ck0; ck < ck1; ++ck)
          box.merge(ts.chunk_box[ts.chunk_plane[ck]]);
        for (std::uint32_t ck = ck0; ck < ck1; ++ck) {
          const std::uint32_t cpl = ts.chunk_plane[ck];
          T* const pre = cre + cpl * (static_cast<std::size_t>(nba) * plane);
          T* const pim = cim + cpl * (static_cast<std::size_t>(nba) * plane);
          for_box_spans(p, box, box.hi[0], [&](std::size_t lo, std::size_t hi) {
            for (int bb = 0; bb < nb; ++bb) {
              T* CF_RESTRICT dre = sre0 + plane * bb;
              T* CF_RESTRICT dim0 = sim0 + plane * bb;
              const T* CF_RESTRICT qre = pre + plane * bb;
              const T* CF_RESTRICT qim = pim + plane * bb;
              for (std::size_t x = lo; x < hi; ++x) dre[x] += qre[x];
              for (std::size_t x = lo; x < hi; ++x) dim0[x] += qim[x];
            }
          });
          clear(ts.chunk_box[cpl], pre, pim);
        }
        blk.note_shared_op(static_cast<std::uint64_t>(ck1 - ck0) * box_rows(box) *
                           static_cast<std::uint64_t>(box.hi[0] - box.lo[0]) * nb);
        writeback(blk, ts.tile_bin[slot], box, sre0, sim0);
      }
      left[k].fetch_sub(1, std::memory_order_release);
    }
    moved.fetch_add(off_home, std::memory_order_relaxed);
  });
  return moved.load();
}

template <int DIM, typename T>
std::uint64_t spread_tiled_dim(vgpu::Device& dev, const GridSpec& grid,
                               const BinSpec& bins, const KernelParams<T>& kp,
                               const NuPoints<T>& pts, const std::complex<T>* c,
                               std::complex<T>* fw, const DeviceSort& sort,
                               TileSet<T>& ts, const TapTable<T>* taps, int B,
                               std::size_t cstride, std::size_t fwstride) {
  const bool has_taps = taps && !taps->empty();
  std::uint64_t steals = 0;
  for (int b0 = 0; b0 < B; b0 += ts.nb) {
    const int nb = std::min(ts.nb, B - b0);
    auto accum = [&](auto W, auto HasTaps) {
      steals += tiled_accumulate<DIM, decltype(W)::value, decltype(HasTaps)::value>(
          dev, grid, bins, kp, pts, c, fw, sort, ts, taps, b0, nb, cstride, fwstride);
    };
    const bool fast =
        kp.fast && (!has_taps || taps->wpad == pad_width(kp.w)) &&
        dispatch_width(kp.w, [&](auto W) {
          if (has_taps)
            accum(W, std::true_type{});
          else
            accum(W, std::false_type{});
        });
    if (!fast) {
      if (has_taps)
        accum(std::integral_constant<int, 0>{}, std::true_type{});
      else
        accum(std::integral_constant<int, 0>{}, std::false_type{});
    }
  }
  return steals;
}

}  // namespace

template <typename T>
std::uint64_t spread_tiled_batch(vgpu::Device& dev, const GridSpec& grid,
                                 const BinSpec& bins, const KernelParams<T>& kp,
                                 const NuPoints<T>& pts, const std::complex<T>* c,
                                 std::complex<T>* fw, const DeviceSort& sort,
                                 TileSet<T>& tiles, const TapTable<T>* taps, int B,
                                 std::size_t cstride, std::size_t fwstride) {
  if (!tiles.usable)
    throw std::invalid_argument("spread_tiled: TileSet not built for these points");
  if (pts.M == 0 || tiles.n_active == 0) return 0;
  B = std::max(1, B);
  std::uint64_t steals = 0;
  detail::dispatch_dim(
      grid.dim,
      [&] {
        steals = spread_tiled_dim<1>(dev, grid, bins, kp, pts, c, fw, sort, tiles,
                                     taps, B, cstride, fwstride);
      },
      [&] {
        steals = spread_tiled_dim<2>(dev, grid, bins, kp, pts, c, fw, sort, tiles,
                                     taps, B, cstride, fwstride);
      },
      [&] {
        steals = spread_tiled_dim<3>(dev, grid, bins, kp, pts, c, fw, sort, tiles,
                                     taps, B, cstride, fwstride);
      });
  return steals;
}

#define CF_INSTANTIATE(T)                                                               \
  template std::uint64_t spread_tiled_batch<T>(                                         \
      vgpu::Device&, const GridSpec&, const BinSpec&, const KernelParams<T>&,           \
      const NuPoints<T>&, const std::complex<T>*, std::complex<T>*,                     \
      const DeviceSort&, TileSet<T>&, const TapTable<T>*, int, std::size_t,             \
      std::size_t);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
