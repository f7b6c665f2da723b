#include "cpu/cpu_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::cpu {

namespace {

template <typename T>
spread::GridSpec make_grid(std::span<const std::int64_t> nmodes, double upsampfac, int w) {
  spread::GridSpec g;
  g.dim = static_cast<int>(nmodes.size());
  for (int d = 0; d < g.dim; ++d) {
    const auto lower =
        static_cast<std::int64_t>(std::ceil(upsampfac * double(nmodes[d])));
    g.nf[d] = static_cast<std::int64_t>(fft::next235(
        static_cast<std::size_t>(std::max<std::int64_t>(lower, 2 * w))));
  }
  return g;
}

template <typename T>
inline void atomic_add_cplx(std::complex<T>* p, std::complex<T> v) {
  T* f = reinterpret_cast<T*>(p);
  std::atomic_ref<T>(f[0]).fetch_add(v.real(), std::memory_order_relaxed);
  std::atomic_ref<T>(f[1]).fetch_add(v.imag(), std::memory_order_relaxed);
}

}  // namespace

template <typename T>
CpuPlan<T>::CpuPlan(ThreadPool& pool, int type, std::span<const std::int64_t> nmodes,
                    int iflag, double tol, Options opts)
    : pool_(&pool),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      opts_(opts),
      kp_(spread::KernelParams<T>::from_width(
          spread::width_from_tol(tol, opts.upsampfac), opts.upsampfac)) {
  if (type_ != 1 && type_ != 2) throw std::invalid_argument("CpuPlan: type must be 1 or 2");
  if (nmodes.empty() || nmodes.size() > 3)
    throw std::invalid_argument("CpuPlan: dim must be 1..3");
  if (opts_.upsampfac != 2.0 && opts_.upsampfac != 1.25)
    throw std::invalid_argument("CpuPlan: upsampfac must be 2.0 or 1.25");
  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];
  grid_ = make_grid<T>(nmodes, opts_.upsampfac, kp_.w);
  if (opts_.kerevalmeth == 1)
    spread::horner_cache<T>(kp_.w, opts_.upsampfac).attach(kp_);
  // Halo-proportioned tiles for the tiled spread, as in the device Plan.
  bins_ = spread::spread_bins(grid_, opts_.binsize, opts_.tiled_spread && type_ == 1, kp_.w);

  std::vector<std::size_t> dims;
  for (int d = 0; d < grid_.dim; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(*pool_, dims);
  fw_.resize(static_cast<std::size_t>(std::max(1, opts_.ntransf)) *
             static_cast<std::size_t>(grid_.total()));

  const T beta = kp_.beta;
  auto kernel = [beta](double z) { return double(spread::es_eval(T(z), beta)); };
  for (int d = 0; d < grid_.dim; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(N_[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), kp_.w,
                                        kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = grid_.dim; d < 3; ++d) fser_[d].assign(1, T(1));
}

template <typename T>
void CpuPlan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  std::lock_guard lk(mu_);  // a shared plan may be re-pointed while others wait
  Timer t;
  M_ = M;
  const int dim = grid_.dim;
  xg_.resize(M);
  if (dim >= 2) yg_.resize(M);
  if (dim >= 3) zg_.resize(M);
  pool_->parallel_for(0, M, [&](std::size_t j, std::size_t) {
    xg_[j] = spread::fold_rescale(x[j], grid_.nf[0]);
    if (dim >= 2) yg_[j] = spread::fold_rescale(y[j], grid_.nf[1]);
    if (dim >= 3) zg_[j] = spread::fold_rescale(z[j], grid_.nf[2]);
  }, 1024);

  // Counting sort by bin (parallel histogram with atomics, serial scan).
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());
  std::vector<std::uint32_t> binidx(M);
  std::vector<std::uint32_t> counts(nbins, 0);
  pool_->parallel_for(0, M, [&](std::size_t j, std::size_t) {
    std::int64_t b[3] = {0, 0, 0};
    const T* coords[3] = {xg_.data(), yg_.data(), zg_.data()};
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l = static_cast<std::int64_t>(coords[d][j]);
      b[d] = std::min<std::int64_t>(l / bins_.m[d], bins_.nbins[d] - 1);
    }
    const auto bi = static_cast<std::uint32_t>(
        b[0] + bins_.nbins[0] * (b[1] + bins_.nbins[1] * b[2]));
    binidx[j] = bi;
    std::atomic_ref<std::uint32_t>(counts[bi]).fetch_add(1, std::memory_order_relaxed);
  }, 1024);
  bin_start_.assign(nbins + 1, 0);
  for (std::size_t i = 0; i < nbins; ++i) bin_start_[i + 1] = bin_start_[i] + counts[i];
  order_.resize(M);
  // Serial stable scatter: points within a bin keep their original index
  // order regardless of pool size, so the tiled spread merge (and any other
  // bin-ordered accumulation) is bitwise-deterministic. The comparator's
  // sort is not a hot path; determinism is worth the serial pass.
  std::vector<std::uint32_t> cursors(bin_start_.begin(), bin_start_.end() - 1);
  for (std::size_t j = 0; j < M; ++j)
    order_[cursors[binidx[j]]++] = static_cast<std::uint32_t>(j);
  build_tile_cache();
  bd_ = CpuBreakdown{};
  bd_.sort = t.seconds();
}

// Set_points-time half of the tile-owned spread (the setpts-amortization
// contract: nothing point-dependent is rebuilt per execute): the geometry
// gate — same as the device engine's (padded extent <= nf per axis, so a
// tile's writeback covers each cell at most once) — plus the active bins
// grouped by tile colour (spread_impl.hpp), the canonical chunk split, and
// the per-worker scratch.
template <typename T>
void CpuPlan<T>::build_tile_cache() {
  tile_ok_ = false;
  tile_active_.clear();
  color_chunk0_.clear();
  color_split0_.clear();
  tile_scratch_.clear();
  tile_chunk0_.clear();
  chunk_tile_.clear();
  chunk_off_.clear();
  chunk_cnt_.clear();
  chunk_plane_.clear();
  chunk_sched_.clear();
  split_tile_.clear();
  chunk_arena_.clear();
  chunk_box_.clear();
  if (!opts_.tiled_spread || type_ != 1) return;  // spread-only machinery
  if (!spread::tile_fits(grid_, bins_, kp_.w)) return;
  const int pad = (kp_.w + 1) / 2;
  std::size_t padded = 1;
  for (int d = 0; d < grid_.dim; ++d)
    padded *= static_cast<std::size_t>(bins_.m[d] + 2 * pad);
  // Tile colours (the device build_tile_set's), active bins grouped by
  // colour in ascending bin order.
  std::vector<std::uint32_t> color;
  std::vector<std::vector<std::uint32_t>> by_color(
      spread::detail::tile_colors(grid_, bins_, pad, color));
  const std::size_t nbins = color.size();
  for (std::size_t b = 0; b < nbins; ++b)
    if (bin_start_[b + 1] > bin_start_[b])
      by_color[color[b]].push_back(static_cast<std::uint32_t>(b));

  // Canonical chunk split (the CPU mirror of build_tile_set's): cap
  // resolution, balanced per-bin cuts, and the largest-first schedule are all
  // pure functions of the points — never of the pool size — so the summation
  // split (and with it the output bits) is identical at every pool size.
  std::uint32_t cap;
  int req = opts_.tile_chunk_cap;
  if (req == 0) req = spread::env_tile_chunk_cap();
  if (req < 0) {
    cap = 0xffffffffu;
  } else if (req > 0) {
    cap = static_cast<std::uint32_t>(req);
  } else {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    cap = static_cast<std::uint32_t>(std::max<std::size_t>(
        spread::kTileChunkMin, (M_ + 4 * hw - 1) / (4 * hw)));
  }
  // Split-chunk planes live in a separate budget; double the cap until the
  // split fits (terminates: cap = UINT32_MAX means no splits at all).
  std::size_t nsplitch = 0;
  for (;;) {
    nsplitch = 0;
    for (std::size_t b = 0; b < nbins; ++b) {
      const std::uint32_t cnt = bin_start_[b + 1] - bin_start_[b];
      if (cnt > cap) nsplitch += (cnt + cap - 1) / cap;
    }
    if (cap == 0xffffffffu ||
        nsplitch * padded * sizeof(cplx) <= spread::kTileChunkArenaMaxBytes)
      break;
    cap = cap > 0x7fffffffu ? 0xffffffffu : cap * 2;
  }
  chunk_cap_ = cap;
  std::uint32_t plane_id = 0;
  for (const auto& tiles : by_color) {
    const std::size_t ck0 = chunk_tile_.size();
    color_chunk0_.push_back(static_cast<std::uint32_t>(ck0));
    color_split0_.push_back(static_cast<std::uint32_t>(split_tile_.size()));
    for (const std::uint32_t b : tiles) {
      const auto ai = static_cast<std::uint32_t>(tile_active_.size());
      tile_active_.push_back(b);
      tile_chunk0_.push_back(static_cast<std::uint32_t>(chunk_tile_.size()));
      const std::uint32_t cnt = bin_start_[b + 1] - bin_start_[b];
      const std::uint32_t k = cnt > cap ? (cnt + cap - 1) / cap : 1;
      const std::uint32_t base = cnt / k, rem = cnt % k;
      std::uint32_t off = 0;
      for (std::uint32_t i = 0; i < k; ++i) {
        chunk_sched_.push_back(static_cast<std::uint32_t>(chunk_tile_.size()));
        chunk_tile_.push_back(ai);
        chunk_off_.push_back(off);
        const std::uint32_t sz = base + (i < rem ? 1 : 0);
        chunk_cnt_.push_back(sz);
        chunk_plane_.push_back(k > 1 ? plane_id++ : 0xffffffffu);
        off += sz;
      }
      if (k > 1) split_tile_.push_back(ai);
    }
    std::stable_sort(chunk_sched_.begin() + static_cast<std::ptrdiff_t>(ck0),
                     chunk_sched_.end(), [&](std::uint32_t a, std::uint32_t b) {
                       return chunk_cnt_[a] > chunk_cnt_[b];
                     });
  }
  color_chunk0_.push_back(static_cast<std::uint32_t>(chunk_tile_.size()));
  color_split0_.push_back(static_cast<std::uint32_t>(split_tile_.size()));
  tile_chunk0_.push_back(static_cast<std::uint32_t>(chunk_tile_.size()));
  // Batch planes held at once, bounded like the device engine's (worker
  // scratch + chunk planes under the chunk budget, at least one).
  const std::size_t per_plane = (pool_->size() + plane_id) * padded * sizeof(cplx);
  tile_nb_ = static_cast<int>(
      std::min(static_cast<std::size_t>(std::max(1, opts_.ntransf)),
               std::max<std::size_t>(1, spread::kTileChunkArenaMaxBytes / per_plane)));
  tile_scratch_.resize(pool_->size() * padded * static_cast<std::size_t>(tile_nb_));
  chunk_arena_.resize(static_cast<std::size_t>(plane_id) * padded *
                      static_cast<std::size_t>(tile_nb_));
  chunk_box_.resize(plane_id);
  tile_ok_ = true;
}

// Spread sorted points in subproblem chunks: each chunk targets one bin (or a
// slice of one), accumulates into a worker-local padded-bin buffer (B stacked
// planes), then merges into the fine grid with atomic adds (FINUFFT's
// parallel strategy). Kernel weights are evaluated once per point and applied
// to all B vectors; the point loops run through the same compile-time width
// dispatch as the device kernels (W = 0 is the runtime-width fallback).
template <typename T>
void CpuPlan<T>::spread_sorted(const cplx* c, int B) {
  const int dim = grid_.dim;
  const int w = kp_.w;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < dim; ++d) p[d] = bins_.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());

  // Build the chunk list: (bin, offset) pairs capped at msub points.
  struct Chunk {
    std::uint32_t bin, off;
  };
  std::vector<Chunk> chunks;
  for (std::size_t b = 0; b < nbins; ++b) {
    const std::uint32_t cnt = bin_start_[b + 1] - bin_start_[b];
    for (std::uint32_t off = 0; off < cnt; off += opts_.msub)
      chunks.push_back({static_cast<std::uint32_t>(b), off});
  }

  std::vector<std::vector<cplx>> local(pool_->size());
  auto run = [&](auto WC) {
    // WC::value > 0: compile-time width (tap loops fully unroll); 0: runtime.
    constexpr int W = decltype(WC)::value;
    pool_->parallel_for(0, chunks.size(), [&](std::size_t ci, std::size_t wid) {
      const int wl = W > 0 ? W : kp_.w;
      auto& buf = local[wid];
      buf.assign(padded * B, cplx(0, 0));
      const auto [b, off] = chunks[ci];
      const std::uint32_t cnt =
          std::min(opts_.msub, bin_start_[b + 1] - bin_start_[b] - off);
      std::int64_t delta[3];
      spread::detail::subprob_delta(bins_, b, dim, pad, delta);

      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::size_t j = order_[bin_start_[b] + off + i];
        T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
        T vals[3][spread::kMaxWidth];
        std::int64_t li0[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) {
          if constexpr (W > 0)
            li0[d] = spread::es_values_fixed<W>(kp_, px[d], vals[d]) - delta[d];
          else
            li0[d] = spread::es_values(kp_, px[d], vals[d]) - delta[d];
        }
        for (int bb = 0; bb < B; ++bb) {
          const cplx cj = c[bb * M_ + j];
          cplx* bufb = buf.data() + padded * bb;
          if (dim == 1) {
            for (int i0 = 0; i0 < wl; ++i0) bufb[li0[0] + i0] += cj * vals[0][i0];
          } else if (dim == 2) {
            for (int i1 = 0; i1 < wl; ++i1) {
              const cplx c1 = cj * vals[1][i1];
              const std::int64_t row = (li0[1] + i1) * p[0];
              for (int i0 = 0; i0 < wl; ++i0) bufb[row + li0[0] + i0] += c1 * vals[0][i0];
            }
          } else {
            for (int i2 = 0; i2 < wl; ++i2) {
              const cplx c2 = cj * vals[2][i2];
              for (int i1 = 0; i1 < wl; ++i1) {
                const cplx c1 = c2 * vals[1][i1];
                const std::int64_t row = ((li0[2] + i2) * p[1] + li0[1] + i1) * p[0];
                for (int i0 = 0; i0 < wl; ++i0)
                  bufb[row + li0[0] + i0] += c1 * vals[0][i0];
              }
            }
          }
        }
      }
      // Merge into the fine grid, wrap resolved once per contiguous row run
      // (the same for_padded_rows helper as the device SM writeback).
      const std::size_t nrows = padded / static_cast<std::size_t>(p[0]);
      auto merge_rows = [&](auto DC) {
        constexpr int DIM = decltype(DC)::value;
        spread::detail::for_padded_rows<DIM, T>(
            grid_, p, delta, 0, nrows,
            [&](std::size_t src, std::int64_t dst, std::int64_t run) {
              for (int bb = 0; bb < B; ++bb) {
                const cplx* bufb = buf.data() + padded * bb;
                cplx* fwb = fw_.data() + ftot * bb;
                for (std::int64_t i = 0; i < run; ++i) {
                  const cplx v = bufb[src + i];
                  if (v == cplx(0, 0)) continue;
                  atomic_add_cplx(&fwb[dst + i], v);
                }
              }
            });
      };
      spread::detail::dispatch_dim(
          dim, [&] { merge_rows(std::integral_constant<int, 1>{}); },
          [&] { merge_rows(std::integral_constant<int, 2>{}); },
          [&] { merge_rows(std::integral_constant<int, 3>{}); });
    });
  };
  if (!spread::detail::dispatch_width(kp_.w, run)) run(std::integral_constant<int, 0>{});
}

// Tile-owned spread (the CPU mirror of spread_tiled.cpp): each active bin's
// points are accumulated into a per-worker padded buffer in sorted order and
// their footprint (the box their taps reach) is added to the fine grid with
// plain stores, then cleared — tiles of one colour never share a cell, and
// the colours are written back in a fixed order, so there are no atomics and
// the result is bitwise-identical at every pool size (the sort is stable and
// serial). Buffers start zero and every reader clears what it consumed.
// All point-dependent setup (gate, colours, chunk split) comes from the
// set_points-time tile cache.
template <typename T>
void CpuPlan<T>::spread_tiled(const cplx* c, int B) {
  namespace sd = spread::detail;
  const int dim = grid_.dim;
  const int w = kp_.w;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < dim; ++d) p[d] = bins_.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const std::size_t slot = padded * static_cast<std::size_t>(tile_nb_);
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  const auto& active = tile_active_;

  // The batch runs in chunks of tile_nb_ planes (like the device engine),
  // every colour round per chunk.
  for (int b0 = 0; b0 < B; b0 += tile_nb_) {
  const int nb = std::min(tile_nb_, B - b0);

  // Per-tile helpers, shared by the chunk accumulation and the split-tile
  // reduce: accumulate a canonical slice [first, first+cnt) of bin b's sorted
  // run into `buf` and return its footprint, add a finished tile's footprint
  // to the fine grid, and clear a footprint.
  auto accum = [&](std::uint32_t b, std::uint32_t first, std::uint32_t cnt,
                   cplx* buf) {
    std::int64_t delta[3];
    sd::subprob_delta(bins_, b, dim, pad, delta);
    spread::TileBox box;
    for (int d = dim; d < 3; ++d) {
      box.lo[d] = 0;
      box.hi[d] = 1;
    }
    auto run = [&](auto WC) {
      constexpr int W = decltype(WC)::value;
      const int wl = W > 0 ? W : kp_.w;
      for (std::uint32_t i = 0; i < cnt; ++i) {
        const std::size_t j = order_[bin_start_[b] + first + i];
        T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
        T vals[3][spread::kMaxWidth];
        std::int64_t li0[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) {
          if constexpr (W > 0)
            li0[d] = spread::es_values_fixed<W>(kp_, px[d], vals[d]) - delta[d];
          else
            li0[d] = spread::es_values(kp_, px[d], vals[d]) - delta[d];
          box.lo[d] = std::min(box.lo[d], li0[d]);
          box.hi[d] = std::max(box.hi[d], li0[d] + wl);
        }
        for (int bb = 0; bb < nb; ++bb) {
          const cplx cj = c[(b0 + bb) * M_ + j];
          cplx* bufb = buf + padded * bb;
          if (dim == 1) {
            for (int i0 = 0; i0 < wl; ++i0) bufb[li0[0] + i0] += cj * vals[0][i0];
          } else if (dim == 2) {
            for (int i1 = 0; i1 < wl; ++i1) {
              const cplx c1 = cj * vals[1][i1];
              const std::int64_t row = (li0[1] + i1) * p[0];
              for (int i0 = 0; i0 < wl; ++i0) bufb[row + li0[0] + i0] += c1 * vals[0][i0];
            }
          } else {
            for (int i2 = 0; i2 < wl; ++i2) {
              const cplx c2 = cj * vals[2][i2];
              for (int i1 = 0; i1 < wl; ++i1) {
                const cplx c1 = c2 * vals[1][i1];
                const std::int64_t row = ((li0[2] + i2) * p[1] + li0[1] + i1) * p[0];
                for (int i0 = 0; i0 < wl; ++i0)
                  bufb[row + li0[0] + i0] += c1 * vals[0][i0];
              }
            }
          }
        }
      }
    };
    if (!sd::dispatch_width(kp_.w, run)) run(std::integral_constant<int, 0>{});
    box.xend = box.hi[0];
    return box;
  };
  auto clear = [&](const spread::TileBox& box, cplx* buf) {
    sd::for_box_spans(p, box, box.xend, [&](std::size_t lo, std::size_t hi) {
      for (int bb = 0; bb < nb; ++bb)
        std::fill(buf + padded * bb + lo, buf + padded * bb + hi, cplx(0, 0));
    });
  };
  // Footprint writeback: plain accumulating stores (one colour, one writer
  // per cell), wrap resolved once per contiguous row run; then clear.
  auto writeback = [&](std::uint32_t b, const spread::TileBox& box, cplx* buf) {
    std::int64_t delta[3];
    sd::subprob_delta(bins_, b, dim, pad, delta);
    auto rows = [&](auto DC) {
      sd::for_box_rows<decltype(DC)::value, T>(
          grid_, p, delta, box, 0, sd::box_rows(box),
          [&](std::size_t src, std::int64_t dst, std::int64_t run) {
            for (int bb = 0; bb < nb; ++bb) {
              const cplx* bufb = buf + padded * bb + src;
              cplx* fwb = fw_.data() + ftot * (b0 + bb) + dst;
              for (std::int64_t i = 0; i < run; ++i) fwb[i] += bufb[i];
            }
          });
    };
    sd::dispatch_dim(
        dim, [&] { rows(std::integral_constant<int, 1>{}); },
        [&] { rows(std::integral_constant<int, 2>{}); },
        [&] { rows(std::integral_constant<int, 3>{}); });
    clear(box, buf);
  };

  // One pool pass runs every colour round (the device engine's schedule):
  // each worker claims items in colour-major order from a shared counter —
  // colour k's (tile, chunk) items largest-first, then its split-tile folds —
  // accumulating at once but writing back only after every earlier colour
  // has finished, and folding only after the colour's split chunks have
  // accumulated. Waits target items earlier in the claim order only, all of
  // them held by running workers, so they cannot deadlock.
  const std::size_t ncol = color_chunk0_.size() - 1;
  const auto nitems = static_cast<std::uint32_t>(chunk_tile_.size() + split_tile_.size());
  std::vector<std::atomic<std::uint32_t>> left(ncol), chunks_left(ncol);
  for (std::size_t k = 0; k < ncol; ++k) {
    std::uint32_t nsplit = 0;
    for (std::uint32_t ck = color_chunk0_[k]; ck < color_chunk0_[k + 1]; ++ck)
      nsplit += chunk_plane_[ck] != 0xffffffffu;
    chunks_left[k].store(nsplit);
    left[k].store(color_chunk0_[k + 1] - color_chunk0_[k] + color_split0_[k + 1] -
                  color_split0_[k]);
  }
  auto wait_zero = [](const std::atomic<std::uint32_t>& n) {
    while (n.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  };
  std::atomic<std::uint32_t> next{0};
  pool_->parallel_for(0, std::min<std::size_t>(pool_->size(), nitems),
                      [&](std::size_t, std::size_t wid) {
    cplx* const scratch = tile_scratch_.data() + wid * slot;
    std::size_t k = 0, done_colors = 0;
    auto wait_earlier_colors = [&] {
      for (; done_colors < k; ++done_colors) wait_zero(left[done_colors]);
    };
    for (;;) {
      const std::uint32_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= nitems) break;
      while (i >= color_chunk0_[k + 1] + color_split0_[k + 1]) ++k;
      const std::uint32_t first_fold = color_chunk0_[k + 1] + color_split0_[k];
      if (i < first_fold) {
        const std::uint32_t ck = chunk_sched_[i - color_split0_[k]];
        const std::uint32_t b = active[chunk_tile_[ck]];
        if (chunk_plane_[ck] == 0xffffffffu) {
          const auto box = accum(b, 0, bin_start_[b + 1] - bin_start_[b], scratch);
          wait_earlier_colors();
          writeback(b, box, scratch);
        } else {
          cplx* buf = chunk_arena_.data() + chunk_plane_[ck] * slot;
          chunk_box_[chunk_plane_[ck]] = accum(b, chunk_off_[ck], chunk_cnt_[ck], buf);
          chunks_left[k].fetch_sub(1, std::memory_order_release);
        }
      } else {
        // Split tile: fold its chunk planes in ascending chunk order over the
        // union of their footprints, clearing each as it is consumed.
        const std::uint32_t ai = split_tile_[i - color_chunk0_[k + 1]];
        wait_zero(chunks_left[k]);
        wait_earlier_colors();
        spread::TileBox box;
        for (std::uint32_t ck = tile_chunk0_[ai]; ck < tile_chunk0_[ai + 1]; ++ck)
          box.merge(chunk_box_[chunk_plane_[ck]]);
        for (std::uint32_t ck = tile_chunk0_[ai]; ck < tile_chunk0_[ai + 1]; ++ck) {
          cplx* src = chunk_arena_.data() + chunk_plane_[ck] * slot;
          sd::for_box_spans(p, box, box.hi[0], [&](std::size_t lo, std::size_t hi) {
            for (int bb = 0; bb < nb; ++bb)
              for (std::size_t x = lo; x < hi; ++x)
                scratch[padded * bb + x] += src[padded * bb + x];
          });
          clear(chunk_box_[chunk_plane_[ck]], src);
        }
        writeback(active[ai], box, scratch);
      }
      left[k].fetch_sub(1, std::memory_order_release);
    }
  }, 1);
  }  // batch chunk
}

template <typename T>
void CpuPlan<T>::interp_sorted(cplx* c, int B) {
  const int dim = grid_.dim;
  const int w = kp_.w;
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  pool_->parallel_for(0, M_, [&](std::size_t jj, std::size_t) {
    const std::size_t j = order_.empty() ? jj : order_[jj];
    T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
    T vals[3][spread::kMaxWidth];
    std::int64_t idx[3][spread::kMaxWidth];
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l0 = spread::es_values(kp_, px[d], vals[d]);
      for (int i = 0; i < w; ++i) idx[d][i] = spread::wrap_index(l0 + i, grid_.nf[d]);
    }
    for (int bb = 0; bb < B; ++bb) {
      const cplx* fwb = fw_.data() + ftot * bb;
      cplx acc(0, 0);
      if (dim == 1) {
        for (int i0 = 0; i0 < w; ++i0) acc += fwb[idx[0][i0]] * vals[0][i0];
      } else if (dim == 2) {
        for (int i1 = 0; i1 < w; ++i1) {
          const std::int64_t row = idx[1][i1] * grid_.nf[0];
          cplx rowacc(0, 0);
          for (int i0 = 0; i0 < w; ++i0) rowacc += fwb[row + idx[0][i0]] * vals[0][i0];
          acc += rowacc * vals[1][i1];
        }
      } else {
        for (int i2 = 0; i2 < w; ++i2) {
          cplx planeacc(0, 0);
          for (int i1 = 0; i1 < w; ++i1) {
            const std::int64_t row = (idx[2][i2] * grid_.nf[1] + idx[1][i1]) * grid_.nf[0];
            cplx rowacc(0, 0);
            for (int i0 = 0; i0 < w; ++i0) rowacc += fwb[row + idx[0][i0]] * vals[0][i0];
            planeacc += rowacc * vals[1][i1];
          }
          acc += planeacc * vals[2][i2];
        }
      }
      c[bb * M_ + j] = acc;
    }
  }, 64);
}

template <typename T>
void CpuPlan<T>::deconvolve_type1(cplx* f, int B) {
  const auto& N = N_;
  const auto& nf = grid_.nf;
  const int mo = opts_.modeord;
  const std::int64_t ntot = modes_total();
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  pool_->parallel_for(0, static_cast<std::size_t>(ntot), [&](std::size_t i, std::size_t) {
    const std::int64_t i0 = static_cast<std::int64_t>(i) % N[0];
    const std::int64_t i1 = (static_cast<std::int64_t>(i) / N[0]) % N[1];
    const std::int64_t i2 = static_cast<std::int64_t>(i) / (N[0] * N[1]);
    const std::int64_t k0 = spread::index_to_mode(i0, N[0], mo);
    const std::int64_t k1 = spread::index_to_mode(i1, N[1], mo);
    const std::int64_t k2 = spread::index_to_mode(i2, N[2], mo);
    const std::int64_t g0 = spread::wrap_index(k0, nf[0]);
    const std::int64_t g1 = spread::wrap_index(k1, nf[1]);
    const std::int64_t g2 = spread::wrap_index(k2, nf[2]);
    const T p =
        fser_[0][k0 + N[0] / 2] * fser_[1][k1 + N[1] / 2] * fser_[2][k2 + N[2] / 2];
    const std::size_t lin =
        static_cast<std::size_t>(g0 + nf[0] * (g1 + nf[1] * g2));
    for (int b = 0; b < B; ++b)
      f[b * static_cast<std::size_t>(ntot) + i] = fw_[ftot * b + lin] * p;
  }, 1024);
}

template <typename T>
CpuBreakdown CpuPlan<T>::execute(cplx* c, cplx* f, int B) {
  std::lock_guard lk(mu_);  // shared plans serialize; each caller snapshots
  if (B <= 0) B = std::max(1, opts_.ntransf);
  if (M_ == 0) {
    if (type_ == 1)
      for (std::int64_t i = 0; i < B * modes_total(); ++i) f[i] = cplx(0, 0);
    return bd_;
  }
  CpuBreakdown bd = bd_;  // per-execute snapshot over the set_points-era sort
  bd.spread = bd.fft = bd.deconvolve = bd.interp = 0;
  // One stage pipeline for every batch size, mirroring the device library; a
  // coalesced batch beyond the constructed ntransf grows the stack once.
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  if (static_cast<std::size_t>(B) * ftot > fw_.size())
    fw_.resize(static_cast<std::size_t>(B) * ftot);
  Timer t;
  if (type_ == 1) {
    std::fill(fw_.begin(), fw_.begin() + static_cast<std::ptrdiff_t>(B * ftot),
              cplx(0, 0));
    if (tile_ok_)
      spread_tiled(c, B);
    else
      spread_sorted(c, B);
    bd.spread = t.seconds();
    t.reset();
    fft_->exec_batch(fw_.data(), static_cast<std::size_t>(B), ftot, iflag_);
    bd.fft = t.seconds();
    t.reset();
    deconvolve_type1(f, B);
    bd.deconvolve = t.seconds();
  } else {
    // Fused amplify + FFT, sharing the row producer with the device library.
    fft_->exec_batch_fused(
        fw_.data(), static_cast<std::size_t>(B), ftot, iflag_,
        [&](cplx* row, std::size_t line, std::size_t b) {
          return spread::amplify_fine_row(
              row, line, f + b * static_cast<std::size_t>(modes_total()), grid_.dim,
              N_, grid_.nf, fser_, opts_.modeord);
        });
    bd.fft = t.seconds();
    t.reset();
    interp_sorted(c, B);
    bd.interp = t.seconds();
  }
  bd_ = bd;
  return bd;
}

template class CpuPlan<float>;
template class CpuPlan<double>;

}  // namespace cf::cpu
