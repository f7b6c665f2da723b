// SM spreading (paper Sec. III-A, Fig. 1): one thread block per subproblem,
// accumulation into a padded-bin shared-memory copy, then one pass of global
// atomic adds with the periodic wrap resolved per row run.
//
// Per-point tap values come from a TapTable (point_cache.hpp) built in
// bin-sorted order — by the plan once per set_points, or transiently by the
// table-less convenience overload — so execute-time work is pure
// accumulation: no exp/sqrt/Horner evaluation per point per call. The batch
// is processed in chunks of as many padded-bin planes as fit the
// shared-memory arena; B = 1 (the single-vector entry point) is one chunk of
// one plane.
#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::spread {

namespace {

using namespace detail;

template <int DIM, int W, typename T>
void spread_sm_batch_fast(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                          const KernelParams<T>& kp, const NuPoints<T>& pts,
                          const std::complex<T>* c, std::complex<T>* fw,
                          const DeviceSort& sort, const SubprobSetup& subs,
                          std::uint32_t msub, const TapTable<T>& tt, int B,
                          std::size_t cstride, std::size_t fwstride) {
  constexpr int pad = (W + 1) / 2;
  constexpr int WP = pad_width(W);       // x-tap loops run the full padded width
  constexpr std::size_t slack = WP - W;  // rows may overhang by this many lanes
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < DIM; ++d) p[d] = bins.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const std::size_t plane = padded + slack;  // per-batch-plane scratch stride
  // Planes held at once: as many deinterleaved padded bins as the arena
  // holds. The batch chunks loop INSIDE each subproblem block, so a
  // subproblem's tap-table slice is streamed from global memory once and hit
  // in cache by the remaining chunks.
  const int nbmax = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(B),
      std::max<std::size_t>(1, dev.props.shared_mem_per_block / (2 * plane * sizeof(T)))));

  dev.launch(subs.nsubprob, 128, [&, padded, plane, nbmax](vgpu::BlockCtx& blk) {
    const std::uint32_t k = blk.block_id;
    const std::uint32_t b = subs.subprob_bin[k];
    const std::uint32_t off = subs.subprob_offset[k];
    const std::uint32_t cnt = std::min(msub, sort.bin_counts[b] - off);
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);
    const std::uint32_t start = sort.bin_start[b] + off;
    const std::size_t nrows = padded / static_cast<std::size_t>(p[0]);

    // Deinterleaved padded-bin scratch: same byte budget as the complex
    // arena (plus the tap-pad slack), but the accumulation loops see two
    // contiguous T streams. The x-loops below write WP lanes per row; the
    // lanes past W carry exact-zero kernel values, so the overhang into the
    // next row (or the slack after the last one) adds nothing.
    auto smre = blk.shared<T>(plane * nbmax);
    auto smim = blk.shared<T>(plane * nbmax);
    for (int b0 = 0; b0 < B; b0 += nbmax) {
      const int nb = std::min(nbmax, B - b0);
      blk.for_each_thread([&](unsigned t) {
        const auto [lo, hi] = thread_chunk(plane * nb, t, blk.nthreads);
        for (std::size_t i = lo; i < hi; ++i) smre[i] = T(0);
        for (std::size_t i = lo; i < hi; ++i) smim[i] = T(0);
      });
      blk.sync_threads();

      blk.for_each_thread([&](unsigned t) {
        const auto [lo, hi] = thread_chunk(cnt, t, blk.nthreads);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t j = sort.order[start + i];
          if (i + kPointPrefetch < cnt) {
            // The strength reads go through the sort permutation — random
            // access into every active c plane; prefetch them ahead.
            const std::size_t jn = sort.order[start + i + kPointPrefetch];
            for (int bb = 0; bb < nb; ++bb)
              CF_PREFETCH(&c[(b0 + bb) * cstride + jn], 0);
          }
          const T* row = &tt.vals[(start + i) * static_cast<std::size_t>(DIM * WP)];
          const std::int32_t* lrow = &tt.l0[(start + i) * DIM];
          // Stage the tap row into stack arrays: the accumulation loops then
          // compile exactly like the inline-evaluation kernel's (the
          // in-memory operands otherwise defeat the vectorizer).
          T v0[WP], v1[DIM > 1 ? W : 1], v2[DIM > 2 ? W : 1];
          for (int i0 = 0; i0 < WP; ++i0) v0[i0] = row[i0];
          if constexpr (DIM > 1)
            for (int i1 = 0; i1 < W; ++i1) v1[i1] = row[WP + i1];
          if constexpr (DIM > 2)
            for (int i2 = 0; i2 < W; ++i2) v2[i2] = row[2 * WP + i2];
          std::int64_t li0[DIM];
          for (int d = 0; d < DIM; ++d) li0[d] = lrow[d] - delta[d];
          for (int bb = 0; bb < nb; ++bb) {
            CF_SCALAR_LOOP();  // plane loop stays scalar; tap loops vectorize
            const std::complex<T> cj = c[(b0 + bb) * cstride + j];
            const T cr = cj.real(), ci = cj.imag();
            T* CF_RESTRICT sre = &smre[plane * bb];
            T* CF_RESTRICT sim = &smim[plane * bb];
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
          blk.note_shared_op(static_cast<std::uint64_t>(nb) * W * (DIM > 1 ? W : 1) *
                             (DIM > 2 ? W : 1));
        }
      });
      blk.sync_threads();

      // Step 3 writeback, row-run structured: contiguous global atomic adds
      // with the periodic wrap resolved once per run. Untouched scratch cells
      // (exact zeros) are skipped — they cannot change fw.
      blk.for_each_thread([&](unsigned t) {
        const auto [lo, hi] = thread_chunk(nrows, t, blk.nthreads);
        for (int bb = 0; bb < nb; ++bb) {
          std::complex<T>* fwb = fw + (b0 + bb) * fwstride;
          const T* sre = &smre[plane * bb];
          const T* sim = &smim[plane * bb];
          for_padded_rows<DIM, T>(
              grid, p, delta, lo, hi,
              [&](std::size_t src, std::int64_t dst, std::int64_t run) {
                for (std::int64_t i = 0; i < run; ++i) {
                  const T re = sre[src + i], im = sim[src + i];
                  if (re != T(0) || im != T(0))
                    blk.atomic_add(&fwb[dst + i], std::complex<T>(re, im));
                }
              });
        }
      });
      blk.sync_threads();
    }
  });
}

template <int DIM, typename T>
void spread_sm_batch_impl(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                          const KernelParams<T>& kp, const NuPoints<T>& pts,
                          const std::complex<T>* c, std::complex<T>* fw,
                          const DeviceSort& sort, const SubprobSetup& subs,
                          std::uint32_t msub, const TapTable<T>& tt, int B,
                          std::size_t cstride, std::size_t fwstride) {
  const int w = kp.w;
  const int wpad = tt.wpad;
  const int pad = (w + 1) / 2;
  std::int64_t p[3] = {1, 1, 1};
  for (int d = 0; d < DIM; ++d) p[d] = bins.m[d] + 2 * pad;
  const std::size_t padded = static_cast<std::size_t>(p[0] * p[1] * p[2]);
  const int nbmax = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(B),
      std::max<std::size_t>(
          1, dev.props.shared_mem_per_block / (padded * sizeof(std::complex<T>)))));

  dev.launch(subs.nsubprob, 128, [&, w, wpad, pad, padded, nbmax](vgpu::BlockCtx& blk) {
    const std::uint32_t k = blk.block_id;
    const std::uint32_t b = subs.subprob_bin[k];
    const std::uint32_t off = subs.subprob_offset[k];
    const std::uint32_t cnt = std::min(msub, sort.bin_counts[b] - off);
    std::int64_t delta[3];
    subprob_delta(bins, b, DIM, pad, delta);
    const std::uint32_t start = sort.bin_start[b] + off;

    // Batch chunks loop inside the block (see the fast variant): one
    // tap-table stream per subproblem, not one per chunk.
    auto sm = blk.shared<std::complex<T>>(padded * nbmax);
    for (int b0 = 0; b0 < B; b0 += nbmax) {
      const int nb = std::min(nbmax, B - b0);
      blk.for_each_thread([&](unsigned t) {
        for (std::size_t i = t; i < padded * nb; i += blk.nthreads)
          sm[i] = std::complex<T>(0, 0);
      });
      blk.sync_threads();

      blk.for_each_thread([&](unsigned t) {
        for (std::uint32_t i = t; i < cnt; i += blk.nthreads) {
          const std::size_t j = sort.order[start + i];
          if (i + kPointPrefetch < cnt) {
            const std::size_t jn = sort.order[start + i + kPointPrefetch];
            for (int bb = 0; bb < nb; ++bb)
              CF_PREFETCH(&c[(b0 + bb) * cstride + jn], 0);
          }
          const T* row = &tt.vals[(start + i) * static_cast<std::size_t>(DIM * wpad)];
          const std::int32_t* lrow = &tt.l0[(start + i) * DIM];
          std::int64_t li0[DIM];
          for (int d = 0; d < DIM; ++d) li0[d] = lrow[d] - delta[d];
          for (int bb = 0; bb < nb; ++bb) {
            const std::complex<T> cj = c[(b0 + bb) * cstride + j];
            std::complex<T>* smb = &sm[padded * bb];
            if constexpr (DIM == 1) {
              for (int i0 = 0; i0 < w; ++i0) smb[li0[0] + i0] += cj * row[i0];
            } else if constexpr (DIM == 2) {
              for (int i1 = 0; i1 < w; ++i1) {
                const std::complex<T> c1 = cj * row[wpad + i1];
                const std::int64_t rrow = (li0[1] + i1) * p[0];
                for (int i0 = 0; i0 < w; ++i0)
                  smb[rrow + li0[0] + i0] += c1 * row[i0];
              }
            } else {
              for (int i2 = 0; i2 < w; ++i2) {
                const std::complex<T> c2 = cj * row[2 * wpad + i2];
                const std::int64_t pl = (li0[2] + i2) * p[1];
                for (int i1 = 0; i1 < w; ++i1) {
                  const std::complex<T> c1 = c2 * row[wpad + i1];
                  const std::int64_t rrow = (pl + li0[1] + i1) * p[0];
                  for (int i0 = 0; i0 < w; ++i0)
                    smb[rrow + li0[0] + i0] += c1 * row[i0];
                }
              }
            }
          }
          blk.note_shared_op(static_cast<std::uint64_t>(nb) * w * (DIM > 1 ? w : 1) *
                             (DIM > 2 ? w : 1));
        }
      });
      blk.sync_threads();

      // Writeback: resolve each padded cell's wrap once, then add all planes.
      blk.for_each_thread([&](unsigned t) {
        for (std::size_t i = t; i < padded; i += blk.nthreads) {
          std::int64_t s[3];
          std::int64_t r = static_cast<std::int64_t>(i);
          s[0] = r % p[0];
          r /= p[0];
          s[1] = r % p[1];
          s[2] = r / p[1];
          std::int64_t g[3] = {0, 0, 0};
          for (int d = 0; d < DIM; ++d) g[d] = wrap_index(delta[d] + s[d], grid.nf[d]);
          const std::int64_t lin = g[0] + grid.nf[0] * (g[1] + grid.nf[1] * g[2]);
          for (int bb = 0; bb < nb; ++bb)
            blk.atomic_add(&fw[(b0 + bb) * fwstride + lin], sm[padded * bb + i]);
        }
      });
      blk.sync_threads();
    }
  });
}

template <int DIM, typename T>
void spread_sm_batch_any(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                         const KernelParams<T>& kp, const NuPoints<T>& pts,
                         const std::complex<T>* c, std::complex<T>* fw,
                         const DeviceSort& sort, const SubprobSetup& subs,
                         std::uint32_t msub, const TapTable<T>& tt, int B,
                         std::size_t cstride, std::size_t fwstride) {
  if (kp.fast && sm_scratch_fits<T>(dev, grid, bins, kp.w) &&
      tt.wpad == pad_width(kp.w) &&
      dispatch_width(kp.w, [&](auto W) {
        spread_sm_batch_fast<DIM, decltype(W)::value>(dev, grid, bins, kp, pts, c, fw,
                                                      sort, subs, msub, tt, B, cstride,
                                                      fwstride);
      }))
    return;
  spread_sm_batch_impl<DIM>(dev, grid, bins, kp, pts, c, fw, sort, subs, msub, tt, B,
                            cstride, fwstride);
}

}  // namespace

template <typename T>
bool sm_fits(const vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, int w) {
  const int pad = (w + 1) / 2;
  std::size_t padded = 1;
  for (int d = 0; d < grid.dim; ++d)
    padded *= static_cast<std::size_t>(bins.m[d] + 2 * pad);
  return padded * sizeof(std::complex<T>) <= dev.props.shared_mem_per_block;
}

template <typename T>
void spread_sm_batch(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                     const KernelParams<T>& kp, const NuPoints<T>& pts,
                     const std::complex<T>* c, std::complex<T>* fw,
                     const DeviceSort& sort, const SubprobSetup& subs, std::uint32_t msub,
                     const TapTable<T>& taps, int B, std::size_t cstride,
                     std::size_t fwstride) {
  if (!sm_fits<T>(dev, grid, bins, kp.w))
    throw std::runtime_error("spread_sm: padded bin exceeds shared memory (use GM-sort)");
  if (taps.empty() && pts.M > 0)
    throw std::invalid_argument("spread_sm: tap table not built for these points");
  B = std::max(1, B);
  detail::dispatch_dim(
      grid.dim,
      [&] {
        spread_sm_batch_any<1>(dev, grid, bins, kp, pts, c, fw, sort, subs, msub, taps,
                               B, cstride, fwstride);
      },
      [&] {
        spread_sm_batch_any<2>(dev, grid, bins, kp, pts, c, fw, sort, subs, msub, taps,
                               B, cstride, fwstride);
      },
      [&] {
        spread_sm_batch_any<3>(dev, grid, bins, kp, pts, c, fw, sort, subs, msub, taps,
                               B, cstride, fwstride);
      });
}

template <typename T>
void spread_sm(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
               const KernelParams<T>& kp, const NuPoints<T>& pts,
               const std::complex<T>* c, std::complex<T>* fw, const DeviceSort& sort,
               const SubprobSetup& subs, std::uint32_t msub, const TapTable<T>& taps) {
  spread_sm_batch<T>(dev, grid, bins, kp, pts, c, fw, sort, subs, msub, taps, 1, 0, 0);
}

template <typename T>
void spread_sm(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
               const KernelParams<T>& kp, const NuPoints<T>& pts,
               const std::complex<T>* c, std::complex<T>* fw, const DeviceSort& sort,
               const SubprobSetup& subs, std::uint32_t msub) {
  if (!sm_fits<T>(dev, grid, bins, kp.w))
    throw std::runtime_error("spread_sm: padded bin exceeds shared memory (use GM-sort)");
  TapTable<T> taps;
  build_tap_table(dev, grid.dim, kp, pts, sort.order.data(), taps);
  spread_sm<T>(dev, grid, bins, kp, pts, c, fw, sort, subs, msub, taps);
}

#define CF_INSTANTIATE(T)                                                                \
  template bool sm_fits<T>(const vgpu::Device&, const GridSpec&, const BinSpec&, int);  \
  template void spread_sm<T>(vgpu::Device&, const GridSpec&, const BinSpec&,            \
                             const KernelParams<T>&, const NuPoints<T>&,                \
                             const std::complex<T>*, std::complex<T>*, const DeviceSort&,\
                             const SubprobSetup&, std::uint32_t, const TapTable<T>&);   \
  template void spread_sm<T>(vgpu::Device&, const GridSpec&, const BinSpec&,            \
                             const KernelParams<T>&, const NuPoints<T>&,                \
                             const std::complex<T>*, std::complex<T>*, const DeviceSort&,\
                             const SubprobSetup&, std::uint32_t);                       \
  template void spread_sm_batch<T>(vgpu::Device&, const GridSpec&, const BinSpec&,      \
                                   const KernelParams<T>&, const NuPoints<T>&,          \
                                   const std::complex<T>*, std::complex<T>*,            \
                                   const DeviceSort&, const SubprobSetup&,              \
                                   std::uint32_t, const TapTable<T>&, int, std::size_t, \
                                   std::size_t);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
