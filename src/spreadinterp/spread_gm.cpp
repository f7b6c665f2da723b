// GM / GM-sort spreading (paper Sec. III-A): one thread per point, global
// atomic accumulation. The batch-strided kernels are the only implementation;
// the single-vector entry point is their B = 1 instantiation.
//
// The interior-first partition (NuPoints::n_nowrap with a partitioned
// iteration order, see point_cache.hpp) runs as two launches — the no-wrap
// prefix and the wrapping suffix — so the hot loops carry no per-point flag
// test: the wrap decision is a compile-time constant folded into each launch.
#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::spread {

namespace {

using namespace detail;

template <int DIM, int W, typename T>
void spread_gm_batch_fast(vgpu::Device& dev, const GridSpec& grid,
                          const KernelParams<T>& kp, const NuPoints<T>& pts,
                          const std::complex<T>* c, std::complex<T>* fw,
                          const std::uint32_t* order, int B, std::size_t cstride,
                          std::size_t fwstride) {
  auto run = [&](std::size_t lo, std::size_t hi, auto nowrap) {
    launch_point_range(dev, lo, hi, 256, [&](std::size_t jj, vgpu::BlockCtx& blk) {
      const std::size_t j = order ? order[jj] : jj;
      if (jj + kPointPrefetch < pts.M) {
        const std::size_t jn =
            order ? order[jj + kPointPrefetch] : jj + kPointPrefetch;
        prefetch_point<DIM>(pts, c, jn);
        for (int b = 1; b < B; ++b) CF_PREFETCH(&c[b * cstride + jn], 0);
      }
      T px[3];
      load_point<DIM>(pts, j, px);
      PointTabF<DIM, W, T> tab;
      tab.compute(grid, kp, px, decltype(nowrap)::value);
      for (int b = 0; b < B; ++b) {
        const std::complex<T> cj = c[b * cstride + j];
        std::complex<T>* fwb = fw + b * fwstride;
        if constexpr (DIM == 1) {
          for (int i0 = 0; i0 < W; ++i0)
            blk.atomic_add(&fwb[tab.idx[0][i0]], cj * tab.vals[0][i0]);
        } else if constexpr (DIM == 2) {
          for (int i1 = 0; i1 < W; ++i1) {
            const std::complex<T> c1 = cj * tab.vals[1][i1];
            const std::int64_t row = tab.idx[1][i1] * grid.nf[0];
            for (int i0 = 0; i0 < W; ++i0)
              blk.atomic_add(&fwb[row + tab.idx[0][i0]], c1 * tab.vals[0][i0]);
          }
        } else {
          for (int i2 = 0; i2 < W; ++i2) {
            const std::complex<T> c2 = cj * tab.vals[2][i2];
            const std::int64_t plane = tab.idx[2][i2] * grid.nf[1];
            for (int i1 = 0; i1 < W; ++i1) {
              const std::complex<T> c1 = c2 * tab.vals[1][i1];
              const std::int64_t row = (plane + tab.idx[1][i1]) * grid.nf[0];
              for (int i0 = 0; i0 < W; ++i0)
                blk.atomic_add(&fwb[row + tab.idx[0][i0]], c1 * tab.vals[0][i0]);
            }
          }
        }
      }
    });
  };
  const std::size_t S = std::min(pts.n_nowrap, pts.M);
  run(0, S, std::true_type{});
  run(S, pts.M, std::false_type{});
}

template <int DIM, typename T>
void spread_gm_batch_impl(vgpu::Device& dev, const GridSpec& grid,
                          const KernelParams<T>& kp, const NuPoints<T>& pts,
                          const std::complex<T>* c, std::complex<T>* fw,
                          const std::uint32_t* order, int B, std::size_t cstride,
                          std::size_t fwstride) {
  const int w = kp.w;
  auto run = [&](std::size_t lo, std::size_t hi, auto nowrap) {
    launch_point_range(dev, lo, hi, 256, [&, w](std::size_t jj, vgpu::BlockCtx& blk) {
      const std::size_t j = order ? order[jj] : jj;
      T px[3];
      load_point<DIM>(pts, j, px);
      PointTab<DIM, T> tab;
      tab.compute(grid, kp, px, decltype(nowrap)::value);
      for (int b = 0; b < B; ++b) {
        const std::complex<T> cj = c[b * cstride + j];
        std::complex<T>* fwb = fw + b * fwstride;
        if constexpr (DIM == 1) {
          for (int i0 = 0; i0 < w; ++i0)
            blk.atomic_add(&fwb[tab.idx[0][i0]], cj * tab.vals[0][i0]);
        } else if constexpr (DIM == 2) {
          for (int i1 = 0; i1 < w; ++i1) {
            const std::complex<T> c1 = cj * tab.vals[1][i1];
            const std::int64_t row = tab.idx[1][i1] * grid.nf[0];
            for (int i0 = 0; i0 < w; ++i0)
              blk.atomic_add(&fwb[row + tab.idx[0][i0]], c1 * tab.vals[0][i0]);
          }
        } else {
          for (int i2 = 0; i2 < w; ++i2) {
            const std::complex<T> c2 = cj * tab.vals[2][i2];
            const std::int64_t plane = tab.idx[2][i2] * grid.nf[1];
            for (int i1 = 0; i1 < w; ++i1) {
              const std::complex<T> c1 = c2 * tab.vals[1][i1];
              const std::int64_t row = (plane + tab.idx[1][i1]) * grid.nf[0];
              for (int i0 = 0; i0 < w; ++i0)
                blk.atomic_add(&fwb[row + tab.idx[0][i0]], c1 * tab.vals[0][i0]);
            }
          }
        }
      }
    });
  };
  const std::size_t S = std::min(pts.n_nowrap, pts.M);
  run(0, S, std::true_type{});
  run(S, pts.M, std::false_type{});
}

template <int DIM, typename T>
void spread_gm_batch_any(vgpu::Device& dev, const GridSpec& grid,
                         const KernelParams<T>& kp, const NuPoints<T>& pts,
                         const std::complex<T>* c, std::complex<T>* fw,
                         const std::uint32_t* order, int B, std::size_t cstride,
                         std::size_t fwstride) {
  if (kp.fast && dispatch_width(kp.w, [&](auto W) {
        spread_gm_batch_fast<DIM, decltype(W)::value>(dev, grid, kp, pts, c, fw, order,
                                                      B, cstride, fwstride);
      }))
    return;
  spread_gm_batch_impl<DIM>(dev, grid, kp, pts, c, fw, order, B, cstride, fwstride);
}

}  // namespace

template <typename T>
void spread_gm_batch(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                     const NuPoints<T>& pts, const std::complex<T>* c,
                     std::complex<T>* fw, const std::uint32_t* order, int B,
                     std::size_t cstride, std::size_t fwstride) {
  B = std::max(1, B);
  detail::dispatch_dim(
      grid.dim,
      [&] { spread_gm_batch_any<1>(dev, grid, kp, pts, c, fw, order, B, cstride, fwstride); },
      [&] { spread_gm_batch_any<2>(dev, grid, kp, pts, c, fw, order, B, cstride, fwstride); },
      [&] { spread_gm_batch_any<3>(dev, grid, kp, pts, c, fw, order, B, cstride, fwstride); });
}

template <typename T>
void spread_gm(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
               const NuPoints<T>& pts, const std::complex<T>* c, std::complex<T>* fw,
               const std::uint32_t* order) {
  spread_gm_batch<T>(dev, grid, kp, pts, c, fw, order, 1, 0, 0);
}

#define CF_INSTANTIATE(T)                                                                \
  template void spread_gm<T>(vgpu::Device&, const GridSpec&, const KernelParams<T>&,    \
                             const NuPoints<T>&, const std::complex<T>*,                \
                             std::complex<T>*, const std::uint32_t*);                   \
  template void spread_gm_batch<T>(vgpu::Device&, const GridSpec&,                      \
                                   const KernelParams<T>&, const NuPoints<T>&,          \
                                   const std::complex<T>*, std::complex<T>*,            \
                                   const std::uint32_t*, int, std::size_t, std::size_t);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
