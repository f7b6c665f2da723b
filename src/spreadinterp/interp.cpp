// Interpolation (paper Sec. III-B): the type-2 gather of fine-grid values at
// the nonuniform points. The batch-strided kernels are the only
// implementation of the GM/GM-sort gather; the single-vector entry point is
// their B = 1 instantiation.
#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::spread {

namespace {

using namespace detail;

template <int DIM, int W, typename T>
void interp_batch_fast(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                       const NuPoints<T>& pts, const std::complex<T>* fw,
                       std::complex<T>* c, const std::uint32_t* order, int B,
                       std::size_t cstride, std::size_t fwstride) {
  // Interior-first partition: two launches with the wrap decision constant-
  // folded (see spread_gm.cpp); per-point outputs are order-independent, so
  // the partition is numerically transparent here.
  auto run = [&](std::size_t lo, std::size_t hi, auto nowrap) {
    launch_point_range(dev, lo, hi, 256, [&](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    if (jj + kPointPrefetch < pts.M) {
      const std::size_t jn =
          order ? order[jj + kPointPrefetch] : jj + kPointPrefetch;
      prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr), jn);
      for (int b = 0; b < B; ++b) CF_PREFETCH(&c[b * cstride + jn], 1);
    }
    T px[3];
    load_point<DIM>(pts, j, px);
    PointTabF<DIM, W, T> tab;
    tab.compute(grid, kp, px, decltype(nowrap)::value);
    for (int b = 0; b < B; ++b) {
      const std::complex<T>* fwb = fw + b * fwstride;
      // Accumulate per-x-tap lanes across rows/planes (independent FMA lanes,
      // no serial reduction chain), then contract against the x weights once.
      T accre[W] = {}, accim[W] = {};
      if constexpr (DIM == 1) {
        for (int i0 = 0; i0 < W; ++i0) {
          const std::complex<T> g = fwb[tab.idx[0][i0]];
          accre[i0] = g.real();
          accim[i0] = g.imag();
        }
      } else if constexpr (DIM == 2) {
        for (int i1 = 0; i1 < W; ++i1) {
          const std::int64_t row = tab.idx[1][i1] * grid.nf[0];
          const T s = tab.vals[1][i1];
          for (int i0 = 0; i0 < W; ++i0) {
            const std::complex<T> g = fwb[row + tab.idx[0][i0]];
            accre[i0] += g.real() * s;
            accim[i0] += g.imag() * s;
          }
        }
      } else {
        for (int i2 = 0; i2 < W; ++i2) {
          const std::int64_t plane = tab.idx[2][i2] * grid.nf[1];
          for (int i1 = 0; i1 < W; ++i1) {
            const std::int64_t row = (plane + tab.idx[1][i1]) * grid.nf[0];
            const T s = tab.vals[2][i2] * tab.vals[1][i1];
            for (int i0 = 0; i0 < W; ++i0) {
              const std::complex<T> g = fwb[row + tab.idx[0][i0]];
              accre[i0] += g.real() * s;
              accim[i0] += g.imag() * s;
            }
          }
        }
      }
      T re(0), im(0);
      for (int i0 = 0; i0 < W; ++i0) re += accre[i0] * tab.vals[0][i0];
      for (int i0 = 0; i0 < W; ++i0) im += accim[i0] * tab.vals[0][i0];
      c[b * cstride + j] = std::complex<T>(re, im);
    }
    });
  };
  const std::size_t S = std::min(pts.n_nowrap, pts.M);
  run(0, S, std::true_type{});
  run(S, pts.M, std::false_type{});
}

template <int DIM, typename T>
void interp_batch_impl(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                       const NuPoints<T>& pts, const std::complex<T>* fw,
                       std::complex<T>* c, const std::uint32_t* order, int B,
                       std::size_t cstride, std::size_t fwstride) {
  const int w = kp.w;
  auto run = [&](std::size_t lo, std::size_t hi, auto nowrap) {
    launch_point_range(dev, lo, hi, 256, [&, w](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    T px[3];
    load_point<DIM>(pts, j, px);
    PointTab<DIM, T> tab;
    tab.compute(grid, kp, px, decltype(nowrap)::value);
    for (int b = 0; b < B; ++b) {
      const std::complex<T>* fwb = fw + b * fwstride;
      std::complex<T> acc(0, 0);
      if constexpr (DIM == 1) {
        for (int i0 = 0; i0 < w; ++i0) acc += fwb[tab.idx[0][i0]] * tab.vals[0][i0];
      } else if constexpr (DIM == 2) {
        for (int i1 = 0; i1 < w; ++i1) {
          const std::int64_t row = tab.idx[1][i1] * grid.nf[0];
          std::complex<T> rowacc(0, 0);
          for (int i0 = 0; i0 < w; ++i0)
            rowacc += fwb[row + tab.idx[0][i0]] * tab.vals[0][i0];
          acc += rowacc * tab.vals[1][i1];
        }
      } else {
        for (int i2 = 0; i2 < w; ++i2) {
          const std::int64_t plane = tab.idx[2][i2] * grid.nf[1];
          std::complex<T> planeacc(0, 0);
          for (int i1 = 0; i1 < w; ++i1) {
            const std::int64_t row = (plane + tab.idx[1][i1]) * grid.nf[0];
            std::complex<T> rowacc(0, 0);
            for (int i0 = 0; i0 < w; ++i0)
              rowacc += fwb[row + tab.idx[0][i0]] * tab.vals[0][i0];
            planeacc += rowacc * tab.vals[1][i1];
          }
          acc += planeacc * tab.vals[2][i2];
        }
      }
      c[b * cstride + j] = acc;
    }
    });
  };
  const std::size_t S = std::min(pts.n_nowrap, pts.M);
  run(0, S, std::true_type{});
  run(S, pts.M, std::false_type{});
}

template <int DIM, typename T>
void interp_batch_any(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                      const NuPoints<T>& pts, const std::complex<T>* fw,
                      std::complex<T>* c, const std::uint32_t* order, int B,
                      std::size_t cstride, std::size_t fwstride) {
  if (kp.fast && dispatch_width(kp.w, [&](auto W) {
        interp_batch_fast<DIM, decltype(W)::value>(dev, grid, kp, pts, fw, c, order, B,
                                                   cstride, fwstride);
      }))
    return;
  interp_batch_impl<DIM>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride);
}

}  // namespace

template <typename T>
void interp_batch(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
                  const NuPoints<T>& pts, const std::complex<T>* fw, std::complex<T>* c,
                  const std::uint32_t* order, int B, std::size_t cstride,
                  std::size_t fwstride) {
  B = std::max(1, B);
  detail::dispatch_dim(
      grid.dim,
      [&] { interp_batch_any<1>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride); },
      [&] { interp_batch_any<2>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride); },
      [&] { interp_batch_any<3>(dev, grid, kp, pts, fw, c, order, B, cstride, fwstride); });
}

template <typename T>
void interp(vgpu::Device& dev, const GridSpec& grid, const KernelParams<T>& kp,
            const NuPoints<T>& pts, const std::complex<T>* fw, std::complex<T>* c,
            const std::uint32_t* order) {
  interp_batch<T>(dev, grid, kp, pts, fw, c, order, 1, 0, 0);
}

#define CF_INSTANTIATE(T)                                                                \
  template void interp<T>(vgpu::Device&, const GridSpec&, const KernelParams<T>&,       \
                          const NuPoints<T>&, const std::complex<T>*, std::complex<T>*, \
                          const std::uint32_t*);                                        \
  template void interp_batch<T>(vgpu::Device&, const GridSpec&, const KernelParams<T>&, \
                                const NuPoints<T>&, const std::complex<T>*,             \
                                std::complex<T>*, const std::uint32_t*, int,            \
                                std::size_t, std::size_t);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
