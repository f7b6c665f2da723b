// Type-3 NUFFT (nonuniform -> nonuniform), the paper's first-named future
// work item (Sec. VI; ref [30] Lee & Greengard):
//
//   f_k = sum_j c_j exp(iflag * i * s_k . x_j),   x_j, s_k arbitrary reals.
//
// Algorithm (the standard two-kernel reduction, per dimension):
//  * center and scale: x' = x - x_c with half-width X; s' = s - s_c with
//    half-width S; pick gamma = sigma_s*X/pi (sigma_s = max(sigma, 2), see
//    set_points) so xt = x'/gamma fits in [-pi/sigma_s, pi/sigma_s], and a
//    fine grid nf ~ next235(sigma*(2*gamma*S + w)).
//  * the reduced F(xi) = sum_j c~_j e^{i xi xt_j} is interpolated at
//    xi_k = gamma*s'_k from its integer samples H_m, which are exactly a
//    type-1 NUFFT of kernel-corrected strengths
//       c~_j = c_j * e^{i iflag s_c . x'_j} / prod_d psihat2(xt_jd),
//    where psihat2 is the Fourier transform of the frequency-domain
//    interpolation kernel — so the whole pipeline is
//       spread (GM-sort/SM) -> FFT -> deconvolve (all nf modes) ->
//       interpolate at xi_k -> multiply target phases e^{i iflag s_k . x_c}.
//
// Everything reuses the library's spreading/interp/FFT substrates, so the
// load-balancing properties of the paper's methods carry over to type 3.
#pragma once

#include <array>
#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "fft/fftnd.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/es_kernel.hpp"
#include "spreadinterp/grid.hpp"
#include "spreadinterp/point_cache.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::core {

/// Type-3 plan. Unlike types 1/2 the fine grid depends on the point/target
/// geometry, so all planning happens in set_points.
template <typename T>
class Type3Plan {
 public:
  using cplx = std::complex<T>;

  Type3Plan(vgpu::Device& dev, int dim, int iflag, double tol, Options opts = {});

  int dim() const { return dim_; }
  int kernel_width() const { return kp_.w; }
  std::size_t nsources() const { return M_; }
  std::size_t ntargets() const { return K_; }
  const spread::GridSpec& fine_grid() const { return grid_; }

  /// Registers M source points (x/y/z, device pointers, unused = null) and
  /// K target frequencies (s/t/u). Computes the geometry-dependent fine
  /// grid, precomputes per-point corrections and phases, and bin-sorts both
  /// point sets. Throws std::invalid_argument on a NaN or Inf coordinate or
  /// on M or K >= 2^32, leaving the previous point sets in place.
  void set_points(std::size_t M, const T* x, const T* y, const T* z, std::size_t K,
                  const T* s, const T* t, const T* u);

  /// f_k = sum_j c_j exp(iflag i s_k.x_j); c has length M, f length K.
  void execute(cplx* c, cplx* f);

 private:
  vgpu::Device* dev_;
  int dim_;
  int iflag_;
  double tol_;
  Options opts_;
  spread::KernelParams<T> kp_;  ///< its Horner table lives in the process-wide
                                ///< per-(w, sigma) horner_cache

  // Geometry (per dim): centers, half-widths, scale gamma.
  std::array<double, 3> xc_{0, 0, 0}, sc_{0, 0, 0}, gam_{1, 1, 1};
  spread::GridSpec grid_;
  spread::BinSpec bins_;
  Method method_ = Method::GMSort;

  std::unique_ptr<fft::FftNd<T>> fft_;
  vgpu::device_buffer<cplx> fw_;      ///< fine grid (spread target)
  vgpu::device_buffer<cplx> hgrid_;   ///< deconvolved modes H_m, CMCL layout
  std::array<std::vector<T>, 3> fser_;  ///< deconvolution over all nf modes

  std::size_t M_ = 0, K_ = 0;
  vgpu::device_buffer<T> xg_, yg_, zg_;     ///< scaled sources, grid coords
  vgpu::device_buffer<T> sg_, tg_, ug_;     ///< scaled targets, grid coords
  vgpu::device_buffer<cplx> src_prefac_;    ///< kernel correction * phase, per source
  vgpu::device_buffer<cplx> trg_phase_;     ///< e^{i iflag s_k.x_c}, per target
  vgpu::device_buffer<cplx> chat_;          ///< corrected strengths workspace
  spread::DeviceSort src_sort_, trg_sort_;
  spread::TapTable<T> src_taps_;  ///< SM tap table, built once per set_points
  /// Interior-first partitions for the GM-sort no-wrap fast path: sources
  /// feed the inner type-1 spread, targets the final interpolation (the
  /// ROADMAP "wire NuPoints interior through type 3" follow-up).
  spread::InteriorPartition src_part_, trg_part_;
  /// Tile-ownership set for the atomic-free source spread (SM and GM-sort,
  /// as in Plan).
  spread::TileSet<T> src_tiles_;
};

extern template class Type3Plan<float>;
extern template class Type3Plan<double>;

}  // namespace cf::core
