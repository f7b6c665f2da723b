// M-TIP single-particle reconstruction pipeline (paper Sec. V).
//
// One MtipRank models one MPI rank: it owns its share of diffraction images
// and a device, and runs the NUFFT-heavy steps of an M-TIP iteration:
//   i)   slicing  — 3D type-2 NUFFT evaluates the model's Fourier transform
//                   on every image's Ewald slice (grid N_slice^3),
//   iii) merging  — a 3D type-1 NUFFT merges the slice data back onto a
//                   uniform grid (N_merge^3); its companion, the transform
//                   of the compensation weights, depends only on the point
//                   set and runs once in setup(),
//   iv)  phasing  — error-reduction iterations with a support constraint.
// Step ii (orientation matching) is not NUFFT-bound and the orientations are
// known here, so it is a no-op in this substrate.
//
// The paper runs these at eps = 1e-12, hence double precision throughout.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/plan.hpp"
#include "fft/fftnd.hpp"
#include "mtip/density.hpp"
#include "mtip/geometry.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::mtip {

struct MtipConfig {
  std::int64_t N_slice = 41;  ///< slicing grid per axis (paper Table II)
  std::int64_t N_merge = 81;  ///< merging grid per axis (paper Table II)
  DetectorSpec det;           ///< per-image detector
  int nimages = 100;          ///< images handled by this rank
  double tol = 1e-12;         ///< paper's M-TIP tolerance
  std::uint64_t seed = 42;
};

/// One rank of the reconstruction. All NUFFT work runs on the given device.
class MtipRank {
 public:
  using cplx = std::complex<double>;

  MtipRank(vgpu::Device& dev, MtipConfig cfg, const BlobDensity& truth);

  std::size_t npoints() const { return M_; }
  const MtipConfig& config() const { return cfg_; }

  /// Builds geometry + data, transfers to the device, plans/sorts both
  /// NUFFTs, and runs the weights transform (sum_j w_j e^{i n.x_j}) into
  /// merged_weights(). That transform belongs to the point set: if
  /// orientation matching ever moves the points, it must be redone with
  /// them. Returns elapsed seconds (the Fig. 9 "setup" time).
  double setup();

  /// Slicing: evaluates the current model on all slices. Returns seconds
  /// (the Fig. 9/Table II type-2 "exec" time).
  double slicing();

  /// Merging: one type-1 NUFFT, the density-compensated data adjoint
  /// (sum_j w_j y_j e^{i n.x_j}), into merged_numerator(). The paper's
  /// second type-1, the weight/PSF transform, does not change between
  /// iterations and is computed by setup(). Returns seconds.
  double merging();

  /// Normalizes the compensated adjoint into the rank's real-space model
  /// estimate. (After multi-rank reduction in the multi-GPU setting.)
  void finalize_merge();

  /// Error-reduction phasing iterations with the spherical support
  /// constraint, on the device's pool one z-plane per task. Returns the
  /// final real-space support residual; the model and the residual do not
  /// depend on the worker count.
  double phasing(int iters);

  /// Normalized cross-correlation of the merged real-space model against the
  /// true blob density (reconstruction quality diagnostic, in [-1, 1]).
  double real_space_correlation() const;

  std::vector<cplx>& merged_numerator() { return merged_num_; }
  std::vector<cplx>& merged_weights() { return merged_den_; }
  const std::vector<cplx>& model() const { return model_; }

 private:
  vgpu::Device* dev_;
  MtipConfig cfg_;
  const BlobDensity* truth_;

  // Slice geometry and measurements (host + device copies). dmeas_ holds the
  // density-compensated data w_j*y_j.
  std::vector<double> hx_, hy_, hz_;
  std::vector<cplx> hmeas_;
  vgpu::device_buffer<double> dx_, dy_, dz_;
  vgpu::device_buffer<cplx> dmeas_, dslice_out_;
  vgpu::device_buffer<cplx> dslice_grid_, dmerge_grid_;
  double wsum_ = 0;  ///< sum of compensation weights (normalization)
  std::size_t M_ = 0;

  std::unique_ptr<core::Plan<double>> slice_plan_;  // type 2, N_slice^3
  std::unique_ptr<core::Plan<double>> merge_plan_;  // type 1, N_merge^3

  std::vector<cplx> merged_num_, merged_den_, model_;

  // Phasing state, built by the first phasing() call: the N_merge^3 FFT and
  // its workspaces, kept on the host so they stay out of the device's
  // allocation count.
  std::unique_ptr<fft::FftNd<double>> phase_fft_;
  std::vector<cplx> phase_g_;
  std::vector<double> modulus_;
};

/// Node model for weak scaling (paper Fig. 9): `ngpus` devices, each with
/// cores/ngpus workers; rank r runs on device r % ngpus. Ranks beyond ngpus
/// oversubscribe a device, which is where the paper sees scaling collapse.
struct NodeSpec {
  int ngpus = 8;          ///< Cori GPU: 8 V100 per node (Summit: 6)
  std::size_t cores = 0;  ///< 0 = all host cores
};

struct WeakScalingPoint {
  int nranks = 0;
  int ranks_per_device = 0;  ///< most ranks sharing one device
  double setup_s = 0;   ///< max over ranks
  double slice_s = 0;   ///< max over ranks (type-2 exec)
  double merge_s = 0;   ///< max over ranks (type-1 exec)
};

/// Runs `nranks` concurrent ranks (one thread each, fixed per-rank problem
/// size = weak scaling) and reports per-step times.
WeakScalingPoint run_weak_scaling(int nranks, const MtipConfig& cfg, const NodeSpec& node,
                                  const BlobDensity& truth);

}  // namespace cf::mtip
