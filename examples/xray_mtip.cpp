// X-ray single-particle reconstruction example (paper Sec. V).
//
// Runs the NUFFT-heavy steps of an M-TIP iteration on synthetic diffraction
// data: slicing (3D type-2 on Ewald-sphere slices), merging (one 3D type-1
// of the density-compensated data; the weights transform, fixed by the
// points, runs once in setup), and error-reduction phasing under a support
// constraint — then reports the real-space correlation of the reconstruction
// with the ground-truth density, single-rank and multi-rank.
//
// Run: ./build/examples/xray_mtip [--images 80] [--ranks 4] [--nmerge 49]
#include <cstdio>
#include <thread>

#include "common/cli.hpp"
#include "common/timer.hpp"
#include "mtip/density.hpp"
#include "mtip/mtip.hpp"
#include "vgpu/device.hpp"

int main(int argc, char** argv) {
  cf::Cli cli(argc, argv);
  const int images = static_cast<int>(cli.get_int("images", 80));
  const int ranks = static_cast<int>(cli.get_int("ranks", 4));
  const std::int64_t nmerge = cli.get_int("nmerge", 49);

  std::printf("M-TIP X-ray reconstruction (synthetic LCLS-style data)\n\n");

  cf::mtip::MtipConfig cfg;
  cfg.N_slice = 33;
  cfg.N_merge = nmerge;
  cfg.nimages = images;
  cfg.det.ndet = 24;
  cfg.tol = 1e-12;  // the paper's M-TIP tolerance
  cf::mtip::BlobDensity truth(6, 2.0, 20210325);

  // ---- single rank: the full pipeline ------------------------------------
  cf::vgpu::Device dev;
  cf::mtip::MtipRank rank(dev, cfg, truth);
  const double t_setup = rank.setup();
  const double t_slice = rank.slicing();
  const double t_merge = rank.merging();
  rank.finalize_merge();
  const double corr_merge = rank.real_space_correlation();
  cf::Timer tp;
  const double resid = rank.phasing(10);
  const double t_phase = tp.seconds();
  const double corr_final = rank.real_space_correlation();

  std::printf("single rank: %d images, M = %.2e slice samples, eps = %.0e\n", images,
              double(rank.npoints()), cfg.tol);
  std::printf("  setup (plan+sort+weights)  : %7.3f s\n", t_setup);
  std::printf("  slicing  (3D type-2)       : %7.3f s\n", t_slice);
  std::printf("  merging  (3D type-1)       : %7.3f s\n", t_merge);
  std::printf("  phasing  (10 ER iters)     : %7.3f s\n", t_phase);
  std::printf("  merge correlation with truth : %.3f\n", corr_merge);
  std::printf("  final correlation with truth : %.3f (support residual %.3f)\n\n",
              corr_final, resid);

  // ---- multi-rank weak scaling (one thread per MPI-style rank) -----------
  cf::mtip::NodeSpec node;
  node.ngpus = ranks;
  node.cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("weak scaling, %d devices, fixed per-rank size:\n", ranks);
  std::printf("%7s %12s %12s %12s\n", "ranks", "setup (s)", "slice (s)", "merge (s)");
  for (int r = 1; r <= ranks; r *= 2) {
    const auto p = cf::mtip::run_weak_scaling(r, cfg, node, truth);
    std::printf("%7d %12.3f %12.3f %12.3f\n", p.nranks, p.setup_s, p.slice_s, p.merge_s);
  }
  std::printf("\nFlat rows = ideal weak scaling (paper Fig. 9).\n");
  return 0;
}
