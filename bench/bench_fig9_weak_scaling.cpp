// Fig. 9 reproduction: single-node multi-GPU weak scaling of the M-TIP NUFFT
// steps. Each rank gets a fixed problem size; ranks are assigned to devices
// round-robin. The node model has a fixed number of devices ("GPUs") whose
// worker pools partition the host cores — so scaling is flat up to one rank
// per device and collapses when devices are oversubscribed, exactly the
// paper's observation.
//
// Paper shape to reproduce:
//   - near-ideal (flat) weak scaling up to nranks == ngpus
//   - rapid deterioration beyond one rank per GPU
//
// Flags: --ngpus (default 4), --images (default 24), --maxranks.
#include <cstdio>
#include <thread>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "mtip/mtip.hpp"

using namespace cf;
using namespace cf::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int ngpus = static_cast<int>(cli.get_int("ngpus", 4));
  const int images = static_cast<int>(cli.get_int("images", 24));
  const int maxranks = static_cast<int>(cli.get_int("maxranks", 2 * ngpus));

  banner("Fig. 9 — single-node multi-GPU weak scaling (M-TIP per-rank sizes)",
         "flat lines up to one rank per GPU, deterioration beyond");

  mtip::MtipConfig cfg;
  cfg.N_slice = 41;
  cfg.N_merge = 81;
  cfg.nimages = images;
  cfg.det.ndet = 32;
  cfg.tol = 1e-12;
  mtip::BlobDensity rho(6, 2.0, 999);

  mtip::NodeSpec node;
  node.ngpus = ngpus;
  node.cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("\nNode model: %d devices, %zu host cores (%zu workers each)\n", ngpus,
              node.cores, std::max<std::size_t>(1, node.cores / ngpus));

  Table t({"ranks", "setup (s)", "slice exec (s)", "merge exec (s)", "note"});
  for (int r = 1; r <= maxranks; r *= 2) {
    const auto p = mtip::run_weak_scaling(r, cfg, node, rho);
    t.add_row({std::to_string(r), Table::fmt(p.setup_s, 3), Table::fmt(p.slice_s, 3),
               Table::fmt(p.merge_s, 3),
               p.ranks_per_device == 1
                   ? "<= 1 rank/GPU (expect flat)"
                   : "oversubscribed (" + std::to_string(p.ranks_per_device) + " ranks/GPU)"});
  }
  t.print();
  std::printf("\nIdeal weak scaling = constant times while ranks <= %d.\n", ngpus);
  return 0;
}
