// Table II reproduction: M-TIP slicing/merging NUFFT wall-clock, CPU vs
// single-device vs whole-node (multi-device), at the paper's per-rank sizes.
//
// Paper setup: slicing = 3D type 2, N=41, M=1.02e6/rank; merging = 3D type 1,
// N=81, M=1.64e7/rank (scaled down by default here), eps = 1e-12 (fp64).
//
// Paper shape to reproduce:
//   - single rank: GPU ~1.5x CPU for slicing, ~0.9x for merging
//   - whole node (one rank per GPU): 5-12x over the CPU running the
//     whole-node problem on its fixed thread count
//
// The CPU column is the median of --reps executes after a warm-up, on a
// pool of all cores; its rows (cpu_slice, cpu_merge) carry median and
// min/max. A second table times one M-TIP iteration (slicing, merging,
// finalize and two phasing sweeps) on one 2-worker device: slice, merge,
// phase and whole-iteration rows, median and min/max over --reps iterations.
//
// Flags: --images (default 60; paper ~1000), --ngpus (default 4), --tol,
//        --reps (CPU and iteration rows, default 9), --json PATH (writes the
//        CPU and iteration rows, e.g. BENCH_mtip.json).
#include <cstdio>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "cpu/cpu_plan.hpp"
#include "mtip/mtip.hpp"

using namespace cf;
using namespace cf::bench;

namespace {

/// CPU reference: the same NUFFT workload through the FINUFFT-like library,
/// one execute per rep (ms) after a warm-up execute.
std::vector<double> cpu_nufft_ms(ThreadPool& pool, int type, std::int64_t Naxis, double tol,
                                 const std::vector<double>& x, const std::vector<double>& y,
                                 const std::vector<double>& z, int reps) {
  const std::size_t M = x.size();
  std::vector<std::int64_t> N(3, Naxis);
  cpu::CpuPlan<double> plan(pool, type, N, type == 1 ? +1 : -1, tol);
  plan.set_points(M, x.data(), y.data(), z.data());
  std::vector<std::complex<double>> c(M, {1.0, 0.0});
  std::vector<std::complex<double>> f(static_cast<std::size_t>(Naxis * Naxis * Naxis),
                                      {1.0, 0.0});
  std::vector<double> ms;
  for (int r = -1; r < reps; ++r) {
    Timer t;
    plan.execute(c.data(), f.data());
    if (r >= 0) ms.push_back(t.seconds() * 1e3);
  }
  return ms;
}

/// One rank's iterations on a 2-worker device: per-step times over `reps`
/// iterations after one warm-up, printed and added to `json`.
void iteration_rows(const mtip::MtipConfig& cfg, const mtip::BlobDensity& rho, int reps,
                    JsonReport& json) {
  const std::size_t workers = 2;
  const int sweeps = 2;
  vgpu::Device dev(workers);
  mtip::MtipRank rank(dev, cfg, rho);
  rank.setup();
  std::vector<double> slice, merge, phase, iter;
  for (int r = -1; r < reps; ++r) {
    Timer t;
    const double s = rank.slicing(), m = rank.merging();
    rank.finalize_merge();
    Timer tp;
    rank.phasing(sweeps);
    const double p = tp.seconds(), it = t.seconds();
    if (r < 0) continue;  // warm-up
    slice.push_back(s * 1e3);
    merge.push_back(m * 1e3);
    phase.push_back(p * 1e3);
    iter.push_back(it * 1e3);
  }
  std::printf("\nOne M-TIP iteration (%d phasing sweeps), %zu device workers, %d reps:\n",
              sweeps, workers, reps);
  Table t({"step", "median (ms)", "min (ms)", "max (ms)"});
  const std::pair<const char*, const std::vector<double>*> rows[] = {
      {"slice", &slice}, {"merge", &merge}, {"phase", &phase}, {"iteration", &iter}};
  for (const auto& [op, ms] : rows) {
    const Stats st = summarize(*ms);
    t.add_row({op, Table::fmt(st.median, 1), Table::fmt(st.min, 1), Table::fmt(st.max, 1)});
    json.add()
        .field("op", op)
        .field("workers", workers)
        .field("images", cfg.nimages)
        .field("M", rank.npoints())
        .field("N_slice", cfg.N_slice)
        .field("N_merge", cfg.N_merge)
        .field("tol", cfg.tol)
        .field("phase_sweeps", sweeps)
        .field("median_ms", st.median)
        .field("min_ms", st.min)
        .field("max_ms", st.max)
        .field("reps", reps);
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const int images = static_cast<int>(cli.get_int("images", 60));
  const int ngpus = static_cast<int>(cli.get_int("ngpus", 4));
  const double tol = cli.get_double("tol", 1e-12);
  const int reps = static_cast<int>(cli.get_int("reps", 9));
  const std::string json_path = cli.get("json", "");
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());

  banner("Table II — M-TIP slicing (type 2) and merging (type 1) wall-clock",
         "single rank: GPU ~1.5x CPU (slicing), ~0.9x (merging); whole node "
         "(rank per GPU): 5-12x over the fixed-size CPU");

  mtip::MtipConfig cfg;
  cfg.N_slice = 41;
  cfg.N_merge = 81;
  cfg.nimages = images;
  cfg.det.ndet = 32;
  cfg.tol = tol;
  mtip::BlobDensity rho(6, 2.0, 4242);

  // Geometry identical to what a rank generates, for the CPU reference.
  const auto rots = mtip::random_rotations(static_cast<std::size_t>(images), cfg.seed);
  std::vector<double> x, y, z;
  for (const auto& R : rots) mtip::ewald_slice_points(R, cfg.det, x, y, z);
  const std::size_t M = x.size();
  std::printf("\nPer-rank problem: %d images, M=%.2e points, N_slice=%lld, "
              "N_merge=%lld, eps=%.0e\n",
              images, double(M), (long long)cfg.N_slice, (long long)cfg.N_merge, tol);

  // CPU reference with all cores (the paper's 40-thread Skylake analogue).
  JsonReport json;
  ThreadPool pool(cores);
  const std::pair<const char*, int> cpu_ops[] = {{"cpu_slice", 2}, {"cpu_merge", 1}};
  Stats cpu_st[2];
  for (int i = 0; i < 2; ++i) {
    const auto [op, type] = cpu_ops[i];
    cpu_st[i] = summarize(
        cpu_nufft_ms(pool, type, type == 2 ? cfg.N_slice : cfg.N_merge, tol, x, y, z, reps));
    json.add()
        .field("op", op)
        .field("workers", cores)
        .field("images", images)
        .field("M", M)
        .field("N_slice", cfg.N_slice)
        .field("N_merge", cfg.N_merge)
        .field("tol", tol)
        .field("median_ms", cpu_st[i].median)
        .field("min_ms", cpu_st[i].min)
        .field("max_ms", cpu_st[i].max)
        .field("reps", reps);
  }
  const double cpu_slice = cpu_st[0].median * 1e-3, cpu_merge = cpu_st[1].median * 1e-3;

  // Single rank on one device (all cores: a lone rank owns the GPU).
  mtip::NodeSpec node;
  node.ngpus = ngpus;
  node.cores = cores;
  const auto single = mtip::run_weak_scaling(1, cfg, node, rho);

  // Whole node: one rank per device; per-rank size fixed. The CPU comparator
  // must process ngpus x the data on the same cores.
  const auto whole = mtip::run_weak_scaling(ngpus, cfg, node, rho);
  const double cpu_slice_node = cpu_slice * ngpus;  // serial scaling of fixed cores
  const double cpu_merge_node = cpu_merge * ngpus;

  Table t({"task", "parallelism", "CPU time (s)", "device time (s)", "speedup"});
  t.add_row({"slicing (type 2)", "single-rank", Table::fmt(cpu_slice, 3),
             Table::fmt(single.slice_s, 3),
             Table::fmt(cpu_slice / single.slice_s, 1) + "x"});
  t.add_row({"slicing (type 2)", "whole-node", Table::fmt(cpu_slice_node, 3),
             Table::fmt(whole.slice_s, 3),
             Table::fmt(cpu_slice_node / whole.slice_s, 1) + "x"});
  t.add_row({"merging (type 1)", "single-rank", Table::fmt(cpu_merge, 3),
             Table::fmt(single.merge_s, 3),
             Table::fmt(cpu_merge / single.merge_s, 1) + "x"});
  t.add_row({"merging (type 1)", "whole-node", Table::fmt(cpu_merge_node, 3),
             Table::fmt(whole.merge_s, 3),
             Table::fmt(cpu_merge_node / whole.merge_s, 1) + "x"});
  t.print();
  std::printf("CPU time: median of %d executes on %zu threads (min/max in the JSON rows)\n",
              reps, cores);

  iteration_rows(cfg, rho, reps, json);
  if (!json_path.empty()) {
    if (!json.write(json_path)) return 1;
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
