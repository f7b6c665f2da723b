#include "mtip/mtip.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <thread>

#include "common/timer.hpp"
#include "fft/fftnd.hpp"

namespace cf::mtip {

MtipRank::MtipRank(vgpu::Device& dev, MtipConfig cfg, const BlobDensity& truth)
    : dev_(&dev), cfg_(cfg), truth_(&truth) {}

double MtipRank::setup() {
  Timer t;
  // Geometry: one Ewald slice per image, orientations from the rank seed.
  const auto rots = random_rotations(static_cast<std::size_t>(cfg_.nimages), cfg_.seed);
  hx_.clear();
  hy_.clear();
  hz_.clear();
  for (const auto& R : rots) ewald_slice_points(R, cfg_.det, hx_, hy_, hz_);
  M_ = hx_.size();

  // Synthetic measurements from the analytic blob transform. NUFFT domain
  // coordinate x maps to physical wavenumber k = x * N_merge / (2*pi).
  // Density compensation w_j ~ |k_j|: slices through the origin sample a
  // shell of radius k with density ~ 1/k, so the compensated adjoint
  // sum_j w_j y_j e^{i n.x_j} approximates the Fourier-inversion integral.
  const double s = double(cfg_.N_merge) / (2.0 * std::numbers::pi);
  hmeas_.resize(M_);
  std::vector<cplx> hweights(M_);
  wsum_ = 0;
  for (std::size_t j = 0; j < M_; ++j) {
    const double kx = hx_[j] * s, ky = hy_[j] * s, kz = hz_[j] * s;
    const double w = std::sqrt(kx * kx + ky * ky + kz * kz) + 0.5;
    hmeas_[j] = truth_->fourier(kx, ky, kz) * w;
    hweights[j] = cplx(w, 0);
    wsum_ += w;
  }

  // Host -> device transfers.
  dx_ = vgpu::device_buffer<double>(*dev_, std::span<const double>(hx_));
  dy_ = vgpu::device_buffer<double>(*dev_, std::span<const double>(hy_));
  dz_ = vgpu::device_buffer<double>(*dev_, std::span<const double>(hz_));
  dmeas_ = vgpu::device_buffer<cplx>(*dev_, std::span<const cplx>(hmeas_));
  vgpu::device_buffer<cplx> dweights(*dev_, std::span<const cplx>(hweights));
  dslice_out_ = vgpu::device_buffer<cplx>(*dev_, M_);

  const std::int64_t ns3 = cfg_.N_slice * cfg_.N_slice * cfg_.N_slice;
  const std::int64_t nm3 = cfg_.N_merge * cfg_.N_merge * cfg_.N_merge;
  dslice_grid_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(ns3));
  dmerge_grid_ = vgpu::device_buffer<cplx>(*dev_, static_cast<std::size_t>(nm3));

  // Plans: slicing is type 2 on the N_slice grid; merging is type 1 on the
  // N_merge grid. Both take the same nonuniform points, but each plan sorts
  // them for its own fine grid.
  const std::int64_t ns[3] = {cfg_.N_slice, cfg_.N_slice, cfg_.N_slice};
  const std::int64_t nm[3] = {cfg_.N_merge, cfg_.N_merge, cfg_.N_merge};
  slice_plan_ = std::make_unique<core::Plan<double>>(*dev_, 2, std::span(ns, 3), -1,
                                                     cfg_.tol);
  merge_plan_ = std::make_unique<core::Plan<double>>(*dev_, 1, std::span(nm, 3), +1,
                                                     cfg_.tol);
  slice_plan_->set_points(M_, dx_.data(), dy_.data(), dz_.data());
  merge_plan_->set_points(M_, dx_.data(), dy_.data(), dz_.data());
  // The weights transform reads only the points and the weights, so it runs
  // once per point set instead of once per merge.
  merged_den_.resize(dmerge_grid_.size());
  merge_plan_->execute(dweights.data(), dmerge_grid_.data());
  dmerge_grid_.copy_to_host(merged_den_);

  // Initial Fourier model on the slicing grid: the merged data (zeros until
  // the first merge), seeded here with the measurements' band via the truth
  // so slicing has sensible input.
  std::fill(dslice_grid_.data(), dslice_grid_.data() + ns3, cplx(0, 0));
  return t.seconds();
}

double MtipRank::slicing() {
  Timer t;
  slice_plan_->execute(dslice_out_.data(), dslice_grid_.data());
  return t.seconds();
}

double MtipRank::merging() {
  Timer t;
  merged_num_.resize(dmerge_grid_.size());
  merge_plan_->execute(dmeas_.data(), dmerge_grid_.data());
  dmerge_grid_.copy_to_host(merged_num_);
  return t.seconds();
}

void MtipRank::finalize_merge() {
  // The type-1 output at mode n is sum_j w_j y_j e^{i n.x_j}; since
  // x_j = k_j * 2*pi/N, this is the compensated Fourier-inversion sum at the
  // real-space grid point r_n = n * 2*pi/N, i.e. a real-space model estimate
  // (up to an overall scale, normalized here by the weight sum).
  model_.resize(merged_num_.size());
  const double inv = wsum_ > 0 ? 1.0 / wsum_ : 1.0;
  for (std::size_t i = 0; i < merged_num_.size(); ++i) model_[i] = merged_num_[i] * inv;
}

double MtipRank::real_space_correlation() const {
  // Pearson correlation of Re(model) with the true density over the grid.
  const std::int64_t N = cfg_.N_merge;
  const double h = 2.0 * std::numbers::pi / double(N);
  double sm = 0, st = 0, smm = 0, stt = 0, smt = 0;
  std::size_t n = 0;
  for (std::int64_t iz = 0; iz < N; ++iz) {
    const double z = double(iz - N / 2) * h;
    for (std::int64_t iy = 0; iy < N; ++iy) {
      const double y = double(iy - N / 2) * h;
      for (std::int64_t ix = 0; ix < N; ++ix, ++n) {
        const double x = double(ix - N / 2) * h;
        const double m = model_[static_cast<std::size_t>(ix + N * (iy + N * iz))].real();
        const double t = truth_->real_space(x, y, z);
        sm += m;
        st += t;
        smm += m * m;
        stt += t * t;
        smt += m * t;
      }
    }
  }
  const double dn = double(n);
  const double cov = smt - sm * st / dn;
  const double vm = smm - sm * sm / dn;
  const double vt = stt - st * st / dn;
  return (vm > 0 && vt > 0) ? cov / std::sqrt(vm * vt) : 0.0;
}

double MtipRank::phasing(int iters) {
  // Error reduction on the real-space model (index i <-> r = (i - N/2)*h):
  // alternate the Fourier-modulus constraint (modulus of the merged
  // estimate's transform plays the role of the measured intensities) with
  // the real-space support/realness/positivity projection.
  const std::int64_t N = cfg_.N_merge;
  const std::size_t n = static_cast<std::size_t>(N);
  const std::size_t plane = n * n;
  const std::size_t total = model_.size();
  if (!phase_fft_) {
    phase_fft_ = std::make_unique<fft::FftNd<double>>(dev_->pool(), std::vector{n, n, n});
    phase_g_.resize(total);
    modulus_.resize(total);
  }
  // Every elementwise step runs one z-plane per pool task; each cell is
  // computed alone, so the bits do not depend on the worker count.
  auto per_plane = [&](auto&& fn) {
    dev_->pool().parallel_for(0, n, [&](std::size_t iz, std::size_t) {
      fn(iz, iz * plane, (iz + 1) * plane);
    });
  };
  const double h = 2.0 * std::numbers::pi / double(N);
  const double rad2 = truth_->support_radius() * truth_->support_radius();
  std::vector<cplx>& g = phase_g_;

  // Measured moduli from the merged estimate.
  std::copy(model_.begin(), model_.end(), g.begin());
  phase_fft_->exec(g.data(), -1);
  per_plane([&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) modulus_[i] = std::abs(g[i]);
  });

  std::copy(model_.begin(), model_.end(), g.begin());
  std::vector<double> mass(2 * n);  // per plane: in-support, out-of-support
  double resid = 0;
  for (int it = 0; it < iters; ++it) {
    // Real-space projection; track the out-of-support mass fraction.
    per_plane([&](std::size_t iz, std::size_t lo, std::size_t) {
      const double z = double(std::int64_t(iz) - N / 2) * h;
      double in = 0, out = 0;
      for (std::int64_t iy = 0; iy < N; ++iy) {
        const double y = double(iy - N / 2) * h;
        for (std::int64_t ix = 0; ix < N; ++ix) {
          const double x = double(ix - N / 2) * h;
          const std::size_t i = lo + static_cast<std::size_t>(ix + N * iy);
          cplx v = g[i];
          const bool inside = x * x + y * y + z * z <= rad2;
          (inside ? in : out) += std::norm(v);
          g[i] = inside ? cplx(std::max(v.real(), 0.0), 0.0) : cplx(0, 0);
        }
      }
      mass[2 * iz] = in;
      mass[2 * iz + 1] = out;
    });
    // Summed in plane order, so the residual is worker-count independent.
    double in_support = 0, out_of_support = 0;
    for (std::size_t iz = 0; iz < n; ++iz) {
      in_support += mass[2 * iz];
      out_of_support += mass[2 * iz + 1];
    }
    resid = (in_support + out_of_support) > 0
                ? std::sqrt(out_of_support / (in_support + out_of_support))
                : 0;
    // Fourier-modulus projection.
    phase_fft_->exec(g.data(), -1);
    per_plane([&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const double a = std::abs(g[i]);
        g[i] = a > 1e-300 ? g[i] * (modulus_[i] / a) : cplx(modulus_[i], 0);
      }
    });
    phase_fft_->exec(g.data(), +1);
    const double scale = 1.0 / double(total);
    per_plane([&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) g[i] *= scale;
    });
  }
  model_.swap(g);  // g's old contents are overwritten by the next call
  return resid;
}

WeakScalingPoint run_weak_scaling(int nranks, const MtipConfig& cfg, const NodeSpec& node,
                                  const BlobDensity& truth) {
  const std::size_t cores =
      node.cores ? node.cores : std::max(1u, std::thread::hardware_concurrency());
  const std::size_t per_gpu = std::max<std::size_t>(1, cores / node.ngpus);

  // Fixed node hardware: ngpus devices regardless of rank count.
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  for (int g = 0; g < node.ngpus; ++g)
    devices.push_back(std::make_unique<vgpu::Device>(per_gpu));

  std::vector<std::unique_ptr<MtipRank>> ranks;
  for (int r = 0; r < nranks; ++r) {
    MtipConfig c = cfg;
    c.seed = cfg.seed + static_cast<std::uint64_t>(r) * 1000003ULL;
    ranks.push_back(
        std::make_unique<MtipRank>(*devices[r % node.ngpus], c, truth));
  }

  WeakScalingPoint out;
  out.nranks = nranks;
  out.ranks_per_device = (nranks + node.ngpus - 1) / node.ngpus;
  std::vector<double> setup(nranks), slice(nranks), merge(nranks);
  // Phase-synchronized: all ranks run each step concurrently (MPI style).
  auto run_phase = [&](auto&& fn) {
    std::vector<std::thread> ts;
    ts.reserve(nranks);
    for (int r = 0; r < nranks; ++r) ts.emplace_back([&, r] { fn(r); });
    for (auto& t : ts) t.join();
  };
  run_phase([&](int r) { setup[r] = ranks[r]->setup(); });
  run_phase([&](int r) { slice[r] = ranks[r]->slicing(); });
  run_phase([&](int r) { merge[r] = ranks[r]->merging(); });
  out.setup_s = *std::max_element(setup.begin(), setup.end());
  out.slice_s = *std::max_element(slice.begin(), slice.end());
  out.merge_s = *std::max_element(merge.begin(), merge.end());
  return out;
}

}  // namespace cf::mtip
