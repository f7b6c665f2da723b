#include "spreadinterp/binsort.hpp"

#include <algorithm>

#include "vgpu/primitives.hpp"

namespace cf::spread {

template <typename T>
void compute_bin_index(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                       const T* xg, const T* yg, const T* zg, std::size_t M,
                       std::uint32_t* binidx) {
  const T* coords[3] = {xg, yg, zg};
  const int dim = grid.dim;
  dev.launch_items(M, 256, [&](std::size_t j, vgpu::BlockCtx&) {
    std::int64_t b[3] = {0, 0, 0};
    for (int d = 0; d < dim; ++d) {
      // No clamp needed: fold_rescale guarantees coords in [0, nf), and
      // nbins = ceil(nf/m) gives (nf-1)/m <= nbins-1, so the division can
      // never reach past the last bin (the ROADMAP's "skip the fold-rescale
      // guard in binsort" follow-up).
      b[d] = static_cast<std::int64_t>(coords[d][j]) / bins.m[d];
    }
    binidx[j] = static_cast<std::uint32_t>(
        b[0] + bins.nbins[0] * (b[1] + bins.nbins[1] * b[2]));
  });
}

// Deterministic, atomic-free counting sort. The CUDA-style scatter (per-bin
// atomic cursors, see vgpu::counting_scatter) orders points within a bin by
// worker scheduling, which would leak nondeterminism into every bin-ordered
// accumulation — fatal for the tiled spread writeback's bitwise guarantee.
// Instead the points are split into a worker-independent number of chunks;
// per-chunk histograms are combined serially per bin into counts and running
// chunk bases, and each chunk then scatters its points with exclusively owned
// cursors. Points within a bin end up ordered by original index (a stable
// sort), independent of worker count — and no stage uses a single atomic.
template <typename T>
void bin_sort(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, const T* xg,
              const T* yg, const T* zg, std::size_t M, DeviceSort& out) {
  const std::size_t nbins = static_cast<std::size_t>(bins.total_bins());
  vgpu::device_buffer<std::uint32_t> binidx(dev, M);
  out.bin_counts = vgpu::device_buffer<std::uint32_t>(dev, nbins);
  out.bin_start = vgpu::device_buffer<std::uint32_t>(dev, nbins);
  out.order = vgpu::device_buffer<std::uint32_t>(dev, M);

  compute_bin_index(dev, grid, bins, xg, yg, zg, M, binidx.data());

  // Chunk count is a pure function of M (NOT the worker count), so the
  // resulting permutation is identical on every device configuration.
  const std::size_t C = std::clamp<std::size_t>(M / 8192, 1, 64);
  const std::size_t csz = (M + C - 1) / C;
  vgpu::device_buffer<std::uint32_t> chist(dev, C * nbins);
  vgpu::fill(dev, chist.span(), 0u);
  dev.launch(C, 1, [&](vgpu::BlockCtx& blk) {
    const std::size_t ch = blk.block_id;
    std::uint32_t* h = &chist[ch * nbins];
    const std::size_t lo = ch * csz, hi = std::min(lo + csz, M);
    for (std::size_t j = lo; j < hi; ++j) ++h[binidx[j]];
  });
  // counts[b] = sum over chunks; then turn each chunk's histogram entry into
  // its running scatter base (bin_start[b] + points of earlier chunks).
  dev.launch_items(nbins, 256, [&](std::size_t b, vgpu::BlockCtx&) {
    std::uint32_t s = 0;
    for (std::size_t ch = 0; ch < C; ++ch) s += chist[ch * nbins + b];
    out.bin_counts[b] = s;
  });
  vgpu::exclusive_scan(dev, out.bin_counts.span(), out.bin_start.span());
  dev.launch_items(nbins, 256, [&](std::size_t b, vgpu::BlockCtx&) {
    std::uint32_t run = out.bin_start[b];
    for (std::size_t ch = 0; ch < C; ++ch) {
      const std::uint32_t t = chist[ch * nbins + b];
      chist[ch * nbins + b] = run;
      run += t;
    }
  });
  dev.launch(C, 1, [&](vgpu::BlockCtx& blk) {
    const std::size_t ch = blk.block_id;
    std::uint32_t* cur = &chist[ch * nbins];  // exclusively owned cursors
    const std::size_t lo = ch * csz, hi = std::min(lo + csz, M);
    for (std::size_t j = lo; j < hi; ++j)
      out.order[cur[binidx[j]]++] = static_cast<std::uint32_t>(j);
  });
}

template void compute_bin_index<float>(vgpu::Device&, const GridSpec&, const BinSpec&,
                                       const float*, const float*, const float*,
                                       std::size_t, std::uint32_t*);
template void compute_bin_index<double>(vgpu::Device&, const GridSpec&, const BinSpec&,
                                        const double*, const double*, const double*,
                                        std::size_t, std::uint32_t*);
template void bin_sort<float>(vgpu::Device&, const GridSpec&, const BinSpec&, const float*,
                              const float*, const float*, std::size_t, DeviceSort&);
template void bin_sort<double>(vgpu::Device&, const GridSpec&, const BinSpec&,
                               const double*, const double*, const double*, std::size_t,
                               DeviceSort&);

}  // namespace cf::spread
