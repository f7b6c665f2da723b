// Device-side bin sorting of nonuniform points (paper Sec. III-A).
//
// The sort is a counting sort in the deterministic chunked formulation
// (per-chunk histograms -> per-bin serial combine -> exclusively owned chunk
// cursors): no atomics anywhere, and the permutation is STABLE (points within
// a bin keep their original index order) independent of the worker count —
// the property the tiled spread writeback's bitwise-determinism guarantee
// rests on. The resulting permutation `order` is the paper's bijection t:
// points order[bin_start[i]] .. order[bin_start[i+1]-1] lie in bin R_i.
#pragma once

#include <cstdint>

#include "spreadinterp/grid.hpp"
#include "vgpu/buffer.hpp"
#include "vgpu/device.hpp"

namespace cf::spread {

/// Bin-sort result, all device-resident (this is the GM-sort / SM memory
/// overhead the paper's Limitation (1) refers to).
struct DeviceSort {
  vgpu::device_buffer<std::uint32_t> bin_counts;  ///< points per bin
  vgpu::device_buffer<std::uint32_t> bin_start;   ///< exclusive scan of counts
  vgpu::device_buffer<std::uint32_t> order;       ///< permutation t (size M)
};

/// Computes each point's bin index from fine-grid coordinates xg/yg/zg
/// (already fold-rescaled into [0, nf)); unused axes pass nullptr.
template <typename T>
void compute_bin_index(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins,
                       const T* xg, const T* yg, const T* zg, std::size_t M,
                       std::uint32_t* binidx);

/// Full bin sort: fills `out` (buffers are allocated on `dev`).
template <typename T>
void bin_sort(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, const T* xg,
              const T* yg, const T* zg, std::size_t M, DeviceSort& out);

}  // namespace cf::spread
