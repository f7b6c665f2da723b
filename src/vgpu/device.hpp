// Virtual GPU device: the CUDA-runtime substitute this reproduction runs on.
//
// The paper's library is CUDA; this environment has no GPU, so we model the
// execution hierarchy that the paper's algorithms are written against:
//
//   * a Device owns a fixed pool of workers (the "SMs"),
//   * kernels are launched as a grid of thread blocks; each block runs to
//     completion on one worker and gets a private shared-memory arena with
//     the V100's 48 KiB per-block budget,
//   * global memory is plain host memory; cross-block accumulation uses real
//     `std::atomic_ref` atomics (so atomic contention is physically real),
//   * device memory is accounted (bytes in use / peak) to reproduce the
//     paper's Table I RAM numbers,
//   * hardware-ish counters (global atomics, shared-memory ops) are
//     aggregated per block and reported by benches.
//
// Within a block, "threads" are executed sequentially by the owning worker
// (BlockCtx::for_each_thread); a barrier between two for_each_thread loops is
// therefore implicit. This preserves the block-level parallelism and the
// memory-system effects (coalescing = CPU cache locality, atomic collisions =
// cache-line contention) that the paper's spreading schemes target.
#pragma once

#include <atomic>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"

namespace cf::vgpu {

/// Counters aggregated across kernel launches; reset between timed sections.
struct DeviceCounters {
  std::atomic<std::uint64_t> kernels_launched{0};
  std::atomic<std::uint64_t> blocks_executed{0};
  std::atomic<std::uint64_t> global_atomics{0};
  std::atomic<std::uint64_t> shared_ops{0};
  std::atomic<std::uint64_t> tile_merge_ops{0};  ///< plain halo-merge adds
                                                 ///< (tiled spread writeback)

  void reset() {
    kernels_launched = 0;
    blocks_executed = 0;
    global_atomics = 0;
    shared_ops = 0;
    tile_merge_ops = 0;
  }
};

/// Static device properties (defaults model an NVIDIA Tesla V100).
struct DeviceProps {
  std::size_t shared_mem_per_block = 49152;  ///< bytes, the paper's 49 kB
  unsigned max_threads_per_block = 1024;
};

class Device;

/// Per-block execution context handed to kernels.
class BlockCtx {
 public:
  unsigned block_id = 0;    ///< blockIdx.x
  unsigned nblocks = 0;     ///< gridDim.x
  unsigned nthreads = 0;    ///< blockDim.x
  std::size_t worker = 0;   ///< stable worker id, for per-worker scratch

  /// Allocates `count` Ts from the block's shared-memory arena. Throws
  /// (mirroring a CUDA launch failure) if the 48 KiB budget is exceeded.
  template <typename T>
  std::span<T> shared(std::size_t count) {
    const std::size_t align = alignof(T);
    std::size_t off = (smem_used_ + align - 1) / align * align;
    if (off + count * sizeof(T) > smem_size_)
      throw std::runtime_error("vgpu: shared memory request exceeds per-block limit");
    smem_used_ = off + count * sizeof(T);
    return {reinterpret_cast<T*>(smem_base_ + off), count};
  }

  /// Runs f(t) for every thread index t in [0, nthreads). Sequential within
  /// the block; two consecutive calls have barrier semantics between them.
  template <typename F>
  void for_each_thread(F&& f) {
    for (unsigned t = 0; t < nthreads; ++t) f(t);
  }

  /// Barrier between in-block phases. A no-op under sequential-thread
  /// execution, kept so kernels read like their CUDA counterparts.
  void sync_threads() const {}

  /// Global-memory atomic add with counter accounting (atomicAdd analogue).
  template <typename T>
  void atomic_add(T* p, T v) {
    std::atomic_ref<T>(*p).fetch_add(v, std::memory_order_relaxed);
    ++n_global_atomics;
  }

  /// Complex atomic add = two scalar atomic adds, exactly as CUDA code does.
  template <typename T>
  void atomic_add(std::complex<T>* p, std::complex<T> v) {
    T* f = reinterpret_cast<T*>(p);
    std::atomic_ref<T>(f[0]).fetch_add(v.real(), std::memory_order_relaxed);
    std::atomic_ref<T>(f[1]).fetch_add(v.imag(), std::memory_order_relaxed);
    n_global_atomics += 2;
  }

  /// Count a shared-memory accumulate (the op itself is a plain add since
  /// in-block execution is sequential).
  void note_shared_op(std::uint64_t n = 1) { n_shared_ops += n; }

  /// Count plain (non-atomic) halo-merge adds of the tiled spread writeback,
  /// so benches can report the traffic that replaced the global atomics.
  void note_tile_merge(std::uint64_t n = 1) { n_tile_merge_ops += n; }

 private:
  friend class Device;
  std::byte* smem_base_ = nullptr;
  std::size_t smem_size_ = 0;
  std::size_t smem_used_ = 0;
  std::uint64_t n_global_atomics = 0;
  std::uint64_t n_shared_ops = 0;
  std::uint64_t n_tile_merge_ops = 0;
};

/// One virtual GPU. Multi-"GPU" experiments construct several Devices.
class Device {
 public:
  /// `workers` host threads act as the device's SMs (0 = all cores).
  explicit Device(std::size_t workers = 0, DeviceProps props = {});

  DeviceProps props;
  DeviceCounters counters;

  ThreadPool& pool() { return *pool_; }
  std::size_t n_workers() const { return pool_->size(); }

  /// Launches `nblocks` blocks of `nthreads` threads running `kernel(blk)`.
  /// Synchronous (returns when the grid completes), matching how the paper's
  /// timings wrap kernels with cudaDeviceSynchronize.
  template <typename K>
  void launch(std::size_t nblocks, unsigned nthreads, K&& kernel) {
    if (nthreads == 0 || nthreads > props.max_threads_per_block)
      throw std::invalid_argument("vgpu: bad block size");
    counters.kernels_launched.fetch_add(1, std::memory_order_relaxed);
    counters.blocks_executed.fetch_add(nblocks, std::memory_order_relaxed);
    if (nblocks == 0) return;
    pool_->parallel_for(0, nblocks, block_runner(nblocks, nthreads, kernel),
                        /*grain=*/1);
  }

  /// Convenience: grid-stride launch over `n` independent items with block
  /// size `block`; f(item_index, blk).
  template <typename F>
  void launch_items(std::size_t n, unsigned block, F&& f) {
    const std::size_t nblocks = (n + block - 1) / block;
    launch(nblocks, block, [&, n, block](BlockCtx& blk) {
      const std::size_t base = static_cast<std::size_t>(blk.block_id) * block;
      blk.for_each_thread([&](unsigned t) {
        const std::size_t i = base + t;
        if (i < n) f(i, blk);
      });
    });
  }

  // -- device memory accounting (models cudaMalloc bookkeeping) ------------
  void note_alloc(std::size_t bytes);
  void note_free(std::size_t bytes);
  std::size_t bytes_in_use() const { return bytes_in_use_.load(); }
  std::size_t peak_bytes() const { return peak_bytes_.load(); }
  void reset_peak();

 private:
  /// Per-block driver of launch(): builds the BlockCtx, runs the kernel, and
  /// flushes the block-local counters.
  template <typename K>
  auto block_runner(std::size_t nblocks, unsigned nthreads, K& kernel) {
    return [&kernel, this, nblocks, nthreads](std::size_t b, std::size_t wid) {
      BlockCtx blk;
      blk.block_id = static_cast<unsigned>(b);
      blk.nblocks = static_cast<unsigned>(nblocks);
      blk.nthreads = nthreads;
      blk.worker = wid;
      // ThreadPool's tiny-range fast path runs blocks INLINE on the calling
      // thread with wid = 0; with concurrent executes (the service layer)
      // the real worker 0 may simultaneously run another plan's block, so
      // inline blocks get a per-THREAD arena instead of worker 0's.
      blk.smem_base_ =
          ThreadPool::on_worker_thread() ? smem_arena(wid) : inline_arena();
      blk.smem_size_ = props.shared_mem_per_block;
      kernel(blk);
      if (blk.n_global_atomics)
        counters.global_atomics.fetch_add(blk.n_global_atomics, std::memory_order_relaxed);
      if (blk.n_shared_ops)
        counters.shared_ops.fetch_add(blk.n_shared_ops, std::memory_order_relaxed);
      if (blk.n_tile_merge_ops)
        counters.tile_merge_ops.fetch_add(blk.n_tile_merge_ops,
                                          std::memory_order_relaxed);
    };
  }

  std::byte* smem_arena(std::size_t wid) { return arenas_[wid].get(); }
  std::byte* inline_arena();  ///< per-OS-thread arena for inline-run blocks

  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<std::byte[]>> arenas_;
  std::atomic<std::size_t> bytes_in_use_{0};
  std::atomic<std::size_t> peak_bytes_{0};
};

}  // namespace cf::vgpu
