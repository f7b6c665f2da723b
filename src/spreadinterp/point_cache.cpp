// Builders for the plan-resident point caches (point_cache.hpp): the
// bin-sorted tap table consumed by SM/tiled spreading, the interior-first
// iteration partition consumed by the branch-free GM/GM-sort no-wrap path,
// and the colour-classed tile set consumed by the atomic-free spread
// writeback.
#include "spreadinterp/point_cache.hpp"

#include <stdexcept>

#include "spreadinterp/spread.hpp"
#include "spreadinterp/spread_impl.hpp"
#include "vgpu/primitives.hpp"

namespace cf::spread {

namespace {

using namespace detail;

/// W > 0 evaluates through the width-specialized path (identical values to
/// the inline evaluation of the fast kernels); W == 0 through the runtime-w
/// scalar path. Both pad rows to wpad lanes with exact zeros.
template <int DIM, int W, typename T>
void build_tap_table_impl(vgpu::Device& dev, const KernelParams<T>& kp,
                          const NuPoints<T>& pts, const std::uint32_t* order,
                          TapTable<T>& tt) {
  tt.wpad = pad_width(kp.w);
  tt.vals = vgpu::device_buffer<T>(dev, pts.M * static_cast<std::size_t>(DIM * tt.wpad));
  tt.l0 = vgpu::device_buffer<std::int32_t>(dev, pts.M * static_cast<std::size_t>(DIM));
  const int w = kp.w, wpad = tt.wpad;
  dev.launch_items(pts.M, 256, [&, w, wpad](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    if (jj + kPointPrefetch < pts.M)
      prefetch_point<DIM>(pts, static_cast<const std::complex<T>*>(nullptr),
                          order ? order[jj + kPointPrefetch] : jj + kPointPrefetch);
    T px[3];
    load_point<DIM>(pts, j, px);
    T* row = &tt.vals[jj * static_cast<std::size_t>(DIM * wpad)];
    std::int32_t* lrow = &tt.l0[jj * DIM];
    for (int d = 0; d < DIM; ++d) {
      T* v = row + d * wpad;
      std::int64_t l0;
      if constexpr (W > 0) {
        l0 = es_values_padded<W>(kp, px[d], v);
      } else {
        l0 = es_values(kp, px[d], v);
        for (int i = w; i < wpad; ++i) v[i] = T(0);
      }
      lrow[d] = static_cast<std::int32_t>(l0);
    }
  });
}

template <int DIM, typename T>
void build_tap_table_dim(vgpu::Device& dev, const KernelParams<T>& kp,
                         const NuPoints<T>& pts, const std::uint32_t* order,
                         TapTable<T>& tt) {
  if (kp.fast && dispatch_width(kp.w, [&](auto W) {
        build_tap_table_impl<DIM, decltype(W)::value>(dev, kp, pts, order, tt);
      }))
    return;
  build_tap_table_impl<DIM, 0>(dev, kp, pts, order, tt);
}

}  // namespace

template <typename T>
void build_tap_table(vgpu::Device& dev, int dim, const KernelParams<T>& kp,
                     const NuPoints<T>& pts, const std::uint32_t* order,
                     TapTable<T>& out) {
  detail::dispatch_dim(
      dim, [&] { build_tap_table_dim<1>(dev, kp, pts, order, out); },
      [&] { build_tap_table_dim<2>(dev, kp, pts, order, out); },
      [&] { build_tap_table_dim<3>(dev, kp, pts, order, out); });
}

template <typename T>
void classify_interior(vgpu::Device& dev, const GridSpec& grid,
                       const KernelParams<T>& kp, const NuPoints<T>& pts,
                       const std::uint32_t* order, InteriorPartition& out) {
  const std::size_t M = pts.M;
  out = InteriorPartition{};
  if (M == 0) return;
  const int dim = grid.dim;
  const T half_w = kp.half_w;
  const int w = kp.w;
  const auto nf = grid.nf;
  vgpu::device_buffer<std::uint32_t> flags(dev, M);
  dev.launch_items(M, 256, [&, dim, half_w, w](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t j = order ? order[jj] : jj;
    const T* coords[3] = {pts.xg, pts.yg, pts.zg};
    bool ok = true;
    for (int d = 0; d < dim; ++d) {
      // The exact l0 the kernels derive (es_values): the no-wrap indices of
      // an interior point equal the wrapped ones bit for bit.
      const std::int64_t l0 =
          static_cast<std::int64_t>(std::ceil(coords[d][j] - half_w));
      ok = ok && l0 >= 0 && l0 + w <= nf[d];
    }
    flags[jj] = ok ? 1u : 0u;
  });
  // Stable partition: interior points keep their relative order at the front,
  // boundary points theirs at the back. rank = exclusive scan of the flags.
  vgpu::device_buffer<std::uint32_t> rank(dev, M);
  const std::uint64_t n_in = vgpu::exclusive_scan(dev, flags.span(), rank.span());
  out.order = vgpu::device_buffer<std::uint32_t>(dev, M);
  dev.launch_items(M, 256, [&, n_in](std::size_t jj, vgpu::BlockCtx&) {
    const std::size_t pos =
        flags[jj] ? rank[jj] : n_in + (jj - rank[jj]);
    out.order[pos] = order ? order[jj] : static_cast<std::uint32_t>(jj);
  });
  out.n_interior = static_cast<std::size_t>(n_in);
  out.n_boundary = M - out.n_interior;
}

template <typename T>
void build_tile_set(vgpu::Device& dev, const GridSpec& grid, const BinSpec& bins, int w,
                    const DeviceSort& sort, int B, TileSet<T>& out, int chunk_cap) {
  out = TileSet<T>{};
  if (!tile_fits(grid, bins, w))
    throw std::logic_error("build_tile_set: padded tile exceeds the fine grid");
  const int pad = (w + 1) / 2;
  out.pad = pad;
  out.padded = 1;
  for (int d = 0; d < grid.dim; ++d) {
    out.p[d] = bins.m[d] + 2 * pad;
    out.padded *= static_cast<std::size_t>(out.p[d]);
  }
  // Fast-path x-loops run pad_width(w) lanes, overhanging the final row by up
  // to the tap-pad slack; give every plane that slack so the overhang stays
  // inside its own slot.
  out.plane = out.padded + static_cast<std::size_t>(pad_width(w) - w);

  // -- colour classes (host-side; setpts-time, like the sort) ---------------
  // Active bins counting-sorted by tile colour (stable: ascending bin id
  // within a colour).
  std::vector<std::uint32_t> color;
  out.n_colors = tile_colors(grid, bins, pad, color);
  const std::size_t nbins = sort.bin_counts.size();
  out.color_tile0.assign(out.n_colors + 1, 0);
  for (std::size_t b = 0; b < nbins; ++b)
    if (sort.bin_counts[b] > 0) ++out.color_tile0[color[b] + 1];
  for (std::uint32_t k = 0; k < out.n_colors; ++k)
    out.color_tile0[k + 1] += out.color_tile0[k];
  out.n_active = out.color_tile0[out.n_colors];
  out.tile_bin = vgpu::device_buffer<std::uint32_t>(dev, out.n_active);
  {
    std::vector<std::uint32_t> cursor(out.color_tile0.begin(), out.color_tile0.end() - 1);
    for (std::size_t b = 0; b < nbins; ++b)
      if (sort.bin_counts[b] > 0)
        out.tile_bin[cursor[color[b]]++] = static_cast<std::uint32_t>(b);
  }

  B = std::max(1, B);
  if (out.n_active > 0) {
    // -- canonical chunk split ----------------------------------------------
    // Count chunks at the cap, and double the cap until the split tiles'
    // chunk planes fit kTileChunkArenaMaxBytes. The budget test excludes the
    // per-worker scratch on purpose: the applied cap must be a pure function
    // of the points, so the summation split (and with it the spread output)
    // is bitwise-identical at every worker count.
    std::uint64_t cap = chunk_cap > 0 ? static_cast<std::uint64_t>(chunk_cap) : UINT32_MAX;
    std::uint32_t maxpts = 0;
    for (std::uint32_t s = 0; s < out.n_active; ++s)
      maxpts = std::max(maxpts, sort.bin_counts[out.tile_bin[s]]);
    out.max_tile_points = maxpts;
    std::uint64_t nch = 0, nsplitch = 0, nsplit = 0;
    for (;;) {
      nch = nsplitch = nsplit = 0;
      for (std::uint32_t s = 0; s < out.n_active; ++s) {
        const std::uint64_t cnt = sort.bin_counts[out.tile_bin[s]];
        const std::uint64_t k = (cnt + cap - 1) / cap;
        nch += k;
        if (k > 1) {
          nsplitch += k;
          ++nsplit;
        }
      }
      if (nsplitch == 0 ||
          nsplitch * out.plane * 2 * sizeof(T) <= kTileChunkArenaMaxBytes)
        break;
      cap = cap > UINT32_MAX / 2 ? UINT32_MAX : cap * 2;
    }
    out.chunk_cap = static_cast<std::uint32_t>(std::min<std::uint64_t>(cap, UINT32_MAX));
    out.n_chunks = static_cast<std::uint32_t>(nch);
    out.n_split = static_cast<std::uint32_t>(nsplit);
    out.n_split_chunks = static_cast<std::uint32_t>(nsplitch);
    out.tile_chunk0 = vgpu::device_buffer<std::uint32_t>(dev, out.n_active + 1);
    out.chunk_tile = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
    out.chunk_off = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
    out.chunk_cnt = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
    out.chunk_plane = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
    out.split_tile = vgpu::device_buffer<std::uint32_t>(dev, out.n_split);
    out.sched = vgpu::device_buffer<std::uint32_t>(dev, out.n_chunks);
    out.color_chunk0.assign(out.n_colors + 1, 0);
    out.color_split0.assign(out.n_colors + 1, 0);
    std::uint32_t ck = 0, cpl = 0, sp = 0;
    for (std::uint32_t k = 0; k < out.n_colors; ++k) {
      out.color_chunk0[k] = ck;
      out.color_split0[k] = sp;
      for (std::uint32_t s = out.color_tile0[k]; s < out.color_tile0[k + 1]; ++s) {
        out.tile_chunk0[s] = ck;
        const std::uint64_t cnt = sort.bin_counts[out.tile_bin[s]];
        const std::uint64_t nk = (cnt + cap - 1) / cap;
        if (nk > 1) out.split_tile[sp++] = s;
        // Balanced sizes (differing by at most one point) beat cap-sized runs
        // with a small remainder chunk for load balance; the split is a pure
        // function of (cnt, cap), hence canonical.
        const std::uint64_t base = cnt / nk, rem = cnt % nk;
        std::uint64_t off = 0;
        for (std::uint64_t i = 0; i < nk; ++i, ++ck) {
          const std::uint64_t sz = base + (i < rem ? 1 : 0);
          out.chunk_tile[ck] = s;
          out.chunk_off[ck] = static_cast<std::uint32_t>(off);
          out.chunk_cnt[ck] = static_cast<std::uint32_t>(sz);
          out.chunk_plane[ck] = nk > 1 ? cpl++ : TileSet<T>::kNoTile;
          out.sched[ck] = ck;
          off += sz;
        }
      }
      // Largest-first within the colour's launch (stable by chunk id).
      std::stable_sort(out.sched.data() + out.color_chunk0[k], out.sched.data() + ck,
                       [&](std::uint32_t a, std::uint32_t b) {
                         return out.chunk_cnt[a] > out.chunk_cnt[b];
                       });
    }
    out.color_chunk0[out.n_colors] = ck;
    out.color_split0[out.n_colors] = sp;
    out.tile_chunk0[out.n_active] = ck;

    // Batch planes held at once: as many as the chunk budget covers for the
    // worker scratch plus the chunk planes, at least one. Planes never mix,
    // so this affects memory only, never the output bits.
    const std::size_t per_plane =
        (dev.n_workers() + out.n_split_chunks) * out.plane * 2 * sizeof(T);
    out.nb = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(B),
        std::max<std::size_t>(1, kTileChunkArenaMaxBytes / per_plane)));
    const std::size_t scratch = dev.n_workers() * out.plane * out.nb;
    out.scratch_re = vgpu::device_buffer<T>(dev, scratch);
    out.scratch_im = vgpu::device_buffer<T>(dev, scratch);
    out.chunk_re = vgpu::device_buffer<T>(dev, out.n_split_chunks * out.plane * out.nb);
    out.chunk_im = vgpu::device_buffer<T>(dev, out.n_split_chunks * out.plane * out.nb);
    out.chunk_box.resize(out.n_split_chunks);
    out.arena_bytes = (out.scratch_re.bytes() + out.chunk_re.bytes()) * 2;
  }
  out.usable = true;
}

#define CF_INSTANTIATE(T)                                                               \
  template void build_tap_table<T>(vgpu::Device&, int, const KernelParams<T>&,          \
                                   const NuPoints<T>&, const std::uint32_t*,            \
                                   TapTable<T>&);                                       \
  template void classify_interior<T>(vgpu::Device&, const GridSpec&,                    \
                                     const KernelParams<T>&, const NuPoints<T>&,        \
                                     const std::uint32_t*, InteriorPartition&);         \
  template void build_tile_set<T>(vgpu::Device&, const GridSpec&, const BinSpec&, int,  \
                                  const DeviceSort&, int, TileSet<T>&, int);

CF_INSTANTIATE(float)
CF_INSTANTIATE(double)
#undef CF_INSTANTIATE

}  // namespace cf::spread
