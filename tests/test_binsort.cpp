// Bin-sort pipeline and tile chunk-split invariants.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "spreadinterp/binsort.hpp"
#include "spreadinterp/point_cache.hpp"
#include "vgpu/device.hpp"

namespace spread = cf::spread;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

struct SortFixture {
  vgpu::Device dev{4};
  spread::GridSpec grid;
  spread::BinSpec bins;
  std::vector<float> xg, yg;
  spread::DeviceSort sort;

  SortFixture(std::int64_t nf, std::size_t M, bool clustered, std::uint64_t seed = 11) {
    grid.dim = 2;
    grid.nf = {nf, nf, 1};
    bins = spread::BinSpec::make(grid, spread::BinSpec::default_size(2));
    Rng rng(seed);
    xg.resize(M);
    yg.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      const double lim = clustered ? 8.0 : double(nf);
      xg[j] = static_cast<float>(rng.uniform(0, lim));
      yg[j] = static_cast<float>(rng.uniform(0, lim));
    }
    spread::bin_sort<float>(dev, grid, bins, xg.data(), yg.data(), nullptr, M, sort);
  }

  std::uint32_t expected_bin(std::size_t j) const {
    const auto bx = std::min<std::int64_t>(std::int64_t(xg[j]) / bins.m[0], bins.nbins[0] - 1);
    const auto by = std::min<std::int64_t>(std::int64_t(yg[j]) / bins.m[1], bins.nbins[1] - 1);
    return static_cast<std::uint32_t>(bx + bins.nbins[0] * by);
  }
};

}  // namespace

TEST(BinSort, OrderIsAPermutation) {
  SortFixture f(256, 5000, false);
  std::vector<bool> seen(5000, false);
  for (std::size_t i = 0; i < 5000; ++i) {
    const auto j = f.sort.order[i];
    ASSERT_LT(j, 5000u);
    EXPECT_FALSE(seen[j]);
    seen[j] = true;
  }
}

TEST(BinSort, CountsSumToM) {
  SortFixture f(256, 7777, false);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < f.sort.bin_counts.size(); ++b) total += f.sort.bin_counts[b];
  EXPECT_EQ(total, 7777u);
}

TEST(BinSort, PointsGroupedByBinInSortedOrder) {
  SortFixture f(512, 20000, false);
  const std::size_t nbins = f.sort.bin_counts.size();
  for (std::size_t b = 0; b < nbins; ++b) {
    const std::uint32_t start = f.sort.bin_start[b];
    const std::uint32_t cnt = f.sort.bin_counts[b];
    for (std::uint32_t i = start; i < start + cnt; ++i)
      EXPECT_EQ(f.expected_bin(f.sort.order[i]), b);
  }
}

TEST(BinSort, BinStartIsExclusiveScanOfCounts) {
  SortFixture f(128, 3000, false);
  std::uint32_t run = 0;
  for (std::size_t b = 0; b < f.sort.bin_counts.size(); ++b) {
    EXPECT_EQ(f.sort.bin_start[b], run);
    run += f.sort.bin_counts[b];
  }
}

TEST(BinSort, ClusteredPointsLandInFewBins) {
  SortFixture f(512, 10000, true);
  std::size_t nonempty = 0;
  for (std::size_t b = 0; b < f.sort.bin_counts.size(); ++b)
    if (f.sort.bin_counts[b] > 0) ++nonempty;
  EXPECT_LE(nonempty, 4u);  // an 8x8 cluster spans at most 2x2 bins of 32x32
}

TEST(BinSort, EdgeCoordinatesClampToLastBin) {
  // nf=100 with m=32 -> nbins=4, last bin covers [96,100): indices up to 99.
  vgpu::Device dev(2);
  spread::GridSpec grid;
  grid.dim = 2;
  grid.nf = {100, 100, 1};
  auto bins = spread::BinSpec::make(grid, {32, 32, 1});
  EXPECT_EQ(bins.nbins[0], 4);
  std::vector<float> xg = {99.5f, 0.0f}, yg = {99.5f, 0.0f};
  spread::DeviceSort sort;
  spread::bin_sort<float>(dev, grid, bins, xg.data(), yg.data(), nullptr, 2, sort);
  EXPECT_EQ(sort.bin_counts[4 * 4 - 1], 1u);  // corner point in last bin
  EXPECT_EQ(sort.bin_counts[0], 1u);
}

// The tile engine's chunk split: each bin's sorted run is carved into
// balanced work items of at most `cap` points (paper Rmk. 1's Msub cap).
namespace {
spread::TileSet<float> tiles_of(SortFixture& f, int cap) {
  spread::TileSet<float> ts;
  spread::build_tile_set(f.dev, f.grid, f.bins, 6, f.sort, 1, ts, cap);
  return ts;
}
}  // namespace

TEST(TileChunks, CapRespectedAndCoverComplete) {
  SortFixture f(256, 30000, true);  // clustered: forces splitting
  const std::uint32_t cap = 1024;
  const auto ts = tiles_of(f, cap);
  ASSERT_GT(ts.n_split, 0u);
  // Reconstruct per-bin coverage from the chunk list.
  std::vector<std::uint64_t> covered(f.sort.bin_counts.size(), 0);
  for (std::uint32_t k = 0; k < ts.n_chunks; ++k) {
    const auto b = ts.tile_bin[ts.chunk_tile[k]];
    EXPECT_LE(ts.chunk_cnt[k], cap);
    EXPECT_LE(ts.chunk_off[k] + ts.chunk_cnt[k], f.sort.bin_counts[b]);
    covered[b] += ts.chunk_cnt[k];
  }
  for (std::size_t b = 0; b < covered.size(); ++b)
    EXPECT_EQ(covered[b], f.sort.bin_counts[b]);
}

TEST(TileChunks, UniformSmallBinsGiveOneChunkPerNonemptyBin) {
  SortFixture f(512, 2000, false);
  const auto ts = tiles_of(f, 1024);
  std::size_t nonempty = 0;
  for (std::size_t b = 0; b < f.sort.bin_counts.size(); ++b)
    if (f.sort.bin_counts[b] > 0) ++nonempty;
  EXPECT_EQ(ts.n_active, nonempty);
  EXPECT_EQ(ts.n_chunks, nonempty);
}

TEST(TileChunks, CapOneGivesOneChunkPerPoint) {
  SortFixture f(64, 500, false);
  EXPECT_EQ(tiles_of(f, 1).n_chunks, 500u);
}

TEST(BinSpec, EdgeBinsMayBeSmaller) {
  spread::GridSpec g;
  g.dim = 3;
  g.nf = {100, 64, 30};
  auto b = spread::BinSpec::make(g, {16, 16, 2});
  EXPECT_EQ(b.nbins[0], 7);  // ceil(100/16)
  EXPECT_EQ(b.nbins[1], 4);
  EXPECT_EQ(b.nbins[2], 15);
  EXPECT_EQ(b.total_bins(), 7 * 4 * 15);
}
