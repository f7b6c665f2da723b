// Shared helpers for the benchmark binaries: workload generation matching the
// paper's "rand" and "cluster" tasks (Sec. IV), timing wrappers, and common
// CLI flags. Every bench runs with scaled-down defaults (the substrate is a
// simulator, not a V100) and accepts --scale/--m/--reps to grow problems.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace cf::bench {

/// Machine-readable benchmark output: collects flat records and writes a
/// JSON array (one object per record) next to the human-readable tables, so
/// the perf trajectory can be tracked across PRs (e.g. BENCH_spread.json).
class JsonReport {
 public:
  class Record {
   public:
    Record& field(const std::string& key, const std::string& v) {
      kv_.emplace_back(key, "\"" + escape(v) + "\"");
      return *this;
    }
    Record& field(const std::string& key, const char* v) {
      return field(key, std::string(v));
    }
    Record& field(const std::string& key, double v) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", v);
      kv_.emplace_back(key, buf);
      return *this;
    }
    Record& field(const std::string& key, std::int64_t v) {
      kv_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Record& field(const std::string& key, std::size_t v) {
      kv_.emplace_back(key, std::to_string(v));
      return *this;
    }
    Record& field(const std::string& key, int v) {
      return field(key, static_cast<std::int64_t>(v));
    }

   private:
    friend class JsonReport;
    static std::string escape(const std::string& s) {
      std::string out;
      for (char ch : s) {
        if (ch == '"' || ch == '\\') out.push_back('\\');
        out.push_back(ch);
      }
      return out;
    }
    std::vector<std::pair<std::string, std::string>> kv_;
  };

  Record& add() { return records_.emplace_back(); }
  bool empty() const { return records_.empty(); }

  /// Writes the array; returns false (and warns) if the file cannot open.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "JsonReport: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (std::size_t r = 0; r < records_.size(); ++r) {
      std::fprintf(f, "  {");
      const auto& kv = records_[r].kv_;
      for (std::size_t i = 0; i < kv.size(); ++i)
        std::fprintf(f, "%s\"%s\": %s", i ? ", " : "", kv[i].first.c_str(),
                     kv[i].second.c_str());
      std::fprintf(f, "}%s\n", r + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<Record> records_;
};

/// The paper's two extreme nonuniform point distributions.
enum class Dist { Rand, Cluster };

inline const char* dist_name(Dist d) { return d == Dist::Rand ? "rand" : "cluster"; }

/// Nonuniform points in the NUFFT domain [-pi, pi)^dim plus strengths.
template <typename T>
struct Workload {
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> c;
  std::size_t M = 0;

  const T* xp() const { return x.data(); }
  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }
};

/// Generates M points: "rand" iid over the whole box; "cluster" iid in
/// [0, 8h]^d with h the fine-grid spacing of a grid with nf points per axis
/// (paper Sec. IV "Tasks").
template <typename T>
Workload<T> make_workload(int dim, std::size_t M, Dist dist, std::int64_t nf_for_cluster,
                          std::uint64_t seed = 42) {
  Workload<T> wl;
  wl.M = M;
  wl.x.resize(M);
  if (dim >= 2) wl.y.resize(M);
  if (dim >= 3) wl.z.resize(M);
  wl.c.resize(M);
  Rng rng(seed);
  const double pi = 3.141592653589793;
  const double h = 2.0 * pi / double(nf_for_cluster);
  auto coord = [&]() {
    return static_cast<T>(dist == Dist::Rand ? rng.uniform(-pi, pi)
                                             : rng.uniform(-pi, -pi + 8.0 * h));
  };
  for (std::size_t j = 0; j < M; ++j) {
    wl.x[j] = coord();
    if (dim >= 2) wl.y[j] = coord();
    if (dim >= 3) wl.z[j] = coord();
    wl.c[j] = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
  return wl;
}

/// Gaussian-clump distribution for load-imbalance studies: `clumps` centers
/// iid over the box, each point assigned round-robin to a center and placed
/// Gaussian around it (sigma = sigma_cells fine-grid cells, Box-Muller over
/// the Rng uniforms), wrapped into [-pi, pi). With a handful of clumps and a
/// small sigma nearly every point lands in a few bins — the adversarial case
/// for any per-tile spread schedule.
template <typename T>
Workload<T> make_clumped_workload(int dim, std::size_t M, std::size_t clumps,
                                  std::int64_t nf, double sigma_cells,
                                  std::uint64_t seed = 47) {
  Workload<T> wl;
  wl.M = M;
  wl.x.resize(M);
  if (dim >= 2) wl.y.resize(M);
  if (dim >= 3) wl.z.resize(M);
  wl.c.resize(M);
  Rng rng(seed);
  const double pi = 3.141592653589793;
  const double sigma = sigma_cells * 2.0 * pi / double(nf);
  std::vector<double> centers(clumps * 3);
  for (auto& v : centers) v = rng.uniform(-pi, pi);
  auto gauss = [&]() {
    const double u1 = std::max(rng.uniform(0, 1), 1e-12);
    const double u2 = rng.uniform(0, 1);
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * pi * u2);
  };
  auto wrap = [&](double a) {
    while (a >= pi) a -= 2.0 * pi;
    while (a < -pi) a += 2.0 * pi;
    return static_cast<T>(a);
  };
  for (std::size_t j = 0; j < M; ++j) {
    const double* ctr = &centers[(j % clumps) * 3];
    wl.x[j] = wrap(ctr[0] + sigma * gauss());
    if (dim >= 2) wl.y[j] = wrap(ctr[1] + sigma * gauss());
    if (dim >= 3) wl.z[j] = wrap(ctr[2] + sigma * gauss());
    wl.c[j] = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }
  return wl;
}

/// Percentile over raw samples — the shared cf::percentile from
/// common/clock.hpp (one timing utility for bench, Breakdown stopwatches,
/// and the obs histograms), re-exposed under the bench namespace.
using cf::percentile;

/// Median and range of a set of timed reps (ms), as the BENCH_*.json rows
/// report them.
struct Stats {
  double median, min, max;
};

inline Stats summarize(const std::vector<double>& ms) {
  return {percentile(ms, 50), *std::min_element(ms.begin(), ms.end()),
          *std::max_element(ms.begin(), ms.end())};
}

/// ns per nonuniform point from a seconds measurement.
inline double ns_per_pt(double seconds, std::size_t M) {
  return seconds * 1e9 / double(M);
}

inline std::string fmt_ns(double seconds, std::size_t M) {
  return Table::fmt(ns_per_pt(seconds, M), 1);
}

/// Standard bench preamble: prints what is being reproduced.
inline void banner(const char* experiment, const char* paper_claim) {
  std::printf("=====================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("Absolute times are simulator times (no GPU here); compare *shapes*:\n");
  std::printf("method ranking, crossovers, and distribution sensitivity.\n");
  std::printf("=====================================================================\n");
}

}  // namespace cf::bench
