#include "cpu/cpu_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "common/timer.hpp"
#include "spreadinterp/kernel_ft.hpp"
#include "spreadinterp/spread_impl.hpp"

namespace cf::cpu {

namespace {

template <typename T>
inline void atomic_add_cplx(std::complex<T>* p, std::complex<T> v) {
  T* f = reinterpret_cast<T*>(p);
  std::atomic_ref<T>(f[0]).fetch_add(v.real(), std::memory_order_relaxed);
  std::atomic_ref<T>(f[1]).fetch_add(v.imag(), std::memory_order_relaxed);
}

}  // namespace

template <typename T>
CpuPlan<T>::CpuPlan(ThreadPool& pool, int type, std::span<const std::int64_t> nmodes,
                    int iflag, double tol, Options opts)
    : pool_(&pool),
      type_(type),
      iflag_(iflag >= 0 ? 1 : -1),
      opts_(opts),
      kp_(spread::KernelParams<T>::from_width(
          spread::width_from_tol(tol, opts.upsampfac), opts.upsampfac)) {
  // from_width, above, has rejected any upsampfac but 2.0 and 1.25.
  if (type_ != 1 && type_ != 2) throw std::invalid_argument("CpuPlan: type must be 1 or 2");
  if (opts_.msub == 0) throw std::invalid_argument("CpuPlan: msub must be positive");
  grid_ = spread::make_grid(nmodes, opts_.upsampfac, kp_.w);
  for (std::size_t d = 0; d < nmodes.size(); ++d) N_[d] = nmodes[d];
  bins_ = spread::BinSpec::make(grid_, spread::BinSpec::default_size(grid_.dim));
  box_.resize(pool_->size());

  std::vector<std::size_t> dims;
  for (int d = 0; d < grid_.dim; ++d) dims.push_back(static_cast<std::size_t>(grid_.nf[d]));
  fft_ = std::make_unique<fft::FftNd<T>>(*pool_, dims);
  fw_.resize(static_cast<std::size_t>(std::max(1, opts_.ntransf)) *
             static_cast<std::size_t>(grid_.total()));

  const T beta = kp_.beta;
  auto kernel = [beta](double z) { return double(spread::es_eval(T(z), beta)); };
  for (int d = 0; d < grid_.dim; ++d) {
    auto p = spread::correction_factors(static_cast<std::size_t>(N_[d]),
                                        static_cast<std::size_t>(grid_.nf[d]), kp_.w,
                                        kernel);
    fser_[d].assign(p.begin(), p.end());
  }
  for (int d = grid_.dim; d < 3; ++d) fser_[d].assign(1, T(1));
}

template <typename T>
void CpuPlan<T>::set_points(std::size_t M, const T* x, const T* y, const T* z) {
  spread::check_point_count(M);
  if (grid_.dim >= 2 && !y) throw std::invalid_argument("set_points: y required");
  if (grid_.dim >= 3 && !z) throw std::invalid_argument("set_points: z required");
  std::lock_guard lk(mu_);  // a shared plan may be re-pointed while others wait
  M_ = 0;  // no usable points until the new ones pass the finiteness check
  subprobs_.clear();
  Timer t;
  const int dim = grid_.dim;
  xg_.resize(M);
  if (dim >= 2) yg_.resize(M);
  if (dim >= 3) zg_.resize(M);
  // A NaN or Inf coordinate folds to NaN, whose bin index is undefined, so
  // the fold pass also checks finiteness and the sort never sees one.
  std::atomic<bool> finite{true};
  pool_->parallel_for(0, M, [&](std::size_t j, std::size_t) {
    xg_[j] = spread::fold_rescale(x[j], grid_.nf[0]);
    if (dim >= 2) yg_[j] = spread::fold_rescale(y[j], grid_.nf[1]);
    if (dim >= 3) zg_[j] = spread::fold_rescale(z[j], grid_.nf[2]);
    if (!(std::isfinite(x[j]) && (dim < 2 || std::isfinite(y[j])) &&
          (dim < 3 || std::isfinite(z[j]))))
      finite.store(false, std::memory_order_relaxed);
  }, 1024);
  if (!finite.load()) throw std::invalid_argument("set_points: non-finite coordinate");
  M_ = M;

  // Counting sort by bin (parallel histogram with atomics, serial scan).
  const T* coords[3] = {xg_.data(), yg_.data(), zg_.data()};
  const std::size_t nbins = static_cast<std::size_t>(bins_.total_bins());
  std::vector<std::uint32_t> binidx(M);
  std::vector<std::uint32_t> counts(nbins, 0);
  pool_->parallel_for(0, M, [&](std::size_t j, std::size_t) {
    std::int64_t b[3] = {0, 0, 0};
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l = static_cast<std::int64_t>(coords[d][j]);
      b[d] = std::min<std::int64_t>(l / bins_.m[d], bins_.nbins[d] - 1);
    }
    const auto bi = static_cast<std::uint32_t>(
        b[0] + bins_.nbins[0] * (b[1] + bins_.nbins[1] * b[2]));
    binidx[j] = bi;
    std::atomic_ref<std::uint32_t>(counts[bi]).fetch_add(1, std::memory_order_relaxed);
  }, 1024);
  std::vector<std::uint32_t> cursors(nbins, 0);
  for (std::size_t i = 1; i < nbins; ++i) cursors[i] = cursors[i - 1] + counts[i - 1];
  order_.resize(M);
  // Serial stable scatter: points within a bin keep their original index
  // order, so the sorted order, and with it each subproblem's points, depends
  // on the points alone and not on how the pool schedules the sort. The
  // comparator's sort is not a hot path.
  for (std::size_t j = 0; j < M; ++j)
    order_[cursors[binidx[j]]++] = static_cast<std::uint32_t>(j);

  // FINUFFT's subproblems: one contiguous run of the sorted points per pool
  // worker, more if a run would exceed msub; each gets the box its taps reach
  // (leftmost taps ceil(x - w/2), exactly as es_values computes them).
  if (type_ == 1 && M > 0) {
    std::size_t nb = std::min<std::size_t>(pool_->size(), M);
    if (nb * opts_.msub < M) nb = (M + opts_.msub - 1) / opts_.msub;
    subprobs_.resize(nb);
    pool_->parallel_for(0, nb, [&](std::size_t i, std::size_t) {
      Subproblem& s = subprobs_[i];
      s.first = M * i / nb;
      s.last = M * (i + 1) / nb;
      for (int d = 0; d < dim; ++d) {
        std::int64_t lo = INT64_MAX, hi = INT64_MIN;
        for (std::size_t jj = s.first; jj < s.last; ++jj) {
          const auto l0 =
              static_cast<std::int64_t>(std::ceil(coords[d][order_[jj]] - kp_.half_w));
          lo = std::min(lo, l0);
          hi = std::max(hi, l0);
        }
        s.off[d] = lo;
        s.size[d] = hi - lo + kp_.w;
      }
    });
  }
  bd_ = CpuBreakdown{};
  bd_.sort = t.seconds();
}

// FINUFFT's spreader: each subproblem's points are accumulated into its
// worker's box buffer (B stacked planes), then the box is added into the fine
// grid with atomic adds, the periodic wrap resolved once per contiguous row
// run (the same for_padded_rows helper as the device SM writeback). A box
// wider than nf on an axis wraps onto itself; the atomics add each repeat.
// The merge clears every cell it reads, so box buffers stay zero between
// subproblems and need no zeroing pass. Kernel weights are evaluated once per
// point and applied to all B vectors; the point loops run through the same
// compile-time width dispatch as the device kernels (W = 0 is the
// runtime-width fallback).
template <typename T>
void CpuPlan<T>::spread_subproblems(const cplx* c, int B) {
  const int dim = grid_.dim;
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  auto run = [&](auto WC) {
    constexpr int W = decltype(WC)::value;
    pool_->parallel_for(0, subprobs_.size(), [&](std::size_t si, std::size_t wid) {
      const int wl = W > 0 ? W : kp_.w;
      const Subproblem& s = subprobs_[si];
      const std::int64_t* p = s.size;
      const std::size_t cells = static_cast<std::size_t>(p[0] * p[1] * p[2]);
      auto& buf = box_[wid];
      if (buf.size() < cells * B) buf.resize(cells * B);
      for (std::size_t jj = s.first; jj < s.last; ++jj) {
        const std::size_t j = order_[jj];
        T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
        T vals[3][spread::kMaxWidth];
        std::int64_t li0[3] = {0, 0, 0};
        for (int d = 0; d < dim; ++d) {
          if constexpr (W > 0)
            li0[d] = spread::es_values_fixed<W>(kp_, px[d], vals[d]) - s.off[d];
          else
            li0[d] = spread::es_values(kp_, px[d], vals[d]) - s.off[d];
        }
        for (int bb = 0; bb < B; ++bb) {
          // FINUFFT's tap loop: the strength times the x kernel, re/im
          // interleaved, is one 2w-long real row added at every (y, z) tap.
          const cplx cj = c[bb * M_ + j];
          T ker0[2 * spread::kMaxWidth];
          for (int i0 = 0; i0 < wl; ++i0) {
            ker0[2 * i0] = cj.real() * vals[0][i0];
            ker0[2 * i0 + 1] = cj.imag() * vals[0][i0];
          }
          T* bufb = reinterpret_cast<T*>(buf.data() + cells * bb) + 2 * li0[0];
          auto add_row = [&](std::int64_t row, T kv) {
            T* trg = bufb + 2 * row;
            for (int k = 0; k < 2 * wl; ++k) trg[k] += kv * ker0[k];
          };
          if (dim == 1) {
            add_row(0, T(1));
          } else if (dim == 2) {
            for (int i1 = 0; i1 < wl; ++i1) add_row((li0[1] + i1) * p[0], vals[1][i1]);
          } else {
            for (int i2 = 0; i2 < wl; ++i2)
              for (int i1 = 0; i1 < wl; ++i1)
                add_row(((li0[2] + i2) * p[1] + li0[1] + i1) * p[0],
                        vals[1][i1] * vals[2][i2]);
          }
        }
      }
      auto merge_rows = [&](auto DC) {
        spread::detail::for_padded_rows<decltype(DC)::value, T>(
            grid_, p, s.off, 0, static_cast<std::size_t>(p[1] * p[2]),
            [&](std::size_t src, std::int64_t dst, std::int64_t run) {
              for (int bb = 0; bb < B; ++bb) {
                cplx* bufb = buf.data() + cells * bb + src;
                cplx* fwb = fw_.data() + ftot * bb + dst;
                for (std::int64_t i = 0; i < run; ++i) {
                  if (bufb[i] == cplx(0, 0)) continue;
                  atomic_add_cplx(&fwb[i], bufb[i]);
                  bufb[i] = cplx(0, 0);
                }
              }
            });
      };
      spread::detail::dispatch_dim(
          dim, [&] { merge_rows(std::integral_constant<int, 1>{}); },
          [&] { merge_rows(std::integral_constant<int, 2>{}); },
          [&] { merge_rows(std::integral_constant<int, 3>{}); });
    });
  };
  if (!spread::detail::dispatch_width(kp_.w, run)) run(std::integral_constant<int, 0>{});
}

template <typename T>
void CpuPlan<T>::interp_sorted(cplx* c, int B) {
  const int dim = grid_.dim;
  const int w = kp_.w;
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  pool_->parallel_for(0, M_, [&](std::size_t jj, std::size_t) {
    const std::size_t j = order_[jj];
    T px[3] = {xg_[j], dim >= 2 ? yg_[j] : T(0), dim >= 3 ? zg_[j] : T(0)};
    T vals[3][spread::kMaxWidth];
    std::int64_t idx[3][spread::kMaxWidth];
    for (int d = 0; d < dim; ++d) {
      const std::int64_t l0 = spread::es_values(kp_, px[d], vals[d]);
      for (int i = 0; i < w; ++i) idx[d][i] = spread::wrap_index(l0 + i, grid_.nf[d]);
    }
    for (int bb = 0; bb < B; ++bb) {
      const cplx* fwb = fw_.data() + ftot * bb;
      cplx acc(0, 0);
      if (dim == 1) {
        for (int i0 = 0; i0 < w; ++i0) acc += fwb[idx[0][i0]] * vals[0][i0];
      } else if (dim == 2) {
        for (int i1 = 0; i1 < w; ++i1) {
          const std::int64_t row = idx[1][i1] * grid_.nf[0];
          cplx rowacc(0, 0);
          for (int i0 = 0; i0 < w; ++i0) rowacc += fwb[row + idx[0][i0]] * vals[0][i0];
          acc += rowacc * vals[1][i1];
        }
      } else {
        for (int i2 = 0; i2 < w; ++i2) {
          cplx planeacc(0, 0);
          for (int i1 = 0; i1 < w; ++i1) {
            const std::int64_t row = (idx[2][i2] * grid_.nf[1] + idx[1][i1]) * grid_.nf[0];
            cplx rowacc(0, 0);
            for (int i0 = 0; i0 < w; ++i0) rowacc += fwb[row + idx[0][i0]] * vals[0][i0];
            planeacc += rowacc * vals[1][i1];
          }
          acc += planeacc * vals[2][i2];
        }
      }
      c[bb * M_ + j] = acc;
    }
  }, 64);
}

template <typename T>
void CpuPlan<T>::deconvolve_type1(cplx* f, int B) {
  const auto& N = N_;
  const auto& nf = grid_.nf;
  const int mo = opts_.modeord;
  const std::int64_t ntot = modes_total();
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  pool_->parallel_for(0, static_cast<std::size_t>(ntot), [&](std::size_t i, std::size_t) {
    const std::int64_t i0 = static_cast<std::int64_t>(i) % N[0];
    const std::int64_t i1 = (static_cast<std::int64_t>(i) / N[0]) % N[1];
    const std::int64_t i2 = static_cast<std::int64_t>(i) / (N[0] * N[1]);
    const std::int64_t k0 = spread::index_to_mode(i0, N[0], mo);
    const std::int64_t k1 = spread::index_to_mode(i1, N[1], mo);
    const std::int64_t k2 = spread::index_to_mode(i2, N[2], mo);
    const std::int64_t g0 = spread::wrap_index(k0, nf[0]);
    const std::int64_t g1 = spread::wrap_index(k1, nf[1]);
    const std::int64_t g2 = spread::wrap_index(k2, nf[2]);
    const T p =
        fser_[0][k0 + N[0] / 2] * fser_[1][k1 + N[1] / 2] * fser_[2][k2 + N[2] / 2];
    const std::size_t lin =
        static_cast<std::size_t>(g0 + nf[0] * (g1 + nf[1] * g2));
    for (int b = 0; b < B; ++b)
      f[b * static_cast<std::size_t>(ntot) + i] = fw_[ftot * b + lin] * p;
  }, 1024);
}

template <typename T>
CpuBreakdown CpuPlan<T>::execute(cplx* c, cplx* f, int B) {
  std::lock_guard lk(mu_);  // shared plans serialize; each caller snapshots
  if (B <= 0) B = std::max(1, opts_.ntransf);
  if (M_ == 0) {
    if (type_ == 1)
      for (std::int64_t i = 0; i < B * modes_total(); ++i) f[i] = cplx(0, 0);
    return bd_;
  }
  CpuBreakdown bd = bd_;  // per-execute snapshot over the set_points-era sort
  bd.spread = bd.fft = bd.deconvolve = bd.interp = 0;
  // One stage pipeline for every batch size, mirroring the device library; a
  // coalesced batch beyond the constructed ntransf grows the stack once.
  const std::size_t ftot = static_cast<std::size_t>(grid_.total());
  if (static_cast<std::size_t>(B) * ftot > fw_.size())
    fw_.resize(static_cast<std::size_t>(B) * ftot);
  Timer t;
  if (type_ == 1) {
    std::fill(fw_.begin(), fw_.begin() + static_cast<std::ptrdiff_t>(B * ftot),
              cplx(0, 0));
    spread_subproblems(c, B);
    bd.spread = t.seconds();
    t.reset();
    fft_->exec_batch(fw_.data(), static_cast<std::size_t>(B), ftot, iflag_, fft::Band::none);
    bd.fft = t.seconds();
    t.reset();
    deconvolve_type1(f, B);
    bd.deconvolve = t.seconds();
  } else {
    // Fused amplify + FFT, sharing the row producer with the device library.
    fft_->exec_batch_fused(
        fw_.data(), static_cast<std::size_t>(B), ftot, iflag_, fft::Band::none,
        [&](cplx* row, std::size_t line, std::size_t b) {
          return spread::amplify_fine_row(
              row, line, f + b * static_cast<std::size_t>(modes_total()), grid_.dim,
              N_, grid_.nf, fser_, opts_.modeord);
        });
    bd.fft = t.seconds();
    t.reset();
    interp_sorted(c, B);
    bd.interp = t.seconds();
  }
  bd_ = bd;
  return bd;
}

template class CpuPlan<float>;
template class CpuPlan<double>;

}  // namespace cf::cpu
