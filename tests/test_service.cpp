// Concurrent NUFFT service layer (src/service):
//  * results through the service are identical to serial per-request Plan
//    executes — bitwise on the (default) deterministic tiled pipeline —
//    regardless of coalescing batch composition, submission order, and
//    service/worker thread counts, across mixed signatures submitted from
//    many threads at once;
//  * the signature-keyed LRU plan registry counts hits, misses, and
//    evictions, and point-set fingerprinting reuses set_points (and tells
//    near-identical sets apart);
//  * request failures (bad type / modes / method, missing buffers, iflag 0)
//    propagate through the futures as the exceptions a direct Plan would
//    throw, and the ledger invariant submitted == completed + failed holds
//    after a drain under every admission policy;
//  * serving quality: the max_outstanding admission cap (Block backpressure
//    vs Shed fail-fast with OverloadedError), the adaptive coalescing window
//    (early-close on batch-full / interactive / idle), and interactive
//    priority (queue jumping) — none of which may change a response's bits;
//  * CF_SERVICE_THREADS and CF_SERVICE_WINDOW_US size the dispatch pool and
//    window, with strict (diagnosed, non-silent) parsing of garbage values
//    (the CI contention pass runs this suite at CF_SERVICE_THREADS=4
//    CF_WORKERS=2, and a window pass at CF_SERVICE_WINDOW_US=5000);
//  * the cfs_service_* C API drives the same machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/c_api.h"
#include "core/plan.hpp"
#include "core/type3.hpp"
#include "obs/obs.hpp"
#include "service/plan_registry.hpp"
#include "service/service.hpp"
#include "test_env.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace service = cf::service;
namespace obs = cf::obs;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

/// Whether service outputs must be bitwise equal to serial references: type-2
/// pipelines (gather interp, no atomics) and one-worker devices always are;
/// type 1 is when the deterministic tiled spread ran (`ref_tiled` — only the
/// GM method spreads with atomics, whose float summation order varies with
/// worker scheduling).
bool expect_bitwise(std::size_t workers, int type, int ref_tiled) {
  return workers <= 1 || type == 2 || ref_tiled == 1;
}

/// Coalescing windows seen in the trace since it was cleared: how many
/// opened, and how many closed for each obs::CloseReason. Structural
/// evidence of window behaviour, where elapsed wall time is only noise.
/// Enables tracing (process-global) for its lifetime; services under test set
/// ObsOptions::trace = 1 so their construction keeps it on.
struct WindowTrace {
  bool was = obs::enabled();
  WindowTrace() {
    obs::set_enabled(true);
    obs::reset_trace();
  }
  ~WindowTrace() { obs::set_enabled(was); }

  int opened() const { return count(obs::SpanKind::WindowOpen, -1); }
  int closed(std::int64_t reason = -1) const {
    return count(obs::SpanKind::WindowClose, reason);
  }
  /// Longest time any window was held open (its WindowClose dur), in us.
  double longest_wait_us() const {
    double m = 0;
    for (const auto& [tid, spans] : obs::collect())
      for (const auto& sp : spans)
        if (sp.kind == obs::SpanKind::WindowClose) m = std::max(m, sp.dur_us);
    return m;
  }

 private:
  static int count(obs::SpanKind kind, std::int64_t arg) {
    int n = 0;
    for (const auto& [tid, spans] : obs::collect())
      for (const auto& sp : spans) n += sp.kind == kind && (arg < 0 || sp.arg == arg);
    return n;
  }
};

/// Holds a one-dispatcher service inside a batch, with no clock. Once
/// armed, the on_fulfilled hook (it runs on the dispatch thread) blocks after
/// the next batch until release(); requests submitted meanwhile are all
/// queued when the dispatcher pops again, so batch composition and dispatch
/// order follow from the queue alone. Each batch that does not park is
/// recorded, in dispatch order. The hook gives up after a minute, so a failed
/// test can never deadlock the service's destructor.
class DispatchPark {
 public:
  /// Installs the hook on `cfg` and arms the park for the first batch.
  explicit DispatchPark(service::ServiceConfig& cfg) : s_(std::make_shared<State>()) {
    cfg.on_fulfilled = [s = s_](const service::GroupKey& key, std::size_t n,
                                std::size_t) {
      std::unique_lock lk(s->mu);
      if (!s->armed) {
        s->seen.emplace_back(key, n);
        return;
      }
      s->armed = false;
      s->parked = true;
      s->cv.notify_all();
      s->cv.wait_for(lk, std::chrono::minutes(1), [&] { return !s->parked; });
    };
  }
  void arm() {
    std::lock_guard lk(s_->mu);
    s_->armed = true;
  }
  /// Blocks until the dispatcher is parked; false if it never got there.
  [[nodiscard]] bool wait_parked() {
    std::unique_lock lk(s_->mu);
    return s_->cv.wait_for(lk, std::chrono::minutes(1), [&] { return s_->parked; });
  }
  void release() {
    {
      std::lock_guard lk(s_->mu);
      s_->parked = false;
    }
    s_->cv.notify_all();
  }
  /// The batches dispatched outside the park: group key and size.
  std::vector<std::pair<service::GroupKey, std::size_t>> seen() const {
    std::lock_guard lk(s_->mu);
    return s_->seen;
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool armed = true, parked = false;
    std::vector<std::pair<service::GroupKey, std::size_t>> seen;
  };
  std::shared_ptr<State> s_;
};

template <typename T>
struct Problem {
  std::vector<std::int64_t> N;
  int type;
  std::vector<T> x, y, z;
  std::vector<std::complex<T>> input;   // c (type 1) or f (type 2)
  std::size_t M;
  std::int64_t ntot;

  Problem(std::vector<std::int64_t> modes, int type_, std::size_t M_,
          std::uint64_t seed)
      : N(std::move(modes)), type(type_), M(M_) {
    Rng rng(seed);
    const int dim = static_cast<int>(N.size());
    ntot = 1;
    for (auto n : N) ntot *= n;
    x.resize(M);
    if (dim >= 2) y.resize(M);
    if (dim >= 3) z.resize(M);
    for (std::size_t j = 0; j < M; ++j) {
      x[j] = static_cast<T>(rng.angle());
      if (dim >= 2) y[j] = static_cast<T>(rng.angle());
      if (dim >= 3) z[j] = static_cast<T>(rng.angle());
    }
    input.resize(type == 1 ? M : static_cast<std::size_t>(ntot));
    for (auto& v : input)
      v = {static_cast<T>(rng.uniform(-1, 1)), static_cast<T>(rng.uniform(-1, 1))};
  }

  std::size_t out_len() const {
    return type == 1 ? static_cast<std::size_t>(ntot) : M;
  }
  const T* yp() const { return y.empty() ? nullptr : y.data(); }
  const T* zp() const { return z.empty() ? nullptr : z.data(); }

  service::Request<T> request(core::Options opts,
                              std::vector<std::complex<T>>& out) const {
    service::Request<T> r;
    r.type = type;
    r.modes = N;
    r.tol = 1e-5;
    r.opts = opts;
    r.M = M;
    r.x = x.data();
    r.y = yp();
    r.z = zp();
    r.input = input.data();
    r.output = out.data();
    return r;
  }

  /// Serial reference: one B = 1 Plan execute on a fresh device. `tiled`
  /// reports whether the spread ran on the deterministic tiled engine.
  std::vector<std::complex<T>> reference(std::size_t workers, core::Options opts,
                                         int* tiled = nullptr) const {
    vgpu::Device dev(workers);
    core::Plan<T> plan(dev, type, N, +1, 1e-5, opts);
    plan.set_points(M, x.data(), yp(), zp());
    std::vector<std::complex<T>> out(out_len());
    if (type == 1) {
      std::vector<std::complex<T>> c = input;
      plan.execute(c.data(), out.data());
    } else {
      std::vector<std::complex<T>> f = input;
      plan.execute(out.data(), f.data());
    }
    if (tiled) *tiled = plan.last_breakdown().tiled;
    return out;
  }
};

core::Options env_opts() {
  core::Options o;
  o.upsampfac = cf::test::env_upsampfac();
  return o;
}

/// Per-dim request options: 1D takes an explicit bin size, so test-sized 1D
/// grids hold several tiles.
core::Options opts_for(int dim) {
  core::Options o = env_opts();
  if (dim == 1) o.binsize = {32, 1, 1};
  return o;
}

/// 2D/3D type-1 shapes holding several tiles per axis — sigma = 1.25 kernels
/// are wider, so the low-upsampling run (CF_UPSAMP=1.25) takes larger modes
/// (as in test_tiled_spread).
std::vector<std::int64_t> modes_2d() {
  return cf::test::env_upsampfac() != 2.0 ? std::vector<std::int64_t>{40, 40}
                                          : std::vector<std::int64_t>{20, 24};
}
std::vector<std::int64_t> modes_3d() {
  return cf::test::env_upsampfac() != 2.0 ? std::vector<std::int64_t>{28, 28, 26}
                                          : std::vector<std::int64_t>{16, 16, 12};
}

template <typename T>
void expect_same(const std::vector<std::complex<T>>& got,
                 const std::vector<std::complex<T>>& want, bool bitwise,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  double worst = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bitwise) {
      ASSERT_EQ(got[i], want[i]) << what << " i=" << i;
    } else {
      worst = std::max(worst, std::abs(std::complex<double>(got[i]) -
                                       std::complex<double>(want[i])));
    }
  }
  if (!bitwise) {
    EXPECT_LT(worst, 1e-3) << what;
  }
}

/// 2D type-3 problem: arbitrary source coordinates and target frequencies
/// (neither periodic nor integer), served through Request::type = 3.
struct T3Problem {
  std::size_t M, K;
  std::vector<double> x, y, s, t;
  std::vector<std::complex<double>> c;

  explicit T3Problem(std::uint64_t seed, std::size_t M_ = 240, std::size_t K_ = 180)
      : M(M_), K(K_), x(M_), y(M_), s(K_), t(K_), c(M_) {
    Rng rng(seed);
    for (auto& v : x) v = rng.uniform(-3, 3);
    for (auto& v : y) v = rng.uniform(-3, 3);
    for (auto& v : s) v = rng.uniform(-10, 10);
    for (auto& v : t) v = rng.uniform(-10, 10);
    for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }

  service::Request<double> request(core::Options opts,
                                   std::vector<std::complex<double>>& out) const {
    service::Request<double> r;
    r.type = 3;
    r.modes = {1, 1};  // type 3 has no mode grid: modes only fixes dim
    r.tol = 1e-9;
    r.opts = opts;
    r.M = M;
    r.x = x.data();
    r.y = y.data();
    r.K = K;
    r.s = s.data();
    r.t = t.data();
    r.input = c.data();
    r.output = out.data();
    return r;
  }

  /// Direct Type3Plan on the options a service plan actually runs with
  /// (ntransf = coalescing cap).
  std::vector<std::complex<double>> reference(std::size_t workers, core::Options opts,
                                              int max_batch = 8) const {
    vgpu::Device dev(workers);
    opts.ntransf = max_batch;
    core::Type3Plan<double> plan(dev, 2, +1, 1e-9, opts);
    plan.set_points(M, x.data(), y.data(), nullptr, K, s.data(), t.data(), nullptr);
    std::vector<std::complex<double>> out(K), cc = c;
    plan.execute(cc.data(), out.data());
    return out;
  }
};

}  // namespace

// ---- N submitter threads x mixed signatures ---------------------------------

TEST(Service, MixedSignaturesFromManyThreadsMatchSerial) {
  const auto workers = static_cast<std::size_t>(cf::test::env_workers(2));
  vgpu::Device dev(workers);
  service::NufftService svc(dev);  // threads from CF_SERVICE_THREADS (else 2)

  // Mixed signatures: every dim, both types, both precisions (3D modes as in
  // test_tiled_spread).
  std::vector<Problem<float>> pf;
  std::vector<Problem<double>> pd;
  pf.emplace_back(std::vector<std::int64_t>{64}, 1, 500, 11);
  pf.emplace_back(modes_2d(), 1, 600, 12);
  pf.emplace_back(modes_3d(), 1, 700, 13);
  pf.emplace_back(std::vector<std::int64_t>{20, 24}, 2, 600, 14);
  pd.emplace_back(modes_3d(), 1, 700, 15);
  pd.emplace_back(std::vector<std::int64_t>{64}, 2, 500, 16);

  std::vector<core::Options> optf, optd;
  for (const auto& p : pf) optf.push_back(opts_for(static_cast<int>(p.N.size())));
  for (const auto& p : pd) optd.push_back(opts_for(static_cast<int>(p.N.size())));

  std::vector<std::vector<std::complex<float>>> reff(pf.size());
  std::vector<std::vector<std::complex<double>>> refd(pd.size());
  std::vector<int> tiledf(pf.size(), 0), tiledd(pd.size(), 0);
  for (std::size_t i = 0; i < pf.size(); ++i)
    reff[i] = pf[i].reference(workers, optf[i], &tiledf[i]);
  for (std::size_t i = 0; i < pd.size(); ++i)
    refd[i] = pd[i].reference(workers, optd[i], &tiledd[i]);

  // 4 submitter threads x 3 rounds x every signature, all in flight at once.
  const int kThreads = 4, kRounds = 3;
  struct Slot {
    std::vector<std::vector<std::complex<float>>> outf;
    std::vector<std::vector<std::complex<double>>> outd;
    std::vector<std::future<service::ExecReport>> futs;
  };
  std::vector<Slot> slots(kThreads);
  for (auto& s : slots) {
    s.outf.resize(kRounds * pf.size());
    s.outd.resize(kRounds * pd.size());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& s = slots[t];
      for (int r = 0; r < kRounds; ++r) {
        for (std::size_t i = 0; i < pf.size(); ++i) {
          auto& out = s.outf[r * pf.size() + i];
          out.assign(pf[i].out_len(), {});
          s.futs.push_back(svc.submit(pf[i].request(optf[i], out)));
        }
        for (std::size_t i = 0; i < pd.size(); ++i) {
          auto& out = s.outd[r * pd.size() + i];
          out.assign(pd[i].out_len(), {});
          s.futs.push_back(svc.submit(pd[i].request(optd[i], out)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (auto& s : slots) {
    for (auto& f : s.futs) {
      const auto rep = f.get();
      EXPECT_GE(rep.batch, 1);
      EXPECT_LT(rep.batch_index, rep.batch);
    }
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < pf.size(); ++i)
        expect_same(s.outf[r * pf.size() + i], reff[i],
                    expect_bitwise(workers, pf[i].type, tiledf[i]), "float signature");
      for (std::size_t i = 0; i < pd.size(); ++i)
        expect_same(s.outd[r * pd.size() + i], refd[i],
                    expect_bitwise(workers, pd[i].type, tiledd[i]), "double signature");
    }
  }

  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads) * kRounds *
                              (pf.size() + pd.size()));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, 0u);
  // Six signatures, many requests each: plans were reused, not rebuilt...
  EXPECT_EQ(st.plan_misses, pf.size() + pd.size());
  // ...and every dispatch after the first per signature reused set_points.
  EXPECT_EQ(st.setpts_builds, pf.size() + pd.size());
  EXPECT_GT(st.setpts_reuses, 0u);
}

// ---- coalescing: bitwise-identical across batch composition -----------------

TEST(Service, ResponsesBitwiseIdenticalAcrossCoalescingAndThreadCounts) {
  const auto workers = static_cast<std::size_t>(cf::test::env_workers(2));
  const core::Options opts = env_opts();
  // test_tiled_spread's 3D shape: the coalescing guarantee under test is the
  // bitwise one.
  Problem<float> p(modes_3d(), 1, 900, 42);

  // 8 distinct strength vectors over one point set / signature.
  const int kReq = 8;
  std::vector<Problem<float>> reqs;
  reqs.reserve(kReq);
  Rng rng(77);
  for (int i = 0; i < kReq; ++i) {
    reqs.push_back(p);
    for (auto& v : reqs.back().input)
      v = {static_cast<float>(rng.uniform(-1, 1)),
           static_cast<float>(rng.uniform(-1, 1))};
  }
  std::vector<std::vector<std::complex<float>>> ref(kReq);
  int ref_tiled = 0;
  for (int i = 0; i < kReq; ++i) ref[i] = reqs[i].reference(workers, opts, &ref_tiled);
  ASSERT_EQ(ref_tiled, 1);  // the shape above must exercise the tiled path

  // Service shapes that force different batch compositions: one dispatcher
  // parked while all 8 queue (one full batch), several dispatchers with
  // max_batch 3 (ragged 3+3+2 or racier), reversed submission order, and
  // every serving policy — admission caps (both policies), windows, priority
  // mixes. The bitwise guarantee must survive ALL of them.
  struct Shape {
    int threads, max_batch;
    std::chrono::microseconds window;
    bool reverse;
    bool park = false;  // queue all 8 behind a parked warm-up batch
    service::Admission admission = service::Admission::Block;
    std::size_t cap = 0;       // max_outstanding; 0 = unbounded
    bool priority_mix = false; // every other request interactive
  } shapes[] = {
      // One dispatcher parked behind a warm-up: all 8 land in one full batch.
      {1, 8, std::chrono::microseconds(0), false, true},
      // A window on one dispatcher: early closes may split the batch
      // arbitrarily.
      {1, 8, std::chrono::microseconds(20000), false},
      {1, 3, std::chrono::microseconds(0), false},
      {4, 3, std::chrono::microseconds(0), true},
      {2, 1, std::chrono::microseconds(0), false},  // no coalescing
      // Backpressure: submissions block at a 2-deep admission cap.
      {2, 4, std::chrono::microseconds(0), false, false,
       service::Admission::Block, 2},
      // Shed policy with headroom (cap 16 > 8 in flight): nothing sheds.
      {2, 4, std::chrono::microseconds(5000), false, false,
       service::Admission::Shed, 16},
      // Interactive/bulk mix under a cap: jumps must not change the bits.
      {2, 4, std::chrono::microseconds(2000), false, false,
       service::Admission::Block, 3, true},
  };

  const bool bitwise = expect_bitwise(workers, 1, ref_tiled);
  Problem<float> warm(std::vector<std::int64_t>{32}, 1, 100, 40);
  for (const auto& sh : shapes) {
    vgpu::Device dev(workers);
    service::ServiceConfig cfg;
    cfg.threads = sh.threads;
    cfg.max_batch = sh.max_batch;
    cfg.coalesce_window = sh.window;
    cfg.admission = sh.admission;
    cfg.max_outstanding = sh.cap;
    std::optional<DispatchPark> park;
    if (sh.park) park.emplace(cfg);
    service::NufftService svc(dev, cfg);

    std::vector<std::complex<float>> wout(warm.out_len());
    std::future<service::ExecReport> fwarm;
    if (park) {
      fwarm = svc.submit(warm.request(opts_for(1), wout));
      ASSERT_TRUE(park->wait_parked());
    }
    std::vector<std::vector<std::complex<float>>> out(kReq);
    std::vector<std::future<service::ExecReport>> futs(kReq);
    for (int i = 0; i < kReq; ++i) {
      const int k = sh.reverse ? kReq - 1 - i : i;
      out[k].assign(reqs[k].out_len(), {});
      auto r = reqs[k].request(opts, out[k]);
      if (sh.priority_mix && i % 2 == 0) r.priority = service::Priority::Interactive;
      futs[k] = svc.submit(r);
    }
    if (park) {
      park->release();
      EXPECT_NO_THROW(fwarm.get());
    }
    int max_batch_got = 0;
    for (int i = 0; i < kReq; ++i)
      max_batch_got = std::max(max_batch_got, futs[i].get().batch);
    EXPECT_LE(max_batch_got, sh.max_batch);
    for (int i = 0; i < kReq; ++i)
      expect_same(out[i], ref[i], bitwise, "coalesced response");

    const auto st = svc.stats();
    const std::uint64_t extra = park ? 1 : 0;  // the warm-up request
    EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kReq) + extra);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.shed, 0u);  // Block never sheds; the Shed shape has headroom
    if (park) {
      // All 8 were queued when the dispatcher left the warm-up's batch, so
      // they ran as one batched execute.
      const auto seen = park->seen();
      ASSERT_EQ(seen.size(), 1u);
      EXPECT_EQ(seen[0].second, static_cast<std::size_t>(kReq));
      EXPECT_EQ(st.batches, 1u + extra);
    }
    // One point set, fingerprint-shared (plus the warm-up's).
    EXPECT_EQ(st.setpts_builds, 1u + extra);
  }
}

// ---- shutdown: residual coalescing windows must not stall destruction ------

TEST(Service, DestructionWithQueuedRequestsSkipsResidualWindows) {
  // Four distinct-signature groups queued behind ONE dispatcher with a 10 s
  // coalescing window, destroyed while a window is open: pre-fix, pop_ready
  // slept the window out per pop even after shutdown(), so destruction
  // stalled at least one full window (and up to window x groups with
  // staggered arrivals). The wait must be interrupted by shutdown, every
  // future still fulfilled.
  std::vector<Problem<float>> ps;
  ps.emplace_back(std::vector<std::int64_t>{24}, 1, 200, 31);
  ps.emplace_back(std::vector<std::int64_t>{32}, 1, 200, 32);
  ps.emplace_back(std::vector<std::int64_t>{20, 16}, 1, 200, 33);
  ps.emplace_back(std::vector<std::int64_t>{16, 12}, 2, 200, 34);

  std::vector<std::vector<std::complex<float>>> out(ps.size());
  std::vector<std::future<service::ExecReport>> futs(ps.size());
  WindowTrace windows;
  {
    vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
    service::ServiceConfig cfg;
    cfg.threads = 1;
    cfg.coalesce_window = std::chrono::seconds(10);
    cfg.observability.trace = 1;
    service::NufftService svc(dev, cfg);
    for (std::size_t i = 0; i < ps.size(); ++i) {
      out[i].assign(ps[i].out_len(), {});
      futs[i] = svc.submit(
          ps[i].request(opts_for(static_cast<int>(ps[i].N.size())), out[i]));
    }
    // The dispatcher opens a window on a group popped while others are
    // queued; with groups still queued the window cannot close it
    // as idle, so it stays open until shutdown. (A group popped before the
    // others arrived closes idle and executes first; the next pop waits.)
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (windows.opened() == windows.closed() &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(windows.opened(), windows.closed() + 1);
  }  // destruction with the window open
  for (auto& f : futs) EXPECT_NO_THROW(f.get());  // all flushed, none dropped
  // Shutdown interrupts the open window and no window opens after it: every
  // window closes, none at its deadline, exactly one by shutdown (not one
  // residual window per queued group), and each was held for a small
  // fraction of the window — an interrupted wait lasts milliseconds, one
  // waited out lasts the full 10 s (and is still recorded as a shutdown
  // close, since the reason is read after the wait).
  EXPECT_EQ(windows.closed(), windows.opened());
  EXPECT_EQ(windows.closed(obs::kCloseDeadline), 0);
  EXPECT_EQ(windows.closed(obs::kCloseShutdown), 1);
  EXPECT_LT(windows.longest_wait_us(), 2e6);
}

// ---- shutdown under load: every future fulfilled under both policies --------

TEST(Service, ShutdownUnderLoadFulfillsEveryFutureUnderBothPolicies) {
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 400, 36);
  const core::Options opts = opts_for(2);
  for (const auto adm : {service::Admission::Block, service::Admission::Shed}) {
    const int kThreads = 2, kPer = 8;
    std::vector<std::vector<std::complex<float>>> out(kThreads * kPer);
    std::vector<std::future<service::ExecReport>> futs(kThreads * kPer);
    {
      vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
      service::ServiceConfig cfg;
      cfg.threads = 2;
      cfg.coalesce_window = std::chrono::milliseconds(20);
      cfg.max_outstanding = 4;
      cfg.admission = adm;
      service::NufftService svc(dev, cfg);
      std::vector<std::thread> subs;
      for (int t = 0; t < kThreads; ++t)
        subs.emplace_back([&, t] {
          for (int i = 0; i < kPer; ++i) {
            const int k = t * kPer + i;
            out[k].assign(p.out_len(), {});
            futs[k] = svc.submit(p.request(opts, out[k]));
          }
        });
      for (auto& th : subs) th.join();
    }  // destruction with requests still queued / windows pending
    // Every future resolves: a result, or OverloadedError under Shed — never
    // a broken promise (which would surface as std::future_error).
    int ok = 0, shed = 0;
    for (auto& f : futs) {
      try {
        f.get();
        ++ok;
      } catch (const service::OverloadedError&) {
        ++shed;
      }
    }
    EXPECT_EQ(ok + shed, kThreads * kPer);
    if (adm == service::Admission::Block) {
      EXPECT_EQ(shed, 0);
    }
  }
}

// ---- adaptive coalescing window ---------------------------------------------

TEST(Service, AdaptiveWindowClosesEarlyWhenIdle) {
  // One request into an otherwise idle service with a 300 ms window: the
  // window notices nothing else is queued or executing and closes as idle.
  // Asserted on the window's recorded close reason, not on time.
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 300, 61);
  WindowTrace windows;
  {
    service::ServiceConfig cfg;
    cfg.threads = 1;
    cfg.coalesce_window = std::chrono::milliseconds(300);
    cfg.observability.trace = 1;
    service::NufftService svc(dev, cfg);
    std::vector<std::complex<float>> out(p.out_len());
    svc.submit(p.request(opts_for(2), out)).get();
  }
  EXPECT_EQ(windows.opened(), 1);
  EXPECT_EQ(windows.closed(obs::kCloseIdle), 1);
}

// ---- priority: interactive jumps the bulk queue -----------------------------

TEST(Service, InteractiveRequestsJumpTheBulkQueue) {
  // One dispatcher parked after a warm-up batch while the real queue is
  // assembled behind it, which makes the ready-FIFO order deterministic
  // without reaching into the queue. Then: five bulk groups, one standalone
  // interactive request, and one interactive rider on bulk[3] (same
  // signature and points, fresh strengths). Expected dispatch order after
  // the warm-up: bulk[3]+rider (promoted last, so frontmost), the standalone
  // interactive, then bulk 0, 1, 2, 4.
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_batch = 8;
  cfg.coalesce_window = std::chrono::microseconds(0);
  DispatchPark park(cfg);
  service::NufftService svc(dev, cfg);

  Problem<float> warm(std::vector<std::int64_t>{16, 12}, 1, 150, 70);
  std::vector<std::complex<float>> wout(warm.out_len());
  auto fwarm = svc.submit(warm.request(opts_for(2), wout));
  ASSERT_TRUE(park.wait_parked());

  std::vector<Problem<float>> bulk;
  bulk.emplace_back(std::vector<std::int64_t>{20, 16}, 1, 3000, 71);
  bulk.emplace_back(std::vector<std::int64_t>{24, 16}, 1, 3000, 72);
  bulk.emplace_back(std::vector<std::int64_t>{20, 24}, 1, 3000, 73);
  bulk.emplace_back(std::vector<std::int64_t>{16, 16}, 1, 3000, 74);
  bulk.emplace_back(std::vector<std::int64_t>{24, 24}, 1, 3000, 75);
  std::vector<std::vector<std::complex<float>>> bout(bulk.size());
  std::vector<std::future<service::ExecReport>> bfut(bulk.size());
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bout[i].assign(bulk[i].out_len(), {});
    bfut[i] = svc.submit(bulk[i].request(opts_for(2), bout[i]));
  }

  Problem<float> inter(std::vector<std::int64_t>{32}, 1, 500, 80);
  std::vector<std::complex<float>> iout(inter.out_len());
  auto ireq = inter.request(opts_for(1), iout);
  ireq.priority = service::Priority::Interactive;
  auto fi = svc.submit(ireq);

  Problem<float> rider = bulk[3];
  Rng rng(81);
  for (auto& v : rider.input)
    v = {static_cast<float>(rng.uniform(-1, 1)),
         static_cast<float>(rng.uniform(-1, 1))};
  std::vector<std::complex<float>> rout(rider.out_len());
  auto rreq = rider.request(opts_for(2), rout);
  rreq.priority = service::Priority::Interactive;
  auto fr = svc.submit(rreq);
  park.release();

  // The rider coalesced with bulk[3] in the promoted group's batch of 2.
  EXPECT_EQ(fr.get().batch, 2);
  EXPECT_EQ(bfut[3].get().batch, 2);
  EXPECT_NO_THROW(fi.get());
  for (auto& f : bfut) {
    if (f.valid()) {
      EXPECT_NO_THROW(f.get());
    }
  }
  EXPECT_NO_THROW(fwarm.get());

  // Dispatch order, read from each batch's signature (every group has its
  // own mode shape).
  const std::vector<std::vector<std::int64_t>> want = {
      bulk[3].N, inter.N, bulk[0].N, bulk[1].N, bulk[2].N, bulk[4].N};
  const auto seen = park.seen();
  ASSERT_EQ(seen.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& key = seen[i].first.plan;
    const std::vector<std::int64_t> got(key.N, key.N + key.dim);
    EXPECT_EQ(got, want[i]) << "dispatch " << i;
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(bulk.size()) + 3);
  EXPECT_EQ(st.failed, 0u);
}

// ---- admission: shed policy -------------------------------------------------

TEST(Service, ShedPolicyFailsFastWithOverloadedError) {
  const auto workers = static_cast<std::size_t>(cf::test::env_workers(2));
  vgpu::Device dev(workers);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_outstanding = 2;
  cfg.admission = service::Admission::Shed;
  service::NufftService svc(dev, cfg);

  // A large blocker occupies the single dispatcher for tens of milliseconds
  // while small same-group requests pile into the 2-deep admission cap.
  Problem<float> blocker(std::vector<std::int64_t>{16, 16, 12}, 1, 300000, 90);
  std::vector<std::complex<float>> bout(blocker.out_len());
  auto fb = svc.submit(blocker.request(opts_for(3), bout));

  Problem<float> small(std::vector<std::int64_t>{20, 16}, 1, 400, 91);
  const core::Options sopts = opts_for(2);
  int ref_tiled = 0;
  const auto ref = small.reference(workers, sopts, &ref_tiled);

  std::deque<std::vector<std::complex<float>>> outs;
  std::vector<std::future<service::ExecReport>> futs;
  std::int64_t worst_submit_us = 0;
  for (int i = 0; i < 10000 && svc.stats().shed < 3; ++i) {
    outs.emplace_back(small.out_len());
    const auto t0 = std::chrono::steady_clock::now();
    futs.push_back(svc.submit(small.request(sopts, outs.back())));
    worst_submit_us = std::max(
        worst_submit_us, std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
  }
  // Shed never blocks: even on a loaded single-core box no submit call may
  // have waited anything like an execute out.
  EXPECT_LT(worst_submit_us, 100000);

  int ok = 0, shed = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    try {
      futs[i].get();
      // Admitted requests are served exactly, overload or not.
      expect_same(outs[i], ref, expect_bitwise(workers, 1, ref_tiled),
                  "admitted under overload");
      ++ok;
    } catch (const service::OverloadedError&) {
      ++shed;
    }
  }
  EXPECT_NO_THROW(fb.get());
  EXPECT_GE(shed, 3);
  EXPECT_GE(ok, 1);  // the cap admits work while shedding the excess

  svc.drain();
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, st.completed + st.failed);
  EXPECT_EQ(st.shed, static_cast<std::uint64_t>(shed));
  EXPECT_GE(st.failed, st.shed);
}

// ---- admission: block policy ------------------------------------------------

TEST(Service, BlockPolicyBackpressuresWithoutShedding) {
  const auto workers = static_cast<std::size_t>(cf::test::env_workers(2));
  vgpu::Device dev(workers);
  service::ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_outstanding = 2;  // far below the 20 requests in flight
  cfg.admission = service::Admission::Block;
  service::NufftService svc(dev, cfg);

  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 400, 92);
  const core::Options opts = opts_for(2);
  int ref_tiled = 0;
  const auto ref = p.reference(workers, opts, &ref_tiled);

  const int kThreads = 4, kPer = 5;
  std::vector<std::vector<std::complex<float>>> out(kThreads * kPer);
  std::vector<std::future<service::ExecReport>> futs(kThreads * kPer);
  std::vector<std::thread> subs;
  for (int t = 0; t < kThreads; ++t)
    subs.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        const int k = t * kPer + i;
        out[k].assign(p.out_len(), {});
        futs[k] = svc.submit(p.request(opts, out[k]));
      }
    });
  for (auto& th : subs) th.join();

  const bool bitwise = expect_bitwise(workers, 1, ref_tiled);
  for (int k = 0; k < kThreads * kPer; ++k) {
    EXPECT_NO_THROW(futs[k].get());
    expect_same(out[k], ref, bitwise, "backpressured request");
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.shed, 0u);  // Block never sheds
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPer));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, 0u);
}

// ---- stats invariant: submitted == completed + failed -----------------------

TEST(Service, StatsInvariantHoldsAcrossFailuresAndSheds) {
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.max_outstanding = 1;
  cfg.admission = service::Admission::Shed;
  service::NufftService svc(dev, cfg);

  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 3000, 95);
  const core::Options opts = opts_for(2);

  // Mix every fulfillment path: served, shed at the cap, rejected eagerly
  // (dim 0, iflag 0), and failed in dispatch (bad type).
  std::deque<std::vector<std::complex<float>>> outs;
  std::vector<std::future<service::ExecReport>> futs;
  for (int i = 0; i < 10000 && svc.stats().shed < 2; ++i) {
    outs.emplace_back(p.out_len());
    futs.push_back(svc.submit(p.request(opts, outs.back())));
  }
  int ok = 0, shed = 0;
  for (auto& f : futs) {
    try {
      f.get();
      ++ok;
    } catch (const service::OverloadedError&) {
      ++shed;
    }
  }
  EXPECT_GE(shed, 2);
  svc.drain();  // free the admission slot: the failures below must not shed
  {
    std::vector<std::complex<float>> out(p.out_len());
    auto bad = p.request(opts, out);
    bad.modes.clear();
    EXPECT_THROW(svc.submit(bad).get(), std::invalid_argument);
    auto bad2 = p.request(opts, out);
    bad2.iflag = 0;
    EXPECT_THROW(svc.submit(bad2).get(), std::invalid_argument);
    auto bad3 = p.request(opts, out);
    bad3.type = 7;  // admitted, fails in dispatch
    EXPECT_THROW(svc.submit(bad3).get(), std::invalid_argument);
  }

  svc.drain();
  const auto st = svc.stats();
  // The ledger balances after a drain under EVERY policy: sheds count in
  // failed (refined by `shed`), eager rejections and dispatch failures in
  // failed, and nothing is ever dropped from the books.
  EXPECT_EQ(st.submitted, st.completed + st.failed);
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(ok));
  EXPECT_EQ(st.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(st.failed, st.shed + 3);
}

// ---- a non-finite point set fails alone ---------------------------------------

TEST(Service, NonFinitePointsFailWithoutPoisoningThePlan) {
  // The non-finite set fails alone: the next request on the earlier set is
  // served with the same bits from the plan that still holds it.
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::NufftService svc(dev);
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 2, 500, 64);
  const core::Options opts = opts_for(2);
  std::vector<std::complex<float>> first(p.out_len()), again(p.out_len()),
      out(p.out_len());
  svc.submit(p.request(opts, first)).get();
  Problem<float> bad = p;
  bad.x[bad.M / 2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(svc.submit(bad.request(opts, out)).get(), std::invalid_argument);
  svc.submit(p.request(opts, again)).get();
  EXPECT_EQ(first, again);
}

TEST(Service, NonFiniteCoordinatesRejectedBeforeAdmission) {
  // The fingerprint pass that reads every coordinate also rejects NaN and
  // Inf at submit: the request fails before admission, and no plan is built
  // or re-pointed for it.
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::NufftService svc(dev);
  const core::Options opts = opts_for(2);
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 400, 65);
  std::vector<std::complex<float>> out(p.out_len());
  Problem<float> nan_x = p, inf_y = p;
  nan_x.x[7] = std::numeric_limits<float>::quiet_NaN();
  inf_y.y[p.M - 1] = -std::numeric_limits<float>::infinity();
  T3Problem t3(322);
  std::vector<std::complex<double>> out3(t3.K);
  T3Problem inf_s = t3;
  inf_s.s[0] = std::numeric_limits<double>::infinity();

  EXPECT_THROW(svc.submit(nan_x.request(opts, out)).get(), std::invalid_argument);
  EXPECT_THROW(svc.submit(inf_y.request(opts, out)).get(), std::invalid_argument);
  EXPECT_THROW(svc.submit(inf_s.request(opts, out3)).get(), std::invalid_argument);
  auto st = svc.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.failed, 3u);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.plan_hits + st.plan_misses, 0u);  // never reached the registry
  EXPECT_EQ(st.setpts_builds, 0u);

  // With a plan holding the good set, a rejected set leaves it loaded: the
  // next good request reuses it without another set_points.
  svc.submit(p.request(opts, out)).get();
  EXPECT_THROW(svc.submit(nan_x.request(opts, out)).get(), std::invalid_argument);
  svc.submit(p.request(opts, out)).get();
  svc.drain();
  st = svc.stats();
  EXPECT_EQ(st.failed, 4u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.plan_misses, 1u);
  EXPECT_EQ(st.plan_hits, 1u);
  EXPECT_EQ(st.setpts_builds, 1u);
  EXPECT_EQ(st.setpts_reuses, 1u);
}

TEST(Service, PointCountOf2To32RejectedBeforeAdmission) {
  // M or K >= 2^32 fails at submit on the count alone: the fingerprint pass
  // never reads the (4-point) arrays, and no admission slot or plan is taken.
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::NufftService svc(dev);
  const core::Options opts = opts_for(2);
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 4, 67);
  T3Problem t3(324);
  std::vector<std::complex<float>> out(p.out_len());
  std::vector<std::complex<double>> out3(t3.K);
  const std::size_t big = std::size_t{1} << 32;
  auto req = p.request(opts, out);
  req.M = big;
  EXPECT_THROW(svc.submit(req).get(), std::invalid_argument);
  auto req3 = t3.request(opts, out3);
  req3.M = big;
  EXPECT_THROW(svc.submit(req3).get(), std::invalid_argument);
  req3 = t3.request(opts, out3);
  req3.K = big;
  EXPECT_THROW(svc.submit(req3).get(), std::invalid_argument);
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.failed, 3u);
  EXPECT_EQ(st.plan_hits + st.plan_misses, 0u);  // never reached the registry
  EXPECT_EQ(st.setpts_builds, 0u);
}

TEST(Service, BadTolRejectedBeforeAdmission) {
  // A tol that is not a positive normal number below 1 fails at submit, like
  // a non-finite coordinate: no admission slot, no plan.
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::NufftService svc(dev);
  const core::Options opts = opts_for(2);
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 300, 66);
  T3Problem t3(323);
  std::vector<std::complex<float>> out(p.out_len());
  std::vector<std::complex<double>> out3(t3.K);
  const double bads[] = {0.0, -1e-6, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()};
  for (const double tol : bads) {
    auto req = p.request(opts, out);
    req.tol = tol;
    EXPECT_THROW(svc.submit(req).get(), std::invalid_argument) << tol;
    auto req3 = t3.request(opts, out3);
    req3.tol = tol;
    EXPECT_THROW(svc.submit(req3).get(), std::invalid_argument) << tol;
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 2 * std::size(bads));
  EXPECT_EQ(st.failed, 2 * std::size(bads));
  EXPECT_EQ(st.plan_hits + st.plan_misses, 0u);  // never reached the registry
  EXPECT_EQ(st.setpts_builds, 0u);
}

// ---- iflag = 0 is rejected, not silently folded -----------------------------

TEST(Service, IflagZeroRejectedInsteadOfSilentlyFoldedToPlusOne) {
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::NufftService svc(dev);
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 300, 62);
  const core::Options opts = opts_for(2);

  std::vector<std::complex<float>> out(p.out_len());
  auto req = p.request(opts, out);
  req.iflag = 0;
  EXPECT_THROW(svc.submit(req).get(), std::invalid_argument);

  // Both explicit directions still serve (and are distinct signatures).
  auto plus = p.request(opts, out);
  plus.iflag = +1;
  EXPECT_NO_THROW(svc.submit(plus).get());
  auto minus = p.request(opts, out);
  minus.iflag = -1;
  EXPECT_NO_THROW(svc.submit(minus).get());
  EXPECT_EQ(svc.stats().plan_misses, 2u);
}

// ---- coalescing on a small-grid SM spread ----------------------------------

TEST(Service, CoalescedBatchOnASmallGridSmSpread) {
  // A 1D grid smaller than the default 1024-point bin: the SM plan spreads
  // on one clamped tile, whose per-plane strength loops GCC 12 can vectorize
  // into loads past the last plane of the coalesced staging buffer (see
  // CF_SCALAR_LOOP). M is large enough that the staging buffer gets its own
  // mapping, so an overread faults instead of reading a neighbour.
  const auto workers = static_cast<std::size_t>(cf::test::env_workers(2));
  core::Options opts = env_opts();
  opts.method = core::Method::SM;
  Problem<float> p(std::vector<std::int64_t>{64}, 1, 6000, 55);
  const int kReq = 8;
  std::vector<Problem<float>> reqs(kReq, p);
  Rng rng(56);
  for (auto& r : reqs)
    for (auto& v : r.input)
      v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  int ref_tiled = 0;
  std::vector<std::vector<std::complex<float>>> ref(kReq);
  for (int i = 0; i < kReq; ++i) ref[i] = reqs[i].reference(workers, opts, &ref_tiled);
  ASSERT_EQ(ref_tiled, 1);  // clamped, not an atomic fallback

  // One dispatcher parked after a warm-up batch while the 8 requests queue:
  // they coalesce into one batch.
  vgpu::Device dev(workers);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.coalesce_window = std::chrono::microseconds(0);
  DispatchPark park(cfg);
  service::NufftService svc(dev, cfg);
  Problem<float> warm(std::vector<std::int64_t>{32}, 1, 100, 57);
  std::vector<std::complex<float>> wout(warm.out_len());
  // Several rounds: each batch stages into a fresh buffer, so an overread
  // gets several chances to reach an unmapped page.
  const int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) park.arm();
    auto fwarm = svc.submit(warm.request(opts_for(1), wout));
    ASSERT_TRUE(park.wait_parked());
    std::vector<std::vector<std::complex<float>>> out(
        kReq, std::vector<std::complex<float>>(p.out_len()));
    std::vector<std::future<service::ExecReport>> futs;
    for (int i = 0; i < kReq; ++i)
      futs.push_back(svc.submit(reqs[i].request(opts, out[i])));
    park.release();
    EXPECT_NO_THROW(fwarm.get());
    for (auto& f : futs) EXPECT_EQ(f.get().batch, kReq);
    for (int i = 0; i < kReq; ++i)
      expect_same(out[i], ref[i], expect_bitwise(workers, 1, ref_tiled), "SM batch");
  }
  EXPECT_EQ(svc.stats().completed, static_cast<std::uint64_t>(kRounds * (kReq + 1)));
}

// ---- plan key: upsampfac is part of the signature ---------------------------

TEST(Service, UpsampfacIsPartOfThePlanKey) {
  // Two sigma values are two plans: the fine grid, kernel width, and Horner
  // table all differ, so a sigma = 1.25 request must never be served by a
  // cached sigma = 2 plan (or vice versa).
  const std::int64_t N[2] = {20, 16};
  core::Options two = opts_for(2);
  // Pin both sigmas explicitly: under CF_UPSAMP=1.25 the env default would
  // otherwise make the "two" options identical to "low" and collapse the pair.
  two.upsampfac = 2.0;
  core::Options low = two;
  low.upsampfac = 1.25;
  EXPECT_FALSE(service::make_plan_key<float>(1, 2, N, +1, 1e-5, two) ==
               service::make_plan_key<float>(1, 2, N, +1, 1e-5, low));

  const auto workers = static_cast<std::size_t>(cf::test::env_workers(2));
  vgpu::Device dev(workers);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  service::NufftService svc(dev, cfg);
  // Both round trips below spread tiled, so both get the bitwise
  // (atomic-free) comparison.
  Problem<float> p(std::vector<std::int64_t>{40, 40}, 1, 700, 98);

  int tiled_two = 0, tiled_low = 0;
  const auto ref_two = p.reference(workers, two, &tiled_two);
  const auto ref_low = p.reference(workers, low, &tiled_low);
  std::vector<std::complex<float>> out_two(p.out_len()), out_low(p.out_len());
  EXPECT_NO_THROW(svc.submit(p.request(two, out_two)).get());
  EXPECT_NO_THROW(svc.submit(p.request(low, out_low)).get());

  // Distinct plans, each faithful to the serial plan built with ITS sigma.
  EXPECT_EQ(svc.stats().plan_misses, 2u);
  expect_same(out_two, ref_two, expect_bitwise(workers, 1, tiled_two), "sigma 2");
  expect_same(out_low, ref_low, expect_bitwise(workers, 1, tiled_low),
              "sigma 1.25");

  // Re-submitting either signature is a registry hit, not a rebuild.
  EXPECT_NO_THROW(svc.submit(p.request(two, out_two)).get());
  EXPECT_NO_THROW(svc.submit(p.request(low, out_low)).get());
  EXPECT_EQ(svc.stats().plan_misses, 2u);
  EXPECT_EQ(svc.stats().plan_hits, 2u);
}

// ---- point fingerprint ----------------------------------------------------------

namespace {

// Near-identical point sets must fingerprint apart, and a non-finite
// coordinate (in a full hash block or the zero-padded tail) must empty the
// fingerprint while extreme finite values do not.
template <typename T>
void check_fingerprint_separates() {
  const std::size_t M = 1001;  // not a multiple of any hash block
  Rng rng(90);
  std::vector<T> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<T>(rng.angle());
    y[j] = static_cast<T>(rng.angle());
  }
  auto fp = [](std::size_t m, const std::vector<T>& a, const std::vector<T>& b) {
    return service::point_fingerprint<T>(2, m, a.data(), b.data(), nullptr);
  };
  const auto base = fp(M, x, y);
  ASSERT_TRUE(base.has_value());
  EXPECT_EQ(fp(M, x, y), base);  // deterministic
  for (std::size_t j : {std::size_t{0}, std::size_t{5}, M / 2, M - 1}) {
    auto ulp = x;
    ulp[j] = std::nextafter(ulp[j], T(10));
    EXPECT_NE(fp(M, ulp, y), base) << "one ulp at x[" << j << "]";
  }
  EXPECT_NE(fp(M, y, x), base) << "x and y swapped";
  auto xs = x, ys = y;
  std::swap(xs[3], xs[700]);
  std::swap(ys[3], ys[700]);
  EXPECT_NE(fp(M, xs, ys), base) << "points 3 and 700 swapped";
  EXPECT_NE(fp(M - 1, x, y), base) << "one point fewer";
  EXPECT_NE(service::point_fingerprint<T>(1, M, x.data(), y.data(), nullptr), base)
      << "dim 1";

  for (std::size_t j : {std::size_t{2}, M - 1}) {
    auto bad = x;
    bad[j] = std::numeric_limits<T>::quiet_NaN();
    EXPECT_FALSE(fp(M, bad, y).has_value()) << "NaN at " << j;
    bad[j] = -std::numeric_limits<T>::infinity();
    EXPECT_FALSE(fp(M, y, bad).has_value()) << "-Inf at " << j;
  }
  auto extreme = x;
  extreme[0] = std::numeric_limits<T>::max();
  extreme[1] = -std::numeric_limits<T>::denorm_min();
  extreme[M - 1] = T(-0.0);
  EXPECT_TRUE(fp(M, extreme, y).has_value());
}

}  // namespace

TEST(Service, PointFingerprintSeparatesNearbySetsSingle) { check_fingerprint_separates<float>(); }

TEST(Service, PointFingerprintSeparatesNearbySetsDouble) {
  check_fingerprint_separates<double>();
}

// ---- registry: LRU eviction + fingerprint reuse -----------------------------

TEST(Service, RegistryLruEvictionAndPointFingerprintReuse) {
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::ServiceConfig cfg;
  cfg.threads = 1;    // deterministic dispatch order
  cfg.max_plans = 2;  // tiny LRU so eviction is observable
  service::NufftService svc(dev, cfg);
  const core::Options opts = env_opts();

  Problem<float> a(std::vector<std::int64_t>{32}, 1, 300, 1);
  Problem<float> b(std::vector<std::int64_t>{20, 16}, 1, 300, 2);
  Problem<float> c(std::vector<std::int64_t>{8, 10, 8}, 1, 300, 3);

  auto run = [&](const Problem<float>& p) {
    std::vector<std::complex<float>> out(p.out_len());
    auto fut = svc.submit(p.request(opts, out));
    return fut.get();
  };

  auto r1 = run(a);
  EXPECT_FALSE(r1.plan_reused);
  EXPECT_FALSE(r1.points_reused);
  auto r2 = run(a);  // same signature AND same points
  EXPECT_TRUE(r2.plan_reused);
  EXPECT_TRUE(r2.points_reused);
  auto st = svc.stats();
  EXPECT_EQ(st.plan_misses, 1u);
  EXPECT_EQ(st.plan_hits, 1u);
  EXPECT_EQ(st.setpts_builds, 1u);
  EXPECT_EQ(st.setpts_reuses, 1u);

  // New points under the same signature: plan reused, set_points rebuilt.
  Problem<float> a2(std::vector<std::int64_t>{32}, 1, 300, 99);
  auto r3 = run(a2);
  EXPECT_TRUE(r3.plan_reused);
  EXPECT_FALSE(r3.points_reused);
  EXPECT_EQ(svc.stats().setpts_builds, 2u);

  run(b);             // registry now {a, b}
  run(c);             // capacity 2: evicts a
  st = svc.stats();
  EXPECT_EQ(st.plan_evictions, 1u);
  auto r4 = run(a);   // a was evicted: rebuilt from scratch
  EXPECT_FALSE(r4.plan_reused);
  EXPECT_FALSE(r4.points_reused);
  EXPECT_EQ(svc.stats().plan_misses, 4u);  // a, b, c, a-again
}

// ---- future error propagation ----------------------------------------------

TEST(Service, FutureErrorPropagation) {
  vgpu::Device dev(static_cast<std::size_t>(cf::test::env_workers(2)));
  service::NufftService svc(dev);
  Problem<float> p(std::vector<std::int64_t>{20, 16}, 1, 200, 5);
  const core::Options opts = env_opts();

  {
    // Bad type: fails in plan construction ON THE DISPATCH THREAD and
    // reaches the caller through the future.
    std::vector<std::complex<float>> out(p.out_len());
    auto req = p.request(opts, out);
    req.type = 7;
    EXPECT_THROW(svc.submit(req).get(), std::invalid_argument);
  }
  {
    // Bad modes (dim 0): rejected eagerly, still a future.
    std::vector<std::complex<float>> out(p.out_len());
    auto req = p.request(opts, out);
    req.modes.clear();
    EXPECT_THROW(svc.submit(req).get(), std::invalid_argument);
  }
  {
    // Method constraint: SM is type-1-only; the Plan's own invalid_argument
    // comes back identically.
    std::vector<std::complex<float>> out(p.M);
    auto req = p.request(opts, out);
    req.type = 2;
    req.opts.method = core::Method::SM;
    EXPECT_THROW(svc.submit(req).get(), std::invalid_argument);
  }
  {
    // Missing buffers.
    std::vector<std::complex<float>> out(p.out_len());
    auto req = p.request(opts, out);
    req.output = nullptr;
    EXPECT_THROW(svc.submit(req).get(), std::invalid_argument);
  }

  const auto st = svc.stats();
  EXPECT_EQ(st.failed, 4u);
  EXPECT_EQ(st.completed, 0u);

  // The service stays healthy after failures.
  std::vector<std::complex<float>> out(p.out_len());
  auto fut = svc.submit(p.request(opts, out));
  EXPECT_NO_THROW(fut.get());
}

// ---- CF_SERVICE_THREADS ------------------------------------------------------

TEST(Service, ServiceThreadsEnvHonored) {
  vgpu::Device dev(1);
  {
    ::setenv("CF_SERVICE_THREADS", "3", 1);
    service::NufftService svc(dev);
    EXPECT_EQ(svc.n_threads(), 3);
    ::unsetenv("CF_SERVICE_THREADS");
  }
  {
    // Explicit config wins over the environment.
    ::setenv("CF_SERVICE_THREADS", "3", 1);
    service::ServiceConfig cfg;
    cfg.threads = 5;
    service::NufftService svc(dev, cfg);
    EXPECT_EQ(svc.n_threads(), 5);
    ::unsetenv("CF_SERVICE_THREADS");
  }
  {
    // Garbage values fall back to the documented defaults (with a stderr
    // diagnostic) — they are NOT silently treated as "unset-like" partial
    // parses (the old atoi path accepted "3abc" as 3).
    ::setenv("CF_SERVICE_THREADS", "four", 1);
    service::NufftService svc(dev);
    EXPECT_EQ(svc.n_threads(), 2);
    ::unsetenv("CF_SERVICE_THREADS");
  }
  {
    ::setenv("CF_SERVICE_THREADS", "3abc", 1);
    service::NufftService svc(dev);
    EXPECT_EQ(svc.n_threads(), 2);
    ::unsetenv("CF_SERVICE_THREADS");
  }
}

// ---- CF_SERVICE_WINDOW_US ---------------------------------------------------

TEST(Service, ServiceWindowEnvHonored) {
  vgpu::Device dev(1);
  {
    ::setenv("CF_SERVICE_WINDOW_US", "7000", 1);
    service::NufftService svc(dev);  // default config: window auto
    EXPECT_EQ(svc.config().coalesce_window.count(), 7000);
    ::unsetenv("CF_SERVICE_WINDOW_US");
  }
  {
    // An explicit window (even 0) wins over the environment.
    ::setenv("CF_SERVICE_WINDOW_US", "7000", 1);
    service::ServiceConfig cfg;
    cfg.coalesce_window = std::chrono::microseconds(0);
    service::NufftService svc(dev, cfg);
    EXPECT_EQ(svc.config().coalesce_window.count(), 0);
    ::unsetenv("CF_SERVICE_WINDOW_US");
  }
  {
    // Garbage (units, negatives) is diagnosed and ignored, not mangled.
    ::setenv("CF_SERVICE_WINDOW_US", "10ms", 1);
    service::NufftService svc(dev);
    EXPECT_EQ(svc.config().coalesce_window.count(), 0);
    ::unsetenv("CF_SERVICE_WINDOW_US");
  }
}

// ---- C API -------------------------------------------------------------------

TEST(Service, CApiServiceCoalescesAndMatchesPlan) {
  cfs_device dev = nullptr;
  ASSERT_EQ(cfs_device_create(&dev, 2), CFS_SUCCESS);
  cfs_service_config scfg;
  cfs_default_service_config(&scfg);
  scfg.threads = 2;
  scfg.max_plans = 4;
  scfg.max_batch = 8;
  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create(&svc, dev, &scfg), CFS_SUCCESS);

  // Modes sized so the tile-geometry gate passes (fine grid 64 x 48 against
  // 38-cell padded bins), keeping the default pipeline deterministic.
  const std::int64_t nmodes[2] = {32, 24};
  const std::size_t M = 300, ntot = 32 * 24;
  Rng rng(9);
  std::vector<float> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.angle());
    y[j] = static_cast<float>(rng.angle());
  }
  const int kReq = 4;
  std::vector<std::vector<float>> cin(kReq), fout(kReq, std::vector<float>(2 * ntot));
  for (auto& ci : cin) {
    ci.resize(2 * M);
    for (auto& v : ci) v = static_cast<float>(rng.uniform(-1, 1));
  }

  cfs_opts opts;
  cfs_default_opts(&opts);

  cfs_service_request rq{};
  rq.precision = CFS_PRECISION_SINGLE;
  rq.type = 1;
  rq.dim = 2;
  rq.nmodes = nmodes;
  rq.iflag = +1;
  rq.tol = 1e-5;
  rq.opts = &opts;
  rq.M = M;
  rq.x = x.data();
  rq.y = y.data();
  std::vector<cfs_request> reqs(kReq);
  for (int i = 0; i < kReq; ++i) {
    rq.input = cin[i].data();
    rq.output = fout[i].data();
    ASSERT_EQ(cfs_service_submit(svc, &rq, &reqs[i]), CFS_SUCCESS);
  }
  for (int i = 0; i < kReq; ++i)
    EXPECT_EQ(cfs_service_wait(svc, reqs[i]), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, 123456), CFS_ERR_INVALID_ARG);  // unknown handle

  struct cfs_service_stats st{};
  ASSERT_EQ(cfs_service_stats(svc, &st), CFS_SUCCESS);
  EXPECT_EQ(st.batched_requests, static_cast<uint64_t>(kReq));
  EXPECT_EQ(st.plan_misses, 1u);  // one signature, one plan
  EXPECT_EQ(st.plan_hits, st.batches - 1);
  EXPECT_GE(st.batches, 1u);
  EXPECT_EQ(st.submitted, static_cast<uint64_t>(kReq));
  EXPECT_EQ(st.completed, static_cast<uint64_t>(kReq));
  EXPECT_EQ(st.setpts_builds, 1u);  // one point set
  EXPECT_EQ(st.setpts_builds + st.setpts_reuses, st.batches);

  // Reference through the C plan API on the same options.
  cfs_planf plan = nullptr;
  ASSERT_EQ(cfs_makeplanf(dev, 1, 2, nmodes, +1, 1e-5, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  for (int i = 0; i < kReq; ++i) {
    std::vector<float> want(2 * ntot);
    std::vector<float> c = cin[i];
    ASSERT_EQ(cfs_executef(plan, c.data(), want.data()), CFS_SUCCESS);
    for (std::size_t k = 0; k < want.size(); ++k)
      ASSERT_EQ(fout[i][k], want[k]) << "req " << i << " k=" << k;
  }
  cfs_destroyf(plan);
  cfs_service_destroy(svc);
  cfs_device_destroy(dev);
}

// ---- type 3 through the service ---------------------------------------------

TEST(Service, Type3CoalescesSetPointsAndMatchesDirectPlan) {
  vgpu::Device dev(1);  // one worker: serial device, bitwise unconditionally
  service::ServiceConfig cfg;
  cfg.threads = 1;
  service::NufftService svc(dev, cfg);

  T3Problem p(321);
  const core::Options opts = env_opts();
  const auto ref = p.reference(1, opts, cfg.max_batch);

  const int kReq = 5;
  std::vector<std::vector<std::complex<double>>> out(
      kReq, std::vector<std::complex<double>>(p.K));
  std::vector<std::future<service::ExecReport>> futs;
  futs.reserve(kReq);
  for (int i = 0; i < kReq; ++i) futs.push_back(svc.submit(p.request(opts, out[i])));
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  for (int i = 0; i < kReq; ++i)
    expect_same(out[i], ref, /*bitwise=*/true, "type-3 response");

  svc.drain();
  auto st = svc.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kReq));
  EXPECT_EQ(st.plan_misses, 1u);    // one signature, one Type3Plan
  EXPECT_EQ(st.setpts_builds, 1u);  // source+target fingerprint shared by all
  EXPECT_EQ(st.failed, 0u);

  // Type-3 structural validation: target frequencies are required per dim,
  // and both point sets must be nonempty.
  std::vector<std::complex<double>> scratch(p.K);
  auto no_s = p.request(opts, scratch);
  no_s.s = nullptr;
  EXPECT_THROW(svc.submit(no_s).get(), std::invalid_argument);
  auto no_k = p.request(opts, scratch);
  no_k.K = 0;
  EXPECT_THROW(svc.submit(no_k).get(), std::invalid_argument);

  svc.drain();
  st = svc.stats();
  EXPECT_EQ(st.submitted, st.completed + st.failed);
  EXPECT_EQ(st.failed, 2u);
}
