// Service-layer throughput: request coalescing vs serial per-request
// executes at the tracked configuration (3D GM-sort type-1, rand, fp32,
// tol = 1e-6, M = --m points, 8 concurrent requests), plus an OPEN-LOOP
// load sweep of the serving-quality layer.
//
// The paper's many-vector batching (Sec. I-A) amortizes every per-point cost
// across a caller-assembled ntransf stack; the service layer assembles that
// stack automatically from independent requests. This bench measures exactly
// that conversion:
//
//   serial-8x            one Plan, one set_points, 8 B = 1 executes back to
//                        back (what 8 independent callers pay without the
//                        service);
//   service-8x           8 requests submitted concurrently to a NufftService
//                        and coalesced into batched executes under a 20 ms
//                        window, which closes early once the batch is full
//                        or the service is idle (steady state: the plan and
//                        point fingerprint are already resident; the GM-sort
//                        plan evaluates taps inline, as a direct plan does).
//
// The open-loop sweep (--open-m points per request) drives a fresh service
// with Poisson arrivals at a rate swept against the measured single-request
// service rate mu, under the Shed admission policy (max_outstanding = 32).
// Closed-loop benches can never overload a server — each client waits for
// its response — so shed rate, tail latency, and the batching that emerges
// from queueing are only visible open-loop. Emitted per rate: p50/p95/p99
// latency, throughput, shed rate, mean batch, and the batch-size histogram.
//
// Also verified and recorded: every completed response (closed- and
// open-loop) is bitwise-identical to its serial counterpart (the tiled
// pipeline's determinism guarantee surviving coalescing, admission, and
// windows); the exit code is nonzero on any mismatch.
//
// Flags: --m N (closed-loop points, default 1e6), --reps R (best-of, 3),
//        --threads T (service dispatchers, default 2), --json PATH,
//        --open-m N (open-loop points/request, default 30000; 0 disables),
//        --open-requests K (arrivals per run, default 120).
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/plan.hpp"
#include "service/service.hpp"
#include "vgpu/device.hpp"

using namespace cf;
namespace core = cf::core;
namespace service = cf::service;
using bench::Dist;
using bench::JsonReport;

namespace {

struct Config {
  std::vector<std::int64_t> N;
  std::size_t ntot = 0;
  bench::Workload<float> wl;
  double tol = 1e-6;
  int nreq = 8;
};

Config make_config(std::size_t M) {
  std::int64_t n = 1;
  while (8 * n * n * n < static_cast<std::int64_t>(M)) ++n;
  Config cfg;
  cfg.N = {n, n, n};
  cfg.ntot = static_cast<std::size_t>(n * n * n);
  cfg.wl = bench::make_workload<float>(3, M, Dist::Rand, 2 * n);
  return cfg;
}

core::Options plan_opts() {
  core::Options o;
  o.method = core::Method::GMSort;
  return o;
}

/// One open-loop run: `nreq` Poisson arrivals at `rate` req/s into a fresh
/// Shed-policy service, all requests sharing one (signature, points,
/// strengths) group with per-request outputs. A collector thread resolves
/// futures in submission order, stamping per-request latency at its own
/// future's resolution (in-order consumption can defer a stamp behind an
/// earlier in-flight request; within a coalesced group completions are
/// simultaneous, so the bias is small).
struct OpenResult {
  int submitted = 0, completed = 0, shed = 0;
  double wall_s = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double mean_batch = 0;
  int max_batch = 0;
  std::string hist;
  bool bitwise = true;
};

OpenResult run_open_loop(vgpu::Device& dev, const Config& cfg, std::size_t M,
                         int nreq, double rate,
                         const std::vector<std::complex<float>>& ref,
                         std::uint64_t seed) {
  service::ServiceConfig scfg;
  scfg.threads = 2;
  scfg.max_batch = 8;
  scfg.coalesce_window = std::chrono::milliseconds(3);
  scfg.max_outstanding = 32;
  scfg.admission = service::Admission::Shed;
  service::NufftService svc(dev, scfg);

  std::vector<std::vector<std::complex<float>>> out(
      static_cast<std::size_t>(nreq));
  std::vector<std::future<service::ExecReport>> futs(
      static_cast<std::size_t>(nreq));
  std::vector<std::chrono::steady_clock::time_point> at(
      static_cast<std::size_t>(nreq));
  std::atomic<int> n_submitted{0};

  OpenResult res;
  res.submitted = nreq;
  std::vector<double> lat_ms;
  std::vector<int> batch_of;  // per completed request
  auto t_end = std::chrono::steady_clock::time_point{};

  std::thread collector([&] {
    for (int i = 0; i < nreq; ++i) {
      while (n_submitted.load(std::memory_order_acquire) <= i)
        std::this_thread::yield();
      try {
        const auto rep = futs[static_cast<std::size_t>(i)].get();
        const auto done = std::chrono::steady_clock::now();
        t_end = done;
        lat_ms.push_back(std::chrono::duration<double, std::milli>(
                             done - at[static_cast<std::size_t>(i)])
                             .count());
        batch_of.push_back(rep.batch);
        ++res.completed;
        const auto& got = out[static_cast<std::size_t>(i)];
        for (std::size_t k = 0; k < got.size(); ++k)
          if (got[k] != ref[k]) {
            res.bitwise = false;
            break;
          }
      } catch (const service::OverloadedError&) {
        ++res.shed;
      }
    }
  });

  Rng arrivals(seed);
  const auto t0 = std::chrono::steady_clock::now();
  auto next = t0;
  for (int i = 0; i < nreq; ++i) {
    // Exponential inter-arrival times: a Poisson arrival process at `rate`.
    const double u = std::min(arrivals.uniform(0, 1), 1.0 - 1e-12);
    next += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - u) / rate));
    std::this_thread::sleep_until(next);
    out[static_cast<std::size_t>(i)].assign(cfg.ntot, {});
    service::Request<float> req;
    req.type = 1;
    req.modes = cfg.N;
    req.tol = cfg.tol;
    req.opts = plan_opts();
    req.M = M;
    req.x = cfg.wl.xp();
    req.y = cfg.wl.yp();
    req.z = cfg.wl.zp();
    req.input = cfg.wl.c.data();
    req.output = out[static_cast<std::size_t>(i)].data();
    at[static_cast<std::size_t>(i)] = std::chrono::steady_clock::now();
    futs[static_cast<std::size_t>(i)] = svc.submit(req);
    n_submitted.store(i + 1, std::memory_order_release);
  }
  collector.join();

  res.wall_s = std::chrono::duration<double>(
                   (t_end == std::chrono::steady_clock::time_point{}
                        ? std::chrono::steady_clock::now()
                        : t_end) -
                   t0)
                   .count();
  res.p50_ms = bench::percentile(lat_ms, 50);
  res.p95_ms = bench::percentile(lat_ms, 95);
  res.p99_ms = bench::percentile(lat_ms, 99);
  // Batch-size histogram over completed requests: "1:3|2:8|8:96".
  std::vector<int> counts(9, 0);
  for (int b : batch_of) {
    res.max_batch = std::max(res.max_batch, b);
    counts[static_cast<std::size_t>(std::min(b, 8))] += 1;
  }
  double wsum = 0;
  for (int b = 1; b <= 8; ++b) {
    if (!counts[static_cast<std::size_t>(b)]) continue;
    if (!res.hist.empty()) res.hist += "|";
    res.hist += std::to_string(b) + ":" + std::to_string(counts[static_cast<std::size_t>(b)]);
    wsum += double(b) * counts[static_cast<std::size_t>(b)];
  }
  const auto st = svc.stats();
  res.mean_batch = st.batches ? double(st.batched_requests) / double(st.batches) : 0.0;
  (void)wsum;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::size_t M = static_cast<std::size_t>(cli.get_int("m", 1000000));
  const int reps = static_cast<int>(cli.get_int("reps", 3));
  const int threads = static_cast<int>(cli.get_int("threads", 2));
  const std::size_t open_m =
      static_cast<std::size_t>(cli.get_int("open-m", 30000));
  const int open_requests = static_cast<int>(cli.get_int("open-requests", 120));
  const std::string json_path = cli.get("json", "BENCH_service.json");

  bench::banner(
      "Service coalescing: 8 concurrent requests vs 8 serial B=1 executes",
      "many-vector batching amortizes point handling across transforms "
      "(Sec. I-A); the service extends it across independent callers");

  Config cfg = make_config(M);
  const int B = cfg.nreq;
  std::printf("3D GM-sort type-1, rand, M=%zu, N=%lld^3, tol=%g, fp32, %d requests, "
              "%d service threads\n\n",
              M, static_cast<long long>(cfg.N[0]), cfg.tol, B, threads);

  // Per-request strength vectors and outputs.
  Rng rng(1234);
  std::vector<std::vector<std::complex<float>>> c(B), fserial(B), fsvc(B);
  for (int b = 0; b < B; ++b) {
    c[b].resize(M);
    for (auto& v : c[b])
      v = {float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))};
    fserial[b].resize(cfg.ntot);
    fsvc[b].resize(cfg.ntot);
  }

  // ---- serial baseline: one plan, 8 B = 1 executes -------------------------
  vgpu::Device dev;
  core::Plan<float> plan(dev, 1, cfg.N, +1, cfg.tol, plan_opts());
  plan.set_points(M, cfg.wl.xp(), cfg.wl.yp(), cfg.wl.zp());
  double serial_s = 1e300;
  for (int r = 0; r <= reps; ++r) {  // first pass is warmup
    Timer t;
    for (int b = 0; b < B; ++b) plan.execute(c[b].data(), fserial[b].data());
    if (r > 0) serial_s = std::min(serial_s, t.seconds());
  }

  // ---- service: 8 concurrent submitters, coalesced executes ----------------
  bool bitwise = true;
  auto run_closed = [&](double& best_s, int& max_batch, service::ServiceStats& stats) {
    service::ServiceConfig scfg;
    scfg.threads = threads;
    scfg.max_batch = B;
    scfg.coalesce_window = std::chrono::milliseconds(20);
    service::NufftService svc(dev, scfg);

    auto round = [&] {
      std::vector<std::thread> submitters;
      std::vector<std::future<service::ExecReport>> futs(B);
      std::mutex mu;  // futures slot handoff only; submission itself is free
      for (int b = 0; b < B; ++b) {
        submitters.emplace_back([&, b] {
          service::Request<float> req;
          req.type = 1;
          req.modes = cfg.N;
          req.tol = cfg.tol;
          req.opts = plan_opts();
          req.M = M;
          req.x = cfg.wl.xp();
          req.y = cfg.wl.yp();
          req.z = cfg.wl.zp();
          req.input = c[b].data();
          req.output = fsvc[b].data();
          auto fut = svc.submit(req);
          std::lock_guard lk(mu);
          futs[b] = std::move(fut);
        });
      }
      for (auto& th : submitters) th.join();
      int mb = 0;
      for (auto& f : futs) mb = std::max(mb, f.get().batch);
      return mb;
    };

    round();  // warmup: builds the plan, loads the fingerprint
    best_s = 1e300;
    max_batch = 0;
    for (int r = 0; r < reps; ++r) {
      Timer t;
      max_batch = std::max(max_batch, round());
      best_s = std::min(best_s, t.seconds());
    }
    stats = svc.stats();
    // Bitwise check: coalesced responses vs serial B = 1 executes.
    for (int b = 0; b < B; ++b)
      for (std::size_t i = 0; i < cfg.ntot; ++i)
        if (fsvc[b][i] != fserial[b][i]) {
          bitwise = false;
          return;
        }
  };

  double service_s = 1e300;
  int max_batch = 0;
  service::ServiceStats st{};
  run_closed(service_s, max_batch, st);

  const double speedup = serial_s / service_s;
  Table t({"path", "8 req [s]", "Mpts/s (x8)", "speedup", "bitwise"});
  t.add_row({"serial-8x", Table::fmt(serial_s, 3),
             Table::fmt(double(B) * double(M) / serial_s / 1e6, 2), "1.00x", "-"});
  t.add_row({"service-8x", Table::fmt(service_s, 3),
             Table::fmt(double(B) * double(M) / service_s / 1e6, 2),
             Table::fmt(speedup, 2) + "x", bitwise ? "yes" : "NO"});
  t.print();
  std::printf("\nmax coalesced batch: %d; setpts reuses: %llu; plan misses: %llu\n",
              max_batch,
              static_cast<unsigned long long>(st.setpts_reuses),
              static_cast<unsigned long long>(st.plan_misses));

  JsonReport json;
  for (int pass = 0; pass < 2; ++pass) {
    auto& rec = json.add();
    const double secs = pass == 0 ? serial_s : service_s;
    rec.field("bench", "service3d")
        .field("dist", "rand")
        .field("dim", 3)
        .field("M", M)
        .field("requests", B)
        .field("tol", cfg.tol)
        .field("method", "GM-sort")
        .field("service_threads", threads)
        .field("path", pass == 0 ? "serial-8x" : "service-8x")
        .field("exec_s", secs)
        .field("pts_per_s", double(B) * double(M) / secs)
        .field("speedup_vs_serial", pass == 0 ? 1.0 : serial_s / secs);
    if (pass == 1) {
      rec.field("bitwise_vs_serial", bitwise ? "true" : "false")
          .field("max_batch", max_batch)
          .field("setpts_reuses", st.setpts_reuses)
          .field("plan_misses", st.plan_misses);
    }
  }

  // ---- observability overhead: the tracked row, tracing ON ----------------
  // Tracing is OFF by default; metrics counters/histograms are always on and
  // already included in service-8x above. This rerun flips the global trace
  // switch (per-thread span rings + span emission on every hot-path stage)
  // and repeats the closed-loop round, so the JSON trajectory
  // records the full-instrumentation overhead next to the baseline. The
  // bitwise check runs on the traced outputs too: observability must never
  // change output bits. A Chrome trace of the final round is exported for
  // chrome://tracing / Perfetto.
  {
    obs::set_enabled(true);
    obs::reset_trace();
    double traced_s = 1e300;
    int max_batch_tr = 0;
    service::ServiceStats st_tr{};
    run_closed(traced_s, max_batch_tr, st_tr);
    obs::export_chrome_trace("BENCH_service_trace.json");
    obs::set_enabled(false);

    const double overhead = traced_s / service_s;
    Table to({"path", "8 req [s]", "vs service-8x", "bitwise"});
    to.add_row({"service-8x (obs off)", Table::fmt(service_s, 3), "1.00x", "-"});
    to.add_row({"service_obs (traced)", Table::fmt(traced_s, 3),
                Table::fmt(overhead, 3) + "x", bitwise ? "yes" : "NO"});
    std::printf("\nObservability overhead (CF_TRACE-equivalent, span rings on):\n");
    to.print();
    std::printf("trace written to BENCH_service_trace.json\n");

    auto& rec = json.add();
    rec.field("bench", "service_obs")
        .field("dist", "rand")
        .field("dim", 3)
        .field("M", M)
        .field("requests", B)
        .field("tol", cfg.tol)
        .field("method", "GM-sort")
        .field("service_threads", threads)
        .field("path", "service-8x-traced")
        .field("exec_s", traced_s)
        .field("pts_per_s", double(B) * double(M) / traced_s)
        .field("overhead_vs_untraced", overhead)
        .field("bitwise_vs_serial", bitwise ? "true" : "false");
  }

  // ---- plan-registry footprint: sigma = 2 vs sigma = 1.25 ------------------
  // The LRU registry (ServiceConfig::max_plans) is memory-bound in practice:
  // a resident plan's dominant allocation is its fine grid, so the registry's
  // effective capacity under a fixed device budget is set by sigma. The
  // sigma125 row pair records the per-plan resident bytes (plan + points) at
  // both sigmas on the tracked problem and how many such plans fit in 1 GB.
  {
    std::printf("\nPlan-registry footprint (plan + set_points resident bytes):\n");
    Table st2({"sigma", "w", "plan+pts MB", "plans per GB", "RAM vs sigma2"});
    double bytes2 = 0;
    for (double sigma : {2.0, 1.25}) {
      vgpu::Device pdev;  // fresh device: clean bytes_in_use accounting
      auto opts = plan_opts();
      opts.upsampfac = sigma;
      const std::size_t base = pdev.bytes_in_use();
      core::Plan<float> p(pdev, 1, cfg.N, +1, cfg.tol, opts);
      p.set_points(M, cfg.wl.xp(), cfg.wl.yp(), cfg.wl.zp());
      const double bytes = double(pdev.bytes_in_use() - base);
      if (sigma == 2.0) bytes2 = bytes;
      const double per_gb = std::floor(double(std::size_t{1} << 30) / bytes);
      st2.add_row({Table::fmt(sigma, 2), std::to_string(p.kernel_width()),
                   Table::fmt(bytes / 1048576.0, 1), Table::fmt(per_gb, 0),
                   Table::fmt(bytes / bytes2, 2) + "x"});
      auto& rec = json.add();
      rec.field("bench", sigma == 2.0 ? "service_sigma2" : "service_sigma125")
          .field("dist", "rand")
          .field("dim", 3)
          .field("M", M)
          .field("tol", cfg.tol)
          .field("method", "GM-sort")
          .field("sigma", sigma)
          .field("width", p.kernel_width())
          .field("plan_bytes", bytes)
          .field("plans_per_gb", per_gb)
          .field("plan_bytes_vs_sigma2", bytes / bytes2);
    }
    st2.print();
  }

  // ---- open-loop sweep: Poisson arrivals vs the measured service rate ------
  if (open_m > 0 && open_requests > 0) {
    Config ocfg = make_config(open_m);
    // Single-request service time mu^-1 on a warm plan (what one dispatcher
    // can serve without any batching).
    core::Plan<float> oplan(dev, 1, ocfg.N, +1, ocfg.tol, plan_opts());
    oplan.set_points(open_m, ocfg.wl.xp(), ocfg.wl.yp(), ocfg.wl.zp());
    std::vector<std::complex<float>> ref(ocfg.ntot);
    double t_one = 1e300;
    for (int r = 0; r < 3; ++r) {
      std::vector<std::complex<float>> cin = ocfg.wl.c;
      Timer tm;
      oplan.execute(cin.data(), ref.data());
      t_one = std::min(t_one, tm.seconds());
    }
    const double mu = 1.0 / t_one;  // serial service rate, req/s

    std::printf("\nOpen loop: M=%zu/request, %d Poisson arrivals, mu=%.1f req/s, "
                "window 3 ms, max_outstanding 32, shed policy\n",
                open_m, open_requests, mu);
    Table ot({"rate/mu", "done", "shed", "thru [req/s]", "p50 [ms]", "p95 [ms]",
              "p99 [ms]", "mean batch", "bitwise"});
    const double ratios[] = {0.5, 1.0, 2.0, 4.0};
    std::uint64_t seed = 7;
    for (const double ratio : ratios) {
      const auto r =
          run_open_loop(dev, ocfg, open_m, open_requests, ratio * mu, ref, seed++);
      bitwise = bitwise && r.bitwise;
      const double thru = r.wall_s > 0 ? r.completed / r.wall_s : 0.0;
      ot.add_row({Table::fmt(ratio, 1), std::to_string(r.completed),
                  std::to_string(r.shed), Table::fmt(thru, 1), Table::fmt(r.p50_ms, 1),
                  Table::fmt(r.p95_ms, 1), Table::fmt(r.p99_ms, 1),
                  Table::fmt(r.mean_batch, 2), r.bitwise ? "yes" : "NO"});
      auto& rec = json.add();
      rec.field("bench", "service_openloop")
          .field("dist", "rand")
          .field("dim", 3)
          .field("M", open_m)
          .field("requests", open_requests)
          .field("tol", ocfg.tol)
          .field("method", "GM-sort")
          .field("service_threads", 2)
          .field("window_us", std::int64_t{3000})
          .field("policy", "shed")
          .field("max_outstanding", std::int64_t{32})
          .field("rate_over_mu", ratio)
          .field("offered_rps", ratio * mu)
          .field("mu_rps", mu)
          .field("submitted", r.submitted)
          .field("completed", r.completed)
          .field("shed", r.shed)
          .field("shed_rate", r.submitted ? double(r.shed) / r.submitted : 0.0)
          .field("throughput_rps", thru)
          .field("p50_ms", r.p50_ms)
          .field("p95_ms", r.p95_ms)
          .field("p99_ms", r.p99_ms)
          .field("mean_batch", r.mean_batch)
          .field("max_batch", r.max_batch)
          .field("batch_hist", r.hist)
          .field("bitwise_vs_serial", r.bitwise ? "true" : "false");
    }
    ot.print();
  }

  json.write(json_path);
  std::printf("wrote %s\n", json_path.c_str());
  return bitwise ? 0 : 1;
}
