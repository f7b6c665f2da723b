// Async NUFFT serving: many independent clients submit transforms to one
// NufftService and await futures, while the service coalesces
// same-signature requests into batched executes and reuses plans and
// set_points work through the signature registry and point fingerprints.
//
// The scenario mirrors an MRI reconstruction farm: every client grids its
// own k-space data (new strengths) on the SAME trajectory (same points), so
// after the first request the service never re-sorts or re-plans — it only
// stacks strengths into batch-strided executes.
//
// Build: cmake --build build --target example_service_async
// Run:   ./build/example_service_async
#include <complex>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "vgpu/device.hpp"

int main() {
  using cplx = std::complex<float>;
  namespace service = cf::service;
  namespace obs = cf::obs;

  // Observability for the whole demo: span tracing ON (normally enabled via
  // CF_TRACE=1; the explicit switch here keeps the example self-contained).
  // Metrics counters/histograms are always on — tracing only adds spans.
  obs::set_enabled(true);

  cf::vgpu::Device device;

  // Shared "trajectory": M nonuniform sample locations, 128x128 image modes.
  const std::vector<std::int64_t> modes{128, 128};
  const std::size_t M = 50000;
  const std::size_t ntot = 128 * 128;
  cf::Rng rng(7);
  std::vector<float> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.angle());
    y[j] = static_cast<float>(rng.angle());
  }

  // The service: dispatch threads, an LRU plan registry, and a coalescing
  // window that lets near-simultaneous clients share one batched execute.
  // The window is adaptive: whatever has arrived when the idle service
  // first pops dispatches at once, and the other clients pile up behind
  // that batch's plan build and set_points and ride the following batches.
  service::ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 8;
  cfg.coalesce_window = std::chrono::milliseconds(2);
  service::NufftService svc(device, cfg);

  // 12 clients, each with its own k-space strengths and output grid. All
  // buffers must stay alive until the matching future resolves.
  const int kClients = 12;
  std::vector<std::vector<cplx>> data(kClients), image(kClients);
  std::vector<std::future<service::ExecReport>> futures(kClients);
  for (int i = 0; i < kClients; ++i) {
    data[i].resize(M);
    for (auto& v : data[i])
      v = {static_cast<float>(rng.uniform(-1, 1)),
           static_cast<float>(rng.uniform(-1, 1))};
    image[i].assign(ntot, cplx(0, 0));
  }

  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      service::Request<float> req;
      req.type = 1;  // nonuniform data -> uniform image modes
      req.modes = modes;
      req.tol = 1e-5;
      req.M = M;
      req.x = x.data();
      req.y = y.data();
      req.input = data[i].data();
      req.output = image[i].data();
      futures[i] = svc.submit(req);
    });
  }
  for (auto& t : clients) t.join();

  for (int i = 0; i < kClients; ++i) {
    const auto rep = futures[i].get();  // rethrows on invalid requests
    std::printf("client %2d: served in batch of %d (plane %d)%s%s\n", i, rep.batch,
                rep.batch_index, rep.plan_reused ? ", plan reused" : "",
                rep.points_reused ? ", set_points reused" : "");
  }

  const auto st = svc.stats();
  std::printf("\n%llu requests -> %llu batched executes; plan built %llu time(s); "
              "set_points reused %llu time(s)\n",
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.batches),
              static_cast<unsigned long long>(st.plan_misses),
              static_cast<unsigned long long>(st.setpts_reuses));
  std::printf("largest coalesced batch: %llu of %d requested\n",
              static_cast<unsigned long long>(st.max_batch_seen), cfg.max_batch);

  // ---- serving quality: bounded admission and priority ---------------------
  // A second service with a small admission cap under the fail-fast Shed
  // policy: a burst past max_outstanding is rejected with OverloadedError
  // instead of queueing without bound. An INTERACTIVE request then shows the
  // other latency lever — it skips the coalescing window entirely.
  service::ServiceConfig qcfg;
  qcfg.threads = 1;
  qcfg.coalesce_window = std::chrono::milliseconds(5);
  qcfg.max_outstanding = 2;
  qcfg.admission = service::Admission::Shed;
  service::NufftService qsvc(device, qcfg);

  auto make_req = [&](int i, service::Priority pri) {
    service::Request<float> req;
    req.type = 1;
    req.modes = modes;
    req.tol = 1e-5;
    req.M = M;
    req.x = x.data();
    req.y = y.data();
    req.input = data[i % kClients].data();
    req.output = image[i % kClients].data();
    req.priority = pri;
    return req;
  };

  std::vector<std::future<service::ExecReport>> burst;
  for (int i = 0; i < 8; ++i)
    burst.push_back(qsvc.submit(make_req(i, service::Priority::Bulk)));
  int served = 0, shed = 0;
  for (auto& f : burst) {
    try {
      f.get();
      ++served;
    } catch (const service::OverloadedError&) {
      ++shed;
    }
  }
  std::printf("\nburst of 8 at max_outstanding=2 (shed policy): %d served, %d shed\n",
              served, shed);

  auto fi = qsvc.submit(make_req(0, service::Priority::Interactive));
  const auto irep = fi.get();
  std::printf("interactive request: batch of %d (skipped the 5 ms window)\n",
              irep.batch);
  const auto qs = qsvc.stats();
  std::printf("admission accounting: submitted %llu == completed %llu + failed %llu "
              "(shed %llu)\n",
              static_cast<unsigned long long>(qs.submitted),
              static_cast<unsigned long long>(qs.completed),
              static_cast<unsigned long long>(qs.failed),
              static_cast<unsigned long long>(qs.shed));

  // ---- observability: metrics snapshot + Chrome trace ----------------------
  // Every service above self-registered in the global metrics registry; the
  // ledger moves submitted/completed/failed in one critical section, so the
  // snapshot itself proves submitted == completed + failed + outstanding.
  const auto snap = svc.metrics().snapshot();
  std::printf("\nobservability (service '%s'):\n", snap.name.c_str());
  std::printf("  ledger: submitted %llu = completed %llu + failed %llu "
              "(consistent: %s)\n",
              static_cast<unsigned long long>(snap.ledger.submitted),
              static_cast<unsigned long long>(snap.ledger.completed),
              static_cast<unsigned long long>(snap.ledger.failed),
              snap.ledger.consistent() ? "yes" : "NO");
  // Latency histograms: log2-bucketed, percentile by interpolation.
  const auto e2e = svc.metrics().e2e_us->snap();
  const auto qwait = svc.metrics().queue_wait_us->snap();
  const auto bs = svc.metrics().batch_size->snap();
  std::printf("  e2e: n=%llu p50=%.0f us p99=%.0f us; queue wait p50=%.0f us; "
              "batch p50=%.1f\n",
              static_cast<unsigned long long>(e2e.count), e2e.percentile(50),
              e2e.percentile(99), qwait.percentile(50), bs.percentile(50));

  // Machine-readable exports: the full registry as JSON (all services, all
  // counters/histograms) and the span rings as a Chrome trace — open
  // service_async_trace.json in chrome://tracing or ui.perfetto.dev.
  bool consistent = false;
  obs::write_text_file("service_async_metrics.json",
                       obs::json_string(&consistent));
  obs::export_chrome_trace("service_async_trace.json");
  std::printf("  wrote service_async_metrics.json (all ledgers consistent: %s)\n"
              "  wrote service_async_trace.json (chrome://tracing)\n",
              consistent ? "yes" : "NO");
  return 0;
}
