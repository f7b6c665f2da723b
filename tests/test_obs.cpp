// Observability layer (src/obs):
//  * the ledger invariant submitted == completed + failed + outstanding
//    holds on snapshots taken DURING concurrent submit/shed storms, not just
//    after a drain;
//  * log-bucketed histograms: bucket counts sum to the recorded count, the
//    end-to-end histogram counts every fulfilled request, the batch-size
//    histogram counts every dispatched batch, and percentiles are monotone;
//  * trace spans: IDs are only minted when tracing is enabled, per-thread
//    rings stay bounded at their configured capacity (oldest-wins), the
//    Chrome trace export is well-formed JSON, and ExecReport carries the
//    request's trace ID across the service;
//  * metrics surface: the JSON and Prometheus expositions contain the
//    ledger/counter/histogram series, and the slow-request log prints a
//    span chain when the threshold trips;
//  * none of it changes output bits (test_service re-checks bitwise results
//    under CF_TRACE=1 in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <complex>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/obs.hpp"
#include "service/service.hpp"
#include "vgpu/device.hpp"

namespace core = cf::core;
namespace obs = cf::obs;
namespace service = cf::service;
namespace vgpu = cf::vgpu;
using cf::Rng;

namespace {

/// Restores the process-global trace switch on scope exit, so suites stay
/// order-independent and honor an external CF_TRACE=1 CI pass.
struct TraceGuard {
  bool was = obs::enabled();
  ~TraceGuard() { obs::set_enabled(was); }
};

// ---- minimal JSON validator -------------------------------------------------
// Recursive-descent syntax check (no semantics): enough to prove the trace
// and metrics exports are loadable by a real parser.

class JsonCheck {
 public:
  explicit JsonCheck(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string::traits_type::length(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (!std::isxdigit(static_cast<unsigned char>(peek())))
              return false;
            else
              ++pos_;
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    if (peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    do {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      skip_ws();
    } while (eat(','));
    return eat('}');
  }
  bool array() {
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    do {
      if (!value()) return false;
      skip_ws();
    } while (eat(','));
    return eat(']');
  }
};

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// Small 2D type-1 workload all tests share (explicit binsize so test-sized
/// grids pass the tile-geometry gate, as in test_service).
struct Workload {
  std::vector<std::int64_t> N{20, 24};
  std::size_t M = 400;
  std::vector<double> x, y;
  std::vector<std::complex<double>> c;

  explicit Workload(std::uint64_t seed) : x(M), y(M), c(M) {
    Rng rng(seed);
    for (auto& v : x) v = rng.angle();
    for (auto& v : y) v = rng.angle();
    for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }

  service::Request<double> request(std::vector<std::complex<double>>& out) const {
    service::Request<double> r;
    r.type = 1;
    r.modes = N;
    r.tol = 1e-5;
    r.M = M;
    r.x = x.data();
    r.y = y.data();
    r.input = c.data();
    r.output = out.data();
    return r;
  }
};

}  // namespace

// ---- histogram unit ---------------------------------------------------------

TEST(ObsHistogram, BucketEdgesAndSums) {
  obs::Histogram h;
  h.record(0.0);    // bucket 0: [0, 1)
  h.record(0.5);    // bucket 0
  h.record(1.0);    // bucket 1: [1, 2)
  h.record(3.0);    // bucket 2: [2, 4)
  h.record(1000);   // bucket 10: [512, 1024)
  h.record(-7.0);   // clamped into bucket 0
  const auto s = h.snap();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.bucket_total(), 6u);
  EXPECT_EQ(s.buckets[0], 3u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[10], 1u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0 + 0.5 + 1.0 + 3.0 + 1000.0 + 0.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(0), 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_le(10), 1024.0);
}

TEST(ObsHistogram, PercentilesMonotoneAndBracketed) {
  obs::Histogram h;
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) h.record(rng.uniform(0, 1 << 16));
  const auto s = h.snap();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.bucket_total(), s.count);
  double prev = 0;
  for (double q : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double p = s.percentile(q);
    EXPECT_GE(p, prev) << "q=" << q;
    prev = p;
  }
  EXPECT_LE(s.percentile(100), 1 << 16);
  EXPECT_EQ(obs::Histogram().snap().percentile(50), 0.0);  // empty histogram
}

// ---- ledger unit ------------------------------------------------------------

TEST(ObsLedger, TransitionsKeepTheInvariant) {
  obs::Ledger led;
  EXPECT_TRUE(led.admit(0, false));   // unbounded
  EXPECT_TRUE(led.admit(2, false));   // 1 < 2
  EXPECT_FALSE(led.admit(2, false));  // at cap: shed
  led.reject();                       // validation failure
  auto s = led.snap();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.outstanding, 2u);
  EXPECT_EQ(s.failed, 2u);  // shed + reject
  EXPECT_EQ(s.shed, 1u);
  EXPECT_TRUE(s.consistent());
  led.fulfill(2, 1);
  s = led.snap();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.completed, 1u);
  EXPECT_EQ(s.failed, 3u);
  EXPECT_TRUE(s.consistent());
  EXPECT_EQ(s.submitted, s.completed + s.failed);
  led.wait_drained();  // returns immediately at outstanding == 0
}

// ---- ledger consistency under concurrent storms -----------------------------

TEST(ObsService, LedgerConsistentDuringShedStorm) {
  Workload wl(21);
  vgpu::Device dev(1);
  service::ServiceConfig cfg;
  cfg.threads = 2;
  cfg.max_outstanding = 4;
  cfg.admission = service::Admission::Shed;  // storms actually shed
  service::NufftService svc(dev, cfg);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn{0}, samples{0};
  // Sampler: hammer snapshots while submitters race admission/shed/fulfill.
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto s = svc.metrics().ledger().snap();
      ++samples;
      if (!s.consistent()) ++torn;
    }
  });
  // The storm can finish in a few milliseconds; on a loaded host the sampler
  // might not run before it ends, so the submitters wait for its first
  // snapshot.
  while (samples.load() == 0) std::this_thread::yield();

  const int kThreads = 4, kPerThread = 60;
  std::vector<std::thread> subs;
  for (int t = 0; t < kThreads; ++t)
    subs.emplace_back([&, t] {
      Workload mine(100 + static_cast<std::uint64_t>(t));
      std::vector<std::vector<std::complex<double>>> outs(
          kPerThread, std::vector<std::complex<double>>(20 * 24));
      std::vector<std::future<service::ExecReport>> futs;
      for (int i = 0; i < kPerThread; ++i)
        futs.push_back(svc.submit(mine.request(outs[static_cast<std::size_t>(i)])));
      for (auto& f : futs) {
        try {
          f.get();
        } catch (const service::OverloadedError&) {
        }
      }
    });
  for (auto& th : subs) th.join();
  svc.drain();
  stop = true;
  sampler.join();

  EXPECT_EQ(torn.load(), 0u) << "inconsistent ledger snapshots mid-storm";
  EXPECT_GT(samples.load(), 0u);
  const auto fin = svc.metrics().ledger().snap();
  EXPECT_TRUE(fin.consistent());
  EXPECT_EQ(fin.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(fin.outstanding, 0u);
  EXPECT_EQ(fin.submitted, fin.completed + fin.failed);
  EXPECT_GT(fin.shed, 0u) << "storm never hit the cap; raise the load";
  // The stats() view rides the same snapshot.
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, st.completed + st.failed);
  EXPECT_EQ(st.shed, fin.shed);
}

// ---- histogram / counter wiring through the service -------------------------

TEST(ObsService, HistogramBucketCountsSumToRequestCount) {
  Workload wl(33);
  vgpu::Device dev(1);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  service::NufftService svc(dev, cfg);

  const int kN = 24;
  std::vector<std::vector<std::complex<double>>> outs(
      kN, std::vector<std::complex<double>>(20 * 24));
  std::vector<std::future<service::ExecReport>> futs;
  for (int i = 0; i < kN; ++i)
    futs.push_back(svc.submit(wl.request(outs[static_cast<std::size_t>(i)])));
  for (auto& f : futs) f.get();
  svc.drain();

  const auto& m = svc.metrics();
  const auto e2e = m.e2e_us->snap();
  EXPECT_EQ(e2e.count, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(e2e.bucket_total(), e2e.count);
  const auto qw = m.queue_wait_us->snap();
  EXPECT_EQ(qw.count, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(qw.bucket_total(), qw.count);
  const auto bs = m.batch_size->snap();
  EXPECT_EQ(bs.count, m.batches->value());
  EXPECT_EQ(bs.bucket_total(), bs.count);
  EXPECT_EQ(m.batched_requests->value(), static_cast<std::uint64_t>(kN));
  const auto ex = m.execute_us->snap();
  EXPECT_EQ(ex.count, m.batches->value());
  // One signature, one geometry: exactly one set_points build.
  EXPECT_EQ(m.setpts_builds->value(), 1u);
  EXPECT_EQ(m.setpts_us->snap().count, 1u);
  // Stage histograms: the 2D type-1 pipeline ran spread/fft/deconvolve every
  // batch and sort exactly once (on the build).
  EXPECT_EQ(m.stage_spread_us->snap().count, m.batches->value());
  EXPECT_EQ(m.stage_fft_us->snap().count, m.batches->value());
  EXPECT_LE(m.stage_sort_us->snap().count, 1u);
}

// ---- trace spans ------------------------------------------------------------

TEST(ObsTrace, DisabledMintsNoIds) {
  TraceGuard guard;
  obs::set_enabled(false);
  EXPECT_EQ(obs::trace_begin(), 0u);
  obs::span(obs::SpanKind::Execute, 1, 0, 10);  // must be a no-op, not a crash
}

TEST(ObsTrace, EnabledMintsUniqueIdsAndExecReportCarriesThem) {
  TraceGuard guard;
  obs::set_enabled(true);
  const std::uint64_t a = obs::trace_begin();
  const std::uint64_t b = obs::trace_begin();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);

  Workload wl(44);
  vgpu::Device dev(1);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  service::NufftService svc(dev, cfg);
  std::vector<std::complex<double>> out(20 * 24);
  const auto rep = svc.submit(wl.request(out)).get();
  EXPECT_NE(rep.trace, 0u);
  // The request's chain has at least queue-enter, execute, and resolve.
  const auto chain = obs::collect_trace(rep.trace);
  EXPECT_GE(chain.size(), 3u);
  bool saw_resolve = false;
  for (const auto& s : chain)
    saw_resolve = saw_resolve || s.kind == obs::SpanKind::FutureResolve;
  EXPECT_TRUE(saw_resolve);
}

TEST(ObsTrace, RingIsBoundedOldestWins) {
  TraceGuard guard;
  obs::set_enabled(true);
  obs::TraceConfig tc;
  tc.ring_capacity = 64;
  obs::configure(tc);
  // A FRESH thread allocates its ring at the configured capacity.
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < 1000; ++i)
      obs::span(obs::SpanKind::Execute, 0, static_cast<double>(i), 1,
                static_cast<std::int64_t>(i));
  });
  writer.join();
  tc.ring_capacity = 8192;
  obs::configure(tc);  // restore for later suites

  bool found = false;
  for (const auto& [tid, spans] : obs::collect()) {
    (void)tid;
    // Identify the writer's ring by its newest span (arg 999).
    if (spans.empty() || spans.back().arg != 999) continue;
    found = true;
    EXPECT_EQ(spans.size(), 64u) << "ring not bounded at its capacity";
    EXPECT_EQ(spans.front().arg, 1000 - 64) << "oldest span should be evicted";
  }
  EXPECT_TRUE(found) << "writer thread's ring not collected";
}

TEST(ObsTrace, ChromeExportIsWellFormedJson) {
  TraceGuard guard;
  obs::set_enabled(true);

  Workload wl(55);
  vgpu::Device dev(1);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  {
    service::NufftService svc(dev, cfg);
    std::vector<std::vector<std::complex<double>>> outs(
        6, std::vector<std::complex<double>>(20 * 24));
    std::vector<std::future<service::ExecReport>> futs;
    for (auto& out : outs) futs.push_back(svc.submit(wl.request(out)));
    for (auto& f : futs) f.get();
  }

  const std::string path = "obs_trace_test.json";
  ASSERT_TRUE(obs::export_chrome_trace(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(JsonCheck(text).valid()) << "trace export is not valid JSON";
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"execute\""), std::string::npos);
}

// ---- export surfaces --------------------------------------------------------

TEST(ObsExport, JsonAndPrometheusCarryTheRegistry) {
  Workload wl(66);
  vgpu::Device dev(1);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  service::NufftService svc(dev, cfg);
  std::vector<std::complex<double>> out(20 * 24);
  svc.submit(wl.request(out)).get();
  svc.drain();

  bool consistent = false;
  const std::string json = obs::json_string(&consistent);
  EXPECT_TRUE(consistent) << json;
  EXPECT_TRUE(JsonCheck(json).valid()) << "metrics JSON is not valid JSON";
  EXPECT_NE(json.find("\"ledger\""), std::string::npos);
  EXPECT_NE(json.find("\"consistent\":true"), std::string::npos);
  EXPECT_NE(json.find("\"e2e_us\""), std::string::npos);
  EXPECT_NE(json.find("\"batches\""), std::string::npos);

  const std::string prom = obs::prometheus_string();
  EXPECT_NE(prom.find("cf_submitted_total{service=\""), std::string::npos);
  EXPECT_NE(prom.find("cf_e2e_us_bucket{"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("cf_e2e_us_count{"), std::string::npos);
}

TEST(ObsSlowLog, ThresholdEmitsSpanChain) {
  TraceGuard guard;
  obs::set_enabled(true);
  Workload wl(77);
  vgpu::Device dev(1);
  service::ServiceConfig cfg;
  cfg.threads = 1;
  cfg.observability.slow_request_ms = 1e-6;  // everything is "slow"
  service::NufftService svc(dev, cfg);
  std::vector<std::complex<double>> out(20 * 24);

  testing::internal::CaptureStderr();
  svc.submit(wl.request(out)).get();
  svc.drain();
  const std::string log = testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("SLOW request"), std::string::npos);
  EXPECT_NE(log.find("resolve"), std::string::npos) << log;
}
