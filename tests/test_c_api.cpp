// C API surface: lifecycle, both precisions, error codes, and agreement with
// the C++ plan.
#include <gtest/gtest.h>

#include <array>
#include <complex>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/c_api.h"
#include "cpu/direct.hpp"
#include "spreadinterp/point_cache.hpp"

using cf::Rng;

namespace {

struct DeviceGuard {
  cfs_device dev = nullptr;
  DeviceGuard() { cfs_device_create(&dev, 4); }
  ~DeviceGuard() { cfs_device_destroy(dev); }
};

/// A 2D type-1/2 bulk-class service request over caller-owned arrays.
cfs_service_request request2d(int precision, int type, const int64_t* nmodes, int iflag,
                              double tol, const cfs_opts* opts, size_t M,
                              const void* x, const void* y, const void* input,
                              void* output) {
  cfs_service_request r{};
  r.precision = precision;
  r.type = type;
  r.dim = 2;
  r.nmodes = nmodes;
  r.iflag = iflag;
  r.tol = tol;
  r.opts = opts;
  r.M = M;
  r.x = x;
  r.y = y;
  r.input = input;
  r.output = output;
  return r;
}

/// A service with cfs_default_service_config plus the given overrides.
cfs_service_config service_config(int threads, int max_plans, int max_batch,
                                  int64_t max_outstanding = 0,
                                  int admission = CFS_ADMIT_BLOCK,
                                  int64_t window_us = -1) {
  cfs_service_config c;
  cfs_default_service_config(&c);
  c.threads = threads;
  c.max_plans = max_plans;
  c.max_batch = max_batch;
  c.max_outstanding = max_outstanding;
  c.admission = admission;
  c.window_us = window_us;
  return c;
}

}  // namespace

TEST(CApi, DefaultOptsAreAuto) {
  cfs_opts opts;
  cfs_default_opts(&opts);
  EXPECT_EQ(opts.gpu_method, CFS_METHOD_AUTO);
  EXPECT_EQ(opts.gpu_binsizex, 0);
}

TEST(CApi, DeviceLifecycle) {
  cfs_device dev = nullptr;
  ASSERT_EQ(cfs_device_create(&dev, 2), CFS_SUCCESS);
  ASSERT_NE(dev, nullptr);
  EXPECT_EQ(cfs_device_bytes_in_use(dev), 0u);
  EXPECT_EQ(cfs_device_destroy(dev), CFS_SUCCESS);
  EXPECT_EQ(cfs_device_create(nullptr, 2), CFS_ERR_INVALID_ARG);
}

TEST(CApi, DoubleType1MatchesDirect) {
  DeviceGuard g;
  const std::size_t M = 800;
  const int64_t nmodes[2] = {20, 24};
  Rng rng(5);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-9, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(20 * 24);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(20 * 24);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(nmodes, 2), want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8);
}

TEST(CApi, FloatType2MatchesDirect) {
  DeviceGuard g;
  const std::size_t M = 700;
  const int64_t nmodes[2] = {18, 18};
  Rng rng(6);
  std::vector<float> x(M), y(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = static_cast<float>(rng.angle());
    y[j] = static_cast<float>(rng.angle());
  }
  std::vector<std::complex<float>> f(18 * 18);
  for (auto& v : f)
    v = {static_cast<float>(rng.uniform(-1, 1)), static_cast<float>(rng.uniform(-1, 1))};
  cfs_planf plan = nullptr;
  ASSERT_EQ(cfs_makeplanf(g.dev, 2, 2, nmodes, -1, 1e-5, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<float>> c(M);
  ASSERT_EQ(cfs_executef(plan, reinterpret_cast<float*>(c.data()),
                         reinterpret_cast<float*>(f.data())),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_destroyf(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<float>> want(M);
  cf::cpu::direct_type2<float>(pool, x, y, {}, want, -1, std::span(nmodes, 2), f);
  EXPECT_LT(cf::cpu::rel_l2_error<float>(c, want), 3e-5);
}

TEST(CApi, MethodOptionIsHonoredAndRmk2Rejected) {
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  opts.gpu_method = CFS_METHOD_SM;
  const int64_t n3[3] = {24, 24, 24};
  // SM in 3D double violates shared memory (paper Rmk. 2): a clean error.
  cfs_plan plan = nullptr;
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 3, n3, +1, 1e-6, &opts, &plan),
            CFS_ERR_INVALID_ARG);
  // Works in single precision.
  cfs_planf planf = nullptr;
  EXPECT_EQ(cfs_makeplanf(g.dev, 1, 3, n3, +1, 1e-5, &opts, &planf), CFS_SUCCESS);
  cfs_destroyf(planf);
}

TEST(CApi, InvalidArgumentsReturnErrorCodes) {
  DeviceGuard g;
  const int64_t n2[2] = {16, 16};
  cfs_plan plan = nullptr;
  EXPECT_EQ(cfs_makeplan(nullptr, 1, 2, n2, +1, 1e-6, nullptr, &plan),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 4, n2, +1, 1e-6, nullptr, &plan),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_makeplan(g.dev, 7, 2, n2, +1, 1e-6, nullptr, &plan),
            CFS_ERR_INVALID_ARG);
  for (double tol : {0.0, -1e-6, 1.0, 2.0, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    cfs_planf planf = nullptr;
    cfs_plan3 plan3 = nullptr;
    EXPECT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, tol, nullptr, &plan), CFS_ERR_INVALID_ARG)
        << tol;
    EXPECT_EQ(cfs_makeplanf(g.dev, 2, 2, n2, +1, tol, nullptr, &planf), CFS_ERR_INVALID_ARG)
        << tol;
    EXPECT_EQ(cfs_makeplan3(g.dev, 2, +1, tol, nullptr, &plan3), CFS_ERR_INVALID_ARG)
        << tol;
  }
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-6, nullptr, &plan), CFS_SUCCESS);
  EXPECT_EQ(cfs_setpts(plan, 10, nullptr, nullptr, nullptr), CFS_ERR_INVALID_ARG);
  std::vector<double> x(10, 0.0);
  EXPECT_EQ(cfs_setpts(plan, 10, x.data(), nullptr, nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_execute(nullptr, nullptr, nullptr), CFS_ERR_INVALID_ARG);
  cfs_destroy(plan);

  // Service: NULL arguments and unknown config values fail at create.
  cfs_service svc = nullptr;
  EXPECT_EQ(cfs_service_create(nullptr, g.dev, nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_service_create(&svc, nullptr, nullptr), CFS_ERR_INVALID_ARG);
  const cfs_service_config neg = service_config(-1, 0, 0);
  EXPECT_EQ(cfs_service_create(&svc, g.dev, &neg), CFS_ERR_INVALID_ARG);
  ASSERT_EQ(cfs_service_create(&svc, g.dev, nullptr), CFS_SUCCESS);  // defaults

  // The descriptor's rejections at submit: a NULL argument, an unknown
  // precision or priority, dim outside 1..3, and NULL nmodes on type 1/2.
  std::vector<double> y(10, 0.0), cin(20, 0.0), fout(2 * 16 * 16);
  const auto good = request2d(CFS_PRECISION_DOUBLE, 1, n2, +1, 1e-6, nullptr, 10,
                              x.data(), y.data(), cin.data(), fout.data());
  cfs_request r = 0;
  EXPECT_EQ(cfs_service_submit(nullptr, &good, &r), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_service_submit(svc, nullptr, &r), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_service_submit(svc, &good, nullptr), CFS_ERR_INVALID_ARG);
  auto bad = good;
  bad.precision = 2;
  EXPECT_EQ(cfs_service_submit(svc, &bad, &r), CFS_ERR_INVALID_ARG);
  bad = good;
  bad.priority = 42;
  EXPECT_EQ(cfs_service_submit(svc, &bad, &r), CFS_ERR_INVALID_ARG);
  bad = good;
  bad.dim = 4;
  EXPECT_EQ(cfs_service_submit(svc, &bad, &r), CFS_ERR_INVALID_ARG);
  bad = good;
  bad.nmodes = nullptr;
  EXPECT_EQ(cfs_service_submit(svc, &bad, &r), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_service_stats(svc, nullptr), CFS_ERR_INVALID_ARG);

  // Type 3 without targets passes the descriptor checks and is rejected by
  // the service, through the wait.
  bad = good;
  bad.type = 3;
  bad.nmodes = nullptr;
  bad.s = bad.t = x.data();
  bad.K = 0;
  ASSERT_EQ(cfs_service_submit(svc, &bad, &r), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r), CFS_ERR_INVALID_ARG);
  struct cfs_service_stats st{};
  ASSERT_EQ(cfs_service_stats(svc, &st), CFS_SUCCESS);
  EXPECT_EQ(st.submitted, 1u);  // only the type-3 request reached the service
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(cfs_service_destroy(svc), CFS_SUCCESS);
}

TEST(CApi, NonFiniteCoordinatesReturnInvalidArg) {
  DeviceGuard g;
  const int64_t n3[3] = {8, 8, 8};
  const size_t M = 64;
  Rng rng(65);
  std::vector<double> xyz[3];
  std::vector<float> xyzf[3];
  for (int d = 0; d < 3; ++d)
    for (size_t j = 0; j < M; ++j) {
      xyz[d].push_back(rng.angle());
      xyzf[d].push_back(static_cast<float>(xyz[d].back()));
    }
  cfs_plan plan = nullptr;
  cfs_planf planf = nullptr;
  cfs_plan3 plan3 = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 3, n3, +1, 1e-6, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_makeplanf(g.dev, 2, 3, n3, +1, 1e-5, nullptr, &planf), CFS_SUCCESS);
  ASSERT_EQ(cfs_makeplan3(g.dev, 3, +1, 1e-6, nullptr, &plan3), CFS_SUCCESS);
  const double bads[2] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()};
  for (int d = 0; d < 3; ++d)
    for (const double bad : bads) {
      auto p = std::to_array({xyz[0], xyz[1], xyz[2]});
      auto pf = std::to_array({xyzf[0], xyzf[1], xyzf[2]});
      p[d][M / 2] = bad;
      pf[d][M / 2] = static_cast<float>(bad);
      EXPECT_EQ(cfs_setpts(plan, M, p[0].data(), p[1].data(), p[2].data()),
                CFS_ERR_INVALID_ARG) << "axis " << d << " value " << bad;
      EXPECT_EQ(cfs_setptsf(planf, M, pf[0].data(), pf[1].data(), pf[2].data()),
                CFS_ERR_INVALID_ARG) << "axis " << d << " value " << bad;
      EXPECT_EQ(cfs_setpts3(plan3, M, p[0].data(), p[1].data(), p[2].data(), M,
                            xyz[0].data(), xyz[1].data(), xyz[2].data()),
                CFS_ERR_INVALID_ARG) << "axis " << d << " value " << bad;
    }
  cfs_destroy(plan);
  cfs_destroyf(planf);
  cfs_destroy3(plan3);
}

TEST(CApi, PointCountOf2To32ReturnsInvalidArg) {
  // M (or type-3 K) >= 2^32 is rejected on the count alone; the 4-point
  // arrays are never read.
  DeviceGuard g;
  const int64_t n2[2] = {8, 8};
  std::vector<double> x(4, 0.1);
  std::vector<float> xf(4, 0.1f);
  const size_t big = size_t{1} << 32;
  cfs_plan plan = nullptr;
  cfs_planf planf = nullptr;
  cfs_plan3 plan3 = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-6, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_makeplanf(g.dev, 2, 2, n2, +1, 1e-5, nullptr, &planf), CFS_SUCCESS);
  ASSERT_EQ(cfs_makeplan3(g.dev, 1, +1, 1e-6, nullptr, &plan3), CFS_SUCCESS);
  EXPECT_EQ(cfs_setpts(plan, big, x.data(), x.data(), nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_setptsf(planf, big, xf.data(), xf.data(), nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_setpts3(plan3, big, x.data(), nullptr, nullptr, 4, x.data(), nullptr,
                        nullptr),
            CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_setpts3(plan3, 4, x.data(), nullptr, nullptr, big, x.data(), nullptr,
                        nullptr),
            CFS_ERR_INVALID_ARG);
  cfs_destroy(plan);
  cfs_destroyf(planf);
  cfs_destroy3(plan3);
}

TEST(CApi, CustomBinSize) {
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  opts.gpu_method = CFS_METHOD_SM;
  opts.gpu_binsizex = 16;
  opts.gpu_binsizey = 16;
  const int64_t n2[2] = {32, 32};
  Rng rng(9);
  const std::size_t M = 2000;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-8, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(32 * 32);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  cfs_destroy(plan);
  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(32 * 32);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(n2, 2), want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-7);
}

TEST(CApi, SmAndGmSortGiveTheSameBits) {
  // SM streams the tap table setpts built; GM-sort evaluates the same taps
  // inline on the same tile engine. Where the taps come from never changes
  // their values, so both methods give the same bits.
  DeviceGuard g;
  cfs_opts defaults;
  cfs_default_opts(&defaults);

  const int64_t nmodes[2] = {40, 36};
  Rng rng(17);
  const std::size_t M = 1500;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  auto run = [&](int method, std::vector<std::complex<double>>& f) {
    cfs_opts opts = defaults;
    opts.gpu_method = method;
    cfs_plan plan = nullptr;
    ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-9, &opts, &plan), CFS_SUCCESS);
    ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
    f.assign(40 * 36, {0, 0});
    ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                          reinterpret_cast<double*>(f.data())),
              CFS_SUCCESS);
    EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);
  };
  std::vector<std::complex<double>> sm, gmsort;
  run(CFS_METHOD_SM, sm);
  run(CFS_METHOD_GMSORT, gmsort);
  EXPECT_TRUE(sm == gmsort);
}

TEST(CApi, PlanStats) {
  // cfs_plan_stats exposes the tiled spread's schedule counters. Uniform
  // points leave every bin under the fixed chunk cap (one work item per
  // tile); a clump of 6000 points in one bin exceeds it and is split.
  DeviceGuard g;
  cfs_opts defaults;
  cfs_default_opts(&defaults);
  defaults.gpu_method = CFS_METHOD_GMSORT;
  EXPECT_EQ(cfs_plan_stats(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr),
            CFS_ERR_INVALID_ARG);

  const int64_t nmodes[2] = {40, 36};
  Rng rng(43);
  const std::size_t M = 6000;
  std::vector<double> x(M), y(M), xc(M), yc(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    xc[j] = 0.5 + 0.05 * rng.uniform(0, 1);
    yc[j] = 0.5 + 0.05 * rng.uniform(0, 1);
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  struct Stats {
    uint64_t chunks = 0, steals = 0, maxpts = 0, tiles = 0;
    int tiled = -1;
  };
  auto run = [&](const std::vector<double>& px, const std::vector<double>& py,
                 Stats& st) {
    cfs_plan plan = nullptr;
    ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-9, &defaults, &plan),
              CFS_SUCCESS);
    ASSERT_EQ(cfs_setpts(plan, M, px.data(), py.data(), nullptr), CFS_SUCCESS);
    std::vector<std::complex<double>> f(40 * 36);
    ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                          reinterpret_cast<double*>(f.data())),
              CFS_SUCCESS);
    ASSERT_EQ(cfs_plan_stats(plan, &st.chunks, &st.steals, &st.maxpts, &st.tiles,
                             &st.tiled),
              CFS_SUCCESS);
    // NULL-tolerant outparams.
    EXPECT_EQ(cfs_plan_stats(plan, nullptr, nullptr, nullptr, nullptr, nullptr),
              CFS_SUCCESS);
    EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);
  };
  Stats st_uniform, st_clump;
  run(x, y, st_uniform);
  ASSERT_EQ(st_uniform.tiled, 1);
  EXPECT_GT(st_uniform.tiles, 0u);
  EXPECT_EQ(st_uniform.chunks, st_uniform.tiles);
  EXPECT_GT(st_uniform.maxpts, 0u);
  EXPECT_LE(st_uniform.maxpts, cf::spread::kTileChunkCap);
  run(xc, yc, st_clump);
  ASSERT_EQ(st_clump.tiled, 1);
  EXPECT_GT(st_clump.maxpts, cf::spread::kTileChunkCap);
  EXPECT_GT(st_clump.chunks, st_clump.tiles) << "the clump was not split";

  // Single-precision mirror.
  EXPECT_EQ(cfs_plan_statsf(nullptr, nullptr, nullptr, nullptr, nullptr, nullptr),
            CFS_ERR_INVALID_ARG);
  std::vector<float> xf(xc.begin(), xc.end()), yf(yc.begin(), yc.end());
  std::vector<std::complex<float>> cfl(M), ff(40 * 36);
  for (std::size_t j = 0; j < M; ++j)
    cfl[j] = {static_cast<float>(c[j].real()), static_cast<float>(c[j].imag())};
  cfs_planf planf = nullptr;
  ASSERT_EQ(cfs_makeplanf(g.dev, 1, 2, nmodes, +1, 1e-5, &defaults, &planf),
            CFS_SUCCESS);
  ASSERT_EQ(cfs_setptsf(planf, M, xf.data(), yf.data(), nullptr), CFS_SUCCESS);
  ASSERT_EQ(cfs_executef(planf, reinterpret_cast<float*>(cfl.data()),
                         reinterpret_cast<float*>(ff.data())),
            CFS_SUCCESS);
  Stats stf;
  ASSERT_EQ(cfs_plan_statsf(planf, &stf.chunks, &stf.steals, &stf.maxpts, &stf.tiles,
                            &stf.tiled),
            CFS_SUCCESS);
  EXPECT_EQ(stf.tiled, 1);
  EXPECT_GT(stf.chunks, stf.tiles);
  EXPECT_EQ(cfs_destroyf(planf), CFS_SUCCESS);
}

TEST(CApi, ModeProductOverflowIsRejectedBeforeAllocation) {
  // 2^66 modes overflow std::int64_t: CFS_ERR_INVALID_ARG, with no device
  // memory allocated on the way.
  DeviceGuard g;
  const int64_t n22 = int64_t{1} << 22;
  const int64_t n3[3] = {n22, n22, n22};
  cfs_plan plan = nullptr;
  cfs_planf planf = nullptr;
  for (int type : {1, 2}) {
    EXPECT_EQ(cfs_makeplan(g.dev, type, 3, n3, +1, 1e-6, nullptr, &plan),
              CFS_ERR_INVALID_ARG);
    EXPECT_EQ(cfs_makeplanf(g.dev, type, 3, n3, +1, 1e-5, nullptr, &planf),
              CFS_ERR_INVALID_ARG);
    EXPECT_EQ(cfs_device_bytes_in_use(g.dev), 0u);
  }
}

TEST(CApi, UpsampfacLowUpsamplingPlanAndService) {
  // cfs_opts.upsampfac: 0 is "library default" (sigma 2), 1.25 selects the
  // low-upsampling grid, anything else is a clean error. The sigma = 1.25
  // plan must hit the tolerance against the exact DFT, run the deterministic
  // tiled pipeline, and split the service plan registry from sigma = 2.
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  EXPECT_EQ(opts.upsampfac, 0.0);

  const int64_t n2[2] = {40, 40};
  cfs_plan plan = nullptr;
  opts.upsampfac = 1.5;
  EXPECT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-9, &opts, &plan),
            CFS_ERR_INVALID_ARG);

  const std::size_t M = 800;
  Rng rng(7);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  opts.upsampfac = 1.25;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, n2, +1, 1e-9, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(40 * 40);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  int tiled = -1;
  ASSERT_EQ(cfs_plan_stats(plan, nullptr, nullptr, nullptr, nullptr, &tiled),
            CFS_SUCCESS);
  EXPECT_EQ(tiled, 1) << "sigma = 1.25 grid must still pass the tile gate here";
  EXPECT_EQ(cfs_destroy(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(40 * 40);
  cf::cpu::direct_type1<double>(pool, x, y, {}, c, +1, std::span(n2, 2), want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-8);

  // Service layer: two sigmas are two registry entries; same-signature
  // requests ride one cached plan and reproduce the direct plan's bits (the
  // tiled pipeline is deterministic).
  const cfs_service_config scfg = service_config(2, 4, 4);
  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create(&svc, g.dev, &scfg), CFS_SUCCESS);
  cfs_opts sigma2;
  cfs_default_opts(&sigma2);
  std::vector<std::complex<double>> o1(40 * 40), o2(40 * 40), o3(40 * 40);
  cfs_request r1, r2, r3;
  const auto rq1 = request2d(CFS_PRECISION_DOUBLE, 1, n2, +1, 1e-9, &sigma2, M,
                             x.data(), y.data(), c.data(), o1.data());
  const auto rq2 = request2d(CFS_PRECISION_DOUBLE, 1, n2, +1, 1e-9, &opts, M, x.data(),
                             y.data(), c.data(), o2.data());
  auto rq3 = rq2;
  rq3.output = o3.data();
  ASSERT_EQ(cfs_service_submit(svc, &rq1, &r1), CFS_SUCCESS);
  ASSERT_EQ(cfs_service_submit(svc, &rq2, &r2), CFS_SUCCESS);
  ASSERT_EQ(cfs_service_submit(svc, &rq3, &r3), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r1), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r2), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r3), CFS_SUCCESS);
  struct cfs_service_stats st{};
  ASSERT_EQ(cfs_service_stats(svc, &st), CFS_SUCCESS);
  EXPECT_EQ(st.plan_misses, 2u) << "sigma must split the plan signature, once per value";
  for (std::size_t i = 0; i < o2.size(); ++i) {
    ASSERT_EQ(o2[i], o3[i]) << i;
    ASSERT_EQ(o2[i], f[i]) << i;
  }
  EXPECT_EQ(cfs_service_destroy(svc), CFS_SUCCESS);
}

TEST(CApi, Type3MatchesDirect) {
  DeviceGuard g;
  Rng rng(21);
  const std::size_t M = 600, K = 500;
  std::vector<double> x(M), y(M), s(K), t(K);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(-2, 2);
    y[j] = rng.uniform(-2, 2);
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  for (std::size_t k = 0; k < K; ++k) {
    s[k] = rng.uniform(-12, 12);
    t[k] = rng.uniform(-12, 12);
  }
  cfs_plan3 plan = nullptr;
  ASSERT_EQ(cfs_makeplan3(g.dev, 2, +1, 1e-8, nullptr, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts3(plan, M, x.data(), y.data(), nullptr, K, s.data(), t.data(),
                        nullptr),
            CFS_SUCCESS);
  std::vector<std::complex<double>> f(K);
  ASSERT_EQ(cfs_execute3(plan, reinterpret_cast<double*>(c.data()),
                         reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  EXPECT_EQ(cfs_destroy3(plan), CFS_SUCCESS);

  cf::ThreadPool pool(4);
  std::vector<std::complex<double>> want(K);
  cf::cpu::direct_type3<double>(pool, x, y, {}, c, +1, s, t, {}, want);
  EXPECT_LT(cf::cpu::rel_l2_error<double>(f, want), 1e-6);
}

TEST(CApi, Type3InvalidArgs) {
  DeviceGuard g;
  cfs_plan3 plan = nullptr;
  EXPECT_EQ(cfs_makeplan3(nullptr, 2, +1, 1e-6, nullptr, &plan), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_makeplan3(g.dev, 5, +1, 1e-6, nullptr, &plan), CFS_ERR_INVALID_ARG);
  ASSERT_EQ(cfs_makeplan3(g.dev, 2, +1, 1e-6, nullptr, &plan), CFS_SUCCESS);
  std::vector<double> x(3, 0.0);
  EXPECT_EQ(cfs_setpts3(plan, 3, x.data(), nullptr, nullptr, 3, x.data(), x.data(),
                        nullptr),
            CFS_ERR_INVALID_ARG);  // y missing for dim 2
  cfs_destroy3(plan);
}

TEST(CApi, NtransfAndModeordOptions) {
  DeviceGuard g;
  cfs_opts opts;
  cfs_default_opts(&opts);
  EXPECT_EQ(opts.ntransf, 0);
  EXPECT_EQ(opts.modeord, 0);
  opts.ntransf = 2;
  const int64_t nmodes[2] = {12, 12};
  Rng rng(31);
  const std::size_t M = 300;
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(2 * M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
  }
  for (auto& v : c) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  cfs_plan plan = nullptr;
  ASSERT_EQ(cfs_makeplan(g.dev, 1, 2, nmodes, +1, 1e-8, &opts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts(plan, M, x.data(), y.data(), nullptr), CFS_SUCCESS);
  std::vector<std::complex<double>> f(2 * 144);
  ASSERT_EQ(cfs_execute(plan, reinterpret_cast<double*>(c.data()),
                        reinterpret_cast<double*>(f.data())),
            CFS_SUCCESS);
  cfs_destroy(plan);
  // Each batch must match the direct sum of its own strengths.
  cf::ThreadPool pool(4);
  for (int b = 0; b < 2; ++b) {
    std::vector<std::complex<double>> cb(c.begin() + b * M, c.begin() + (b + 1) * M);
    std::vector<std::complex<double>> want(144);
    cf::cpu::direct_type1<double>(pool, x, y, {}, cb, +1, std::span(nmodes, 2), want);
    std::vector<std::complex<double>> got(f.begin() + b * 144, f.begin() + (b + 1) * 144);
    EXPECT_LT(cf::cpu::rel_l2_error<double>(got, want), 1e-7) << "batch " << b;
  }
}

// ---- serving-quality surface: admission, priority, shed accounting ----------

TEST(CApi, ServiceAdmissionShedAndPriority) {
  DeviceGuard g;

  // Invalid admission / priority arguments are rejected up front.
  cfs_service bad = nullptr;
  cfs_service_config cfg = service_config(1, 4, 4, 1, 99, 0);
  EXPECT_EQ(cfs_service_create(&bad, g.dev, &cfg), CFS_ERR_INVALID_ARG);
  cfg = service_config(1, 4, 4, -1, CFS_ADMIT_SHED, 0);
  EXPECT_EQ(cfs_service_create(&bad, g.dev, &cfg), CFS_ERR_INVALID_ARG);

  cfs_service svc = nullptr;
  cfg = service_config(1, 4, 4, /*max_outstanding=*/1, CFS_ADMIT_SHED, /*window_us=*/0);
  ASSERT_EQ(cfs_service_create(&svc, g.dev, &cfg), CFS_SUCCESS);

  const int64_t nmodes2[2] = {32, 24};
  Rng rng(41);
  const std::size_t MB = 300000, MS = 300;
  std::vector<float> xb(MB), yb(MB), xs(MS), ys(MS);
  for (std::size_t j = 0; j < MB; ++j) {
    xb[j] = static_cast<float>(rng.angle());
    yb[j] = static_cast<float>(rng.angle());
  }
  for (std::size_t j = 0; j < MS; ++j) {
    xs[j] = static_cast<float>(rng.angle());
    ys[j] = static_cast<float>(rng.angle());
  }
  std::vector<float> cb(2 * MB), cs(2 * MS);
  for (auto& v : cb) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : cs) v = static_cast<float>(rng.uniform(-1, 1));
  const std::size_t ntot = 32 * 24;

  // A big blocker fills the 1-deep cap; small submissions shed with the
  // dedicated error code until the dispatcher frees the slot.
  std::vector<float> fb(2 * ntot);
  cfs_request rb = 0;
  const auto rqb = request2d(CFS_PRECISION_SINGLE, 1, nmodes2, +1, 1e-5, nullptr, MB,
                             xb.data(), yb.data(), cb.data(), fb.data());
  ASSERT_EQ(cfs_service_submit(svc, &rqb, &rb), CFS_SUCCESS);
  int shed = 0, served = 0;
  std::vector<std::vector<float>> fs;
  fs.reserve(4000);
  for (int i = 0; i < 4000 && shed < 3; ++i) {
    fs.emplace_back(2 * ntot);
    cfs_request r = 0;
    const auto rq = request2d(CFS_PRECISION_SINGLE, 1, nmodes2, +1, 1e-5, nullptr, MS,
                              xs.data(), ys.data(), cs.data(), fs.back().data());
    ASSERT_EQ(cfs_service_submit(svc, &rq, &r), CFS_SUCCESS);
    const int rc = cfs_service_wait(svc, r);
    if (rc == CFS_ERR_OVERLOADED)
      ++shed;
    else if (rc == CFS_SUCCESS)
      ++served;
    else
      FAIL() << "unexpected wait status " << rc;
  }
  EXPECT_EQ(cfs_service_wait(svc, rb), CFS_SUCCESS);
  EXPECT_GE(shed, 3);

  // iflag = 0 is rejected through the future, not folded to +1.
  {
    std::vector<float> f0(2 * ntot);
    cfs_request r0 = 0;
    const auto rq0 = request2d(CFS_PRECISION_SINGLE, 1, nmodes2, 0, 1e-5, nullptr, MS,
                               xs.data(), ys.data(), cs.data(), f0.data());
    ASSERT_EQ(cfs_service_submit(svc, &rq0, &r0), CFS_SUCCESS);
    EXPECT_EQ(cfs_service_wait(svc, r0), CFS_ERR_INVALID_ARG);
  }

  struct cfs_service_stats st{};
  ASSERT_EQ(cfs_service_stats(svc, &st), CFS_SUCCESS);
  EXPECT_EQ(st.submitted, st.completed + st.failed);  // every request waited on above
  EXPECT_EQ(st.shed, static_cast<uint64_t>(shed));
  EXPECT_GE(st.failed, st.shed + 1);  // the sheds plus the iflag rejection
  EXPECT_EQ(st.completed, static_cast<uint64_t>(served) + 1);  // smalls + blocker
  cfs_service_destroy(svc);

  // Block policy at the same cap never sheds, and interactive requests are
  // served like any other request.
  cfg = service_config(1, 4, 4, 1, CFS_ADMIT_BLOCK, -1);
  ASSERT_EQ(cfs_service_create(&svc, g.dev, &cfg), CFS_SUCCESS);
  const int kReq = 6;
  std::vector<std::vector<float>> outs(kReq, std::vector<float>(2 * ntot));
  std::vector<cfs_request> reqs(kReq);
  for (int i = 0; i < kReq; ++i) {
    auto rq = request2d(CFS_PRECISION_SINGLE, 1, nmodes2, +1, 1e-5, nullptr, MS,
                        xs.data(), ys.data(), cs.data(), outs[i].data());
    rq.priority = i % 2 == 0 ? CFS_PRIORITY_INTERACTIVE : CFS_PRIORITY_BULK;
    ASSERT_EQ(cfs_service_submit(svc, &rq, &reqs[i]), CFS_SUCCESS);
  }
  for (int i = 0; i < kReq; ++i)
    EXPECT_EQ(cfs_service_wait(svc, reqs[i]), CFS_SUCCESS);
  ASSERT_EQ(cfs_service_stats(svc, &st), CFS_SUCCESS);
  EXPECT_EQ(st.shed, 0u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.submitted, st.completed);
  EXPECT_EQ(st.completed, static_cast<uint64_t>(kReq));
  // All six shared one point set and strengths: identical outputs.
  for (int i = 1; i < kReq; ++i) EXPECT_EQ(outs[i], outs[0]);
  cfs_service_destroy(svc);
}

TEST(CApi, ServiceType3MatchesPlan3) {
  // One device worker and one dispatcher: serial, so the comparison with the
  // direct type-3 plan is bitwise.
  cfs_device dev = nullptr;
  ASSERT_EQ(cfs_device_create(&dev, 1), CFS_SUCCESS);
  const cfs_service_config cfg = service_config(1, 8, 4);
  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create(&svc, dev, &cfg), CFS_SUCCESS);

  Rng rng(33);
  const std::size_t M = 220, K = 160;
  std::vector<double> x(M), y(M), s(K), t(K), c(2 * M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.uniform(-2, 2);
    y[j] = rng.uniform(-2, 2);
  }
  for (std::size_t k = 0; k < K; ++k) {
    s[k] = rng.uniform(-12, 12);
    t[k] = rng.uniform(-12, 12);
  }
  for (auto& v : c) v = rng.uniform(-1, 1);

  // Type 3 needs no nmodes: the descriptor's dim alone sets the dimension.
  cfs_service_request rq{};
  rq.precision = CFS_PRECISION_DOUBLE;
  rq.type = 3;
  rq.dim = 2;
  rq.iflag = +1;
  rq.tol = 1e-8;
  rq.M = M;
  rq.x = x.data();
  rq.y = y.data();
  rq.K = K;
  rq.s = s.data();
  rq.t = t.data();
  rq.input = c.data();
  const int kReq = 3;
  std::vector<std::vector<double>> f(kReq, std::vector<double>(2 * K));
  std::vector<cfs_request> reqs(kReq);
  for (int i = 0; i < kReq; ++i) {
    rq.output = f[i].data();
    ASSERT_EQ(cfs_service_submit(svc, &rq, &reqs[i]), CFS_SUCCESS);
  }
  for (int i = 0; i < kReq; ++i) EXPECT_EQ(cfs_service_wait(svc, reqs[i]), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, 987654), CFS_ERR_INVALID_ARG);  // unknown handle

  struct cfs_service_stats st{};
  ASSERT_EQ(cfs_service_stats(svc, &st), CFS_SUCCESS);
  EXPECT_EQ(st.submitted, static_cast<uint64_t>(kReq));
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.plan_misses, 1u);    // one signature, one plan
  EXPECT_EQ(st.setpts_builds, 1u);  // one source + target geometry

  // Reference: the direct type-3 plan.
  cfs_opts ropts;
  cfs_default_opts(&ropts);
  cfs_plan3 plan = nullptr;
  ASSERT_EQ(cfs_makeplan3(dev, 2, +1, 1e-8, &ropts, &plan), CFS_SUCCESS);
  ASSERT_EQ(cfs_setpts3(plan, M, x.data(), y.data(), nullptr, K, s.data(), t.data(),
                        nullptr),
            CFS_SUCCESS);
  std::vector<double> want(2 * K), cc = c;
  ASSERT_EQ(cfs_execute3(plan, cc.data(), want.data()), CFS_SUCCESS);
  for (int i = 0; i < kReq; ++i) EXPECT_EQ(f[i], want) << "type-3 req " << i;
  cfs_destroy3(plan);

  EXPECT_EQ(cfs_service_destroy(svc), CFS_SUCCESS);
  cfs_device_destroy(dev);
}

TEST(CApi, ObservabilityExportsAndErrors) {
  // Save/restore the process-global trace switch so suite order (and an
  // external CF_TRACE=1 CI pass) never leaks between tests.
  const int was = cfs_obs_enabled();
  EXPECT_EQ(cfs_obs_enable(1), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_enabled(), 1);

  // NULL paths are argument errors, not crashes.
  EXPECT_EQ(cfs_obs_snapshot_json(nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_obs_prometheus(nullptr), CFS_ERR_INVALID_ARG);
  EXPECT_EQ(cfs_obs_trace_export(nullptr), CFS_ERR_INVALID_ARG);

  // Push a small workload through the service so the registry and the
  // rings have content worth exporting.
  DeviceGuard g;
  const std::size_t M = 400;
  const int64_t n2[2] = {20, 24};
  Rng rng(91);
  std::vector<double> x(M), y(M);
  std::vector<std::complex<double>> c(M);
  for (std::size_t j = 0; j < M; ++j) {
    x[j] = rng.angle();
    y[j] = rng.angle();
    c[j] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  const cfs_service_config cfg = service_config(1, 4, 0);
  cfs_service svc = nullptr;
  ASSERT_EQ(cfs_service_create(&svc, g.dev, &cfg), CFS_SUCCESS);
  std::vector<std::complex<double>> out(20 * 24);
  cfs_request r;
  const auto rq = request2d(CFS_PRECISION_DOUBLE, 1, n2, +1, 1e-6, nullptr, M,
                            x.data(), y.data(), c.data(), out.data());
  ASSERT_EQ(cfs_service_submit(svc, &rq, &r), CFS_SUCCESS);
  EXPECT_EQ(cfs_service_wait(svc, r), CFS_SUCCESS);

  auto slurp = [](const char* path) {
    std::string text;
    if (std::FILE* f = std::fopen(path, "rb")) {
      char buf[4096];
      for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
        text.append(buf, n);
      std::fclose(f);
    }
    std::remove(path);
    return text;
  };

  // The service is drained (wait returned) but still ALIVE: its metrics
  // deregister from the global registry on destroy, so exports run first.
  // The ledger is settled, so the snapshot reports consistent and succeeds.
  ASSERT_EQ(cfs_obs_snapshot_json("c_api_obs.json"), CFS_SUCCESS);
  const std::string json = slurp("c_api_obs.json");
  EXPECT_NE(json.find("\"services\""), std::string::npos);
  EXPECT_NE(json.find("\"consistent\":true"), std::string::npos);

  ASSERT_EQ(cfs_obs_prometheus("c_api_obs.prom"), CFS_SUCCESS);
  const std::string prom = slurp("c_api_obs.prom");
  EXPECT_NE(prom.find("cf_submitted_total{"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);

  ASSERT_EQ(cfs_obs_trace_export("c_api_obs_trace.json"), CFS_SUCCESS);
  const std::string trace = slurp("c_api_obs_trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"execute\""), std::string::npos);

  EXPECT_EQ(cfs_service_destroy(svc), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_trace_reset(), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_enable(was), CFS_SUCCESS);
  EXPECT_EQ(cfs_obs_enabled(), was);
}
