// Runtime-hardening chaos tests (DESIGN.md §10): the watchdog detects a
// deliberately hung pool worker, quarantines and rebuilds the pool; every
// memory-pressure injection site degrades instead of throwing out of
// smm_gemm; the guarded executor treats pool-class faults as rebuildable;
// and a short concurrent soak drives mixed traffic while the fault
// scheduler cycles every injection site — no hang, no crash, no
// unverified result. The 60-second version of the soak is
// bench/chaos_soak; this file keeps each case seconds-short so tier-1
// stays fast.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/core/batched.h"
#include "src/core/plan_builder.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/plan/native_executor.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
#include "src/threading/partition.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

using robust::FaultInjector;
using robust::FaultSite;
using robust::FaultSpec;
using robust::GuardedExecutor;
using robust::GuardOptions;
using robust::Outcome;
using robust::RunReport;
using robust::ScopedFault;

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    robust::reset_injected_hangs();
    default_timeout_ = par::WorkerPool::instance().watchdog_timeout_ms();
    heal_pool();
  }

  void TearDown() override {
    FaultInjector::instance().disarm_all();
    // Free anything a test left parked, then re-arm blocking for the
    // next case.
    robust::cancel_injected_hangs();
    robust::reset_injected_hangs();
    par::WorkerPool::instance().set_watchdog_timeout_ms(default_timeout_);
    heal_pool();
  }

  /// Two clean pooled regions: a quarantined pool rebuilds on the first
  /// (served via spawn fallback) and is parked-and-ready again by the
  /// second, so no test inherits a poisoned roster.
  static void heal_pool() {
    for (int i = 0; i < 2; ++i) par::run_parallel(2, [](int) {});
  }

  /// Back-to-back 1 ms regions on the process-wide pool until `span`
  /// has passed; returns how many ran.
  static int run_back_to_back_regions(std::chrono::milliseconds span) {
    const auto until = std::chrono::steady_clock::now() + span;
    int regions = 0;
    while (std::chrono::steady_clock::now() < until) {
      par::run_parallel(2, [](int) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
      ++regions;
    }
    return regions;
  }

  long default_timeout_ = 0;
};

// ---- watchdog + quarantine -------------------------------------------------

TEST_F(ChaosTest, WatchdogDetectsHungWorkerQuarantinesAndRecovers) {
  auto& pool = par::WorkerPool::instance();
  const auto health_before = robust::health().snapshot();
  const auto stats_before = pool.stats();
  pool.set_watchdog_timeout_ms(150);

  {
    ScopedFault hang(FaultSite::kWorkerHang,
                     {.fire_after = 0, .max_fires = 1});
    try {
      par::run_parallel(4, [](int) {});
      FAIL() << "a hung worker did not fail the region";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kPoolTimeout) << e.what();
    }
    EXPECT_TRUE(pool.quarantined());
  }

  const auto health_mid = robust::health().snapshot();
  EXPECT_GE(health_mid.pool_watchdog_timeouts,
            health_before.pool_watchdog_timeouts + 1);
  EXPECT_GE(health_mid.pool_quarantines,
            health_before.pool_quarantines + 1);

  // Recovery: the quarantined pool declines one region (served by the
  // spawn fallback while the fresh roster comes up), then serves again.
  robust::reset_injected_hangs();
  std::atomic<int> ran{0};
  par::run_parallel(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_FALSE(pool.quarantined());
  par::run_parallel(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);

  const auto stats_after = pool.stats();
  EXPECT_GE(stats_after.watchdog_timeouts,
            stats_before.watchdog_timeouts + 1);
  EXPECT_GE(stats_after.quarantines, stats_before.quarantines + 1);
  EXPECT_GE(stats_after.rebuilds, stats_before.rebuilds + 1);
  EXPECT_GE(robust::health().snapshot().pool_rebuilds,
            health_before.pool_rebuilds + 1);

  // The recovered pool computes correctly.
  test::GemmProblem<float> prob(96, 64, 48, 0xD06);
  prob.reference(1.0f, 1.0f);
  core::smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 1.0f, prob.c.view(),
                 4);
  EXPECT_TRUE(prob.check(48));
}

TEST_F(ChaosTest, DeadlineSleepingWatchdogNeverChargesARegionToTheNext) {
  // The watchdog sleeps until the deadline of the region it armed on; by
  // then dozens of later regions have started. Each wake must re-arm on
  // the region in flight, never time that one out on an older deadline.
  auto& pool = par::WorkerPool::instance();
  pool.set_watchdog_timeout_ms(50);
  const auto before = pool.stats();
  EXPECT_GT(run_back_to_back_regions(std::chrono::milliseconds(250)), 0);
  const auto after = pool.stats();
  EXPECT_EQ(after.watchdog_timeouts, before.watchdog_timeouts);
  EXPECT_EQ(after.quarantines, before.quarantines);
  EXPECT_FALSE(pool.quarantined());
}

TEST_F(ChaosTest, WatchdogCatchesAHangAfterBackToBackRegions) {
  auto& pool = par::WorkerPool::instance();
  pool.set_watchdog_timeout_ms(50);
  run_back_to_back_regions(std::chrono::milliseconds(250));
  const auto before = pool.stats();

  {
    ScopedFault hang(FaultSite::kWorkerHang,
                     {.fire_after = 0, .max_fires = 1});
    try {
      par::run_parallel(4, [](int) {});
      FAIL() << "a hung worker did not fail the region";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kPoolTimeout) << e.what();
    }
    EXPECT_TRUE(pool.quarantined());
  }

  robust::reset_injected_hangs();
  std::atomic<int> ran{0};
  par::run_parallel(4, [&](int) { ran.fetch_add(1); });
  EXPECT_FALSE(pool.quarantined());
  par::run_parallel(4, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);

  const auto after = pool.stats();
  EXPECT_EQ(after.watchdog_timeouts, before.watchdog_timeouts + 1);
  EXPECT_EQ(after.quarantines, before.quarantines + 1);
  EXPECT_EQ(after.rebuilds, before.rebuilds + 1);
}

TEST_F(ChaosTest, ZeroTimeoutDisablesTheWatchdog) {
  auto& pool = par::WorkerPool::instance();
  const auto before = pool.stats();
  pool.set_watchdog_timeout_ms(0);
  // A region far slower than any armed deadline would be: with the
  // watchdog off it must complete untouched.
  par::run_parallel(4, [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const auto after = pool.stats();
  EXPECT_EQ(after.watchdog_timeouts, before.watchdog_timeouts);
  EXPECT_EQ(after.quarantines, before.quarantines);
  EXPECT_FALSE(pool.quarantined());
}

TEST_F(ChaosTest, SpawnFailureFailsTheCallInsteadOfTerminating) {
  const auto before = robust::health().snapshot();
  ScopedFault fault(FaultSite::kPoolSpawnFail,
                    {.fire_after = 0, .max_fires = 16});
  std::atomic<int> ran{0};
  try {
    // Wider than any roster a prior case grew: the pool must try (and
    // fail) to grow, decline, and the spawn fallback must then fail the
    // unspawned tids instead of std::terminate-ing on a half-built
    // thread vector.
    par::run_parallel(8, [&](int) { ran.fetch_add(1); });
    FAIL() << "spawn failure did not fail the region";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kPoolSpawnFail) << e.what();
  }
  const auto after = robust::health().snapshot();
  EXPECT_GE(after.pool_spawn_failures, before.pool_spawn_failures + 1);
}

// ---- guarded executor x pool faults ----------------------------------------

TEST_F(ChaosTest, GuardedExecutorRebuildsSerialOnPoolFault) {
  // The shape must actually parallelize or no pool fault can fire.
  constexpr GemmShape kShape{256, 256, 256};
  ASSERT_GT(core::reference_smm()
                .make_plan(kShape, plan::ScalarType::kF32, 4)
                .nthreads,
            1);

  par::WorkerPool::instance().set_watchdog_timeout_ms(150);
  GuardedExecutor guard;
  const auto before = robust::health().snapshot();
  test::GemmProblem<float> prob(kShape.m, kShape.n, kShape.k, 0x9001);
  prob.reference(1.0f, 0.0f);

  // Hit 0 of kPoolSpawnFail is the pool growing for the first attempt —
  // that one must succeed so the hang (then the watchdog) fires first;
  // every later spawn (rebuild growth, spawn fallback) fails, so the
  // parallel runtime is gone until the guard degrades to a serial plan.
  ScopedFault hang(FaultSite::kWorkerHang, {.fire_after = 0, .max_fires = 1});
  FaultInjector::instance().arm(FaultSite::kPoolSpawnFail,
                                {.fire_after = 1, .max_fires = 1000});

  const RunReport report =
      guard.run(1.0f, prob.a.cview(), prob.b.cview(), 0.0f, prob.c.view(), 4);

  EXPECT_EQ(report.outcome, Outcome::kDegraded) << report.summary();
  EXPECT_STREQ(report.fallback, "rebuilt-plan");
  // The watchdog poison cancels the plan's barriers too, so peers of the
  // hung worker fail as kWorkerPanic and the aggregate may carry either
  // pool-class code — both route the guard to the serial rebuild.
  EXPECT_TRUE(report.first_error == ErrorCode::kPoolTimeout ||
              report.first_error == ErrorCode::kWorkerPanic)
      << report.summary();
  const auto after = robust::health().snapshot();
  EXPECT_GE(after.pool_watchdog_timeouts, before.pool_watchdog_timeouts + 1);
  EXPECT_TRUE(prob.check(kShape.k));
}

// ---- memory-pressure degradations ------------------------------------------

TEST_F(ChaosTest, ArenaExhaustionDegradesToPerCallBuffers) {
  const auto before = robust::health().snapshot();
  test::GemmProblem<float> prob(64, 48, 64, 0xA12E);
  prob.reference(1.5f, 0.5f);
  core::SmmOptions opts;
  opts.pack_a = opts.pack_b = core::SmmOptions::Packing::kAlways;

  ScopedFault fault(FaultSite::kArenaExhausted,
                    {.fire_after = 0, .max_fires = 1});
  core::smm_gemm(1.5f, prob.a.cview(), prob.b.cview(), 0.5f, prob.c.view(),
                 1, opts);
  EXPECT_TRUE(prob.check(64));
  EXPECT_GE(FaultInjector::instance().fired_count(FaultSite::kArenaExhausted),
            1u);
  const auto after = robust::health().snapshot();
  EXPECT_GE(after.arena_fallbacks, before.arena_fallbacks + 1);
}

TEST_F(ChaosTest, CacheInsertFailureServesThePlanUncached) {
  const auto before = robust::health().snapshot();
  core::PlanCache cache(core::reference_smm(), 16);
  const GemmShape shape{32, 32, 32};

  {
    ScopedFault fault(FaultSite::kCacheInsertFail,
                      {.fire_after = 0, .max_fires = 1});
    const auto plan = cache.get(shape, plan::ScalarType::kF32, 1);
    ASSERT_NE(plan, nullptr);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.insert_failures(), 1u);

    // The uncached plan still computes.
    test::GemmProblem<float> prob(32, 32, 32, 7);
    prob.reference(1.0f, 0.0f);
    plan::execute_plan(*plan, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                       prob.c.view());
    EXPECT_TRUE(prob.check(32));
  }

  // The site is exhausted: the same key now builds and caches normally.
  const auto plan2 = cache.get(shape, plan::ScalarType::kF32, 1);
  ASSERT_NE(plan2, nullptr);
  EXPECT_EQ(cache.size(), 1u);
  const auto after = robust::health().snapshot();
  EXPECT_GE(after.plan_cache_insert_failures,
            before.plan_cache_insert_failures + 1);
}

TEST_F(ChaosTest, PrepackAllocFallsBackToPackOnTheFly) {
  const auto before = robust::health().snapshot();
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;
  // This shape materializes cleanly (PrepackedBTest); under the injected
  // allocation failure the handle must degrade, not throw.
  test::GemmProblem<float> prob(24, 16, 12, 9);
  prob.reference(1.0f, 2.0f);

  ScopedFault fault(FaultSite::kPrepackAlloc,
                    {.fire_after = 0, .max_fires = 1});
  const auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), /*m=*/24, 1, opts);
  EXPECT_FALSE(handle.materialized());
  handle.run(1.0f, prob.a.cview(), 2.0f, prob.c.view());
  EXPECT_TRUE(prob.check(12));
  const auto after = robust::health().snapshot();
  EXPECT_GE(after.prepack_fallbacks, before.prepack_fallbacks + 1);
}

// ---- barriers under fire ---------------------------------------------------

TEST_F(ChaosTest, BarrierTripFailsStopWithoutStrandingPeers) {
  // The jc=2 x ic=2 decomposition of this shape declares two
  // two-participant barriers (asserted in test_parallel); tile
  // constants match build_ways_plan there.
  par::Ways ways;
  ways.jc = 2;
  ways.ic = 2;
  core::BuildSpec spec;
  spec.mr = 16;
  spec.nr = 4;
  spec.mc = 240;
  spec.kc = 512;
  spec.nc = 480;
  spec.nthreads = ways.total();
  spec.ways = ways;
  spec.pack_a = spec.pack_b = true;
  plan::GemmPlan plan;
  plan.strategy = "test";
  plan.shape = {256, 256, 64};
  plan.scalar = plan::ScalarType::kF32;
  core::build_smm_plan(plan, spec);
  ASSERT_FALSE(plan.barriers.empty());

  test::GemmProblem<float> prob(256, 256, 64, 0xBA88);
  {
    ScopedFault fault(FaultSite::kBarrierTrip,
                      {.fire_after = 0, .max_fires = 1});
    try {
      plan::execute_plan(plan, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                         prob.c.view());
      FAIL() << "tripped barrier did not fail the call";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kWorkerPanic) << e.what();
    }
  }

  // The trip poisoned the barrier (peers failed instead of waiting
  // forever) and the runtime survives: a clean run computes correctly.
  prob.reference(1.0f, 0.0f);
  plan::execute_plan(plan, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                     prob.c.view());
  EXPECT_TRUE(prob.check(64));
}

// ---- plan-cache single flight under concurrent failure ---------------------

TEST_F(ChaosTest, SingleFlightBuildFailureDoesNotPoisonCacheOrWaiters) {
  core::PlanCache cache(core::reference_smm(), 16);
  const GemmShape shape{48, 32, 16};
  constexpr int kThreads = 8;
  constexpr int kFailures = 3;

  std::atomic<int> builds{0};
  std::atomic<int> throwers{0};
  std::atomic<int> served{0};
  std::atomic<int> bad_plan{0};
  const core::PlanCache::PlanBuilder builder = [&]() -> plan::GemmPlan {
    if (builds.fetch_add(1) < kFailures)
      throw Error(ErrorCode::kAlloc, "injected build failure");
    return core::reference_smm().make_plan(shape, plan::ScalarType::kF32, 1);
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<bool> go{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      try {
        const auto plan =
            cache.get_or_build(shape, plan::ScalarType::kF32, 1, 0, builder);
        if (plan == nullptr || plan->shape.m != shape.m)
          bad_plan.fetch_add(1);
        served.fetch_add(1);
      } catch (const Error&) {
        throwers.fetch_add(1);
      }
    });
  }
  go.store(true);
  for (auto& t : threads) t.join();

  // A failed build is the builder's own failure only: waiters retried
  // the lookup instead of inheriting it, so at most one caller throws
  // per failed build and nobody blocked forever (the joins above).
  EXPECT_EQ(served.load() + throwers.load(), kThreads);
  EXPECT_LE(throwers.load(), kFailures);
  EXPECT_GE(served.load(), kThreads - kFailures);
  EXPECT_EQ(bad_plan.load(), 0);

  // No poisoned entry: the key now serves a valid cached plan.
  const auto plan =
      cache.get_or_build(shape, plan::ScalarType::kF32, 1, 0, builder);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

// ---- concurrent chaos soak -------------------------------------------------

TEST_F(ChaosTest, ConcurrentSoakSurvivesEveryFaultSite) {
  par::WorkerPool::instance().set_watchdog_timeout_ms(200);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ops{0};
  std::atomic<std::size_t> guarded_failures{0};
  std::atomic<std::size_t> unexpected{0};

  std::vector<std::thread> traffic;

  // Guarded traffic: the correctness oracle of the soak. Whatever the
  // scheduler injects, every served result is ABFT-verified and a fully
  // failed request would be counted (and fails the test).
  traffic.emplace_back([&] {
    GuardedExecutor guard;
    test::GemmProblem<float> prob(256, 256, 64, 0x600D);
    Matrix<float> c(256, 256);
    while (!stop.load()) {
      try {
        const RunReport r = guard.run(1.0f, prob.a.cview(), prob.b.cview(),
                                      0.0f, c.view(), 4);
        if (r.outcome == Outcome::kFailed) guarded_failures.fetch_add(1);
      } catch (...) {
        unexpected.fetch_add(1);
      }
      ops.fetch_add(1);
    }
  });

  // Raw warm-path traffic: parallel, cached, packing — fail-stop faults
  // may surface as smm::Error (fine); anything else is a bug.
  traffic.emplace_back([&] {
    test::GemmProblem<float> prob(128, 128, 128, 0x5A11);
    core::SmmOptions opts;
    opts.pack_a = opts.pack_b = core::SmmOptions::Packing::kAlways;
    while (!stop.load()) {
      try {
        core::smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                       prob.c.view(), 4, opts);
      } catch (const Error&) {
      } catch (const std::bad_alloc&) {
      } catch (...) {
        unexpected.fetch_add(1);
      }
      ops.fetch_add(1);
    }
  });

  // Batched traffic across the shared process-wide cache.
  traffic.emplace_back([&] {
    constexpr int kItems = 4;
    std::vector<test::GemmProblem<float>> probs;
    probs.reserve(kItems);
    for (int i = 0; i < kItems; ++i) probs.emplace_back(32, 32, 32, 100u + i);
    while (!stop.load()) {
      try {
        std::vector<core::GemmBatchItem<float>> items;
        items.reserve(kItems);
        for (auto& p : probs)
          items.push_back({p.a.cview(), p.b.cview(), p.c.view()});
        core::batched_smm(1.0f, items, 0.0f, core::default_plan_cache(), 2);
      } catch (const Error&) {
      } catch (const std::bad_alloc&) {
      } catch (...) {
        unexpected.fetch_add(1);
      }
      ops.fetch_add(1);
    }
  });

  // Prepack traffic: handle construction under fire plus replay.
  traffic.emplace_back([&] {
    test::GemmProblem<float> prob(24, 16, 12, 0x9AC);
    core::SmmOptions opts;
    opts.pack_b = core::SmmOptions::Packing::kAlways;
    while (!stop.load()) {
      try {
        const auto handle =
            core::smm_prepack_b<float>(prob.b.cview(), /*m=*/24, 1, opts);
        handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
      } catch (const Error&) {
      } catch (const std::bad_alloc&) {
      } catch (...) {
        unexpected.fetch_add(1);
      }
      ops.fetch_add(1);
    }
  });

  // The fault scheduler: two full cycles over every site, a small burst
  // each phase. Hang phases resolve within the 200 ms watchdog deadline.
  constexpr FaultSite kAllSites[] = {
      FaultSite::kPackBitFlip,   FaultSite::kWorkerThrow,
      FaultSite::kAllocFail,     FaultSite::kKernelMiscompute,
      FaultSite::kWorkerHang,    FaultSite::kPoolSpawnFail,
      FaultSite::kArenaExhausted, FaultSite::kCacheInsertFail,
      FaultSite::kPrepackAlloc,  FaultSite::kBarrierTrip,
  };
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const FaultSite site : kAllSites) {
      FaultInjector::instance().arm(site, {.fire_after = 0, .max_fires = 4});
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      FaultInjector::instance().disarm(site);
      robust::cancel_injected_hangs();
      robust::reset_injected_hangs();
    }
  }

  stop.store(true);
  robust::cancel_injected_hangs();  // free stragglers so the joins finish
  for (auto& t : traffic) t.join();
  robust::reset_injected_hangs();

  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(guarded_failures.load(), 0u);
  EXPECT_GT(ops.load(), 0u);

  // Everything heals: with no faults armed a clean call is bit-correct.
  FaultInjector::instance().disarm_all();
  test::GemmProblem<float> fin(96, 64, 48, 0xF1A7);
  fin.reference(1.0f, 1.0f);
  core::smm_gemm(1.0f, fin.a.cview(), fin.b.cview(), 1.0f, fin.c.view(), 4);
  EXPECT_TRUE(fin.check(48));
}

}  // namespace
}  // namespace smm
