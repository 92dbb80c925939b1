// Zero-overhead dispatch: the persistent WorkerPool, the fingerprinted
// single-flight PlanCache behind smm_gemm, the ExecScratch arena, and the
// PrepackedB replay handle. These are the concurrency-heavy pieces of the
// call path, so most tests here hammer them from many threads (the CI
// thread-sanitizer job runs exactly this binary).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/kernels/registry.h"
#include "src/plan/exec_scratch.h"
#include "src/plan/native_executor.h"
#include "src/robust/health.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

// ---- WorkerPool ------------------------------------------------------------

TEST(WorkerPool, RunsEveryBodyExactlyOnce) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> mask{0};
    par::run_parallel(4, [&](int tid) { mask.fetch_or(1 << tid); });
    EXPECT_EQ(mask.load(), 0b1111);
  }
}

TEST(WorkerPool, ServesRepeatedRegionsWithoutRespawning) {
  par::run_parallel(3, [](int) {});  // warm the pool
  const auto before = par::WorkerPool::instance().stats();
  for (int round = 0; round < 20; ++round)
    par::run_parallel(3, [](int) {});
  const auto after = par::WorkerPool::instance().stats();
  EXPECT_GE(after.regions, before.regions + 20);
  EXPECT_EQ(after.workers, before.workers);  // parked threads reused
}

TEST(WorkerPool, MasterRunsBodyZeroInPlace) {
  const auto self = std::this_thread::get_id();
  std::thread::id tid0;
  par::run_parallel(4, [&](int tid) {
    if (tid == 0) tid0 = std::this_thread::get_id();
  });
  EXPECT_EQ(tid0, self);
}

TEST(WorkerPool, NestedRegionsFallBackAndComplete) {
  // A body that forks again must not deadlock on the pool's region lock:
  // the inner region takes the spawn path. The sum checks every inner
  // body of every outer body ran exactly once.
  std::atomic<int> sum{0};
  const auto fallbacks_before =
      robust::health().pool_spawn_fallbacks.load();
  par::run_parallel(3, [&](int outer) {
    par::run_parallel(2, [&](int inner) {
      sum.fetch_add(10 * (outer + 1) + inner);
    });
  });
  // outer 0..2, each contributing (10*(o+1)+0) + (10*(o+1)+1).
  EXPECT_EQ(sum.load(), 21 + 41 + 61);
  EXPECT_GE(robust::health().pool_spawn_fallbacks.load(),
            fallbacks_before + 3);
}

TEST(WorkerPool, ConcurrentExternalCallersAllComplete) {
  // Independent threads race for the pool; losers take the spawn path.
  // Every region must still run all its bodies.
  constexpr int kCallers = 6;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 25; ++round)
        par::run_parallel(4, [&](int) { total.fetch_add(1); });
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(total.load(), kCallers * 25 * 4);
}

TEST(WorkerPool, SingleFailureRethrownWithOriginalType) {
  EXPECT_THROW(
      par::run_parallel(4,
                        [](int tid) {
                          if (tid == 2)
                            throw std::invalid_argument("tid 2 dies");
                        }),
      std::invalid_argument);
}

TEST(WorkerPool, MultipleFailuresAggregateToWorkerPanic) {
  try {
    par::run_parallel(4, [](int tid) {
      if (tid >= 2) throw std::runtime_error("boom");
    });
    FAIL() << "expected an aggregate error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWorkerPanic);
    EXPECT_NE(std::string(e.what()).find("thread 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("thread 3"), std::string::npos);
  }
}

TEST(WorkerPool, FailureHookFiresBeforeJoin) {
  // The poisoning hook must run while peers may still be blocked — i.e.
  // at capture time, not after the join. A peer waits until the hook has
  // observably fired, so completion of this test proves the ordering.
  std::atomic<bool> poisoned{false};
  EXPECT_THROW(
      par::run_parallel(
          2,
          [&](int tid) {
            if (tid == 1) throw std::runtime_error("die");
            while (!poisoned.load()) std::this_thread::yield();
          },
          [&] { poisoned.store(true); }),
      std::runtime_error);  // the failure is rethrown after the join
  EXPECT_TRUE(poisoned.load());
}

TEST(WorkerPool, SingleThreadBypassTouchesNoPoolState) {
  const auto before = par::WorkerPool::instance().stats();
  for (int i = 0; i < 100; ++i) par::run_parallel(1, [](int) {});
  const auto after = par::WorkerPool::instance().stats();
  EXPECT_EQ(after.regions, before.regions);
}

// ---- PlanCache -------------------------------------------------------------

TEST(PlanCacheDispatch, FingerprintSeparatesOptionSets) {
  core::PlanCache cache(core::reference_smm(), 8);
  core::SmmOptions never;
  never.pack_b = core::SmmOptions::Packing::kNever;
  core::SmmOptions always;
  always.pack_b = core::SmmOptions::Packing::kAlways;
  ASSERT_NE(core::options_fingerprint(never),
            core::options_fingerprint(always));
  const auto p1 = cache.get({64, 64, 64}, plan::ScalarType::kF32, 1,
                            core::options_fingerprint(never));
  const auto p2 = cache.get({64, 64, 64}, plan::ScalarType::kF32, 1,
                            core::options_fingerprint(always));
  // Same shape, different fingerprints: two distinct entries, no alias.
  EXPECT_NE(p1.get(), p2.get());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheDispatch, GetOrBuildSingleFlightsConcurrentMisses) {
  core::PlanCache cache(core::reference_smm(), 8);
  constexpr int kThreads = 8;
  std::atomic<int> builders{0};
  std::vector<std::shared_ptr<const plan::GemmPlan>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = cache.get_or_build(
          {24, 24, 24}, plan::ScalarType::kF32, 1, /*fingerprint=*/7,
          [&] {
            builders.fetch_add(1);
            // Hold the build open so racers must wait on the in-flight
            // future rather than slipping in after completion.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            return core::reference_smm().make_plan(
                {24, 24, 24}, plan::ScalarType::kF32, 1);
          });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builders.load(), 1);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits() + cache.misses(), static_cast<std::size_t>(kThreads));
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(t)].get());
}

TEST(PlanCacheDispatch, PersistentBuildFailureFailsEveryCallerCleanly) {
  // A build failure belongs to its own caller: waiters that shared the
  // failed flight retry the lookup (becoming builders themselves). With
  // a builder that ALWAYS throws, every caller therefore eventually
  // builds-and-throws its own failure — and none blocks forever. (The
  // single-failure case where waiters recover is
  // ChaosTest.SingleFlightBuildFailureDoesNotPoisonCacheOrWaiters.)
  core::PlanCache cache(core::reference_smm(), 8);
  constexpr int kThreads = 4;
  std::atomic<int> throwers{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        cache.get_or_build({30, 30, 30}, plan::ScalarType::kF32, 1, 0,
                           [&]() -> plan::GemmPlan {
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(10));
                             throw std::runtime_error("builder dies");
                           });
      } catch (const std::runtime_error&) {
        throwers.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(throwers.load(), kThreads);
  // The failed build must not leave a poisoned entry behind.
  const auto p = cache.get({30, 30, 30}, plan::ScalarType::kF32, 1);
  EXPECT_NE(p, nullptr);
}

TEST(PlanCacheDispatch, HammerGetClearEvictUnderCapacityTwo) {
  // Tiny capacity + concurrent get/clear across four shapes: every
  // lookup must return a usable plan and the cache must end bounded and
  // consistent. This is the race the TSan job is aimed at.
  core::PlanCache cache(core::reference_smm(), 2);
  constexpr int kThreads = 6;
  constexpr int kIters = 120;
  const GemmShape shapes[] = {{8, 8, 8}, {9, 9, 9}, {10, 10, 10},
                              {11, 11, 11}};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if (t == 0 && i % 16 == 15) {
          cache.clear();
          continue;
        }
        const auto& shape = shapes[(t + i) % 4];
        const auto p =
            cache.get(shape, plan::ScalarType::kF32, 1,
                      /*fingerprint=*/static_cast<std::uint64_t>(i % 2));
        ASSERT_NE(p, nullptr);
        ASSERT_EQ(p->shape.m, shape.m);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), 2u);
}

// ---- smm_gemm fast path ----------------------------------------------------

// 32^3 is past kTinyMaxDim, so these calls take the planned path.
TEST(SmmDispatch, WarmCallsBuildNoPlans) {
  test::GemmProblem<float> prob(32, 32, 32, /*seed=*/11);
  prob.reference(1.5f, 0.5f);
  core::smm_gemm(1.5f, prob.a.cview(), prob.b.cview(), 0.5f,
                 prob.c.view());  // cold: may build
  const auto builds = core::smm_plan_cache().builds();
  const auto hits = core::smm_plan_cache().hits();
  for (int i = 0; i < 10; ++i) {
    test::GemmProblem<float> p2(32, 32, 32, /*seed=*/11);
    p2.reference(1.5f, 0.5f);
    core::smm_gemm(1.5f, p2.a.cview(), p2.b.cview(), 0.5f, p2.c.view());
    EXPECT_TRUE(p2.check());
  }
  EXPECT_EQ(core::smm_plan_cache().builds(), builds);  // zero warm builds
  EXPECT_EQ(core::smm_plan_cache().hits(), hits + 10);
}

TEST(SmmDispatch, HealthCountersMirrorCacheTraffic) {
  robust::health().reset();
  test::GemmProblem<double> prob(32, 32, 32, /*seed=*/5);
  prob.reference(1.0, 0.0);
  core::smm_gemm(1.0, prob.a.cview(), prob.b.cview(), 0.0, prob.c.view());
  core::smm_gemm(1.0, prob.a.cview(), prob.b.cview(), 0.0, prob.c.view());
  const auto snap = robust::health().snapshot();
  EXPECT_GE(snap.plan_cache_hits, 1u);  // second call at minimum
  EXPECT_GE(snap.plan_cache_hits + snap.plan_cache_misses, 2u);
}

TEST(SmmDispatch, TinyCallsTouchNoPlanCache) {
  if (kern::host_vector_bits() != 512)
    GTEST_SKIP() << "no host kernel family: tiny shapes keep their plans";
  // A tiny product (DESIGN.md §8) looks up, builds and dispatches nothing,
  // at any thread budget, cold or warm.
  for (const int nthreads : {1, 2, 4}) {
    auto& cache = core::smm_plan_cache();
    const auto builds = cache.builds();
    const auto hits = cache.hits();
    const auto misses = cache.misses();
    const auto pool = par::WorkerPool::instance().stats();
    for (int i = 0; i < 3; ++i) {
      test::GemmProblem<float> prob(12, 20, 7, /*seed=*/40u + nthreads);
      prob.reference(1.0f, 0.5f);
      core::smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 0.5f,
                     prob.c.view(), nthreads);
      EXPECT_TRUE(prob.check()) << nthreads << " threads";
    }
    EXPECT_EQ(cache.builds(), builds) << nthreads << " threads";
    EXPECT_EQ(cache.hits(), hits) << nthreads << " threads";
    EXPECT_EQ(cache.misses(), misses) << nthreads << " threads";
    const auto after = par::WorkerPool::instance().stats();
    EXPECT_EQ(after.regions, pool.regions) << nthreads << " threads";
    EXPECT_EQ(after.dispatches, pool.dispatches) << nthreads << " threads";
  }
}

TEST(SmmDispatch, OptionSetsDoNotAliasCachedPlans) {
  // Same shape through the same process-wide cache under opposite
  // packing options: the fingerprint must keep the plans apart (without
  // it the second call would replay the first call's plan).
  const GemmShape shape{20, 20, 20};
  core::SmmOptions never;
  never.pack_b = core::SmmOptions::Packing::kNever;
  never.edge_pack = false;
  core::SmmOptions always;
  always.pack_b = core::SmmOptions::Packing::kAlways;
  test::GemmProblem<float> p1(shape.m, shape.n, shape.k, /*seed=*/7);
  p1.reference(1.0f, 0.0f);
  core::smm_gemm(1.0f, p1.a.cview(), p1.b.cview(), 0.0f, p1.c.view(), 1,
                 never);
  EXPECT_TRUE(p1.check());
  test::GemmProblem<float> p2(shape.m, shape.n, shape.k, /*seed=*/7);
  p2.reference(1.0f, 0.0f);
  core::smm_gemm(1.0f, p2.a.cview(), p2.b.cview(), 0.0f, p2.c.view(), 1,
                 always);
  EXPECT_TRUE(p2.check());
}

TEST(SmmDispatch, ParallelWarmCallsStayCorrect) {
  for (int round = 0; round < 5; ++round) {
    test::GemmProblem<float> prob(64, 48, 32, /*seed=*/21);
    prob.reference(2.0f, 1.0f);
    core::smm_gemm(2.0f, prob.a.cview(), prob.b.cview(), 1.0f,
                   prob.c.view(), /*nthreads=*/4);
    EXPECT_TRUE(prob.check());
  }
}

// ---- ExecScratch arena -----------------------------------------------------

TEST(ExecScratchArena, HighWaterStabilizesAfterWarmup) {
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;  // forces scratch use
  test::GemmProblem<float> warm(32, 32, 32, /*seed=*/3);
  warm.reference(1.0f, 0.0f);
  core::smm_gemm(1.0f, warm.a.cview(), warm.b.cview(), 0.0f,
                 warm.c.view(), 1, opts);
  auto& arena = plan::ExecScratch::local();
  const auto grows = arena.grow_count();
  const auto high_water = arena.high_water_bytes();
  const auto leases = arena.lease_count();
  for (int i = 0; i < 10; ++i) {
    test::GemmProblem<float> prob(32, 32, 32, /*seed=*/3);
    prob.reference(1.0f, 0.0f);
    core::smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                   prob.c.view(), 1, opts);
    EXPECT_TRUE(prob.check());
  }
  // Warm same-shape calls: zero slab growth (= zero heap allocations on
  // the scratch path), while every call leased the arena.
  EXPECT_EQ(arena.grow_count(), grows);
  EXPECT_EQ(arena.high_water_bytes(), high_water);
  EXPECT_GE(arena.lease_count(), leases + 10);
}

TEST(ExecScratchArena, LeaseCarvesZeroedAlignedSlices) {
  plan::ExecScratch arena;
  const std::vector<index_t> sizes{5, 0, 33};
  plan::ExecScratch::Lease<double> lease(arena, sizes);
  ASSERT_NE(lease.ptr(0), nullptr);
  EXPECT_EQ(lease.ptr(1), nullptr);
  ASSERT_NE(lease.ptr(2), nullptr);
  EXPECT_TRUE(lease.used_arena());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lease.ptr(0)) %
                kBufferAlignment,
            0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lease.ptr(2)) %
                kBufferAlignment,
            0u);
  for (index_t i = 0; i < 5; ++i) EXPECT_EQ(lease.ptr(0)[i], 0.0);
  for (index_t i = 0; i < 33; ++i) EXPECT_EQ(lease.ptr(2)[i], 0.0);
}

TEST(ExecScratchArena, NestedLeaseFallsBackToPrivateBuffers) {
  plan::ExecScratch arena;
  plan::ExecScratch::Lease<float> outer(arena, {16});
  EXPECT_TRUE(outer.used_arena());
  plan::ExecScratch::Lease<float> inner(arena, {16});
  EXPECT_FALSE(inner.used_arena());  // arena busy: private allocation
  ASSERT_NE(inner.ptr(0), nullptr);
  EXPECT_NE(inner.ptr(0), outer.ptr(0));
}

TEST(ExecScratchArena, ZeroesAreFreshPerLease) {
  plan::ExecScratch arena;
  {
    plan::ExecScratch::Lease<float> lease(arena, {8});
    for (index_t i = 0; i < 8; ++i) lease.ptr(0)[i] = 7.0f;
  }
  plan::ExecScratch::Lease<float> again(arena, {8});
  for (index_t i = 0; i < 8; ++i) EXPECT_EQ(again.ptr(0)[i], 0.0f);
}

// ---- PrepackedB ------------------------------------------------------------

TEST(PrepackedBTest, MaterializedReplayMatchesReference) {
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;
  // Single-block shape: B packs into one buffer region, so the handle
  // materializes it.
  auto handle_problem = test::GemmProblem<float>(24, 16, 12, /*seed=*/9);
  const auto handle = core::smm_prepack_b<float>(
      handle_problem.b.cview(), /*m=*/24, 1, opts);
  EXPECT_TRUE(handle.materialized());
  for (int round = 0; round < 3; ++round) {
    test::GemmProblem<float> prob(24, 16, 12,
                                  /*seed=*/static_cast<unsigned>(round));
    prob.b = handle_problem.b.clone();  // same B the handle packed
    prob.reference(1.0f, 2.0f);
    handle.run(1.0f, prob.a.cview(), 2.0f, prob.c.view());
    EXPECT_TRUE(prob.check());
  }
}

TEST(PrepackedBTest, EdgeShapesStayCorrect) {
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;
  // Awkward extents: partial tiles in every dimension.
  test::GemmProblem<double> prob(7, 9, 5, /*seed=*/13);
  prob.reference(1.0, 0.5);
  const auto handle =
      core::smm_prepack_b<double>(prob.b.cview(), /*m=*/7, 1, opts);
  handle.run(1.0, prob.a.cview(), 0.5, prob.c.view());
  EXPECT_TRUE(prob.check());
}

TEST(PrepackedBTest, UnpackedPlanFallsBackGracefully) {
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kNever;
  opts.edge_pack = false;
  // Direct-B plan: nothing to materialize; run() must equal execute.
  test::GemmProblem<float> prob(16, 16, 16, /*seed=*/17);
  prob.reference(1.0f, 0.0f);
  const auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), /*m=*/16, 1, opts);
  EXPECT_FALSE(handle.materialized());
  handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
  EXPECT_TRUE(prob.check());
}

TEST(PrepackedBTest, MultiBlockPlansReplayCorrectly) {
  // N spans two nc blocks: the plan builder reuses one pack buffer
  // across (jj, kk) blocks, so materialization must be refused (overlap)
  // and the handle must fall back to per-call packing — never a wrong
  // result.
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;
  test::GemmProblem<float> prob(8, 500, 8, /*seed=*/23);
  prob.reference(1.0f, 0.0f);
  const auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), /*m=*/8, 1, opts);
  handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
  EXPECT_TRUE(prob.check());
}

TEST(PrepackedBTest, RejectsMismatchedB) {
  const auto plan = core::smm_plan_cache().get({8, 8, 8},
                                               plan::ScalarType::kF32, 1);
  test::GemmProblem<float> wrong(8, 9, 8, /*seed=*/2);
  EXPECT_THROW(plan::PrepackedB<float>(plan, wrong.b.cview()), Error);
}

TEST(PrepackedBTest, ParallelPlanReplayMatchesReference) {
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;
  test::GemmProblem<double> prob(64, 48, 32, /*seed=*/31);
  prob.reference(1.0, 1.0);
  const auto handle =
      core::smm_prepack_b<double>(prob.b.cview(), /*m=*/64, 4, opts);
  handle.run(1.0, prob.a.cview(), 1.0, prob.c.view());
  EXPECT_TRUE(prob.check());
}

}  // namespace
}  // namespace smm
