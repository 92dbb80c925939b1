// The parallel runtime decision stack: the cost model's predictions
// (model/parallel_runtime), golden choose_parallel decisions for the
// paper's shape classes under the deterministic reference model, barrier
// elision in the plan builders, the ThreadScaling option wiring, the
// per-thread stats/timed-execution instrumentation, and the
// SMMKIT_MAX_THREADS policy.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/core/parallel_cost.h"
#include "src/core/parallel_select.h"
#include "src/core/plan_builder.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan_stats.h"
#include "src/robust/health.h"
#include "src/threading/thread_pool.h"

namespace smm {
namespace {

constexpr index_t kMr = 16, kNr = 4, kMc = 240, kKc = 512, kNc = 480;

core::ParallelChoice ref_choice(GemmShape shape, int max_threads) {
  static const model::ParallelCostModel ref = model::reference_cost_model();
  return core::choose_parallel(shape, max_threads, kMr, kNr, kMc, kNc, 4,
                               &ref, kKc);
}

// ---- cost model ------------------------------------------------------------

TEST(ParallelCostModel, ReferenceModelIsDeterministic) {
  const auto a = model::reference_cost_model();
  const auto b = model::reference_cost_model();
  EXPECT_EQ(a.flop_ns, b.flop_ns);
  EXPECT_EQ(a.barrier_ns, b.barrier_ns);
  EXPECT_EQ(a.dispatch_ns, b.dispatch_ns);
  EXPECT_EQ(a.hw_threads, 64);
  EXPECT_FALSE(a.measured);
}

TEST(ParallelCostModel, BarrierCrossingCosts) {
  const auto m = model::reference_cost_model();
  EXPECT_EQ(model::barrier_crossing_ns(m, 1), 0.0);
  const double two = model::barrier_crossing_ns(m, 2);
  const double sixteen = model::barrier_crossing_ns(m, 16);
  EXPECT_GT(two, 0.0);
  EXPECT_GT(sixteen, two);
  // Wider than the machine: crossings pay context switches, not spins.
  const double oversub = model::barrier_crossing_ns(m, 256);
  EXPECT_GT(oversub, model::barrier_crossing_ns(m, 64) * 2);
}

TEST(ParallelCostModel, SerialPredictionIsPureFlops) {
  const auto m = model::reference_cost_model();
  const GemmShape shape{32, 32, 32};
  const double ns = model::predict_parallel_ns(m, shape, 1, 1, par::Ways{},
                                               kMr, kNr, kMc, kKc, kNc);
  EXPECT_DOUBLE_EQ(ns, shape.flops() * m.flop_ns);
}

TEST(ParallelCostModel, ParallelPredictionChargesFixedCosts) {
  const auto m = model::reference_cost_model();
  const GemmShape shape{32, 32, 32};
  par::Ways ways;
  ways.jr = 4;
  const double serial = model::predict_parallel_ns(
      m, shape, 1, 1, par::Ways{}, kMr, kNr, kMc, kKc, kNc);
  const double wide = model::predict_parallel_ns(m, shape, 4, 1, ways, kMr,
                                                 kNr, kMc, kKc, kNc);
  // A 2 us dispatch + barrier rounds dwarf a ~2 us multiply: the model
  // must see through the "more threads = faster" assumption.
  EXPECT_GT(wide, serial);
}

TEST(ParallelCostModel, CalibratedModelIsSaneAndCached) {
  const auto& a = core::calibrated_cost_model();
  const auto& b = core::calibrated_cost_model();
  EXPECT_EQ(&a, &b);  // one calibration per process
  EXPECT_TRUE(a.measured);
  EXPECT_EQ(a.hw_threads, par::native_threads_available());
  EXPECT_GT(a.flop_ns, 0.0);
  EXPECT_GT(a.pack_ns_per_elem, 0.0);
  EXPECT_GT(a.barrier_ns, 0.0);
  EXPECT_GT(a.dispatch_ns, 0.0);
}

TEST(ParallelCostModel, MeasurementIsBoundedAndNeverPricesABarrierFree) {
  // One measurement opens a bounded number of pool regions (16 dispatch
  // samples and 5 barrier samples, each after a warm one). Counts, not
  // times, so the bound holds on any host.
  const auto regions = [] { return robust::health().snapshot().pool_regions; };
  const auto before = regions();
  (void)core::measure_cost_model();
  EXPECT_LE(regions() - before, 24u);

  // Under load the barrier is still timed as a barrier: it never reads
  // free, and dispatch keeps its floor.
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int i = 0; i < 2; ++i)
    load.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
      }
    });
  std::vector<model::ParallelCostModel> loaded;
  for (int i = 0; i < 10; ++i) loaded.push_back(core::measure_cost_model());
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : load) t.join();
  for (const model::ParallelCostModel& m : loaded) {
    EXPECT_GT(m.barrier_ns, 1.0);
    EXPECT_GE(m.dispatch_ns, 50.0);
  }
}

// ---- golden decisions (reference model, paper shape classes) ---------------

TEST(ChooseParallelGolden, AllSmallStaysSerial) {
  for (const GemmShape shape :
       {GemmShape{8, 8, 8}, GemmShape{16, 16, 16}, GemmShape{32, 32, 32}}) {
    for (const int mt : {1, 4, 16, 64}) {
      const auto c = ref_choice(shape, mt);
      EXPECT_EQ(c.nthreads, 1) << shape.m << " mt=" << mt;
      EXPECT_EQ(c.k_parts, 1);
    }
  }
}

TEST(ChooseParallelGolden, MediumSquareUsesFewThreads) {
  const GemmShape shape{64, 64, 64};
  EXPECT_EQ(ref_choice(shape, 1).nthreads, 1);
  for (const int mt : {4, 16, 64}) {
    const auto c = ref_choice(shape, mt);
    // Worth 4 threads on the model machine, but never more: the static
    // tile cap and the barrier term both push back.
    EXPECT_EQ(c.nthreads, 4) << "mt=" << mt;
    EXPECT_EQ(c.k_parts, 1);
  }
}

TEST(ChooseParallelGolden, SmallMClass) {
  const GemmShape shape{16, 2048, 2048};  // the paper's SMM regime
  EXPECT_EQ(ref_choice(shape, 1).nthreads, 1);
  // Modest budget: K is deep enough that splitting it beats a ways
  // decomposition of the single 16-row panel.
  const auto c4 = ref_choice(shape, 4);
  EXPECT_EQ(c4.k_parts, 4);
  // Bigger budgets: pure column ways — disjoint C, barrier-free plans.
  const auto c16 = ref_choice(shape, 16);
  EXPECT_EQ(c16.nthreads, 16);
  EXPECT_EQ(c16.k_parts, 1);
  EXPECT_EQ(c16.ways.jc, 16);
  EXPECT_EQ(c16.ways.ic * c16.ways.jr * c16.ways.ir, 1);
  const auto c64 = ref_choice(shape, 64);
  EXPECT_EQ(c64.nthreads, 64);
  EXPECT_EQ(c64.ways.jc, 32);
}

TEST(ChooseParallelGolden, SmallNClass) {
  const GemmShape shape{2048, 16, 2048};
  const auto c16 = ref_choice(shape, 16);
  EXPECT_EQ(c16.nthreads, 16);
  EXPECT_EQ(c16.ways.jc, 1);  // 16 columns cannot be split further
  // The model refuses the full budget: 64 threads over a 4-tile-wide N
  // would be all synchronization.
  const auto c64 = ref_choice(shape, 64);
  EXPECT_EQ(c64.nthreads, 16);
}

TEST(ChooseParallelGolden, SmallKClass) {
  const GemmShape shape{2048, 2048, 16};
  const auto c16 = ref_choice(shape, 16);
  EXPECT_EQ(c16.nthreads, 16);
  EXPECT_EQ(c16.k_parts, 1);  // nothing to split in K
  EXPECT_EQ(c16.ways.jc, 16);
  const auto c64 = ref_choice(shape, 64);
  EXPECT_EQ(c64.nthreads, 64);
}

TEST(ChooseParallelGolden, DeepKClassSplitsK) {
  const GemmShape shape{8, 8, 4096};
  EXPECT_EQ(ref_choice(shape, 1).nthreads, 1);
  for (const int mt : {4, 16, 64}) {
    const auto c = ref_choice(shape, mt);
    // The tile grid holds 2 tiles — ways parallelism is impossible — and
    // the reduction + barrier cost caps the worthwhile split at 4 parts
    // regardless of budget.
    EXPECT_EQ(c.k_parts, 4) << "mt=" << mt;
    EXPECT_EQ(c.nthreads, 4);
  }
}

TEST(ChooseParallelGolden, StaticPathUnchangedByCostModelCode) {
  // cost == nullptr must reproduce the pre-cost-model heuristic exactly
  // (simulation goldens depend on it).
  const auto a = core::choose_parallel({16, 16, 64}, 64, 16, 4, 240, 480);
  EXPECT_EQ(a.nthreads, 1);
  const auto b =
      core::choose_parallel({1024, 1024, 256}, 64, 16, 4, 240, 480);
  EXPECT_EQ(b.nthreads, 64);
  const auto c = core::choose_parallel({8, 8, 4096}, 64, 16, 4, 240, 480);
  EXPECT_GT(c.k_parts, 1);
}

// ---- property test ---------------------------------------------------------

TEST(ChooseParallelProperty, ChoicesBuildValidPlansWithinTheTileCap) {
  Rng rng(7);
  static const model::ParallelCostModel ref = model::reference_cost_model();
  for (int trial = 0; trial < 60; ++trial) {
    const GemmShape shape{1 + static_cast<index_t>(rng.next_u64() % 300),
                          1 + static_cast<index_t>(rng.next_u64() % 300),
                          1 + static_cast<index_t>(rng.next_u64() % 600)};
    const int mt = 1 << (rng.next_u64() % 7);  // 1..64
    for (const model::ParallelCostModel* cost :
         {static_cast<const model::ParallelCostModel*>(nullptr), &ref}) {
      const auto c = core::choose_parallel(shape, mt, kMr, kNr, kMc, kNc, 4,
                                           cost, kKc);
      ASSERT_GE(c.nthreads, 1);
      ASSERT_LE(c.nthreads, mt);
      if (c.k_parts > 1) {
        ASSERT_EQ(c.nthreads, c.k_parts);
      } else {
        // The static tile cap is a hard ceiling on both paths: at least
        // min_tiles_per_thread micro-tiles per thread.
        const index_t tiles =
            ((shape.m + kMr - 1) / kMr) * ((shape.n + kNr - 1) / kNr);
        ASSERT_LE(c.nthreads, std::max<index_t>(1, tiles / 4))
            << shape.m << "x" << shape.n << "x" << shape.k;
        ASSERT_EQ(c.ways.total(), c.nthreads);
      }
      core::BuildSpec spec;
      spec.mr = kMr;
      spec.nr = kNr;
      spec.mc = kMc;
      spec.kc = kKc;
      spec.nc = kNc;
      spec.nthreads = c.nthreads;
      spec.ways = c.ways;
      spec.k_parts = c.k_parts;
      if (c.nthreads > 1) {
        spec.pack_a = true;
        spec.pack_b = true;
      }
      plan::GemmPlan plan;
      plan.strategy = "test";
      plan.shape = shape;
      plan.scalar = plan::ScalarType::kF32;
      core::build_smm_plan(plan, spec);
      ASSERT_NO_THROW(plan.validate());
    }
  }
}

// ---- barrier elision -------------------------------------------------------

plan::GemmPlan build_ways_plan(GemmShape shape, par::Ways ways) {
  core::BuildSpec spec;
  spec.mr = kMr;
  spec.nr = kNr;
  spec.mc = kMc;
  spec.kc = kKc;
  spec.nc = kNc;
  spec.nthreads = ways.total();
  spec.ways = ways;
  spec.pack_a = true;
  spec.pack_b = true;
  plan::GemmPlan plan;
  plan.strategy = "test";
  plan.shape = shape;
  plan.scalar = plan::ScalarType::kF32;
  core::build_smm_plan(plan, spec);
  plan.validate();
  return plan;
}

index_t count_barrier_ops(const plan::GemmPlan& plan) {
  index_t n = 0;
  for (const auto& stats : plan::analyze_threads(plan))
    n += stats.barrier_ops;
  return n;
}

TEST(BarrierElision, PureColumnWaysIsBarrierFree) {
  par::Ways ways;
  ways.jc = 4;
  const auto plan = build_ways_plan({64, 256, 64}, ways);
  EXPECT_EQ(plan.nthreads, 4);
  EXPECT_TRUE(plan.barriers.empty());
  EXPECT_EQ(count_barrier_ops(plan), 0);
}

TEST(BarrierElision, OnlySharingGroupsDeclareBarriers) {
  par::Ways ways;
  ways.jc = 2;
  ways.ic = 2;
  const auto plan = build_ways_plan({256, 256, 64}, ways);
  // B~ is shared by the ic pair of each jc group (2 barriers of 2); the
  // A~ groups are singletons and must declare nothing.
  ASSERT_EQ(plan.barriers.size(), 2u);
  for (const auto& decl : plan.barriers)
    EXPECT_EQ(decl.participants, 2);
}

TEST(BarrierElision, BarrierFreePlanComputesCorrectly) {
  const GemmShape shape{48, 260, 32};  // edge columns included
  par::Ways ways;
  ways.jc = 4;
  const auto plan = build_ways_plan(shape, ways);
  ASSERT_TRUE(plan.barriers.empty());
  Rng rng(11);
  Matrix<float> a(shape.m, shape.k), b(shape.k, shape.n),
      c(shape.m, shape.n), c_ref(shape.m, shape.n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  for (index_t j = 0; j < shape.n; ++j)
    for (index_t i = 0; i < shape.m; ++i) c_ref(i, j) = c(i, j);
  libs::naive_gemm(1.5f, a.cview(), b.cview(), 0.5f, c_ref.view());
  plan::execute_plan(plan, 1.5f, a.cview(), b.cview(), 0.5f, c.view());
  EXPECT_TRUE(gemm_allclose(c.cview(), c_ref.cview(), shape.k));
}

TEST(BarrierElision, SharedGroupPlanComputesCorrectly) {
  const GemmShape shape{240, 480, 128};
  par::Ways ways;  // 8 threads, both barrier kinds exercised
  ways.jc = 2;
  ways.ic = 2;
  ways.jr = 2;
  const auto plan = build_ways_plan(shape, ways);
  EXPECT_FALSE(plan.barriers.empty());
  Rng rng(13);
  Matrix<float> a(shape.m, shape.k), b(shape.k, shape.n),
      c(shape.m, shape.n), c_ref(shape.m, shape.n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill(0.0f);
  c_ref.fill(0.0f);
  libs::naive_gemm(1.0f, a.cview(), b.cview(), 0.0f, c_ref.view());
  // Several rounds through the same plan: reusable barriers must reverse
  // sense cleanly call after call.
  for (int round = 0; round < 3; ++round)
    plan::execute_plan(plan, 1.0f, a.cview(), b.cview(), 0.0f, c.view());
  EXPECT_TRUE(gemm_allclose(c.cview(), c_ref.cview(), shape.k));
}

// ---- ThreadScaling wiring --------------------------------------------------

TEST(ThreadScaling, FingerprintSeparatesTheModes) {
  core::SmmOptions a, b, c;
  a.thread_scaling = core::SmmOptions::ThreadScaling::kAuto;
  b.thread_scaling = core::SmmOptions::ThreadScaling::kStatic;
  c.thread_scaling = core::SmmOptions::ThreadScaling::kMeasured;
  EXPECT_NE(core::options_fingerprint(a), core::options_fingerprint(b));
  EXPECT_NE(core::options_fingerprint(a), core::options_fingerprint(c));
  EXPECT_NE(core::options_fingerprint(b), core::options_fingerprint(c));
}

TEST(ThreadScaling, MakePlanAutoMatchesStatic) {
  // Directly built plans must not depend on the build host: kAuto
  // resolves to the static heuristic in make_plan.
  core::SmmOptions auto_opts;  // default kAuto
  core::SmmOptions static_opts;
  static_opts.thread_scaling = core::SmmOptions::ThreadScaling::kStatic;
  for (const GemmShape shape :
       {GemmShape{16, 16, 16}, GemmShape{256, 256, 64},
        GemmShape{1024, 1024, 256}}) {
    const auto pa = core::make_reference_smm(auto_opts)
                        ->make_plan(shape, plan::ScalarType::kF32, 64);
    const auto ps = core::make_reference_smm(static_opts)
                        ->make_plan(shape, plan::ScalarType::kF32, 64);
    EXPECT_EQ(pa.nthreads, ps.nthreads) << shape.m;
  }
}

TEST(ThreadScaling, MeasuredGemmStaysCorrectUnderThreadBudgets) {
  // The full production path (kAuto -> measured, calibration included).
  Rng rng(5);
  for (const GemmShape shape :
       {GemmShape{16, 16, 16}, GemmShape{64, 64, 64},
        GemmShape{96, 200, 48}}) {
    Matrix<float> a(shape.m, shape.k), b(shape.k, shape.n),
        c(shape.m, shape.n), c_ref(shape.m, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    c.fill(0.0f);
    c_ref.fill(0.0f);
    libs::naive_gemm(1.0f, a.cview(), b.cview(), 0.0f, c_ref.view());
    for (const int threads : {1, 4}) {
      c.fill(0.0f);
      core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view(), threads);
      EXPECT_TRUE(gemm_allclose(c.cview(), c_ref.cview(), shape.k))
          << shape.m << " threads=" << threads;
    }
  }
}

// ---- per-thread stats + timed execution ------------------------------------

TEST(ThreadStats, PerThreadCountsSumToWholePlan) {
  par::Ways ways;
  ways.jc = 2;
  ways.ic = 2;
  const auto plan = build_ways_plan({256, 256, 64}, ways);
  const auto whole = plan::analyze(plan);
  const auto per_thread = plan::analyze_threads(plan);
  ASSERT_EQ(per_thread.size(), 4u);
  index_t kernels = 0, barriers = 0, packs = 0;
  double flops = 0;
  for (const auto& t : per_thread) {
    kernels += t.kernel_ops;
    barriers += t.barrier_ops;
    packs += t.pack_a_ops + t.pack_b_ops;
    flops += t.computed_flops;
  }
  EXPECT_EQ(kernels, whole.kernel_ops);
  EXPECT_EQ(barriers, whole.barrier_ops);
  EXPECT_EQ(packs, whole.pack_a_ops + whole.pack_b_ops);
  EXPECT_DOUBLE_EQ(flops, whole.computed_flops);
  EXPECT_GT(barriers, 0);
}

TEST(TimedExecutor, BreakdownCoversTheRunAndStaysCorrect) {
  const GemmShape shape{128, 256, 64};
  par::Ways ways;
  ways.jc = 2;
  ways.ic = 2;
  const auto plan = build_ways_plan(shape, ways);
  Rng rng(3);
  Matrix<float> a(shape.m, shape.k), b(shape.k, shape.n),
      c(shape.m, shape.n), c_ref(shape.m, shape.n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill(0.0f);
  c_ref.fill(0.0f);
  libs::naive_gemm(1.0f, a.cview(), b.cview(), 0.0f, c_ref.view());
  std::vector<plan::ThreadTiming> timings;
  plan::execute_plan_timed(plan, 1.0f, a.cview(), b.cview(), 0.0f, c.view(),
                           timings);
  EXPECT_TRUE(gemm_allclose(c.cview(), c_ref.cview(), shape.k));
  ASSERT_EQ(timings.size(), 4u);
  for (const auto& t : timings) {
    EXPECT_GT(t.total_ns, 0.0);
    EXPECT_GT(t.kernel_ns, 0.0);
    EXPECT_GE(t.pack_ns, 0.0);
    EXPECT_GE(t.barrier_ns, 0.0);
    // The categories partition the op sequence; the sum can only trail
    // total (loop/visit overhead), never exceed it meaningfully.
    EXPECT_LE(t.pack_ns + t.kernel_ns + t.barrier_ns + t.other_ns,
              t.total_ns * 1.05 + 1000.0);
  }
}

// ---- thread availability policy --------------------------------------------

TEST(ThreadsAvailable, EnvCapPolicy) {
  using par::detail::compute_threads_available;
  EXPECT_EQ(compute_threads_available(8, nullptr), 8);
  EXPECT_EQ(compute_threads_available(8, ""), 8);
  EXPECT_EQ(compute_threads_available(8, "4"), 4);
  EXPECT_EQ(compute_threads_available(8, "999"), 8);  // cap, not raise
  EXPECT_EQ(compute_threads_available(8, "abc"), 8);  // garbage ignored
  EXPECT_EQ(compute_threads_available(8, "4x"), 8);   // trailing junk
  EXPECT_EQ(compute_threads_available(8, "-2"), 8);   // non-positive
  EXPECT_EQ(compute_threads_available(8, "0"), 8);
  EXPECT_EQ(compute_threads_available(0, nullptr), 1);   // unknown hw
  EXPECT_EQ(compute_threads_available(1024, nullptr), 256);  // clamp
  EXPECT_EQ(compute_threads_available(1, "64"), 1);
}

TEST(ThreadsAvailable, CachedValueIsStable) {
  const int a = par::native_threads_available();
  const int b = par::native_threads_available();
  EXPECT_EQ(a, b);
  EXPECT_GE(a, 1);
  EXPECT_LE(a, 256);
}

}  // namespace
}  // namespace smm
