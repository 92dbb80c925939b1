// Cross-module integration and property-based sweeps: random shapes
// through every strategy (native) and through the pricer (simulated),
// panel-major round trips through the BLASFEO path, and consistency of
// plan statistics with pricer accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/smm.h"
#include "src/libs/blasfeo_like/gemm_blasfeo_like.h"
#include "src/libs/blis_like/gemm_blis_like.h"
#include "src/libs/eigen_like/gemm_eigen_like.h"
#include "src/libs/openblas_like/gemm_openblas_like.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan_stats.h"
#include "src/sim/exec/pricer.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

const libs::GemmStrategy* kAll[] = {
    &libs::openblas_like(), &libs::blis_like(), &libs::blasfeo_like(),
    &libs::eigen_like(), &core::reference_smm()};

// Property: for 60 random SMM shapes, every strategy agrees with the
// oracle and accounts exactly the useful flops.
TEST(PropertyRandomShapes, AllStrategiesCorrect) {
  Rng rng(20260704);
  for (int trial = 0; trial < 60; ++trial) {
    const index_t m = 1 + rng.next_index(96);
    const index_t n = 1 + rng.next_index(96);
    const index_t k = 1 + rng.next_index(96);
    const float alpha = static_cast<float>(rng.uniform(-2, 2));
    const float beta = trial % 3 == 0
                           ? 0.0f
                           : static_cast<float>(rng.uniform(-1, 1));
    for (const libs::GemmStrategy* s : kAll) {
      test::GemmProblem<float> prob(m, n, k, rng.next_u64());
      prob.reference(alpha, beta);
      libs::run(*s, alpha, prob.a.cview(), prob.b.cview(), beta,
                prob.c.view());
      ASSERT_TRUE(prob.check())
          << s->traits().name << " " << m << "x" << n << "x" << k
          << " alpha=" << alpha << " beta=" << beta;
    }
  }
}

// Property: random parallel shapes on 2..8 threads stay correct.
TEST(PropertyRandomShapes, ParallelStrategiesCorrect) {
  Rng rng(42);
  for (int trial = 0; trial < 12; ++trial) {
    const index_t m = 8 + rng.next_index(160);
    const index_t n = 8 + rng.next_index(160);
    const index_t k = 1 + rng.next_index(64);
    const int threads = 2 << rng.next_index(2);  // 2 or 4
    for (const libs::GemmStrategy* s :
         {&libs::openblas_like(), &libs::blis_like(),
          &core::reference_smm()}) {
      test::GemmProblem<float> prob(m, n, k, rng.next_u64());
      prob.reference(1.0f, 1.0f);
      libs::run(*s, 1.0f, prob.a.cview(), prob.b.cview(), 1.0f,
                prob.c.view(), threads);
      ASSERT_TRUE(prob.check())
          << s->traits().name << " t=" << threads << " " << m << "x" << n
          << "x" << k;
    }
  }
}

// Property: plan stats computed_flops equals pricer computed_flops, and
// every plan validates, across a sweep.
TEST(PropertyPlans, StatsMatchPricerAccounting) {
  sim::PlanPricer pricer(sim::phytium2000p());
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const GemmShape shape{1 + rng.next_index(128), 1 + rng.next_index(128),
                          1 + rng.next_index(128)};
    for (const libs::GemmStrategy* s : kAll) {
      const plan::GemmPlan p =
          s->make_plan(shape, plan::ScalarType::kF32, 1);
      p.validate();
      const plan::PlanStats stats = plan::analyze(p);
      const sim::SimReport r = pricer.price(p);
      ASSERT_DOUBLE_EQ(stats.computed_flops, r.computed_flops)
          << s->traits().name;
      ASSERT_DOUBLE_EQ(stats.useful_flops, r.useful_flops)
          << s->traits().name;
    }
  }
}

// The BLASFEO native path via explicit panel matrices: converting input
// up front (the application's job per BLASFEO's contract) then running
// must equal the one-call API.
TEST(BlasfeoPath, PanelRoundTripThroughPlan) {
  test::GemmProblem<float> prob(37, 29, 41, /*seed=*/11);
  prob.reference(2.0f, 1.0f);
  libs::run(libs::blasfeo_like(), 2.0f, prob.a.cview(), prob.b.cview(),
            1.0f, prob.c.view());
  EXPECT_TRUE(prob.check());
}

// Strategy plans must be reusable: one plan, many executions.
TEST(PlanReuse, SamePlanManyBuffers) {
  const GemmShape shape{24, 24, 24};
  const plan::GemmPlan p = core::reference_smm().make_plan(
      shape, plan::ScalarType::kF32, 1);
  for (int i = 0; i < 3; ++i) {
    test::GemmProblem<float> prob(24, 24, 24, /*seed=*/100 + i);
    prob.reference(1.0f, 0.0f);
    plan::execute_plan(p, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                       prob.c.view());
    ASSERT_TRUE(prob.check()) << i;
  }
}

// Simulated efficiency is scale-free: doubling all dims never lowers
// efficiency dramatically within the SMM regime (sanity against wild
// model discontinuities).
TEST(SimSanity, EfficiencyReasonablySmooth) {
  sim::PlanPricer pricer(sim::phytium2000p());
  const auto machine = sim::phytium2000p();
  for (const libs::GemmStrategy* s : kAll) {
    double prev = -1;
    for (index_t n : {40, 80, 160}) {
      const double e = sim::simulate_strategy(*s, {n, n, n},
                                              plan::ScalarType::kF32, 1,
                                              pricer)
                           .efficiency(machine);
      if (prev > 0) EXPECT_GT(e, prev * 0.7) << s->traits().name << " " << n;
      prev = e;
    }
  }
}


// Row-major C output: kernels take arbitrary C strides; verify through a
// full strategy run for every strategy.
TEST(LayoutCoverage, RowMajorCOutput) {
  Rng rng(31);
  const index_t m = 27, n = 41, k = 19;
  for (const libs::GemmStrategy* s : kAll) {
    Matrix<float> a(m, k), b(k, n);
    Matrix<float> c(m, n, Layout::kRowMajor);
    a.fill_random(rng);
    b.fill_random(rng);
    c.fill(0.5f);
    const Matrix<float> c0 = c.clone();
    libs::run(*s, 2.0f, a.cview(), b.cview(), 1.0f, c.view());
    EXPECT_TRUE(test::within_forward_error_bound(
        2.0f, a.cview(), b.cview(), 1.0f, c0.cview(), c.cview()))
        << s->traits().name;
  }
}

// f64 transposed inputs end-to-end.
TEST(LayoutCoverage, F64Transposed) {
  Rng rng(32);
  const index_t m = 20, n = 24, k = 28;
  Matrix<double> a(k, m), b(n, k), c(m, n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill(0.0);
  core::smm_gemm(Trans::kTrans, Trans::kTrans, 1.0, a.cview(), b.cview(),
                 0.0, c.view());
  // beta == 0: C0 is not read.
  EXPECT_TRUE(test::within_forward_error_bound(
      1.0, transposed(a.cview()), transposed(b.cview()), 0.0, c.cview(),
      c.cview()));
}

// Table I content is available programmatically.
TEST(TraitsTable, AllRowsRender) {
  for (const libs::GemmStrategy* s : kAll) {
    const std::string row = libs::traits_table_row(s->traits());
    EXPECT_NE(row.find(s->traits().name), std::string::npos);
  }
  EXPECT_EQ(libs::openblas_like().traits().unroll, 8);
  EXPECT_EQ(libs::blis_like().traits().unroll, 4);
  EXPECT_EQ(libs::blasfeo_like().traits().unroll, 4);
  EXPECT_EQ(libs::eigen_like().traits().unroll, 1);
  EXPECT_EQ(libs::blasfeo_like().traits().max_threads, 1);
}

}  // namespace
}  // namespace smm
