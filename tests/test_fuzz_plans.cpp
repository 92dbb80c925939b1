// Plan-level fuzzing: random strategies x random shapes x random
// alpha/beta/layout/thread combinations, each plan validated, priced and
// executed against the oracle. The broad net behind the targeted suites.
#include <gtest/gtest.h>

#include "src/smmkit.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

const libs::GemmStrategy* pick_strategy(index_t i) {
  switch (i % 5) {
    case 0: return &libs::openblas_like();
    case 1: return &libs::blis_like();
    case 2: return &libs::blasfeo_like();
    case 3: return &libs::eigen_like();
    default: return &core::reference_smm();
  }
}

TEST(FuzzPlans, HundredRandomConfigurations) {
  Rng rng(0xF00DF00D);
  sim::PlanPricer pricer(sim::phytium2000p());
  const auto& machine = pricer.machine();
  for (int trial = 0; trial < 100; ++trial) {
    const libs::GemmStrategy* s = pick_strategy(rng.next_index(5));
    const index_t m = 1 + rng.next_index(80);
    const index_t n = 1 + rng.next_index(80);
    const index_t k = 1 + rng.next_index(80);
    const float alpha = static_cast<float>(rng.uniform(-2, 2));
    const float beta =
        trial % 4 == 0 ? 0.0f : static_cast<float>(rng.uniform(-1, 1));
    const int threads =
        s->traits().max_threads == 1 ? 1 : 1 + static_cast<int>(rng.next_index(4));
    const Trans ta = rng.next_index(2) == 0 ? Trans::kNoTrans : Trans::kTrans;
    const Trans tb = rng.next_index(2) == 0 ? Trans::kNoTrans : Trans::kTrans;

    // Plan structure: validates, prices within physical bounds.
    const plan::GemmPlan p =
        s->make_plan({m, n, k}, plan::ScalarType::kF32, threads);
    ASSERT_NO_THROW(p.validate());
    const sim::SimReport r = pricer.price(p);
    ASSERT_GT(r.makespan_cycles, 0.0);
    ASSERT_LE(r.efficiency(machine), 1.0);
    const plan::PlanStats stats = plan::analyze(p);
    ASSERT_DOUBLE_EQ(stats.useful_flops, (GemmShape{m, n, k}).flops());

    // Native execution with op() views matches the oracle.
    Matrix<float> a(ta == Trans::kTrans ? k : m, ta == Trans::kTrans ? m : k);
    Matrix<float> b(tb == Trans::kTrans ? n : k, tb == Trans::kTrans ? k : n);
    Matrix<float> c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);
    c.fill_random(rng);
    const Matrix<float> c0 = c.clone();
    libs::run(*s, ta, tb, alpha, a.cview(), b.cview(), beta, c.view(),
              threads);
    ASSERT_TRUE(test::within_forward_error_bound(
        alpha, apply_trans(ta, a.cview()), apply_trans(tb, b.cview()), beta,
        c0.cview(), c.cview()))
        << "trial " << trial << ": " << s->traits().name << " " << m << "x"
        << n << "x" << k << " " << to_string(ta) << to_string(tb)
        << " alpha=" << alpha << " beta=" << beta << " t=" << threads;
  }
}

TEST(FuzzPlans, DegenerateDimensionLattice) {
  // Every strategy over the {0,1} x {0,1} x {0,1} dimension lattice.
  for (index_t m : {0, 1})
    for (index_t n : {0, 1})
      for (index_t k : {0, 1})
        for (index_t si = 0; si < 5; ++si) {
          const libs::GemmStrategy* s = pick_strategy(si);
          Matrix<float> a(m, k), b(k, n), c(m, n), c_ref(m, n);
          a.fill(2.0f);
          b.fill(3.0f);
          c.fill(1.0f);
          c_ref.fill(1.0f);
          libs::naive_gemm(1.0f, a.cview(), b.cview(), 0.5f, c_ref.view());
          ASSERT_NO_THROW(libs::run(*s, 1.0f, a.cview(), b.cview(), 0.5f,
                                    c.view()))
              << s->traits().name << " " << m << n << k;
          ASSERT_LE(max_abs_diff(c.cview(), c_ref.cview()), 1e-6)
              << s->traits().name << " " << m << n << k;
        }
}

}  // namespace
}  // namespace smm
