// End-to-end numerical correctness of every GEMM strategy: each plan is
// executed natively and compared against the naive oracle, across shapes
// (square, edge-heavy, tall/skinny/short), alpha/beta combinations, scalar
// types and thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "src/core/smm.h"
#include "src/libs/blasfeo_like/gemm_blasfeo_like.h"
#include "src/libs/blis_like/gemm_blis_like.h"
#include "src/libs/eigen_like/gemm_eigen_like.h"
#include "src/libs/gemm_interface.h"
#include "src/libs/openblas_like/gemm_openblas_like.h"
#include "src/plan/exec_scratch.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan_stats.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

const libs::GemmStrategy* strategy_by_name(const std::string& name) {
  if (name == "openblas") return &libs::openblas_like();
  if (name == "blis") return &libs::blis_like();
  if (name == "blasfeo") return &libs::blasfeo_like();
  if (name == "eigen") return &libs::eigen_like();
  if (name == "smm-ref") return &core::reference_smm();
  return nullptr;
}

using ShapeTuple = std::tuple<index_t, index_t, index_t>;

class StrategyCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, ShapeTuple>> {
};

TEST_P(StrategyCorrectness, MatchesNaiveF32) {
  const auto& [name, shape] = GetParam();
  const auto [m, n, k] = shape;
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  test::GemmProblem<float> prob(m, n, k, /*seed=*/m * 1315423911u + n * 31u + k);
  prob.reference(1.5f, 0.5f);
  libs::run(*strategy, 1.5f, prob.a.cview(), prob.b.cview(), 0.5f,
            prob.c.view());
  EXPECT_TRUE(prob.check()) << name << " " << m << "x" << n << "x" << k;
}

TEST_P(StrategyCorrectness, MatchesNaiveF64) {
  const auto& [name, shape] = GetParam();
  const auto [m, n, k] = shape;
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  test::GemmProblem<double> prob(m, n, k, /*seed=*/m * 77u + n * 13u + k);
  prob.reference(-0.75, 2.0);
  libs::run(*strategy, -0.75, prob.a.cview(), prob.b.cview(), 2.0,
            prob.c.view());
  EXPECT_TRUE(prob.check()) << name << " " << m << "x" << n << "x" << k;
}

TEST_P(StrategyCorrectness, BetaZeroDoesNotReadC) {
  const auto& [name, shape] = GetParam();
  const auto [m, n, k] = shape;
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  test::GemmProblem<float> prob(m, n, k, /*seed=*/99);
  // Poison C with NaN: beta == 0 must overwrite, never accumulate.
  prob.c.fill(std::numeric_limits<float>::quiet_NaN());
  prob.c_expected.fill(0.0f);
  prob.reference(2.0f, 0.0f);
  libs::run(*strategy, 2.0f, prob.a.cview(), prob.b.cview(), 0.0f,
            prob.c.view());
  EXPECT_TRUE(prob.check()) << name;
}

TEST_P(StrategyCorrectness, StaleScratchNeverReachesC) {
  // The executor zero-fills only the scratch its plan reads before
  // writing (ConvertOp padding, K-split slabs); packed panels are left as
  // the last call left them. Poison the arena with NaN first, so a
  // packed region some kernel reads before a pack op writes it shows up
  // in C, on one thread and on two.
  const auto& [name, shape] = GetParam();
  const auto [m, n, k] = shape;
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  const int max_threads =
      strategy->traits().parallel == libs::ParallelMethod::kSingleThread ? 1
                                                                         : 2;
  for (int threads = 1; threads <= max_threads; ++threads) {
    {
      constexpr index_t kPoison = index_t{1} << 20;
      plan::ExecScratch::Lease<float> lease(plan::ExecScratch::local(),
                                            {kPoison});
      std::fill(lease.ptr(0), lease.ptr(0) + kPoison,
                std::numeric_limits<float>::quiet_NaN());
    }
    test::GemmProblem<float> prob(m, n, k, /*seed=*/m + 7u * n + 13u * k);
    prob.reference(1.0f, 0.5f);
    const plan::GemmPlan p = strategy->make_plan(
        GemmShape{m, n, k}, plan::ScalarType::kF32, threads);
    plan::execute_plan(p, 1.0f, prob.a.cview(), prob.b.cview(), 0.5f,
                       prob.c.view());
    EXPECT_TRUE(prob.check()) << name << " on " << threads << " threads";
  }
}

TEST_P(StrategyCorrectness, UsefulFlopsAccounted) {
  const auto& [name, shape] = GetParam();
  const auto [m, n, k] = shape;
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  const plan::GemmPlan p = strategy->make_plan(GemmShape{m, n, k},
                                               plan::ScalarType::kF32, 1);
  const plan::PlanStats stats = plan::analyze(p);
  // Every useful flop is emitted exactly once.
  EXPECT_DOUBLE_EQ(stats.useful_flops, (GemmShape{m, n, k}).flops())
      << name;
  // Padding never computes more than the padded bounding tiles.
  EXPECT_GE(stats.computed_flops, stats.useful_flops);
}

const ShapeTuple kShapes[] = {
    {1, 1, 1},     {2, 3, 4},     {5, 5, 5},     {8, 8, 8},
    {16, 16, 16},  {15, 17, 19},  {16, 4, 64},   {4, 16, 64},
    {31, 33, 37},  {48, 48, 48},  {64, 64, 64},  {75, 60, 60},
    {80, 80, 80},  {100, 100, 100}, {11, 4, 200}, {200, 8, 8},
    {8, 200, 8},   {8, 8, 200},   {2, 200, 200}, {200, 2, 200},
    {200, 200, 2}, {97, 101, 103},
};

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyCorrectness,
    ::testing::Combine(::testing::Values("openblas", "blis", "blasfeo",
                                         "eigen", "smm-ref"),
                       ::testing::ValuesIn(kShapes)),
    [](const auto& info) {
      const auto& shape = std::get<1>(info.param);
      std::string name = std::get<0>(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_" +
             std::to_string(std::get<0>(shape)) + "x" +
             std::to_string(std::get<1>(shape)) + "x" +
             std::to_string(std::get<2>(shape));
    });

// ---- Multi-threaded native execution -------------------------------------

class ParallelCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ParallelCorrectness, MatchesNaive) {
  const auto& [name, threads] = GetParam();
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  for (const auto& [m, n, k] :
       {ShapeTuple{64, 64, 64}, ShapeTuple{16, 96, 80},
        ShapeTuple{130, 70, 33}}) {
    test::GemmProblem<float> prob(m, n, k, /*seed=*/threads * 1000 + m);
    prob.reference(1.0f, 1.0f);
    libs::run(*strategy, 1.0f, prob.a.cview(), prob.b.cview(), 1.0f,
              prob.c.view(), threads);
    EXPECT_TRUE(prob.check())
        << name << " threads=" << threads << " " << m << "x" << n << "x"
        << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Threads, ParallelCorrectness,
    ::testing::Combine(::testing::Values("openblas", "blis", "eigen",
                                         "smm-ref"),
                       ::testing::Values(2, 4, 8)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_t" + std::to_string(std::get<1>(info.param));
    });

// ---- Transposition: C = alpha * op(A) * op(B) + beta * C -------------------

class TransposeCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(TransposeCorrectness, MatchesNaive) {
  const auto& [name, combo] = GetParam();
  const libs::GemmStrategy* strategy = strategy_by_name(name);
  ASSERT_NE(strategy, nullptr);
  const Trans ta = (combo & 1) != 0 ? Trans::kTrans : Trans::kNoTrans;
  const Trans tb = (combo & 2) != 0 ? Trans::kTrans : Trans::kNoTrans;
  for (const auto& [m, n, k] :
       {ShapeTuple{17, 23, 29}, ShapeTuple{48, 32, 16},
        ShapeTuple{5, 80, 40}}) {
    Rng rng(static_cast<std::uint64_t>(combo * 1000 + m));
    // Allocate the operands in their *stored* orientation.
    Matrix<float> a_store(ta == Trans::kTrans ? k : m,
                          ta == Trans::kTrans ? m : k);
    Matrix<float> b_store(tb == Trans::kTrans ? n : k,
                          tb == Trans::kTrans ? k : n);
    Matrix<float> c(m, n);
    a_store.fill_random(rng);
    b_store.fill_random(rng);
    c.fill_random(rng);
    const Matrix<float> c0 = c.clone();
    libs::run(*strategy, ta, tb, 1.25f, a_store.cview(), b_store.cview(),
              0.5f, c.view());
    EXPECT_TRUE(test::within_forward_error_bound(
        1.25f, apply_trans(ta, a_store.cview()),
        apply_trans(tb, b_store.cview()), 0.5f, c0.cview(), c.cview()))
        << name << " " << to_string(ta) << to_string(tb) << " " << m << "x"
        << n << "x" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpCombos, TransposeCorrectness,
    ::testing::Combine(::testing::Values("openblas", "blis", "blasfeo",
                                         "eigen", "smm-ref"),
                       ::testing::Values(0, 1, 2, 3)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      const int combo = std::get<1>(info.param);
      return name + ((combo & 1) != 0 ? "_tA" : "_nA") +
             ((combo & 2) != 0 ? "_tB" : "_nB");
    });

TEST(TransposeApi, SmmGemmOpOverload) {
  // C = A^T * B with A stored k x m.
  const index_t m = 21, n = 33, k = 27;
  Rng rng(4);
  Matrix<float> a(k, m), b(k, n), c(m, n);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill(0.0f);
  const Matrix<float> c0 = c.clone();
  core::smm_gemm(Trans::kTrans, Trans::kNoTrans, 1.0f, a.cview(), b.cview(),
                 0.0f, c.view());
  EXPECT_TRUE(test::within_forward_error_bound(
      1.0f, transposed(a.cview()), b.cview(), 0.0f, c0.cview(), c.cview()));
}

TEST(TransposeApi, TransposedViewIsAView) {
  Matrix<float> a(3, 5);
  a.fill_iota();
  const auto t = transposed(a.cview());
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 3);
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 5; ++j) EXPECT_EQ(t(j, i), a(i, j));
  // Double transpose is the identity view.
  const auto tt = transposed(t);
  EXPECT_EQ(tt.layout(), a.view().layout());
  EXPECT_EQ(&tt(2, 4), &a(2, 4));
}

// ---- Degenerate shapes ----------------------------------------------------

TEST(StrategyEdgeCases, KZeroScalesC) {
  for (const char* name : {"openblas", "blis", "blasfeo", "eigen",
                           "smm-ref"}) {
    const libs::GemmStrategy* strategy = strategy_by_name(name);
    test::GemmProblem<float> prob(7, 9, 0, /*seed=*/5);
    prob.reference(3.0f, 0.25f);
    libs::run(*strategy, 3.0f, prob.a.cview(), prob.b.cview(), 0.25f,
              prob.c.view());
    EXPECT_TRUE(prob.check()) << name;
  }
}

TEST(StrategyEdgeCases, EmptyOutputIsNoop) {
  for (const char* name : {"openblas", "blis", "blasfeo", "eigen",
                           "smm-ref"}) {
    const libs::GemmStrategy* strategy = strategy_by_name(name);
    Matrix<float> a(0, 5), b(5, 0), c(0, 0);
    EXPECT_NO_THROW(libs::run(*strategy, 1.0f, a.cview(), b.cview(), 0.0f,
                              c.view()))
        << name;
  }
}

TEST(StrategyEdgeCases, DimensionMismatchThrows) {
  Matrix<float> a(4, 5), b(6, 3), c(4, 3);
  EXPECT_THROW(libs::run(libs::openblas_like(), 1.0f, a.cview(), b.cview(),
                         0.0f, c.view()),
               Error);
}

// Views into a larger allocation (non-minimal leading dimension).
TEST(StrategyEdgeCases, StridedViews) {
  Rng rng(7);
  Matrix<float> big_a(100, 100), big_b(100, 100), big_c(100, 100);
  big_a.fill_random(rng);
  big_b.fill_random(rng);
  big_c.fill_random(rng);
  const index_t m = 33, n = 21, k = 40;
  auto a = big_a.cview().block(3, 5, m, k);
  auto b = big_b.cview().block(11, 2, k, n);
  auto c = big_c.view().block(7, 9, m, n);
  Matrix<float> c0(m, n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) c0(i, j) = c(i, j);
  libs::run(core::reference_smm(), 1.0f, a, b, 1.0f, c);
  EXPECT_TRUE(test::within_forward_error_bound(
      1.0f, a, b, 1.0f, c0.cview(), ConstMatrixView<float>(c)));
}

}  // namespace
}  // namespace smm
