// The robustness layer under fire: every injection point is driven in
// turn and the guarded executor must serve a bit-correct C — by retry, by
// plan rebuild, or by degrading to libs::naive — with the fault, the
// retry count, and the serving fallback recorded in the RunReport.
// Everything is deterministic by seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/str.h"
#include "src/core/autotune.h"
#include "src/core/batched.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/robust/abft.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
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

// Shape chosen so the default tiles divide evenly: every packed element
// is a real matrix element (a bit flip can never hide in panel padding).
constexpr index_t kM = 64, kN = 48, kK = 64;

core::SmmOptions always_pack() {
  core::SmmOptions o;
  o.pack_a = core::SmmOptions::Packing::kAlways;
  o.pack_b = core::SmmOptions::Packing::kAlways;
  return o;
}

template <typename T>
::testing::AssertionResult bit_equal(ConstMatrixView<T> actual,
                                     ConstMatrixView<T> expected) {
  for (index_t j = 0; j < actual.cols(); ++j)
    for (index_t i = 0; i < actual.rows(); ++i)
      if (actual(i, j) != expected(i, j))
        return ::testing::AssertionFailure()
               << "mismatch at (" << i << "," << j << "): " << actual(i, j)
               << " != " << expected(i, j);
  return ::testing::AssertionSuccess();
}

class RobustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    strategy_ = core::make_reference_smm(always_pack());
  }
  void TearDown() override { FaultInjector::instance().disarm_all(); }

  /// A fresh problem plus the clean guarded result (the bit-exactness
  /// oracle for recovered runs: identical plans re-run bit-identically).
  struct Scenario {
    test::GemmProblem<float> prob{kM, kN, kK, 0xC0FFEE};
    Matrix<float> c_clean{kM, kN};
  };

  Scenario make_scenario(GuardedExecutor& guard, float alpha, float beta,
                         int nthreads = 1) {
    Scenario s;
    s.c_clean = s.prob.c.clone();
    const RunReport clean = guard.run(alpha, s.prob.a.cview(),
                                      s.prob.b.cview(), beta,
                                      s.c_clean.view(), nthreads);
    EXPECT_EQ(clean.outcome, Outcome::kOk);
    return s;
  }

  std::unique_ptr<libs::GemmStrategy> strategy_;
};

TEST_F(RobustTest, InjectionDisabledByDefault) {
  for (int i = 0; i < robust::kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    EXPECT_FALSE(FaultInjector::instance().armed(site));
    EXPECT_FALSE(robust::should_fire(site));
    EXPECT_STRNE(robust::to_string(site), "?");
  }
}

TEST_F(RobustTest, FireCountingIsDeterministic) {
  FaultInjector::instance().arm(FaultSite::kWorkerThrow,
                                {/*fire_after=*/2, /*max_fires=*/1});
  EXPECT_FALSE(robust::should_fire(FaultSite::kWorkerThrow));  // hit 0
  EXPECT_FALSE(robust::should_fire(FaultSite::kWorkerThrow));  // hit 1
  EXPECT_TRUE(robust::should_fire(FaultSite::kWorkerThrow));   // hit 2
  EXPECT_FALSE(robust::should_fire(FaultSite::kWorkerThrow));  // spent
  EXPECT_EQ(FaultInjector::instance().fired_count(FaultSite::kWorkerThrow),
            1u);
  EXPECT_EQ(FaultInjector::instance().hit_count(FaultSite::kWorkerThrow),
            4u);
  FaultInjector::instance().disarm(FaultSite::kWorkerThrow);
  EXPECT_FALSE(robust::should_fire(FaultSite::kWorkerThrow));
}

TEST_F(RobustTest, ErrorCodesHaveNames) {
  for (const ErrorCode code :
       {ErrorCode::kUnknown, ErrorCode::kPrecondition, ErrorCode::kBadShape,
        ErrorCode::kAlias, ErrorCode::kAlloc, ErrorCode::kKernelFault,
        ErrorCode::kChecksumMismatch, ErrorCode::kWorkerPanic})
    EXPECT_STRNE(to_string(code), "?");
  const Error e(ErrorCode::kAlias, "boom");
  EXPECT_EQ(e.code(), ErrorCode::kAlias);
}

TEST_F(RobustTest, ChecksumAcceptsCleanRejectsCorrupt) {
  test::GemmProblem<float> prob(kM, kN, kK, 77);
  prob.reference(1.5f, 0.0f);
  Matrix<float> c = prob.c_expected.clone();
  const auto clean = robust::verify_gemm_checksum<float>(
      1.5f, prob.a.cview(), prob.b.cview(), 0.0f, nullptr, kM, c.cview());
  EXPECT_TRUE(clean.ok) << "residual " << clean.residual << " > tol "
                        << clean.tolerance;
  c(11, 17) += 1.0f;  // simulated soft error
  const auto bad = robust::verify_gemm_checksum<float>(
      1.5f, prob.a.cview(), prob.b.cview(), 0.0f, nullptr, kM, c.cview());
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.worst_col, 17);  // ramp row localizes the column
}

TEST_F(RobustTest, PackBitFlipDetectedAndRetried) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  for (const std::uint64_t seed : {1ull, 42ull, 0xDEADull}) {
    Scenario s = make_scenario(guard, 1.0f, 0.0f);
    ScopedFault fault(FaultSite::kPackBitFlip, {0, 1, seed});
    const RunReport report =
        guard.run(1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f,
                  s.prob.c.view());
    EXPECT_EQ(FaultInjector::instance().fired_count(FaultSite::kPackBitFlip),
              1u);
    EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
    EXPECT_EQ(report.first_error, ErrorCode::kChecksumMismatch);
    EXPECT_GE(report.retries, 1);
    EXPECT_STREQ(report.fallback, "none");
    EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
  }
}

TEST_F(RobustTest, KernelMiscomputeDetectedAndRetried) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 2.0f, 0.0f);
  ScopedFault fault(FaultSite::kKernelMiscompute, {0, 1, 99});
  const RunReport report = guard.run(
      2.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
  EXPECT_EQ(report.first_error, ErrorCode::kChecksumMismatch);
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
}

TEST_F(RobustTest, AllocFailureRecovered) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f);
  ScopedFault fault(FaultSite::kAllocFail, {0, 1});
  const RunReport report = guard.run(
      1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
  EXPECT_EQ(report.first_error, ErrorCode::kAlloc);
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
}

TEST_F(RobustTest, WorkerPanicRecovered) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f, /*nthreads=*/2);
  ScopedFault fault(FaultSite::kWorkerThrow, {0, 1});
  const RunReport report =
      guard.run(1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f,
                s.prob.c.view(), /*nthreads=*/2);
  EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
  EXPECT_EQ(report.first_error, ErrorCode::kWorkerPanic);
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
}

TEST_F(RobustTest, BetaSemanticsSurviveRetry) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.5f);
  ScopedFault fault(FaultSite::kKernelMiscompute, {0, 1, 7});
  const RunReport report = guard.run(
      1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.5f, s.prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
  // The retry re-applied beta to the *original* C (snapshot restore), so
  // the result matches the clean run bit-for-bit.
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
  s.prob.reference(1.0f, 0.5f);
  EXPECT_TRUE(s.prob.check(kK));
}

TEST_F(RobustTest, PersistentFaultDegradesToNaive) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  test::GemmProblem<float> prob(kM, kN, kK, 0xBEEF);
  prob.reference(1.0f, 0.25f);  // naive oracle into c_expected
  ScopedFault fault(FaultSite::kKernelMiscompute,
                    {0, /*max_fires=*/1u << 30, 5});
  const RunReport report = guard.run(
      1.0f, prob.a.cview(), prob.b.cview(), 0.25f, prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kDegraded) << report.summary();
  EXPECT_STREQ(report.fallback, "naive");
  EXPECT_EQ(report.first_error, ErrorCode::kChecksumMismatch);
  // cached + retry + rebuilt all fault; naive serves.
  EXPECT_EQ(report.attempts, 4);
  EXPECT_EQ(report.retries, 3);
  // The naive fallback IS the oracle: bit-correct by definition.
  EXPECT_TRUE(bit_equal(prob.c.cview(), prob.c_expected.cview()));
}

TEST_F(RobustTest, PersistentPackFaultDegradesToNaive) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  test::GemmProblem<float> prob(kM, kN, kK, 0xF00D);
  prob.reference(1.0f, 0.0f);
  ScopedFault fault(FaultSite::kPackBitFlip, {0, 1u << 30, 11});
  const RunReport report = guard.run(
      1.0f, prob.a.cview(), prob.b.cview(), 0.0f, prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kDegraded) << report.summary();
  EXPECT_STREQ(report.fallback, "naive");
  EXPECT_TRUE(bit_equal(prob.c.cview(), prob.c_expected.cview()));
}

TEST_F(RobustTest, ExhaustedChainRestoresOriginalC) {
  GuardOptions opts;
  opts.retries = 0;
  opts.allow_rebuild = false;
  opts.allow_naive = false;
  GuardedExecutor guard(*strategy_, opts);
  test::GemmProblem<float> prob(kM, kN, kK, 5);
  const Matrix<float> c_before = prob.c.clone();
  ScopedFault fault(FaultSite::kKernelMiscompute, {0, 1u << 30, 3});
  const RunReport report = guard.run(
      1.0f, prob.a.cview(), prob.b.cview(), 0.5f, prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kFailed);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.attempts, 1);
  // A failed request must not leave a half-written C behind.
  EXPECT_TRUE(bit_equal(prob.c.cview(), c_before.cview()));
}

TEST_F(RobustTest, FaultsAreDeterministicBySeed) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  RunReport reports[2];
  Matrix<float> results[2];
  for (int round = 0; round < 2; ++round) {
    Scenario s = make_scenario(guard, 1.0f, 0.0f);
    ScopedFault fault(FaultSite::kPackBitFlip, {0, 1, 0xABCD});
    reports[round] = guard.run(1.0f, s.prob.a.cview(), s.prob.b.cview(),
                               0.0f, s.prob.c.view());
    results[round] = s.prob.c.clone();
  }
  EXPECT_EQ(reports[0].outcome, reports[1].outcome);
  EXPECT_EQ(reports[0].attempts, reports[1].attempts);
  EXPECT_EQ(reports[0].checksum_residual, reports[1].checksum_residual);
  EXPECT_TRUE(bit_equal(results[0].cview(), results[1].cview()));
}

TEST_F(RobustTest, ArmedButNeverFiringChangesNothing) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f);
  ScopedFault fault(FaultSite::kPackBitFlip,
                    {/*fire_after=*/1u << 30, 1});
  const RunReport report = guard.run(
      1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kOk);
  // The injection point was reached (the hook is wired) but never fired.
  EXPECT_GT(FaultInjector::instance().hit_count(FaultSite::kPackBitFlip),
            0u);
  EXPECT_EQ(FaultInjector::instance().fired_count(FaultSite::kPackBitFlip),
            0u);
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
}

TEST_F(RobustTest, GuardedPreconditionsThrowTypedErrors) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Matrix<float> a(4, 8), b(8, 5), c(4, 5);
  try {
    Matrix<float> wrong(3, 5);
    guard.run(1.0f, a.cview(), b.cview(), 0.0f, wrong.view());
    FAIL() << "dimension mismatch not rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadShape);
  }
  try {
    // C aliasing A must be rejected, not silently miscomputed.
    MatrixView<float> c_alias(a.data(), 4, 5, 4);
    guard.run(1.0f, a.cview(), ConstMatrixView<float>(a.data(), 8, 5, 8),
              0.0f, c_alias);
    FAIL() << "aliasing not rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAlias);
  }
  try {
    ConstMatrixView<float> null_a(nullptr, 4, 8, 4);
    guard.run(1.0f, null_a, b.cview(), 0.0f, c.view());
    FAIL() << "null data not rejected";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadShape);
  }
  EXPECT_THROW(guard.run(1.0f, a.cview(), b.cview(), 0.0f, c.view(), 0),
               Error);
}

TEST_F(RobustTest, EntryPointValidation) {
  Matrix<float> a(4, 8), b(8, 5), c(4, 5);
  EXPECT_THROW(
      core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view(), 0),
      Error);
  ConstMatrixView<float> null_b(nullptr, 8, 5, 8);
  EXPECT_THROW(core::smm_gemm(1.0f, a.cview(), null_b, 0.0f, c.view()),
               Error);
  EXPECT_THROW(
      libs::run(core::reference_smm(), 1.0f, a.cview(), b.cview(), 0.0f,
                c.view(), 0),
      Error);
  EXPECT_THROW(core::autotune({8, 8, 8}, plan::ScalarType::kF32, 0,
                              sim::phytium2000p()),
               Error);
}

TEST_F(RobustTest, RunParallelAggregatesAllWorkerFailures) {
  try {
    par::run_parallel(4, [](int tid) {
      if (tid == 1) throw Error(ErrorCode::kKernelFault, "worker one died");
      if (tid == 3) throw std::runtime_error("worker three died");
    });
    FAIL() << "expected aggregate error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kWorkerPanic);
    const std::string what = e.what();
    EXPECT_NE(what.find("thread 1"), std::string::npos) << what;
    EXPECT_NE(what.find("thread 3"), std::string::npos) << what;
    EXPECT_NE(what.find("worker one died"), std::string::npos) << what;
    EXPECT_NE(what.find("worker three died"), std::string::npos) << what;
  }
  // A single failure keeps its original type (no wrapping).
  EXPECT_THROW(par::run_parallel(4,
                                 [](int tid) {
                                   if (tid == 2)
                                     throw std::invalid_argument("just me");
                                 }),
               std::invalid_argument);
}

TEST_F(RobustTest, PlanCacheCountersRaceFree) {
  core::PlanCache cache(core::reference_smm());
  const GemmShape shapes[] = {{8, 8, 8}, {16, 16, 16}, {24, 24, 24}};
  par::run_parallel(8, [&](int) {
    for (int r = 0; r < 50; ++r)
      for (const auto& s : shapes)
        cache.get(s, plan::ScalarType::kF32, 1);
  });
  // Readers are lock-free; totals must still balance exactly.
  EXPECT_EQ(cache.hits() + cache.misses(), 8u * 50u * 3u);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_GE(cache.builds(), 3u);
}

TEST_F(RobustTest, BatchedRejectsBadItemsUpFront) {
  core::PlanCache cache(core::reference_smm());
  Matrix<float> a(8, 8), b(8, 8), c(8, 8), c2(8, 8);
  using Item = core::GemmBatchItem<float>;
  // Zero dimension, with the item index in the message.
  {
    Matrix<float> a0(8, 0), b0(0, 8);
    std::vector<Item> items{{a.cview(), b.cview(), c.view()},
                            {a0.cview(), b0.cview(), c2.view()}};
    try {
      core::batched_smm(1.0f, items, 0.0f, cache);
      FAIL() << "zero-dim item not rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadShape);
      EXPECT_NE(std::string(e.what()).find("item 1"), std::string::npos)
          << e.what();
    }
  }
  // C aliasing across items.
  {
    std::vector<Item> items{{a.cview(), b.cview(), c.view()},
                            {a.cview(), b.cview(), c.view()}};
    try {
      core::batched_smm(1.0f, items, 0.0f, cache);
      FAIL() << "aliased outputs not rejected";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kAlias);
      EXPECT_NE(std::string(e.what()).find("aliases"), std::string::npos)
          << e.what();
    }
  }
  // No work was started for rejected batches.
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
}

TEST_F(RobustTest, BatchedReportsPerItemFailuresWithIndex) {
  core::PlanCache cache(*strategy_);  // packing plans allocate scratch
  Matrix<float> a(kM, kK), b(kK, kN);
  Rng rng(3);
  a.fill_random(rng);
  b.fill_random(rng);
  std::vector<Matrix<float>> cs;
  for (int i = 0; i < 4; ++i) cs.emplace_back(kM, kN);
  std::vector<core::GemmBatchItem<float>> items;
  for (int i = 0; i < 4; ++i)
    items.push_back({a.cview(), b.cview(), cs[static_cast<std::size_t>(i)]
                                               .view()});
  const auto failures_before =
      robust::health().batched_item_failures.load();
  ScopedFault fault(FaultSite::kAllocFail, {0, 1u << 30});
  try {
    core::batched_smm(1.0f, items, 0.0f, cache, /*nworkers=*/2);
    FAIL() << "expected per-item failures";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kAlloc);
    const std::string what = e.what();
    EXPECT_NE(what.find("4 of 4 items failed"), std::string::npos) << what;
    for (int i = 0; i < 4; ++i)
      EXPECT_NE(what.find(strprintf("item %d", i)), std::string::npos)
          << what;
  }
  EXPECT_EQ(robust::health().batched_item_failures.load(),
            failures_before + 4);
}

TEST_F(RobustTest, HealthCountersAccumulate) {
  robust::health().reset();
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f);  // one clean run
  {
    ScopedFault fault(FaultSite::kKernelMiscompute, {0, 1, 21});
    guard.run(1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f,
              s.prob.c.view());
  }
  const robust::HealthSnapshot snap = robust::health().snapshot();
  EXPECT_EQ(snap.guarded_runs, 2u);
  EXPECT_EQ(snap.clean_runs, 1u);
  EXPECT_GE(snap.retries, 1u);
  EXPECT_GE(snap.checksum_rejections, 1u);
  EXPECT_FALSE(snap.to_string().empty());
}

TEST_F(RobustTest, EveryHealthCounterSnapshotsPrintsAndResets) {
  struct Row {
    const char* name;
    std::atomic<std::size_t> robust::Health::*live;
    std::size_t robust::HealthSnapshot::*value;
  };
#define HEALTH_ROW(name) \
  {#name, &robust::Health::name, &robust::HealthSnapshot::name},
  const Row rows[] = {SMM_HEALTH_COUNTERS(HEALTH_ROW)};
#undef HEALTH_ROW
  robust::Health& health = robust::health();
  health.reset();
  // A distinct value per row (its index + 1) catches a crossed field.
  std::vector<std::string> want_tokens;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    (health.*rows[i].live).fetch_add(i + 1);
    want_tokens.push_back(std::string(rows[i].name) + "=" +
                          std::to_string(i + 1));
  }
  const robust::HealthSnapshot snap = health.snapshot();
  for (std::size_t i = 0; i < std::size(rows); ++i)
    EXPECT_EQ(snap.*rows[i].value, i + 1) << rows[i].name;

  // to_string(): each name=value token exactly once, nothing else.
  std::vector<std::string> got_tokens;
  std::istringstream in(snap.to_string());
  for (std::string token; in >> token;) got_tokens.push_back(token);
  std::sort(want_tokens.begin(), want_tokens.end());
  std::sort(got_tokens.begin(), got_tokens.end());
  EXPECT_EQ(got_tokens, want_tokens);

  health.reset();
  const robust::HealthSnapshot zero = health.snapshot();
  for (const Row& row : rows) {
    EXPECT_EQ(zero.*row.value, 0u) << row.name;
    EXPECT_EQ((health.*row.live).load(), 0u) << row.name;
  }
}

TEST_F(RobustTest, ReportSummaryIsReadable) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f);
  const RunReport report = guard.run(
      1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
  const std::string text = report.summary();
  EXPECT_NE(text.find("outcome=ok"), std::string::npos) << text;
  EXPECT_NE(text.find("fallback=none"), std::string::npos) << text;
}

TEST_F(RobustTest, VerificationOffStillCatchesThrownFaults) {
  GuardOptions opts;
  opts.verify = false;
  GuardedExecutor guard(*strategy_, opts);
  Scenario s = make_scenario(guard, 1.0f, 0.0f);
  ScopedFault fault(FaultSite::kAllocFail, {0, 1});
  const RunReport report = guard.run(
      1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kRecovered);
  EXPECT_EQ(report.first_error, ErrorCode::kAlloc);
  EXPECT_EQ(report.checksum_residual, 0.0);
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
}

// ---- guarded executor x warm path ------------------------------------------
// The fast paths of PRs 2-3 (plan cache, worker pool, prepack, barrier
// elision) each meet the guarded chain under fire: recovery must neither
// evict the cached plan nor poison the pool.

TEST_F(RobustTest, WarmCachedPlanSurvivesRecoveryAndStaysCached) {
  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f);  // builds + caches
  EXPECT_EQ(guard.cache().builds(), 1u);
  {
    ScopedFault fault(FaultSite::kKernelMiscompute, {0, 1, 21});
    const RunReport report = guard.run(
        1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
    EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
    EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
  }
  // The transient fault cost retries, never the cache entry: the next
  // warm call is clean and nothing was rebuilt into the cache.
  const RunReport warm = guard.run(
      1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f, s.prob.c.view());
  EXPECT_EQ(warm.outcome, Outcome::kOk) << warm.summary();
  EXPECT_EQ(guard.cache().builds(), 1u);
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));
}

TEST_F(RobustTest, PooledParallelRecoveryLeavesPoolHealthy) {
  // Warm the pool so the guarded region below is pool-served, then make
  // one pooled worker throw: the guard must recover and the pool must
  // keep serving regions (no quarantine — a thrown body is a normal
  // captured failure, not a hang).
  par::run_parallel(2, [](int) {});
  auto& pool = par::WorkerPool::instance();
  const auto stats_before = pool.stats();

  GuardedExecutor guard(*strategy_, GuardOptions{});
  Scenario s = make_scenario(guard, 1.0f, 0.0f, /*nthreads=*/2);
  ScopedFault fault(FaultSite::kWorkerThrow, {0, 1});
  const RunReport report =
      guard.run(1.0f, s.prob.a.cview(), s.prob.b.cview(), 0.0f,
                s.prob.c.view(), /*nthreads=*/2);
  EXPECT_EQ(report.outcome, Outcome::kRecovered) << report.summary();
  EXPECT_TRUE(bit_equal(s.prob.c.cview(), s.c_clean.cview()));

  const auto stats_after = pool.stats();
  EXPECT_GT(stats_after.regions, stats_before.regions);
  EXPECT_EQ(stats_after.quarantines, stats_before.quarantines);
  EXPECT_FALSE(pool.quarantined());
}

TEST_F(RobustTest, BarrierElidedParallelPlanRecovers) {
  // Direct-operand decomposition of this shape runs 4 ways with zero
  // barriers (probed below): worker failure recovery must not depend on
  // barrier poisoning existing in the plan.
  core::SmmOptions opts;
  opts.pack_a = opts.pack_b = core::SmmOptions::Packing::kNever;
  opts.edge_pack = false;
  const auto strategy = core::make_reference_smm(opts);
  ASSERT_TRUE(strategy
                  ->make_plan({48, 512, 32}, plan::ScalarType::kF32, 4)
                  .barriers.empty());

  GuardedExecutor guard(*strategy, GuardOptions{});
  test::GemmProblem<float> prob(48, 512, 32, 0xE11D);
  prob.reference(1.0f, 0.0f);
  ScopedFault fault(FaultSite::kWorkerThrow, {0, 1});
  const RunReport report =
      guard.run(1.0f, prob.a.cview(), prob.b.cview(), 0.0f, prob.c.view(),
                /*nthreads=*/4);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.first_error, ErrorCode::kWorkerPanic);
  EXPECT_TRUE(prob.check(32));
}

TEST_F(RobustTest, CorruptedPrepackIsCaughtByChecksumVerification) {
  // A bit flip during PrepackedB materialization poisons every replay —
  // the worst case for the amortized path. ABFT is the detection story:
  // the same row-checksum verify the guard runs rejects the replayed C.
  core::SmmOptions opts;
  opts.pack_b = core::SmmOptions::Packing::kAlways;
  test::GemmProblem<float> prob(24, 16, 12, 0x5EED);
  // Warm the process-wide plan cache first: a cold call runs
  // calibration/warm-up packs, and the single fire must land in the
  // handle's materialized storage, not in a throwaway buffer.
  { const auto warm = core::smm_prepack_b<float>(prob.b.cview(), 24, 1, opts); }
  {
    ScopedFault fault(FaultSite::kPackBitFlip, {0, 1, 0xBAD});
    const auto handle =
        core::smm_prepack_b<float>(prob.b.cview(), /*m=*/24, 1, opts);
    ASSERT_TRUE(handle.materialized());
    handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
    const robust::ChecksumReport cr = robust::verify_gemm_checksum<float>(
        1.0f, prob.a.cview(), prob.b.cview(), 0.0f, nullptr, 24,
        prob.c.cview(), /*tolerance_scale=*/64.0);
    EXPECT_FALSE(cr.ok) << "corrupted prepack passed verification";
  }
  // A clean handle over the same B verifies.
  const auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), /*m=*/24, 1, opts);
  handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
  const robust::ChecksumReport cr = robust::verify_gemm_checksum<float>(
      1.0f, prob.a.cview(), prob.b.cview(), 0.0f, nullptr, 24,
      prob.c.cview(), /*tolerance_scale=*/64.0);
  EXPECT_TRUE(cr.ok);
  prob.reference(1.0f, 0.0f);
  EXPECT_TRUE(prob.check(12));
}

}  // namespace
}  // namespace smm
