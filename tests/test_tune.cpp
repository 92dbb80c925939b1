// smm::tune — the observed-cost sampler (DESIGN.md §14): mode knob,
// sampling/EWMA mechanics, the explicit-options gate, and the tuner's
// feedback into service admission budgets.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/plan/native_executor.h"
#include "src/robust/health.h"
#include "src/service/smm_service.h"
#include "src/tune/tune.h"
#include "tests/test_helpers.h"

namespace smm::tune {
namespace {

/// Every test in this binary touches process-wide knobs (the mode
/// override, the global tuner, health counters); scrub them on both
/// sides so tests stay order-independent.
class TuneTest : public ::testing::Test {
 protected:
  void SetUp() override { scrub(); }
  void TearDown() override { scrub(); }
  static void scrub() {
    set_mode_override(Mode::kAuto);
    tuner().reset();
    robust::health().reset();
  }
};

ShapeClass cls(index_t m, index_t n, index_t k) {
  return ShapeClass{m, n, k, /*scalar=*/0, /*nthreads=*/1};
}

// ---- mode knob -------------------------------------------------------------

TEST_F(TuneTest, ModeOverrideWinsAndAutoReturnsToEnv) {
  const Mode env = mode();  // whatever SMMKIT_AUTOTUNE resolves to
  set_mode_override(Mode::kObserve);
  EXPECT_EQ(mode(), Mode::kObserve);
  set_mode_override(Mode::kOff);
  EXPECT_EQ(mode(), Mode::kOff);
  set_mode_override(Mode::kAuto);
  EXPECT_EQ(mode(), env);
  EXPECT_STREQ(to_string(Mode::kObserve), "observe");
  EXPECT_STREQ(to_string(Mode::kOff), "off");

  // The knob takes off and observe; anything else, including the retired
  // "adapt", is unparsable and reads as the default, observe.
  const char* saved = std::getenv("SMMKIT_AUTOTUNE");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("SMMKIT_AUTOTUNE", "off", 1);
  EXPECT_EQ(mode_from_env(), Mode::kOff);
  ::setenv("SMMKIT_AUTOTUNE", "observe", 1);
  EXPECT_EQ(mode_from_env(), Mode::kObserve);
  ::setenv("SMMKIT_AUTOTUNE", "adapt", 1);
  EXPECT_EQ(mode_from_env(), Mode::kObserve);
  ::setenv("SMMKIT_AUTOTUNE", "bogus", 1);
  EXPECT_EQ(mode_from_env(), Mode::kObserve);
  if (saved != nullptr)
    ::setenv("SMMKIT_AUTOTUNE", saved_value.c_str(), 1);
  else
    ::unsetenv("SMMKIT_AUTOTUNE");
}

// ---- sampling + EWMA -------------------------------------------------------

TEST_F(TuneTest, SamplePeriodGatesTokensAndOffDisablesThem) {
  Tuner t;
  set_mode_override(Mode::kObserve);
  int sampled = 0;
  for (std::uint64_t i = 0; i < 8 * Tuner::kSamplePeriod; ++i)
    if (t.sample_token().sample) ++sampled;
  EXPECT_EQ(sampled, 8);  // exactly 1-in-kSamplePeriod
  set_mode_override(Mode::kOff);
  for (std::uint64_t i = 0; i < 2 * Tuner::kSamplePeriod; ++i)
    EXPECT_FALSE(t.sample_token().sample);
}

TEST_F(TuneTest, EwmaConvergesAndObservedCostNeedsMinSamples) {
  Tuner t;
  set_mode_override(Mode::kObserve);
  const ShapeClass sc = cls(16, 16, 16);
  for (std::uint64_t i = 1; i < Tuner::kMinSamples; ++i)
    t.record(sc, {true}, 1000.0);
  EXPECT_FALSE(t.observed_cost_ns(16, 16, 16, 0, 1).has_value());
  t.record(sc, {true}, 1000.0);
  const auto got = t.observed_cost_ns(16, 16, 16, 0, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_NEAR(*got, 1000.0, 1e-9);
  // One new sample moves the EWMA by kEwmaAlpha of its distance.
  t.record(sc, {true}, 2000.0);
  EXPECT_NEAR(*t.observed_cost_ns(16, 16, 16, 0, 1),
              1000.0 + Tuner::kEwmaAlpha * 1000.0, 1e-9);
  // The any-scalar query (scalar < 0) serves the same class.
  EXPECT_TRUE(t.observed_cost_ns(16, 16, 16, -1, 1).has_value());
  // A different shape/thread budget is a different class: no data.
  EXPECT_FALSE(t.observed_cost_ns(16, 16, 17, 0, 1).has_value());
  EXPECT_FALSE(t.observed_cost_ns(16, 16, 16, 0, 2).has_value());
  EXPECT_EQ(t.samples(), Tuner::kMinSamples + 1);
}

TEST_F(TuneTest, OnlySampledPositiveWallsAreObservations) {
  Tuner t;
  set_mode_override(Mode::kObserve);
  const ShapeClass sc = cls(16, 16, 16);
  t.record(sc, {true}, 500.0);
  // A timing made under a token that said not to sample is dropped.
  t.record(sc, {false}, 9.0e9);
  EXPECT_EQ(t.samples(), 1u);
  // Non-finite and non-positive walls are not observations either.
  t.record(sc, {true}, -1.0);
  t.record(sc, {true}, 0.0);
  t.record(sc, {true}, std::numeric_limits<double>::infinity());
  EXPECT_EQ(t.samples(), 1u);
  // Off records nothing, even under a sampling token.
  set_mode_override(Mode::kOff);
  t.record(sc, {true}, 500.0);
  EXPECT_EQ(t.samples(), 1u);
}

// ---- plan integration ------------------------------------------------------

TEST_F(TuneTest, OffAndObserveLeaveCachedPlanDecisionsUntouched) {
  const GemmShape shape{48, 48, 48};
  // The baseline: what the untouched runtime path builds.
  set_mode_override(Mode::kOff);
  core::PlanCache cache_off(core::reference_smm());
  const auto p_off = core::cached_smm_plan(cache_off, shape,
                                           plan::ScalarType::kF32, 1, {});
  // Observe mode measures but never redecides: bit-identical strategy.
  set_mode_override(Mode::kObserve);
  core::PlanCache cache_obs(core::reference_smm());
  const auto p_obs = core::cached_smm_plan(cache_obs, shape,
                                           plan::ScalarType::kF32, 1, {});
  EXPECT_EQ(p_off->strategy, p_obs->strategy);
  EXPECT_EQ(p_off->strategy, "smm-ref");
  EXPECT_EQ(p_off->nthreads, p_obs->nthreads);
  EXPECT_EQ(p_off->buffers.size(), p_obs->buffers.size());
}

TEST_F(TuneTest, ExplicitPackingOptionsAreNeverOverruled) {
  // The caller pinned packing: the plan is the reference SMM's for those
  // options, and the tuner takes no sample from such calls (they would
  // pollute the class EWMA the default-options traffic is keyed on).
  set_mode_override(Mode::kObserve);
  core::SmmOptions options;
  options.pack_b = core::SmmOptions::Packing::kNever;
  core::PlanCache cache(core::reference_smm());
  const auto p = core::cached_smm_plan(cache, GemmShape{44, 44, 44},
                                       plan::ScalarType::kF32, 1, options);
  EXPECT_EQ(p->strategy, "smm-ref");
  test::GemmProblem<float> prob(44, 44, 44, /*seed=*/12);
  prob.reference(1.0f, 0.0f);
  for (std::uint64_t i = 0; i < 3 * Tuner::kSamplePeriod; ++i)
    core::smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                   prob.c.view(), 1, options);
  EXPECT_TRUE(prob.check());
  EXPECT_EQ(tuner().samples(), 0u);
  // The same traffic under default options is sampled 1-in-N.
  for (std::uint64_t i = 0; i < 3 * Tuner::kSamplePeriod; ++i)
    core::smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                   prob.c.view());
  EXPECT_EQ(tuner().samples(), 3u);
}

// ---- timed executor with cancellation --------------------------------------

TEST_F(TuneTest, TimedExecutorHonorsCancelAndFillsTimings) {
  const GemmShape shape{32, 32, 32};
  set_mode_override(Mode::kOff);
  core::PlanCache cache(core::reference_smm());
  const auto plan = core::cached_smm_plan(cache, shape,
                                          plan::ScalarType::kF32, 1, {});
  test::GemmProblem<float> p(32, 32, 32, /*seed=*/3);
  p.reference(1.0f, 0.0f);
  std::vector<plan::ThreadTiming> timings;
  CancelSource src;
  const CancelToken token = src.token();
  plan::execute_plan_timed(*plan, 1.0f, p.a.cview(), p.b.cview(), 0.0f,
                           p.c.view(), timings, &token);
  EXPECT_TRUE(p.check());
  ASSERT_EQ(timings.size(), static_cast<std::size_t>(plan->nthreads));
  EXPECT_GT(timings[0].total_ns, 0.0);
  // A pre-stopped token rejects before the first op: C untouched.
  Matrix<float> c_before = p.c.clone();
  src.request_cancel();
  EXPECT_THROW(plan::execute_plan_timed(*plan, 1.0f, p.a.cview(),
                                        p.b.cview(), 0.0f, p.c.view(),
                                        timings, &token),
               Error);
  EXPECT_EQ(max_abs_diff(p.c.cview(), c_before.cview()), 0.0);
}

// ---- service budgets -------------------------------------------------------

TEST_F(TuneTest, ServiceBudgetsFollowObservedCostButRoutingDoesNot) {
  set_mode_override(Mode::kObserve);
  service::ServiceOptions options;
  options.shards = 4;
  options.lanes = 1;
  service::SmmService svc(options);
  const index_t m = 72, n = 72, k = 72;
  const double static_est = svc.estimate_cost_ns(m, n, k);
  const int home = svc.route_shard(m, n, k, 0);

  // The tuner observes this class costing 100x the static estimate
  // (scalar=0 here; the service queries scalar-agnostically).
  const ShapeClass sc{m, n, k, 0, options.threads_per_request};
  const double observed = static_est * 100.0;
  for (int i = 0; i < 8; ++i) tuner().record(sc, {true}, observed);

  // Budgets re-read from the tune table; the route must not move.
  EXPECT_NEAR(svc.estimate_cost_ns(m, n, k), observed, observed * 1e-9);
  EXPECT_EQ(svc.route_shard(m, n, k, 0), home);
  // Off switches the budgets back to the static constants.
  set_mode_override(Mode::kOff);
  EXPECT_NEAR(svc.estimate_cost_ns(m, n, k), static_est,
              static_est * 1e-9);
  svc.shutdown();
}

// ---- health ----------------------------------------------------------------

TEST_F(TuneTest, HealthMirrorsSamplesAndReplans) {
  set_mode_override(Mode::kObserve);
  Tuner t;
  for (int i = 0; i < 5; ++i) t.record(cls(20, 20, 80), {true}, 1000.0);
  const auto s = robust::health().snapshot();
  EXPECT_EQ(s.tune_samples, t.samples());
  EXPECT_EQ(s.tune_samples, 5u);
  // Nothing installs plans: the re-plan row never moves.
  EXPECT_EQ(s.tune_replans, 0u);
}

}  // namespace
}  // namespace smm::tune
