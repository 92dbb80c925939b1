// smm::tune — online input-aware autotuning (DESIGN.md §14): mode knob,
// sampling/EWMA mechanics, the explore→commit state machine, persisted
// table hygiene (corrupt/truncated/foreign files rejected and rebuilt),
// the warm start (second process reaches steady state with zero
// re-plans), and the tuner's feedback into service admission budgets.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/core/parallel_cost.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/plan/native_executor.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "src/service/smm_service.h"
#include "src/tune/tune.h"
#include "src/tune/tune_table.h"
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

/// Drive `t` through baseline → explore → commit for `sc`: inflated
/// baseline samples force the divergence trigger, then each trial sample
/// reports a cost derived from the active candidate's spec via `cost`,
/// so the test controls which candidate wins. Returns the committed
/// snapshot.
ClassSnapshot drive_to_commit(Tuner& t, const ShapeClass& sc,
                              double (*cost)(const core::BuildSpec&)) {
  // Baseline: hugely diverged from any prediction.
  for (int i = 0; i < 64; ++i) {
    const auto snaps = t.snapshot_classes();
    if (!snaps.empty() && snaps[0].exploring) break;
    t.record(sc, SampleToken{true, snaps.empty() ? 0u : snaps[0].epoch},
             1.0e9, {});
  }
  // Trials: cost keyed off the installed candidate.
  for (int i = 0; i < 256; ++i) {
    const auto snaps = t.snapshot_classes();
    if (snaps.empty()) break;
    if (snaps[0].committed) break;
    const SampleToken token = t.sample_token(sc);
    if (!token.sample) continue;
    const PlanChoice choice = t.plan_choice(sc);
    t.record(sc, token, choice.has_spec ? cost(choice.spec) : 5.0e8, {});
  }
  const auto snaps = t.snapshot_classes();
  EXPECT_EQ(snaps.size(), 1u);
  EXPECT_TRUE(snaps[0].committed);
  return snaps.empty() ? ClassSnapshot{} : snaps[0];
}

double prefer_small_kc(const core::BuildSpec& spec) {
  return 1000.0 + static_cast<double>(spec.kc);
}

// ---- mode knob -------------------------------------------------------------

TEST_F(TuneTest, ModeOverrideWinsAndAutoReturnsToEnv) {
  const Mode env = mode();  // whatever SMMKIT_AUTOTUNE resolves to
  set_mode_override(Mode::kAdapt);
  EXPECT_EQ(mode(), Mode::kAdapt);
  set_mode_override(Mode::kOff);
  EXPECT_EQ(mode(), Mode::kOff);
  set_mode_override(Mode::kAuto);
  EXPECT_EQ(mode(), env);
  EXPECT_STREQ(to_string(Mode::kObserve), "observe");
  EXPECT_STREQ(to_string(Mode::kAdapt), "adapt");
}

// ---- sampling + EWMA -------------------------------------------------------

TEST_F(TuneTest, SamplePeriodGatesTokensAndOffDisablesThem) {
  Tuner::Options opt;
  opt.sample_period = 8;
  Tuner t(opt);
  set_mode_override(Mode::kObserve);
  const ShapeClass sc = cls(24, 24, 24);
  int sampled = 0;
  for (int i = 0; i < 64; ++i)
    if (t.sample_token(sc).sample) ++sampled;
  EXPECT_EQ(sampled, 8);  // exactly 1-in-8
  set_mode_override(Mode::kOff);
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(t.sample_token(sc).sample);
}

TEST_F(TuneTest, EwmaConvergesAndObservedCostNeedsMinSamples) {
  Tuner::Options opt;
  opt.min_samples = 4;
  opt.ewma_alpha = 0.5;
  Tuner t(opt);
  set_mode_override(Mode::kObserve);
  const ShapeClass sc = cls(16, 16, 16);
  for (int i = 0; i < 3; ++i) t.record(sc, {true, 0}, 1000.0, {});
  EXPECT_FALSE(t.observed_cost_ns(16, 16, 16, 0, 1).has_value());
  t.record(sc, {true, 0}, 1000.0, {});
  const auto got = t.observed_cost_ns(16, 16, 16, 0, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_NEAR(*got, 1000.0, 1e-9);
  // The any-scalar query (scalar < 0) serves the same class.
  EXPECT_TRUE(t.observed_cost_ns(16, 16, 16, -1, 1).has_value());
  // A different shape/thread budget is a different class: no data.
  EXPECT_FALSE(t.observed_cost_ns(16, 16, 17, 0, 1).has_value());
  EXPECT_FALSE(t.observed_cost_ns(16, 16, 16, 0, 2).has_value());
  EXPECT_EQ(t.samples(), 4u);
}

TEST_F(TuneTest, StaleEpochSamplesAreDiscarded) {
  Tuner t;
  set_mode_override(Mode::kObserve);
  const ShapeClass sc = cls(16, 16, 16);
  t.record(sc, {true, 0}, 500.0, {});
  // Epoch 7 never happened for this class: the sample must be dropped.
  t.record(sc, {true, 7}, 9.0e9, {});
  EXPECT_EQ(t.samples(), 1u);
  // Non-finite and non-positive walls are not observations either.
  t.record(sc, {true, 0}, -1.0, {});
  t.record(sc, {true, 0}, 0.0, {});
  EXPECT_EQ(t.samples(), 1u);
}

// ---- explore / commit state machine ----------------------------------------

TEST_F(TuneTest, DivergenceTriggersExploreAndCommitsBestCandidate) {
  set_mode_override(Mode::kAdapt);
  Tuner::Options opt;
  opt.min_samples = 3;
  opt.trial_samples = 2;
  opt.max_candidates = 3;
  Tuner t(opt);
  const ShapeClass sc = cls(64, 64, 64);

  EXPECT_FALSE(t.plan_choice(sc).has_spec);  // unknown class: default
  const ClassSnapshot committed = drive_to_commit(t, sc, prefer_small_kc);

  // The winner is the trialed candidate with the smallest kc (the cost
  // function preferred it), installed as an override under a bumped
  // epoch whose fingerprint perturbs the plan-cache key.
  EXPECT_GT(t.replans(), 0u);
  EXPECT_GT(committed.epoch, 0u);
  const PlanChoice choice = t.plan_choice(sc);
  ASSERT_TRUE(choice.has_spec);
  EXPECT_NE(choice.fingerprint, 0u);
  EXPECT_EQ(choice.spec.kc, committed.spec.kc);
  // Off/observe modes refuse to speak for the plan even when committed.
  set_mode_override(Mode::kOff);
  EXPECT_FALSE(t.plan_choice(sc).has_spec);
  set_mode_override(Mode::kObserve);
  EXPECT_FALSE(t.plan_choice(sc).has_spec);
}

TEST_F(TuneTest, CommittedClassReopensOnDrift) {
  set_mode_override(Mode::kAdapt);
  Tuner::Options opt;
  opt.min_samples = 3;
  opt.trial_samples = 2;
  opt.max_candidates = 2;
  opt.sample_period = 1;  // the drift samples must not be rationed
  Tuner t(opt);
  const ShapeClass sc = cls(32, 32, 96);
  drive_to_commit(t, sc, prefer_small_kc);
  const std::uint64_t replans_before = t.replans();

  // The committed cost drifts 100x: the class must re-open.
  for (int i = 0; i < 32; ++i) {
    const auto snaps = t.snapshot_classes();
    ASSERT_EQ(snaps.size(), 1u);
    if (snaps[0].exploring) break;
    const SampleToken token = t.sample_token(sc);
    if (!token.sample) continue;
    t.record(sc, token, 2.0e8, {});
  }
  EXPECT_TRUE(t.snapshot_classes()[0].exploring);
  EXPECT_GT(t.replans(), replans_before);
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

TEST_F(TuneTest, AdaptServesCommittedWinnerThroughThePlanCache) {
  set_mode_override(Mode::kAdapt);
  const ShapeClass sc = cls(40, 40, 40);
  drive_to_commit(tuner(), sc, prefer_small_kc);
  ASSERT_TRUE(tuner().plan_choice(sc).has_spec);

  core::PlanCache cache(core::reference_smm());
  const auto tuned = core::cached_smm_plan(cache, GemmShape{40, 40, 40},
                                           plan::ScalarType::kF32, 1, {});
  EXPECT_EQ(tuned->strategy, "smm-tuned");
  // The tuned plan must still be correct end to end.
  test::GemmProblem<float> p(40, 40, 40, /*seed=*/11);
  p.reference(1.5f, 0.5f);
  core::smm_gemm(1.5f, p.a.cview(), p.b.cview(), 0.5f, p.c.view());
  EXPECT_TRUE(p.check(40));
  // Dropping back to off re-aliases the default entry, not the winner.
  set_mode_override(Mode::kOff);
  const auto off = core::cached_smm_plan(cache, GemmShape{40, 40, 40},
                                         plan::ScalarType::kF32, 1, {});
  EXPECT_EQ(off->strategy, "smm-ref");
}

TEST_F(TuneTest, ExplicitPackingOptionsAreNeverOverruled) {
  set_mode_override(Mode::kAdapt);
  const ShapeClass sc = cls(44, 44, 44);
  drive_to_commit(tuner(), sc, prefer_small_kc);
  ASSERT_TRUE(tuner().plan_choice(sc).has_spec);
  // The caller pinned packing: the tuner must stand aside.
  core::SmmOptions options;
  options.pack_b = core::SmmOptions::Packing::kNever;
  core::PlanCache cache(core::reference_smm());
  const auto p = core::cached_smm_plan(cache, GemmShape{44, 44, 44},
                                       plan::ScalarType::kF32, 1, options);
  EXPECT_EQ(p->strategy, "smm-ref");
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
  EXPECT_TRUE(p.check(32));
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

// ---- persistence -----------------------------------------------------------

class TableTest : public TuneTest {
 protected:
  void SetUp() override {
    TuneTest::SetUp();
    // One directory per test: ctest -j runs these cases as concurrent
    // processes, and a shared table path lets one case's TearDown remove
    // another's file mid-test.
    dir_ = std::string("tune_test_tables_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0755);
    path_ = Tuner::table_path(dir_);
    std::remove(path_.c_str());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    ::rmdir(dir_.c_str());
    TuneTest::TearDown();
  }
  std::string dir_;
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(TableTest, RoundTripsEntriesAndModel) {
  const MachineFingerprint fp = machine_fingerprint();
  model::ParallelCostModel model = core::calibrated_cost_model();
  std::vector<TableEntry> entries(2);
  entries[0].key = cls(16, 16, 16);
  entries[0].epoch = 3;
  entries[0].has_override = true;
  entries[0].spec.kc = 128;
  entries[0].spec.pack_b = true;
  entries[0].mean_ns = 1234.5;
  entries[0].samples = 40;
  entries[1].key = cls(64, 64, 512);
  entries[1].has_override = false;
  ASSERT_TRUE(write_table(path_, fp, model, entries));

  model::ParallelCostModel got_model;
  std::vector<TableEntry> got;
  ASSERT_EQ(read_table(path_, fp, &got_model, &got), TableStatus::kOk);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].key, entries[0].key);
  EXPECT_EQ(got[0].epoch, 3u);
  EXPECT_TRUE(got[0].has_override);
  EXPECT_EQ(got[0].spec.kc, 128);
  EXPECT_TRUE(got[0].spec.pack_b);
  EXPECT_DOUBLE_EQ(got[0].mean_ns, 1234.5);
  EXPECT_EQ(got[0].samples, 40u);
  EXPECT_FALSE(got[1].has_override);
  EXPECT_EQ(model::cost_model_digest(got_model),
            model::cost_model_digest(model));
}

TEST_F(TableTest, CorruptTruncatedAndForeignTablesAreRejected) {
  const MachineFingerprint fp = machine_fingerprint();
  ASSERT_TRUE(
      write_table(path_, fp, core::calibrated_cost_model(), {}));
  const std::string good = slurp(path_);
  ASSERT_FALSE(good.empty());

  // Missing file.
  model::ParallelCostModel m;
  std::vector<TableEntry> e;
  EXPECT_EQ(read_table(path_ + ".nope", fp, &m, &e),
            TableStatus::kMissing);

  // One flipped payload bit breaks the seal.
  std::string bad = good;
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
  dump(path_, bad);
  EXPECT_EQ(read_table(path_, fp, &m, &e), TableStatus::kCorrupt);

  // A torn write (truncation) breaks it too.
  dump(path_, good.substr(0, good.size() - 5));
  EXPECT_EQ(read_table(path_, fp, &m, &e), TableStatus::kCorrupt);
  dump(path_, good.substr(0, 4));
  EXPECT_EQ(read_table(path_, fp, &m, &e), TableStatus::kCorrupt);

  // Another machine's table: valid seal, wrong fingerprint.
  MachineFingerprint foreign = fp;
  foreign.cores = fp.cores + 8;
  ASSERT_TRUE(
      write_table(path_, foreign, core::calibrated_cost_model(), {}));
  EXPECT_EQ(read_table(path_, fp, &m, &e), TableStatus::kForeign);
  EXPECT_TRUE(e.empty());
}

TEST_F(TableTest, VersionOneTableIsRefusedAndTheModelRecalibrated) {
  // Every older version is refused: a version-1 table carries a
  // dispatch_ns measured before the pool's spin handoff (the parked path,
  // several times slower), a version-2 one specs without host tiles, and
  // a version-3 one constants from batch means that may price a barrier
  // at 1 ns. Build each: write a current table around a recognizable
  // stale constant, then rewrite the version field and reseal, so only
  // the version is wrong.
  const MachineFingerprint fp = machine_fingerprint();
  model::ParallelCostModel stale = model::reference_cost_model();
  stale.dispatch_ns = 18000.5;
  stale.barrier_ns = 1.0;
  stale.measured = true;
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    SCOPED_TRACE(version);
    ASSERT_TRUE(write_table(path_, fp, stale, {}));
    std::string bytes = slurp(path_);
    constexpr std::size_t kVersionOffset = 8;  // after the 8-byte magic
    constexpr std::size_t kSealBytes = sizeof(std::uint64_t);
    ASSERT_GT(bytes.size(),
              kVersionOffset + sizeof(std::uint32_t) + kSealBytes);
    std::memcpy(bytes.data() + kVersionOffset, &version, sizeof(version));
    const std::size_t body = bytes.size() - kSealBytes;
    const std::uint64_t seal =
        integrity::content_checksum(bytes.data(), body);
    std::memcpy(bytes.data() + body, &seal, sizeof(seal));
    dump(path_, bytes);

    model::ParallelCostModel m;
    std::vector<TableEntry> e;
    EXPECT_EQ(read_table(path_, fp, &m, &e), TableStatus::kCorrupt);
    EXPECT_FALSE(m.measured);

    // The tuner refuses it as stale and never seeds the process model
    // from it: the model in force is this process's own measurement.
    Tuner t;
    EXPECT_FALSE(t.load_table(path_));
    EXPECT_EQ(t.table_stale(), 1u);
    const model::ParallelCostModel& live = core::calibrated_cost_model();
    EXPECT_TRUE(live.measured);
    EXPECT_NE(live.dispatch_ns, stale.dispatch_ns);
    EXPECT_GT(live.barrier_ns, stale.barrier_ns);
  }
}

TEST_F(TableTest, LoadRejectsBadTablesAndCountsThemStale) {
  Tuner t;
  // Missing: a cold start, not an anomaly.
  EXPECT_FALSE(t.load_table(path_));
  EXPECT_EQ(t.table_stale(), 0u);
  // Corrupt: rejected, counted, rebuilt from scratch.
  dump(path_, "garbage that is definitely not a tune table");
  const auto stale_before =
      robust::health().snapshot().tune_table_stale;
  EXPECT_FALSE(t.load_table(path_));
  EXPECT_EQ(t.table_stale(), 1u);
  EXPECT_EQ(robust::health().snapshot().tune_table_stale,
            stale_before + 1);
  EXPECT_TRUE(t.snapshot_classes().empty());
}

TEST_F(TableTest, WarmStartReachesSteadyStateWithZeroReplans) {
  // First process: tune, commit, persist.
  set_mode_override(Mode::kAdapt);
  Tuner::Options opt;
  opt.min_samples = 3;
  opt.trial_samples = 2;
  opt.max_candidates = 3;
  opt.table_dir = dir_;
  Tuner first(opt);
  const ShapeClass sc = cls(56, 56, 56);
  const ClassSnapshot committed =
      drive_to_commit(first, sc, prefer_small_kc);
  // The commit itself persisted the table (no explicit save here).
  struct ::stat st{};
  ASSERT_EQ(::stat(path_.c_str(), &st), 0) << "commit did not persist";

  // Second process: loads the table, reaches steady state immediately —
  // zero re-plans, zero exploration, the winner served from call one.
  Tuner second(opt);
  ASSERT_TRUE(second.load_table(path_));
  EXPECT_EQ(second.replans(), 0u);
  EXPECT_GT(second.table_hits(), 0u);
  const auto classes = second.snapshot_classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_TRUE(classes[0].committed);
  EXPECT_TRUE(classes[0].from_table);
  const PlanChoice choice = second.plan_choice(sc);
  ASSERT_TRUE(choice.has_spec);
  EXPECT_EQ(choice.spec.kc, committed.spec.kc);

  // Steady-state traffic at the committed cost: the class must neither
  // re-plan nor re-explore (explored_once came from the table).
  for (int i = 0; i < 200; ++i) {
    const SampleToken token = second.sample_token(sc);
    if (token.sample)
      second.record(sc, token, committed.ewma_ns, {});
  }
  EXPECT_EQ(second.replans(), 0u);
  EXPECT_FALSE(second.snapshot_classes()[0].exploring);
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
  for (int i = 0; i < 8; ++i) tuner().record(sc, {true, 0}, observed, {});

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
  set_mode_override(Mode::kAdapt);
  Tuner::Options opt;
  opt.min_samples = 3;
  opt.trial_samples = 2;
  opt.max_candidates = 2;
  Tuner t(opt);
  drive_to_commit(t, cls(20, 20, 80), prefer_small_kc);
  const auto s = robust::health().snapshot();
  EXPECT_EQ(s.tune_samples, t.samples());
  EXPECT_EQ(s.tune_replans, t.replans());
  EXPECT_GT(s.tune_replans, 0u);
  EXPECT_LE(s.tune_replans, s.tune_samples);
}

}  // namespace
}  // namespace smm::tune
