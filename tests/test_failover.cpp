// smm::failover tests (DESIGN.md §15): the ShardHealth lifecycle state
// machine, the deterministic fallback ring, admission diversion off a
// quarantined home, quarantine drain with zero stranded tickets, the
// routed == Σ routed_per_shard + rerouted invariant, steal gating by
// shard state, kHigh deadline requests coalescing like any other,
// brownout (kLow shed, tune sampling paused, ABFT repair suppressed),
// per-shard quarantine isolation, fork safety with shards > 1, and a
// TSan-facing concurrent quarantine/revive stress. The sustained
// fault-schedule version lives in bench/failover_soak.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/core/smm.h"
#include "src/failover/failover.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "src/service/smm_service.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"
#include "src/tune/tune.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

using failover::FailoverOptions;
using failover::ShardHealth;
using failover::ShardState;
using robust::FaultInjector;
using robust::FaultSite;
using robust::FaultSpec;
using robust::ScopedFault;
using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;
using service::Ticket;

/// robust::health() as the current test began. check_accounting compares
/// each service counter with its mirror's delta since then (deltas, not
/// absolute values: the whole binary may run as one process).
robust::HealthSnapshot health_at_setup;

class FailoverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    health_at_setup = robust::health().snapshot();
    FaultInjector::instance().disarm_all();
    clear_suppressions();
    integrity::set_mode_override(integrity::AbftMode::kAuto);
    heal_pool();
  }
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    clear_suppressions();
    integrity::set_mode_override(integrity::AbftMode::kAuto);
    heal_pool();
  }
  /// Drain any suppression holds a failed test may have leaked (the
  /// holds are counted, so release until the gates read clear).
  static void clear_suppressions() {
    for (int i = 0; i < 64 && tune::sampling_suppressed(); ++i)
      tune::release_sampling_suppression();
    for (int i = 0; i < 64 && integrity::repair_suppressed(); ++i)
      integrity::release_repair_suppression();
  }
  static void heal_pool() {
    for (int i = 0; i < 2; ++i) par::run_parallel(2, [](int) {});
  }
};

/// A ServiceOptions base every multi-shard test starts from: explicit
/// shard/lane counts (independent of SMMKIT_SHARDS), single-threaded
/// requests, no coalesce window.
ServiceOptions failover_options(int shards, int lanes = 1) {
  ServiceOptions options;
  options.shards = shards;
  options.lanes = lanes;
  options.threads_per_request = 1;
  options.coalesce_window_us = 0;
  return options;
}

/// A k (near `k0`) whose m×n×k f64 problem the service homes on shard
/// `want`. Varying k walks the shape-class hash through every shard.
index_t k_homed_on(const SmmService& svc, int want, index_t m, index_t n,
                   index_t k0 = 16) {
  for (index_t k = k0; k < k0 + 512; ++k)
    if (svc.route_shard(m, n, k, /*scalar_id=*/1) == want) return k;
  ADD_FAILURE() << "no k in [" << k0 << ", " << k0 + 512
                << ") homes on shard " << want;
  return k0;
}

/// One SMM_SERVICE_COUNTERS row, as the Stats field and the snapshot
/// field of its Health mirror.
struct MirrorRow {
  const char* name;
  std::size_t SmmService::Stats::*field;
  std::size_t robust::HealthSnapshot::*mirror;
};
#define MIRROR_ROW(field, mirror) \
  {#field, &SmmService::Stats::field, &robust::HealthSnapshot::mirror},
constexpr MirrorRow kMirrorRows[] = {SMM_SERVICE_COUNTERS(MIRROR_ROW)};
#undef MIRROR_ROW

/// Every Stats counter equals its Health mirror's delta since SetUp. A
/// bump lands on the service counter and then on its mirror, so a read
/// that races one may see them apart for an instant: poll until the two
/// views agree, and report the rows that never do.
void check_mirrors(const SmmService& svc) {
  std::vector<std::string> diffs;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(2);
  do {
    diffs.clear();
    const SmmService::Stats s = svc.stats();
    const robust::HealthSnapshot h = robust::health().snapshot();
    for (const MirrorRow& row : kMirrorRows) {
      const std::size_t delta = h.*row.mirror - health_at_setup.*row.mirror;
      if (s.*row.field != delta)
        diffs.push_back(std::string(row.name) + ": stats " +
                        std::to_string(s.*row.field) + ", health delta " +
                        std::to_string(delta));
    }
    if (diffs.empty()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  } while (std::chrono::steady_clock::now() < give_up);
  for (const std::string& d : diffs) ADD_FAILURE() << d;
}

/// `mirrors` = false where a second live service also bumps the
/// process-wide mirrors.
void check_accounting(const SmmService& svc, bool mirrors = true) {
  const SmmService::Stats s = svc.stats();
  EXPECT_EQ(s.submitted, s.admitted + s.rejected);
  EXPECT_EQ(s.submitted, s.routed);
  const std::size_t per_shard =
      std::accumulate(s.routed_per_shard.begin(), s.routed_per_shard.end(),
                      std::size_t{0});
  EXPECT_EQ(s.routed, per_shard + s.rerouted)
      << "routed=" << s.routed << " Σrouted_per_shard=" << per_shard
      << " rerouted=" << s.rerouted;
  const std::size_t admitted_per_shard = std::accumulate(
      s.admitted_per_shard.begin(), s.admitted_per_shard.end(),
      std::size_t{0});
  EXPECT_EQ(s.admitted, admitted_per_shard);
  if (mirrors) check_mirrors(svc);
}

// ---- ShardHealth unit ------------------------------------------------------

TEST_F(FailoverTest, LedgerWalksTheLifecycle) {
  FailoverOptions fo;
  fo.degrade_after = 2;
  fo.quarantine_after = 4;
  fo.quarantine_ms = 5;
  ShardHealth h(fo);
  EXPECT_EQ(h.state(), ShardState::kHealthy);
  EXPECT_TRUE(h.admissible());

  EXPECT_FALSE(h.on_failure());
  EXPECT_EQ(h.state(), ShardState::kHealthy);
  EXPECT_FALSE(h.on_failure());
  EXPECT_EQ(h.state(), ShardState::kDegraded);
  EXPECT_TRUE(h.admissible());  // degraded still serves

  // A success heals a degraded shard and clears the streak.
  h.on_success();
  EXPECT_EQ(h.state(), ShardState::kHealthy);

  // Four straight failures: degraded at 2, quarantined at 4 — and the
  // transition is reported exactly once, on entry.
  EXPECT_FALSE(h.on_failure());
  EXPECT_FALSE(h.on_failure());
  EXPECT_FALSE(h.on_failure());
  EXPECT_TRUE(h.on_failure());
  EXPECT_EQ(h.state(), ShardState::kQuarantined);
  EXPECT_FALSE(h.admissible());
  EXPECT_EQ(h.quarantines(), 1u);
  EXPECT_FALSE(h.on_failure());  // already quarantined: no re-entry

  // Traffic cannot heal a quarantined shard; only the rebuild can.
  h.on_success();
  EXPECT_EQ(h.state(), ShardState::kQuarantined);

  // The hold has not elapsed yet.
  EXPECT_FALSE(h.maybe_begin_rebuild(std::chrono::steady_clock::now()));
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  EXPECT_TRUE(h.maybe_begin_rebuild(std::chrono::steady_clock::now()));
  EXPECT_EQ(h.state(), ShardState::kRebuilding);
  EXPECT_EQ(h.rebuilds(), 1u);
  EXPECT_TRUE(h.admissible());  // the probe readmits traffic

  // A failure during the rebuild probe re-quarantines immediately.
  EXPECT_TRUE(h.on_failure());
  EXPECT_EQ(h.state(), ShardState::kQuarantined);
  EXPECT_EQ(h.quarantines(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  EXPECT_TRUE(h.maybe_begin_rebuild(std::chrono::steady_clock::now()));
  h.on_success();
  EXPECT_EQ(h.state(), ShardState::kHealthy);
}

TEST_F(FailoverTest, AdministrativeHoldOutlivesTheClock) {
  FailoverOptions fo;
  fo.quarantine_ms = 1;
  ShardHealth h(fo);
  EXPECT_TRUE(h.force_quarantine());
  EXPECT_FALSE(h.force_quarantine());  // already held: not an entry
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  // An admin hold never auto-expires into the rebuild probe.
  EXPECT_FALSE(h.maybe_begin_rebuild(std::chrono::steady_clock::now()));
  EXPECT_EQ(h.state(), ShardState::kQuarantined);
  EXPECT_TRUE(h.revive());
  EXPECT_EQ(h.state(), ShardState::kRebuilding);
  EXPECT_FALSE(h.revive());  // only a quarantined shard revives
  h.on_success();
  EXPECT_EQ(h.state(), ShardState::kHealthy);
}

TEST_F(FailoverTest, FallbackRingIsDeterministic) {
  const auto all_but = [](std::vector<int> down) {
    return [down](int idx) {
      for (const int d : down)
        if (d == idx) return false;
      return true;
    };
  };
  EXPECT_EQ(failover::next_on_ring(1, 4, all_but({1})), 2);
  EXPECT_EQ(failover::next_on_ring(1, 4, all_but({1, 2})), 3);
  EXPECT_EQ(failover::next_on_ring(3, 4, all_but({3})), 0);  // wraps
  EXPECT_EQ(failover::next_on_ring(3, 4, all_but({3, 0, 1})), 2);
  // Nobody admissible: the ring hands home back and the caller decides.
  EXPECT_EQ(failover::next_on_ring(2, 4, all_but({0, 1, 2, 3})), 2);
  EXPECT_EQ(failover::next_on_ring(0, 1, all_but({})), 0);
  // Same health vector, same answer — run it twice.
  EXPECT_EQ(failover::next_on_ring(1, 8, all_but({2, 3})),
            failover::next_on_ring(1, 8, all_but({2, 3})));
}

TEST_F(FailoverTest, OptionsReadTheEnvironment) {
  setenv("SMMKIT_SHARD_QUARANTINE", "75", 1);
  FailoverOptions fo = failover::failover_options_from_env();
  EXPECT_EQ(fo.quarantine_ms, 75);
  setenv("SMMKIT_SHARD_QUARANTINE", "garbage", 1);
  FailoverOptions defaults;
  fo = failover::failover_options_from_env();
  EXPECT_EQ(fo.quarantine_ms, defaults.quarantine_ms);  // unparsable: kept
  unsetenv("SMMKIT_SHARD_QUARANTINE");
}

// ---- tune sampling gate (failover noise vs the observed cost) -------------

TEST_F(FailoverTest, SampleTokensStopWhileSuppressed) {
  tune::set_mode_override(tune::Mode::kObserve);
  tune::hold_sampling_suppression();
  EXPECT_TRUE(tune::sampling_suppressed());
  for (int i = 0; i < 512; ++i)
    EXPECT_FALSE(tune::tuner().sample_token().sample)
        << "token issued while suppressed (i=" << i << ")";
  tune::release_sampling_suppression();
  int sampled = 0;
  for (int i = 0; i < 512; ++i)
    if (tune::tuner().sample_token().sample) ++sampled;
  EXPECT_GT(sampled, 0) << "suppression failed to lift";
  tune::set_mode_override(tune::Mode::kAuto);
}

TEST_F(FailoverTest, ScopedSuppressionNestsPerThread) {
  tune::set_mode_override(tune::Mode::kObserve);
  {
    tune::ScopedSampleSuppression outer;
    {
      tune::ScopedSampleSuppression inner;
      EXPECT_TRUE(tune::sampling_suppressed());
    }
    // Still suppressed: the outer scope holds.
    EXPECT_TRUE(tune::sampling_suppressed());
    for (int i = 0; i < 128; ++i)
      EXPECT_FALSE(tune::tuner().sample_token().sample);
  }
  EXPECT_FALSE(tune::sampling_suppressed());
  tune::set_mode_override(tune::Mode::kAuto);
}

// ---- ABFT repair suppression (brownout satellite) --------------------------

TEST_F(FailoverTest, RepairSuppressionCapsCorrectToDetect) {
  integrity::set_mode_override(integrity::AbftMode::kCorrect);
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kCorrect);
  integrity::hold_repair_suppression();
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kDetect);
  // Detection stays armed — only the repair tier is shed.
  integrity::set_mode_override(integrity::AbftMode::kDetect);
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kDetect);
  // An explicit per-call kCorrect is a caller decision, not policy.
  EXPECT_EQ(integrity::resolve(integrity::AbftMode::kCorrect),
            integrity::AbftMode::kCorrect);
  integrity::release_repair_suppression();
  integrity::set_mode_override(integrity::AbftMode::kCorrect);
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kCorrect);
}

TEST_F(FailoverTest, SuppressionHoldsComposeAcrossHolders) {
  // Two independent holders (two browned-out service instances): one
  // releasing — or shutting down — must not lift the other's hold.
  tune::hold_sampling_suppression();
  tune::hold_sampling_suppression();
  tune::release_sampling_suppression();
  EXPECT_TRUE(tune::sampling_suppressed())
      << "one holder's release lifted another's suppression";
  tune::release_sampling_suppression();
  EXPECT_FALSE(tune::sampling_suppressed());
  // Clamped at zero: a stray extra release is a no-op, not a debt the
  // next holder's hold would silently pay off.
  tune::release_sampling_suppression();
  tune::hold_sampling_suppression();
  EXPECT_TRUE(tune::sampling_suppressed());
  tune::release_sampling_suppression();

  integrity::set_mode_override(integrity::AbftMode::kCorrect);
  integrity::hold_repair_suppression();
  integrity::hold_repair_suppression();
  integrity::release_repair_suppression();
  EXPECT_TRUE(integrity::repair_suppressed());
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kDetect);
  integrity::release_repair_suppression();
  EXPECT_FALSE(integrity::repair_suppressed());
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kCorrect);
  integrity::release_repair_suppression();
  integrity::hold_repair_suppression();
  EXPECT_TRUE(integrity::repair_suppressed());
  integrity::release_repair_suppression();
  integrity::set_mode_override(integrity::AbftMode::kAuto);
}

// ---- admission diversion + drain -------------------------------------------

TEST_F(FailoverTest, QuarantinedHomeDivertsAlongTheRing) {
  SmmService svc(failover_options(4));
  const index_t k = k_homed_on(svc, 2, 24, 24);
  test::GemmProblem<double> p(24, 24, k, 91);
  p.reference(1.0, 0.0);

  svc.quarantine_shard(2);
  EXPECT_EQ(svc.shard_state(2), ShardState::kQuarantined);
  const Result& r =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(p.check());

  SmmService::Stats s = svc.stats();
  EXPECT_GE(s.rerouted, 1u);
  EXPECT_GE(s.shard_quarantines, 1u);
  check_accounting(svc);

  // Revive: the shard rebuilds and its first clean completion heals it.
  svc.revive_shard(2);
  EXPECT_EQ(svc.shard_state(2), ShardState::kRebuilding);
  const Result& probe =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  ASSERT_TRUE(probe.ok) << probe.message;
  EXPECT_EQ(svc.shard_state(2), ShardState::kHealthy);
  EXPECT_GE(svc.stats().shard_rebuilds, 1u);
  check_accounting(svc);
  svc.shutdown();
}

TEST_F(FailoverTest, QuarantineDrainStrandsNothing) {
  ServiceOptions options = failover_options(2);
  options.queue_depth = 64;
  SmmService svc(options);
  const int home = 0;
  const index_t k = k_homed_on(svc, home, 24, 24);
  test::GemmProblem<double> p(24, 24, k, 92);
  p.reference(1.0, 0.0);

  // Park the home shard's only lane on a long batch homed there, then
  // stack requests behind it.
  const index_t kb = k_homed_on(svc, home, 96, 96, 80);
  test::GemmProblem<double> big(96, 96, kb, 93);
  std::vector<service::BatchItem<double>> blocker_items;
  std::vector<Matrix<double>> blocker_cs;
  blocker_cs.reserve(40);
  for (int i = 0; i < 40; ++i) {
    blocker_cs.emplace_back(96, 96);
    blocker_items.push_back(
        {big.a.cview(), big.b.cview(), blocker_cs.back().view()});
  }
  // The batch's own route hash need not land on `home`; what matters is
  // the queued singles below, which provably do.
  Ticket busy = svc.submit_batch(1.0, blocker_items, 0.0);
  std::vector<Matrix<double>> cs;
  std::vector<Ticket> queued;
  cs.reserve(8);
  for (int i = 0; i < 8; ++i) {
    cs.emplace_back(24, 24);
    Matrix<double>& c = cs.back();
    for (index_t jj = 0; jj < 24; ++jj)
      for (index_t ii = 0; ii < 24; ++ii) c(ii, jj) = p.c_expected(ii, jj) * 0;
    queued.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, c.view()));
  }

  svc.quarantine_shard(home);
  // Every ticket reaches a terminal state: the queued ones re-route to
  // shard 1 and complete there (or, if they were already running,
  // finish where they were) — nothing waits on a quarantined queue.
  for (auto& t : queued) {
    const Result& r = t.wait();
    EXPECT_TRUE(r.ok) << r.message;
  }
  EXPECT_TRUE(busy.wait().ok);
  for (auto& c : cs)  // beta == 0: the pre-image is not read
    EXPECT_TRUE(test::within_forward_error_bound(
        1.0, p.a.cview(), p.b.cview(), 0.0, p.c.cview(), c.cview()));
  check_accounting(svc);
  svc.drain();
  const SmmService::Stats s = svc.stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  svc.shutdown();
}

// ---- steal gating ----------------------------------------------------------

TEST_F(FailoverTest, QuarantinedShardDoesNotSteal) {
  ServiceOptions options = failover_options(2);
  SmmService svc(options);
  // Shard 1 is quarantined and idle; shard 0 gets a deep backlog. The
  // only possible thief is shard 1 — gated, so steals must stay zero.
  svc.quarantine_shard(1);
  const index_t k = k_homed_on(svc, 0, 32, 32);
  test::GemmProblem<double> p(32, 32, k, 94);
  std::vector<Ticket> tickets;
  for (int i = 0; i < 24; ++i)
    tickets.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  for (auto& t : tickets) EXPECT_TRUE(t.wait().ok);
  EXPECT_EQ(svc.stats().steals, 0u);
  check_accounting(svc);
  svc.shutdown();
}

// ---- kHigh deadline requests coalesce -------------------------------------

TEST_F(FailoverTest, HighPriorityDeadlineRequestsCoalesce) {
  // On a multi-shard service a kHigh request with a deadline is an
  // ordinary request: same-shape ones queued together on their home
  // shard run as one coalesced dispatch, and each beta-accumulation
  // reads its own C's pre-image exactly once.
  constexpr int kRequests = 4;
  constexpr int home = 0;
  // Operands outlive the service: a failed assertion must not free
  // storage that queued requests still point at.
  std::optional<test::GemmProblem<double>> p;
  std::optional<test::GemmProblem<double>> blocker;
  std::vector<Matrix<double>> cs;
  ServiceOptions options = failover_options(2);
  // Route through the worker pool (two threads, static split) so an
  // injected hang can park the home lane inside its blocker.
  options.threads_per_request = 2;
  options.gemm.thread_scaling = core::SmmOptions::ThreadScaling::kStatic;
  SmmService svc(options);
  // Runs before ~SmmService, which would otherwise wait on a parked lane.
  struct ReleaseHangs {
    ~ReleaseHangs() { robust::cancel_injected_hangs(); }
  } release_hangs;

  const index_t k = k_homed_on(svc, home, 32, 32);
  p.emplace(32, 32, k, 106);
  p->reference(1.0, 0.5);
  const index_t kb = k_homed_on(svc, home, 64, 64, 64);
  blocker.emplace(64, 64, kb, 107);

  // Park the peer lane too: a quarantined shard never steals, so no
  // thief can split the group that queues on `home` below.
  svc.quarantine_shard(1 - home);

  // Hold the home lane inside a pooled region on a hung worker, then
  // queue the same-shape requests behind it.
  robust::reset_injected_hangs();
  Ticket busy;
  {
    ScopedFault hang(FaultSite::kWorkerHang,
                     FaultSpec{/*fire_after=*/0, /*max_fires=*/1});
    busy = svc.submit(1.0, blocker->a.cview(), blocker->b.cview(), 0.0,
                      blocker->c.view());
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    while (robust::HangController::instance().waiting() == 0 &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    ASSERT_EQ(robust::HangController::instance().waiting(), 1);
  }
  std::vector<Ticket> tickets;
  cs.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    cs.push_back(p->c.clone());  // the pre-image the reference read
    tickets.push_back(svc.submit(1.0, p->a.cview(), p->b.cview(), 0.5,
                                 cs.back().view(), Priority::kHigh,
                                 /*deadline_ms=*/2000));
  }
  EXPECT_EQ(svc.stats().queued, static_cast<std::size_t>(kRequests));

  robust::cancel_injected_hangs();
  for (auto& t : tickets) {
    const Result& r = t.wait();
    EXPECT_TRUE(r.ok) << r.message;
  }
  for (const auto& c : cs)
    EXPECT_TRUE(test::within_forward_error_bound(
        1.0, p->a.cview(), p->b.cview(), 0.5, p->c.cview(), c.cview()));
  EXPECT_TRUE(busy.wait_for(std::chrono::seconds(10)));
  robust::reset_injected_hangs();

  svc.drain();
  const SmmService::Stats s = svc.stats();
  EXPECT_EQ(s.coalesced_groups, 1u);
  EXPECT_EQ(s.coalesced_items, static_cast<std::size_t>(kRequests));
  EXPECT_EQ(s.steals, 0u);
  check_accounting(svc);
  svc.shutdown();
}

// ---- brownout --------------------------------------------------------------

TEST_F(FailoverTest, MajorityQuarantineEntersAndExitsBrownout) {
  SmmService svc(failover_options(3));
  EXPECT_FALSE(svc.in_brownout());
  svc.quarantine_shard(0);
  EXPECT_FALSE(svc.in_brownout());  // 2 of 3 still admissible
  svc.quarantine_shard(1);
  EXPECT_TRUE(svc.in_brownout());  // 1 of 3: minority service
  EXPECT_TRUE(tune::sampling_suppressed());
  integrity::set_mode_override(integrity::AbftMode::kCorrect);
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kDetect);

  // kLow is shed at the door regardless of queue fill; kNormal and
  // kHigh still get the surviving capacity.
  test::GemmProblem<double> p(24, 24, 24, 98);
  p.reference(1.0, 0.0);
  const Result& low = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                                 p.c.view(), Priority::kLow)
                          .wait();
  ASSERT_FALSE(low.ok);
  EXPECT_EQ(low.code, ErrorCode::kOverloaded);
  const Result& normal =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  ASSERT_TRUE(normal.ok) << normal.message;
  EXPECT_TRUE(p.check());
  EXPECT_GE(svc.stats().brownouts, 1u);
  EXPECT_GE(svc.stats().shed, 1u);

  // Reviving one shard restores the majority and lifts the brownout.
  svc.revive_shard(0);
  EXPECT_FALSE(svc.in_brownout());
  EXPECT_FALSE(tune::sampling_suppressed());
  EXPECT_EQ(integrity::mode(), integrity::AbftMode::kCorrect);
  const Result& low2 = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                                  p.c.view(), Priority::kLow)
                           .wait();
  EXPECT_TRUE(low2.ok) << low2.message;
  check_accounting(svc);
  svc.shutdown();
  integrity::set_mode_override(integrity::AbftMode::kAuto);
}

// ---- per-shard quarantine isolation ----------------------------------------

TEST_F(FailoverTest, OneSickShardQuarantinesOnlyItself) {
  ServiceOptions options = failover_options(2);
  options.threads_per_request = 2;  // route through the worker pool
  options.failover.degrade_after = 1;
  options.failover.quarantine_after = 2;
  options.failover.quarantine_ms = 30;
  SmmService svc(options);
  const int sick = 0;
  const index_t ks = k_homed_on(svc, sick, 64, 64);
  const index_t kh = k_homed_on(svc, 1, 64, 64);
  test::GemmProblem<double> ps(64, 64, ks, 99);
  test::GemmProblem<double> ph(64, 64, kh, 100);
  ph.reference(1.0, 0.0);

  // Warm both shapes so the failing runs fail in execution, not build.
  ASSERT_TRUE(
      svc.submit(1.0, ps.a.cview(), ps.b.cview(), 0.0, ps.c.view())
          .wait()
          .ok);
  ASSERT_TRUE(
      svc.submit(1.0, ph.a.cview(), ph.b.cview(), 0.0, ph.c.view())
          .wait()
          .ok);

  {
    ScopedFault fault(FaultSite::kWorkerThrow,
                      FaultSpec{/*fire_after=*/0, /*max_fires=*/4});
    for (int i = 0; i < 2; ++i) {
      const Result& r =
          svc.submit(1.0, ps.a.cview(), ps.b.cview(), 0.0, ps.c.view())
              .wait();
      ASSERT_FALSE(r.ok);
    }
  }
  // Two infra failures on shard 0's own traffic: its ledger quarantines
  // it — the sibling's ledger never hears about it.
  EXPECT_EQ(svc.shard_state(sick), ShardState::kQuarantined);
  EXPECT_EQ(svc.shard_state(1), ShardState::kHealthy);
  EXPECT_GE(svc.stats().shard_quarantines, 1u);

  // Healthy-shard traffic flows; sick-homed traffic diverts and flows.
  const Result& healthy =
      svc.submit(1.0, ph.a.cview(), ph.b.cview(), 0.0, ph.c.view()).wait();
  EXPECT_TRUE(healthy.ok) << healthy.message;
  const Result& diverted =
      svc.submit(1.0, ps.a.cview(), ps.b.cview(), 0.0, ps.c.view()).wait();
  EXPECT_TRUE(diverted.ok) << diverted.message;
  EXPECT_GE(svc.stats().rerouted, 1u);

  // The quarantine expires into the rebuild probe, and clean traffic
  // heals the shard end to end.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  const auto wait_until = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(500);
  while (svc.shard_state(sick) == ShardState::kQuarantined &&
         std::chrono::steady_clock::now() < wait_until)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_NE(svc.shard_state(sick), ShardState::kQuarantined);
  const Result& probe =
      svc.submit(1.0, ps.a.cview(), ps.b.cview(), 0.0, ps.c.view()).wait();
  EXPECT_TRUE(probe.ok) << probe.message;
  EXPECT_EQ(svc.shard_state(sick), ShardState::kHealthy);
  EXPECT_GE(svc.stats().shard_rebuilds, 1u);
  check_accounting(svc);
  svc.shutdown();
}

// ---- one shard: a one-domain failure domain --------------------------------

TEST_F(FailoverTest, SingleShardRunsTheFullFailureDomainLifecycle) {
  // Operands outlive the service: a failed assertion must not free
  // storage that queued requests still point at.
  test::GemmProblem<double> p(24, 24, 24, 101);
  p.reference(1.0, 0.0);
  test::GemmProblem<double> blocker(64, 64, 64, 102);
  std::vector<Matrix<double>> cs;
  ServiceOptions options = failover_options(1);
  // Route through the worker pool: two threads, and the static split so
  // a loaded host's calibration cannot plan the blocker serial.
  options.threads_per_request = 2;
  options.gemm.thread_scaling = core::SmmOptions::ThreadScaling::kStatic;
  SmmService svc(options);
  // Runs before ~SmmService, which would otherwise wait on a parked lane.
  struct ReleaseHangs {
    ~ReleaseHangs() { robust::cancel_injected_hangs(); }
  } release_hangs;
  EXPECT_EQ(svc.shard_state(0), ShardState::kHealthy);

  // Hold the only lane inside a pooled region on a hung worker (released
  // below, long before the 30 s watchdog), then queue work behind it.
  robust::reset_injected_hangs();
  Ticket busy;
  {
    ScopedFault hang(FaultSite::kWorkerHang,
                     FaultSpec{/*fire_after=*/0, /*max_fires=*/1});
    busy = svc.submit(1.0, blocker.a.cview(), blocker.b.cview(), 0.0,
                      blocker.c.view());
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    while (robust::HangController::instance().waiting() == 0 &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
    ASSERT_EQ(robust::HangController::instance().waiting(), 1);
  }
  std::vector<Ticket> queued;
  cs.reserve(6);
  for (int i = 0; i < 6; ++i) {
    cs.emplace_back(24, 24);
    queued.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, cs.back().view()));
  }
  EXPECT_EQ(svc.stats().queued, queued.size());

  // Quarantine: with no fallback domain the queue is evicted, new work
  // is refused at the door, and the sole domain down is a majority
  // outage — brownout.
  svc.quarantine_shard(0);
  EXPECT_EQ(svc.shard_state(0), ShardState::kQuarantined);
  EXPECT_TRUE(svc.in_brownout());
  for (auto& t : queued) {
    ASSERT_TRUE(t.done());
    EXPECT_EQ(t.wait().code, ErrorCode::kOverloaded) << t.wait().message;
  }
  SmmService::Stats s = svc.stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.evicted, queued.size());
  const Result& refused =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, ErrorCode::kOverloaded);
  check_accounting(svc);

  // In-flight work runs to its terminal state where it is.
  robust::cancel_injected_hangs();
  EXPECT_TRUE(busy.wait_for(std::chrono::seconds(10)));
  robust::reset_injected_hangs();

  // Revive, then a clean probe heals the shard.
  svc.revive_shard(0);
  EXPECT_EQ(svc.shard_state(0), ShardState::kRebuilding);
  EXPECT_FALSE(svc.in_brownout());
  const Result& probe =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  ASSERT_TRUE(probe.ok) << probe.message;
  EXPECT_TRUE(p.check());
  EXPECT_EQ(svc.shard_state(0), ShardState::kHealthy);

  // kHigh with deadline slack runs like any other request.
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(),
                           Priority::kHigh, /*deadline_ms=*/2000)
                    .wait()
                    .ok);
  EXPECT_TRUE(p.check());
  s = svc.stats();
  EXPECT_EQ(s.rerouted, 0u);
  EXPECT_EQ(s.shard_quarantines, 1u);
  EXPECT_EQ(s.shard_rebuilds, 1u);
  EXPECT_EQ(s.brownouts, 1u);
  check_accounting(svc);
  svc.shutdown();
}

TEST_F(FailoverTest, AnotherServicesPoolQuarantineLeavesASingleShardAlone) {
  // A one-shard service runs on the process-wide pool; a two-shard
  // service in the same process runs on private pools.
  SmmService single(failover_options(1));
  test::GemmProblem<double> p(24, 24, 24, 104);
  p.reference(1.0, 0.0);
  ASSERT_TRUE(
      single.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait().ok);

  // Private pools read their watchdog deadline at construction: a short
  // one turns the hung worker below into a pool quarantine quickly.
  const char* old_timeout = std::getenv("SMMKIT_POOL_TIMEOUT_MS");
  const std::string saved = old_timeout != nullptr ? old_timeout : "";
  setenv("SMMKIT_POOL_TIMEOUT_MS", "150", 1);
  ServiceOptions options = failover_options(2);
  // Route through the private pools (static split: see above).
  options.threads_per_request = 2;
  options.gemm.thread_scaling = core::SmmOptions::ThreadScaling::kStatic;
  SmmService sharded(options);
  if (old_timeout != nullptr) {
    setenv("SMMKIT_POOL_TIMEOUT_MS", saved.c_str(), 1);
  } else {
    unsetenv("SMMKIT_POOL_TIMEOUT_MS");
  }

  robust::reset_injected_hangs();
  const std::size_t before = robust::health().snapshot().pool_quarantines;
  test::GemmProblem<double> q(64, 64, 64, 105);
  {
    ScopedFault hang(FaultSite::kWorkerHang,
                     FaultSpec{/*fire_after=*/0, /*max_fires=*/1});
    const Result& r =
        sharded.submit(1.0, q.a.cview(), q.b.cview(), 0.0, q.c.view())
            .wait();
    EXPECT_FALSE(r.ok);
  }
  robust::cancel_injected_hangs();
  robust::reset_injected_hangs();
  ASSERT_GE(robust::health().snapshot().pool_quarantines, before + 1);

  // The quarantined pool belongs to the other service: the one-shard
  // service keeps admitting, stays healthy and refuses nothing.
  for (int i = 0; i < 2; ++i) {
    const Result& r =
        single.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view())
            .wait();
    EXPECT_TRUE(r.ok) << r.message;
  }
  EXPECT_TRUE(p.check());
  EXPECT_EQ(single.shard_state(0), ShardState::kHealthy);
  EXPECT_EQ(single.stats().quarantine_rejections, 0u);
  check_accounting(single, /*mirrors=*/false);  // `sharded` counts too
  sharded.shutdown();
  single.shutdown();
}

// ---- fork safety with shards > 1 (satellite) -------------------------------

TEST_F(FailoverTest, ForkedChildRunsGemmAndMultiShardService) {
  // Warm everything fork() endangers in the parent: the process pool,
  // per-shard private pools, the supervisor thread.
  test::GemmProblem<double> p(32, 32, 32, 103);
  p.reference(1.0, 0.0);
  core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 2);
  ASSERT_TRUE(p.check());
  {
    SmmService warm(failover_options(2));
    ASSERT_TRUE(
        warm.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view())
            .wait()
            .ok);
    warm.shutdown();
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: the atfork handlers reset the inherited pool state; both a
    // parallel smm_gemm and a fresh multi-shard service (private pools,
    // supervisor) must work. _exit keeps gtest/atexit machinery out.
    int status = 0;
    try {
      test::GemmProblem<double> q(32, 32, 32, 103);
      q.reference(1.0, 0.0);
      core::smm_gemm(1.0, q.a.cview(), q.b.cview(), 0.0, q.c.view(), 2);
      if (!q.check()) status |= 1;
      ServiceOptions options;
      options.shards = 2;
      options.lanes = 1;
      options.threads_per_request = 1;
      SmmService svc(options);
      test::GemmProblem<double> r(24, 24, 24, 104);
      r.reference(1.0, 0.0);
      if (!svc.submit(1.0, r.a.cview(), r.b.cview(), 0.0, r.c.view(),
                      Priority::kHigh, /*deadline_ms=*/2000)
               .wait()
               .ok)
        status |= 2;
      if (!r.check()) status |= 4;
      svc.shutdown();
    } catch (...) {
      status |= 8;
    }
    _exit(status);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  // Parent unaffected.
  core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 2);
}

// ---- concurrent stress (TSan) ----------------------------------------------

TEST_F(FailoverTest, ConcurrentQuarantineReviveStress) {
  ServiceOptions options = failover_options(3, /*lanes=*/2);
  options.queue_depth = 128;
  options.failover.quarantine_ms = 5;
  SmmService svc(options);

  std::atomic<bool> stop{false};
  std::atomic<int> ok{0};
  std::atomic<int> refused{0};
  const auto worker = [&](int seed) {
    test::GemmProblem<double> p(24, 24, 24, 200 + seed);
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const Priority prio = i % 3 == 0   ? Priority::kHigh
                            : i % 3 == 1 ? Priority::kNormal
                                         : Priority::kLow;
      const long deadline = prio == Priority::kHigh ? 2000 : 0;
      const Result& r = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                                   p.c.view(), prio, deadline)
                            .wait();
      if (r.ok)
        ok.fetch_add(1, std::memory_order_relaxed);
      else
        refused.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) workers.emplace_back(worker, t);

  // Fault driver: rolling quarantines (sometimes two at once — a
  // brownout window), then revives, against live traffic.
  for (int round = 0; round < 12; ++round) {
    const int a = round % 3;
    svc.quarantine_shard(a);
    if (round % 4 == 0) svc.quarantine_shard((a + 1) % 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    svc.revive_shard(a);
    svc.revive_shard((a + 1) % 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  svc.drain();

  EXPECT_GT(ok.load(), 0);
  const SmmService::Stats s = svc.stats();
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  EXPECT_GE(s.shard_quarantines, 12u);
  check_accounting(svc);
  // Every submission reached exactly one terminal.
  EXPECT_EQ(static_cast<std::size_t>(ok.load() + refused.load()),
            s.submitted);
  svc.shutdown();
}

}  // namespace
}  // namespace smm
