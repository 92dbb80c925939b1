// smm::resilient tests (DESIGN.md §16): the exhaustive ErrorCode ->
// RetryClass table, token-bucket retry-budget accounting, the AIMD
// limiter's decrease/probe cycle, retries that recover injected transient
// faults (idempotent with beta != 0 — C is restored from the submit-time
// snapshot before every resubmission), the O(µs) dry-budget fast-fail, the
// deadline pricing that refuses to resubmit doomed work, env-knob
// parsing, and a TSan-clean concurrent execute/retry/cancel stress.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/resilient/resilient.h"
#include "src/resilient/retry_class.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/service/smm_service.h"
#include "src/threading/thread_pool.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

using resilient::AdaptiveLimiter;
using resilient::classify;
using resilient::ResilientClient;
using resilient::ResilientOptions;
using resilient::RetryBudget;
using resilient::RetryClass;
using robust::FaultInjector;
using robust::FaultSite;
using robust::FaultSpec;
using robust::ScopedFault;
using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;

class ResilientTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    heal_pool();
  }
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    heal_pool();
  }
  static void heal_pool() {
    for (int i = 0; i < 2; ++i) par::run_parallel(2, [](int) {});
  }
};

// ---- classification table --------------------------------------------------

// The compile-time guarantee the table exists for: classify is constexpr
// and total over the enum (retry_class.h static_asserts exhaustiveness
// against kErrorCodeCount, so an unclassified new code fails the build).
static_assert(classify(ErrorCode::kOverloaded) ==
              RetryClass::kRetryableAfterBackoff);
static_assert(classify(ErrorCode::kWorkerPanic) == RetryClass::kRetryable);
static_assert(classify(ErrorCode::kBadShape) == RetryClass::kFatal);

TEST(RetryClassTest, EveryCodeHasAClass) {
  for (int i = 0; i < kErrorCodeCount; ++i) {
    const RetryClass c = classify(static_cast<ErrorCode>(i));
    EXPECT_TRUE(c == RetryClass::kRetryable ||
                c == RetryClass::kRetryableAfterBackoff ||
                c == RetryClass::kFatal)
        << "code " << to_string(static_cast<ErrorCode>(i));
  }
}

TEST(RetryClassTest, SemanticsSpotChecks) {
  // Transient one-offs: retry immediately.
  EXPECT_EQ(classify(ErrorCode::kWorkerPanic), RetryClass::kRetryable);
  EXPECT_EQ(classify(ErrorCode::kPoolTimeout), RetryClass::kRetryable);
  EXPECT_EQ(classify(ErrorCode::kChecksumMismatch), RetryClass::kRetryable);
  // Capacity signals: back off first or the retry amplifies the spike.
  EXPECT_EQ(classify(ErrorCode::kOverloaded),
            RetryClass::kRetryableAfterBackoff);
  EXPECT_EQ(classify(ErrorCode::kAlloc), RetryClass::kRetryableAfterBackoff);
  EXPECT_EQ(classify(ErrorCode::kArenaExhausted),
            RetryClass::kRetryableAfterBackoff);
  // Deterministic/terminal: never retry.
  EXPECT_EQ(classify(ErrorCode::kPrecondition), RetryClass::kFatal);
  EXPECT_EQ(classify(ErrorCode::kAlias), RetryClass::kFatal);
  EXPECT_EQ(classify(ErrorCode::kNonFinite), RetryClass::kFatal);
  EXPECT_EQ(classify(ErrorCode::kCancelled), RetryClass::kFatal);
  EXPECT_EQ(classify(ErrorCode::kDeadlineExceeded), RetryClass::kFatal);
  EXPECT_EQ(classify(ErrorCode::kShuttingDown), RetryClass::kFatal);
  // The budget refusal must not re-enter the retry loop it guards.
  EXPECT_EQ(classify(ErrorCode::kRetryBudgetExhausted), RetryClass::kFatal);
}

// ---- retry budget ----------------------------------------------------------

TEST(RetryBudgetTest, TokensEarnSpendAndClamp) {
  RetryBudget bucket(/*initial_tokens=*/0.0);
  EXPECT_FALSE(bucket.try_acquire());  // dry from the start
  // Four first attempts at a 25% fraction mint exactly one retry token
  // (0.25 is exactly representable; 10 x 0.1 would land at 0.999...).
  for (int i = 0; i < 3; ++i) bucket.earn(0.25, 8.0);
  EXPECT_FALSE(bucket.try_acquire());
  bucket.earn(0.25, 8.0);
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_FALSE(bucket.try_acquire());  // spent
  // The cap bounds the burst no matter how much traffic minted.
  for (int i = 0; i < 10000; ++i) bucket.earn(0.25, 8.0);
  EXPECT_NEAR(bucket.tokens(), 8.0, 1e-9);
  int spends = 0;
  while (bucket.try_acquire()) ++spends;
  EXPECT_EQ(spends, 8);
}

TEST(RetryBudgetTest, StartsWithItsInitialAllowance) {
  RetryBudget bucket(2.0);
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_FALSE(bucket.try_acquire());
  bucket.reset(1.0);
  EXPECT_TRUE(bucket.try_acquire());
  EXPECT_FALSE(bucket.try_acquire());
}

// ---- AIMD limiter ----------------------------------------------------------

TEST(AdaptiveLimiterTest, MultiplicativeDecreaseAndAdditiveProbe) {
  robust::health().reset();
  AdaptiveLimiter::Options options;
  options.min_limit = 2;
  options.max_limit = 32;
  options.decrease_factor = 0.5;
  options.dip_cooldown_us = 0;  // every overload dips (no episode merge)
  AdaptiveLimiter limiter(options);
  EXPECT_EQ(limiter.limit(), 32);

  limiter.on_overload();
  EXPECT_EQ(limiter.limit(), 16);
  limiter.on_overload();
  limiter.on_overload();
  limiter.on_overload();
  EXPECT_EQ(limiter.limit(), 2);
  limiter.on_overload();  // clamped at min_limit
  EXPECT_EQ(limiter.limit(), 2);
  EXPECT_EQ(limiter.dips(), 5u);
  EXPECT_EQ(robust::health().snapshot().limiter_dips, 5u);

  // Additive increase: ~limit successes buy one slot.
  for (int i = 0; i < 3; ++i) limiter.on_success();
  EXPECT_EQ(limiter.limit(), 3);
  robust::health().reset();
}

TEST(AdaptiveLimiterTest, CooldownMergesOneCongestionEpisode) {
  AdaptiveLimiter::Options options;
  options.max_limit = 32;
  options.dip_cooldown_us = 60'000'000;  // one dip per test run, at most
  AdaptiveLimiter limiter(options);
  limiter.on_overload();
  limiter.on_overload();
  limiter.on_overload();
  EXPECT_EQ(limiter.limit(), 16);  // the burst dipped once
  EXPECT_EQ(limiter.dips(), 1u);
}

TEST(AdaptiveLimiterTest, AcquireBlocksAtTheWindowAndTimesOut) {
  AdaptiveLimiter::Options options;
  options.min_limit = 1;
  options.max_limit = 1;
  AdaptiveLimiter limiter(options);
  const auto now = std::chrono::steady_clock::now();
  ASSERT_TRUE(limiter.acquire(now, /*has_deadline=*/false));
  EXPECT_EQ(limiter.in_flight(), 1);
  // Window full: a deadlined acquire gives up (and takes no slot).
  EXPECT_FALSE(limiter.acquire(
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5),
      /*has_deadline=*/true));
  EXPECT_EQ(limiter.in_flight(), 1);
  // A release hands the slot to a blocked acquirer.
  std::thread waiter([&] {
    ASSERT_TRUE(limiter.acquire(std::chrono::steady_clock::now() +
                                    std::chrono::seconds(10),
                                /*has_deadline=*/true));
    limiter.release();
  });
  limiter.release();
  waiter.join();
  EXPECT_EQ(limiter.in_flight(), 0);
}

TEST(AdaptiveLimiterTest, NonAdaptivePinsTheLimit) {
  AdaptiveLimiter::Options options;
  options.max_limit = 8;
  options.adaptive = false;
  AdaptiveLimiter limiter(options);
  limiter.on_overload();
  limiter.on_overload();
  EXPECT_EQ(limiter.limit(), 8);
  EXPECT_EQ(limiter.dips(), 0u);
}

// ---- env knobs -------------------------------------------------------------

TEST(ResilientEnvTest, KnobsApplyAndMalformedValuesAreIgnored) {
  ::setenv("SMMKIT_RETRY_MAX_ATTEMPTS", "7", 1);
  ::setenv("SMMKIT_BACKOFF_BASE_US", "750", 1);
  ::setenv("SMMKIT_RETRY_BUDGET", "0.25", 1);
  ::setenv("SMMKIT_CLIENT_LIMIT", "12", 1);
  ResilientOptions opts = resilient::resilient_options_from_env();
  EXPECT_EQ(opts.max_attempts, 7);
  EXPECT_EQ(opts.backoff_base_us, 750);
  EXPECT_NEAR(opts.retry_budget_fraction, 0.25, 1e-12);
  EXPECT_EQ(opts.max_concurrency, 12);

  // Malformed values are ignored (uniform common/env policy): the
  // previous value survives, nothing throws at startup.
  ::setenv("SMMKIT_RETRY_MAX_ATTEMPTS", "seven", 1);
  ::setenv("SMMKIT_BACKOFF_BASE_US", "-5", 1);
  ::setenv("SMMKIT_RETRY_BUDGET", "1.5", 1);  // out of [0,1]
  ::setenv("SMMKIT_CLIENT_LIMIT", "12x", 1);  // trailing garbage
  opts = resilient::resilient_options_from_env();
  EXPECT_EQ(opts.max_attempts, 4);
  EXPECT_EQ(opts.backoff_base_us, 200);
  EXPECT_NEAR(opts.retry_budget_fraction, 0.1, 1e-12);
  EXPECT_EQ(opts.max_concurrency, 0);

  ::unsetenv("SMMKIT_RETRY_MAX_ATTEMPTS");
  ::unsetenv("SMMKIT_BACKOFF_BASE_US");
  ::unsetenv("SMMKIT_RETRY_BUDGET");
  ::unsetenv("SMMKIT_CLIENT_LIMIT");
}

// ---- end-to-end retries ----------------------------------------------------

TEST_F(ResilientTest, RetryRecoversATransientWorkerPanic) {
  robust::health().reset();
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.threads_per_request = 2;  // route through the worker pool
  SmmService svc(options);
  // Warm the shape with a throwaway problem so the injected failure
  // lands in execution, not plan build.
  {
    test::GemmProblem<double> warm(64, 64, 64, 44);
    ASSERT_TRUE(svc.submit(1.0, warm.a.cview(), warm.b.cview(), 0.0,
                           warm.c.view())
                    .wait()
                    .ok);
  }
  test::GemmProblem<double> fresh(64, 64, 64, 301);
  fresh.reference(1.0, 0.0);

  RetryBudget bucket(4.0);
  ResilientOptions ropts;
  ropts.backoff_base_us = 50;
  ResilientClient client(svc, ropts, &bucket);
  ScopedFault fault(FaultSite::kWorkerThrow,
                    FaultSpec{/*fire_after=*/0, /*max_fires=*/1});
  const Result r = client.execute(1.0, fresh.a.cview(), fresh.b.cview(), 0.0,
                                  fresh.c.view());
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(fresh.check(64));
  const auto stats = client.stats();
  EXPECT_GE(stats.retries, 1u);
  EXPECT_GE(stats.retry_successes, 1u);
  const auto h = robust::health().snapshot();
  EXPECT_GE(h.retry_attempts, 1u);
  EXPECT_GE(h.retry_successes, 1u);
  EXPECT_LE(h.retry_successes, h.retry_attempts);
  svc.shutdown();
  robust::health().reset();
}

TEST_F(ResilientTest, RetryIsIdempotentWithNonZeroBeta) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.threads_per_request = 2;
  SmmService svc(options);
  // Warm the shape with a throwaway problem so the fault cannot land in
  // plan build (where it would fail both attempts the same way).
  {
    test::GemmProblem<double> warm(48, 48, 48, 55);
    ASSERT_TRUE(svc.submit(1.0, warm.a.cview(), warm.b.cview(), 0.0,
                           warm.c.view())
                    .wait()
                    .ok);
  }
  test::GemmProblem<double> p(48, 48, 48, 302);
  p.reference(1.25, 0.5);  // oracle reads the entry-time C exactly once

  RetryBudget bucket(4.0);
  ResilientOptions ropts;
  ropts.backoff_base_us = 50;
  ResilientClient client(svc, ropts, &bucket);
  ScopedFault fault(FaultSite::kWorkerThrow,
                    FaultSpec{/*fire_after=*/0, /*max_fires=*/1});
  const Result r =
      client.execute(1.25, p.a.cview(), p.b.cview(), 0.5, p.c.view());
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_GE(client.stats().retries, 1u);
  // One application of alpha*A*B + beta*C0, not two: the client restored
  // the snapshot before resubmitting, so beta read the original C.
  EXPECT_TRUE(p.check(48));
  svc.shutdown();
}

TEST_F(ResilientTest, DryBudgetFailsFastWithoutBackoffSleep) {
  robust::health().reset();
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.threads_per_request = 2;
  SmmService svc(options);
  test::GemmProblem<double> p(48, 48, 48, 303);
  ASSERT_TRUE(
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait().ok);

  RetryBudget dry(0.0);
  ResilientOptions ropts;
  ropts.retry_budget_fraction = 0.0;  // nothing mints; the bucket stays dry
  ropts.backoff_base_us = 200'000;    // 200ms — a sleep would be visible
  ropts.backoff_cap_us = 400'000;
  ResilientClient client(svc, ropts, &dry);
  ScopedFault fault(FaultSite::kWorkerThrow,
                    FaultSpec{/*fire_after=*/0, /*max_fires=*/64});
  const auto t0 = std::chrono::steady_clock::now();
  const Result r =
      client.execute(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kRetryBudgetExhausted) << r.message;
  // The refusal is typed and O(µs) past the failed attempt itself: the
  // budget gate runs before any backoff sleep (200ms here would fail
  // this bound on its own).
  EXPECT_LT(elapsed_ms, 100);
  EXPECT_GE(client.stats().budget_exhausted, 1u);
  EXPECT_EQ(client.stats().retries, 0u);
  EXPECT_GE(robust::health().snapshot().retry_budget_exhausted, 1u);
  svc.shutdown();
  robust::health().reset();
}

TEST_F(ResilientTest, DeadlinePricingRefusesDoomedResubmission) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.queue_depth = 1;
  SmmService svc(options);
  // Saturate the single lane and its one queue slot with high-priority
  // blockers so a kNormal arrival is shed with kOverloaded — the
  // kRetryableAfterBackoff class whose planned sleep the pricing gate
  // weighs against the remaining deadline.
  test::GemmProblem<double> big1(256, 256, 256, 310);
  test::GemmProblem<double> big2(256, 256, 256, 311);
  service::Ticket b1 = svc.submit(1.0, big1.a.cview(), big1.b.cview(), 0.0,
                                  big1.c.view(), Priority::kHigh);
  // b2 must find the slot free: wait until the lane has popped b1, or b2
  // is refused at the full queue and the slot is empty again.
  while (svc.stats().in_flight == 0 && !b1.done()) std::this_thread::yield();
  service::Ticket b2 = svc.submit(1.0, big2.a.cview(), big2.b.cview(), 0.0,
                                  big2.c.view(), Priority::kHigh);

  RetryBudget bucket(16.0);
  ResilientOptions ropts;
  ropts.max_attempts = 10;
  // Every retry would sleep exactly 40ms (cap pins the jitter), so a
  // 25ms deadline can afford none of them once the first attempt has
  // been refused: the pricing gate must return the last error instead
  // of sleeping into certain lateness.
  ropts.backoff_base_us = 40'000;
  ropts.backoff_cap_us = 40'000;
  ResilientClient client(svc, ropts, &bucket);
  test::GemmProblem<double> p(48, 48, 48, 304);
  const auto t0 = std::chrono::steady_clock::now();
  const Result r = client.execute(1.0, p.a.cview(), p.b.cview(), 0.0,
                                  p.c.view(), Priority::kNormal,
                                  /*deadline_ms=*/25);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kOverloaded) << r.message;
  EXPECT_GE(client.stats().deadline_gated, 1u);
  EXPECT_EQ(client.stats().retries, 0u);  // never resubmitted doomed work
  EXPECT_LT(elapsed_ms, 200) << "retry loop overran the deadline budget";
  b1.wait();
  b2.wait();
  svc.shutdown();
}

// ---- health invariant + concurrent stress ----------------------------------

TEST_F(ResilientTest, ConcurrentExecuteRetryCancelStress) {
  robust::health().reset();
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 2;
  options.queue_depth = 16;
  options.threads_per_request = 2;
  SmmService svc(options);
  // Warm up.
  {
    test::GemmProblem<double> warm(32, 32, 32, 77);
    ASSERT_TRUE(svc.submit(1.0, warm.a.cview(), warm.b.cview(), 0.0,
                           warm.c.view())
                    .wait()
                    .ok);
  }
  RetryBudget bucket(8.0);
  ResilientOptions ropts;
  ropts.max_attempts = 3;
  ropts.backoff_base_us = 100;
  ropts.backoff_cap_us = 500;
  ResilientClient client(svc, ropts, &bucket);

  constexpr int kClients = 3;
  constexpr int kIters = 40;
  std::atomic<std::size_t> ok{0}, failed_unexpected{0};
  {
    // Intermittent worker faults while resilient executes race raw
    // submit+cancel traffic on the same service. Every failure must
    // carry one of the expected typed codes — never a torn result.
    ScopedFault fault(FaultSite::kWorkerThrow,
                      FaultSpec{/*fire_after=*/5, /*max_fires=*/40});
    std::vector<std::thread> threads;
    for (int w = 0; w < kClients; ++w) {
      threads.emplace_back([&, w] {
        test::GemmProblem<double> p(32, 32, 32,
                                    500 + static_cast<std::uint64_t>(w));
        for (int i = 0; i < kIters; ++i) {
          const Result r = client.execute(1.0, p.a.cview(), p.b.cview(),
                                          0.0, p.c.view(),
                                          static_cast<Priority>(i % 3),
                                          /*deadline_ms=*/200);
          if (r.ok) {
            ok.fetch_add(1);
          } else if (r.code != ErrorCode::kWorkerPanic &&
                     r.code != ErrorCode::kOverloaded &&
                     r.code != ErrorCode::kDeadlineExceeded &&
                     r.code != ErrorCode::kCancelled &&
                     r.code != ErrorCode::kRetryBudgetExhausted) {
            failed_unexpected.fetch_add(1);
          }
        }
      });
    }
    // Raw ticket traffic with cancels, sharing the service.
    std::thread canceller([&] {
      test::GemmProblem<double> p(32, 32, 32, 999);
      for (int i = 0; i < 2 * kIters; ++i) {
        service::Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                                       p.c.view(), Priority::kLow,
                                       /*deadline_ms=*/100);
        if (i % 2 == 0) t.cancel();
        t.wait();
      }
    });
    for (auto& t : threads) t.join();
    canceller.join();
  }
  EXPECT_EQ(failed_unexpected.load(), 0u);
  // With the fault disarmed the client must recover — a shard may
  // still be quarantined for a while (kOverloaded refusals), but a fresh
  // execute eventually succeeds. A dead-ended client here would mean
  // the storm left the stack wedged.
  heal_pool();
  bucket.reset(8.0);
  bool recovered = false;
  test::GemmProblem<double> p(32, 32, 32, 1234);
  p.reference(1.0, 0.0);
  const auto recover_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < recover_deadline) {
    const Result r =
        client.execute(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
    if (r.ok) {
      recovered = true;
      EXPECT_TRUE(p.check(32));
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered) << "client never recovered after the fault window";
  svc.shutdown();
  const auto h = robust::health().snapshot();
  EXPECT_LE(h.retry_successes, h.retry_attempts);
  robust::health().reset();
  (void)ok;
}

}  // namespace
}  // namespace smm
