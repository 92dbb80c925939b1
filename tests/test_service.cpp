// smm::service tests (DESIGN.md §11): deadline/cancel corners through the
// cancellable execution stack, admission control (depth, cost budget,
// watermark shedding, priority eviction), the circuit breaker's
// trip → half-open → recover cycle, drain/shutdown lifecycle (including
// the no-live-pool-threads promise), fork safety after warm-up, the
// check_finite input screen, and a TSan-clean concurrent submit/cancel
// stress. The sustained 4×-overload version lives in bench/overload_soak.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/error.h"
#include "src/common/fork_guard.h"
#include "src/core/batched.h"
#include "src/core/smm.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/service/circuit_breaker.h"
#include "src/service/smm_service.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

using robust::FaultInjector;
using robust::FaultSite;
using robust::FaultSpec;
using robust::ScopedFault;
using service::BreakerState;
using service::CircuitBreaker;
using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;
using service::Ticket;

class ServiceTest : public ::testing::Test {
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

/// A batch request big enough to occupy a single-lane service for tens of
/// milliseconds — the deterministic way to keep later submissions queued.
struct Blocker {
  Matrix<double> a{96, 96};
  Matrix<double> b{96, 96};
  std::vector<Matrix<double>> cs;
  std::vector<service::BatchItem<double>> items;

  explicit Blocker(int n = 60) {
    Rng rng(7);
    a.fill_random(rng);
    b.fill_random(rng);
    cs.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      cs.emplace_back(96, 96);
      items.push_back({a.cview(), b.cview(), cs.back().view()});
    }
  }
};

// ---- cancel token ----------------------------------------------------------

TEST_F(ServiceTest, CancelTokenReportsCancelBeforeDeadline) {
  CancelSource src(std::chrono::steady_clock::now() -
                   std::chrono::milliseconds(1));
  const CancelToken token = src.token();
  EXPECT_TRUE(token.expired());
  src.request_cancel();
  // Explicit cancel wins even with a lapsed deadline.
  try {
    token.throw_if_stopped();
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

TEST_F(ServiceTest, DefaultTokenIsInert) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_NO_THROW(token.throw_if_stopped());
}

TEST_F(ServiceTest, ExpiredTokenStopsSmmGemmWithCUntouched) {
  test::GemmProblem<double> p(24, 24, 24, 11);
  const CancelSource src(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
  try {
    core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 1,
                   core::SmmOptions{}, src.token());
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  // Stop observed before the first op: C still holds its seed values.
  EXPECT_EQ(max_abs_diff(p.c.cview(), p.c_expected.cview()), 0.0);
}

TEST_F(ServiceTest, CancelledTokenFailsBatchedSmmBeforeAnyItem) {
  test::GemmProblem<double> p(16, 16, 16, 12);
  std::vector<core::GemmBatchItem<double>> items{
      {p.a.cview(), p.b.cview(), p.c.view()}};
  CancelSource src;
  src.request_cancel();
  const CancelToken token = src.token();
  try {
    core::batched_smm(1.0, items, 0.0, core::default_plan_cache(), 1,
                      &token);
    FAIL() << "expected kCancelled";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
  EXPECT_EQ(max_abs_diff(p.c.cview(), p.c_expected.cview()), 0.0);
}

// ---- deadlines through the service -----------------------------------------

TEST_F(ServiceTest, AlreadyExpiredDeadlineFailsAtFirstCheck) {
  SmmService svc;
  test::GemmProblem<double> p(32, 32, 32, 21);
  // deadline_ms = 1: expired long before the lane reaches it is not
  // guaranteed — so pre-cancel the clock by waiting out the deadline
  // before the queue can drain is racy. Instead use a 1 ms deadline and
  // sleep past it with the request already terminal or queued; both
  // terminal paths must report kDeadlineExceeded with C untouched.
  Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(),
                        Priority::kNormal, /*deadline_ms=*/1);
  const Result& r = t.wait();
  if (!r.ok) {
    EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded) << r.message;
    EXPECT_EQ(max_abs_diff(p.c.cview(), p.c_expected.cview()), 0.0);
  }
  svc.shutdown();
}

TEST_F(ServiceTest, DeadlineExpiresWhileQueued) {
  ServiceOptions options;
  options.shards = 1;  // single queue: the blocker provably blocks
  options.lanes = 1;
  SmmService svc(options);
  Blocker blocker;
  Ticket busy = svc.submit_batch(1.0, blocker.items, 0.0);
  test::GemmProblem<double> p(32, 32, 32, 22);
  // The blocker occupies the only lane for tens of ms; a 1 ms deadline
  // lapses while this request waits in the queue.
  Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(),
                        Priority::kNormal, /*deadline_ms=*/1);
  const Result& r = t.wait();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded) << r.message;
  // Queued-but-unstarted: C untouched.
  EXPECT_EQ(max_abs_diff(p.c.cview(), p.c_expected.cview()), 0.0);
  EXPECT_TRUE(busy.wait().ok);
  EXPECT_GE(svc.stats().deadline_misses, 1u);
  svc.shutdown();
}

TEST_F(ServiceTest, DeadlineExpiresMidExecution) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  SmmService svc(options);
  Blocker blocker(200);  // a couple hundred ms of work in one request
  Ticket t = svc.submit_batch(1.0, blocker.items, 0.0, Priority::kNormal,
                              /*deadline_ms=*/5);
  const Result& r = t.wait();
  ASSERT_FALSE(r.ok);
  // The op-boundary checks catch the lapse mid-run (or, if the lane was
  // slow to start, while queued) — either way the typed code survives
  // the parallel aggregation.
  EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded) << r.message;
  svc.shutdown();
}

TEST_F(ServiceTest, SubmittedWorkComputesCorrectResult) {
  SmmService svc;
  test::GemmProblem<double> p(48, 40, 56, 23);
  p.reference(1.5, 0.5);
  Ticket t = svc.submit(1.5, p.a.cview(), p.b.cview(), 0.5, p.c.view());
  const Result& r = t.wait();
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_TRUE(p.check(56));
  svc.shutdown();
}

TEST_F(ServiceTest, SubmitBatchPacksSharedBOnce) {
  // Every submit_batch request carries a live token; the batch must
  // still take the pack-once path (all items share one shape and
  // literally the same B view).
  SmmService svc;
  constexpr std::size_t kBatch = 8;
  std::vector<test::GemmProblem<double>> probs;
  probs.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    probs.emplace_back(32, 30, 32, 700 + static_cast<unsigned>(i));
  for (std::size_t i = 1; i < kBatch; ++i) probs[i].b = probs[0].b.clone();
  std::vector<service::BatchItem<double>> items;
  for (auto& p : probs) {
    p.reference(1.0, 0.0);
    items.push_back({p.a.cview(), probs[0].b.cview(), p.c.view()});
  }
  const std::size_t reuse_before =
      robust::health().snapshot().batched_prepack_reuse;
  Ticket t = svc.submit_batch(1.0, items, 0.0, Priority::kNormal,
                              /*deadline_ms=*/60000);
  const Result& r = t.wait();
  ASSERT_TRUE(r.ok) << r.message;
  for (auto& p : probs) EXPECT_TRUE(p.check(32));
  EXPECT_EQ(robust::health().snapshot().batched_prepack_reuse,
            reuse_before + kBatch);
  svc.shutdown();
}

// ---- timed ticket waits (DESIGN.md §16) ------------------------------------

TEST_F(ServiceTest, WaitForTimesOutOnInFlightWorkThenSeesCompletion) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  SmmService svc(options);
  Blocker blocker;
  Ticket busy = svc.submit_batch(1.0, blocker.items, 0.0);
  test::GemmProblem<double> p(32, 32, 32, 61);
  p.reference(1.0, 0.0);
  Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  // Queued behind tens of ms of blocker: a 1 ms wait must time out and
  // leave the ticket live (still cancellable / re-waitable).
  EXPECT_FALSE(t.wait_for(std::chrono::milliseconds(1)));
  EXPECT_TRUE(t.valid());
  EXPECT_FALSE(t.done());
  // The timeout-then-complete race: keep issuing short timed waits until
  // one observes the terminal state. Each timed-out wait must leave the
  // ticket intact for the next.
  bool done = false;
  for (int i = 0; i < 10000 && !done; ++i)
    done = t.wait_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(done);
  EXPECT_TRUE(t.done());
  EXPECT_TRUE(t.wait().ok);  // no longer blocks
  EXPECT_TRUE(p.check(32));
  EXPECT_TRUE(busy.wait().ok);
  svc.shutdown();
}

TEST_F(ServiceTest, WaitUntilInThePastReportsTerminalStateOnly) {
  SmmService svc;
  test::GemmProblem<double> p(24, 24, 24, 62);
  Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  t.wait();
  // Already terminal: a lapsed deadline still returns true immediately.
  EXPECT_TRUE(t.wait_until(std::chrono::steady_clock::now() -
                           std::chrono::seconds(1)));
  EXPECT_TRUE(t.wait_for(std::chrono::seconds(0)));
  svc.shutdown();
}

TEST_F(ServiceTest, InvalidTicketTimedWaitReturnsImmediately) {
  const Ticket t;
  ASSERT_FALSE(t.valid());
  // Matches wait(): an invalid ticket never blocks; the Result carries
  // the error, the timed wait just reports "terminal".
  EXPECT_TRUE(t.wait_for(std::chrono::hours(1)));
  EXPECT_TRUE(t.wait_until(std::chrono::steady_clock::now() +
                           std::chrono::hours(1)));
}

// ---- admission control -----------------------------------------------------

TEST_F(ServiceTest, QueueDepthRejectsWithOverloaded) {
  ServiceOptions options;
  options.shards = 1;  // depth/shedding tests exercise ONE shard's queue;
  options.lanes = 1;   // stealing peers would drain it nondeterministically
  options.queue_depth = 2;
  options.shed_low_watermark = 1.0;  // isolate the depth gate
  options.shed_high_watermark = 1.0;
  SmmService svc(options);
  Blocker blocker;
  Ticket busy = svc.submit_batch(1.0, blocker.items, 0.0);
  // Wait until the blocker is in flight so the queue is empty.
  while (svc.stats().in_flight == 0 && !busy.done())
    std::this_thread::yield();

  test::GemmProblem<double> p(32, 32, 32, 31);
  std::vector<Ticket> fill;
  for (int i = 0; i < 2; ++i)
    fill.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  const auto t0 = std::chrono::steady_clock::now();
  Ticket rejected =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  const auto reject_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  const Result& r = rejected.wait();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kOverloaded) << r.message;
  // O(µs) rejection: no plan work on the submit path. Generous bound —
  // single-core CI machines schedule coarsely.
  EXPECT_LT(reject_us, 20000);
  EXPECT_GE(svc.stats().rejected, 1u);
  for (auto& t : fill) t.wait();
  busy.wait();
  svc.shutdown();
}

TEST_F(ServiceTest, WatermarkShedsLowPriorityFirst) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.queue_depth = 4;
  options.shed_low_watermark = 0.5;
  options.shed_high_watermark = 0.8;
  SmmService svc(options);
  Blocker blocker;
  Ticket busy = svc.submit_batch(1.0, blocker.items, 0.0);
  while (svc.stats().in_flight == 0 && !busy.done())
    std::this_thread::yield();

  test::GemmProblem<double> p(32, 32, 32, 32);
  std::vector<Ticket> queued;
  for (int i = 0; i < 2; ++i)
    queued.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  // fill = 2/4 = 0.5 >= low watermark: kLow is shed, kNormal still fits.
  Ticket low = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(),
                          Priority::kLow);
  ASSERT_FALSE(low.wait().ok);
  EXPECT_EQ(low.wait().code, ErrorCode::kOverloaded);
  queued.push_back(
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  // fill = 3/4 = 0.75 < high watermark: one more kNormal fits; then the
  // queue is full and a kHigh arrival evicts the newest kNormal.
  queued.push_back(
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  Ticket high = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(),
                           Priority::kHigh);
  std::size_t evicted = 0;
  for (auto& t : queued)
    if (!t.wait().ok && t.wait().code == ErrorCode::kOverloaded) ++evicted;
  EXPECT_EQ(evicted, 1u);
  EXPECT_GE(svc.stats().shed, 1u);     // the watermark-shed kLow
  EXPECT_EQ(svc.stats().evicted, 1u);  // the displaced kNormal
  // Eviction is post-admission: the submission partition stays exact.
  EXPECT_EQ(svc.stats().submitted,
            svc.stats().admitted + svc.stats().rejected);
  busy.wait();
  high.wait();
  svc.shutdown();
}

TEST_F(ServiceTest, EnvWatermarksUnorderedPairIsIgnored) {
  // low > high would make the SmmService ctor throw; an env
  // misconfiguration must be dropped as a whole instead (matching the
  // "unparsable values are ignored" contract), and an ordered pair must
  // still apply.
  ASSERT_EQ(setenv("SMMKIT_SHED_LOW_WATERMARK", "0.9", 1), 0);
  ASSERT_EQ(setenv("SMMKIT_SHED_HIGH_WATERMARK", "0.4", 1), 0);
  ServiceOptions base;
  const ServiceOptions unordered = service::service_options_from_env(base);
  EXPECT_EQ(unordered.shed_low_watermark, base.shed_low_watermark);
  EXPECT_EQ(unordered.shed_high_watermark, base.shed_high_watermark);
  SmmService svc(unordered);  // must not throw
  svc.shutdown();

  ASSERT_EQ(setenv("SMMKIT_SHED_LOW_WATERMARK", "0.25", 1), 0);
  ASSERT_EQ(setenv("SMMKIT_SHED_HIGH_WATERMARK", "0.75", 1), 0);
  const ServiceOptions ordered = service::service_options_from_env(base);
  EXPECT_EQ(ordered.shed_low_watermark, 0.25);
  EXPECT_EQ(ordered.shed_high_watermark, 0.75);

  unsetenv("SMMKIT_SHED_LOW_WATERMARK");
  unsetenv("SMMKIT_SHED_HIGH_WATERMARK");
}

TEST_F(ServiceTest, CostBudgetBoundsQueueAccumulation) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  // Budget below the predicted cost of two queued 32³ requests but above
  // one — so the queue holds exactly one while a blocker runs.
  const SmmService probe;  // for the cost model constants
  const double unit = probe.estimate_cost_ns(32, 32, 32);
  options.cost_budget_ns = 1.5 * unit;
  SmmService svc(options);
  Blocker blocker;
  Ticket busy = svc.submit_batch(1.0, blocker.items, 0.0);
  while (svc.stats().in_flight == 0 && !busy.done())
    std::this_thread::yield();

  test::GemmProblem<double> p(32, 32, 32, 33);
  Ticket first =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  Ticket second =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  const Result& r = second.wait();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kOverloaded) << r.message;
  first.wait();
  busy.wait();
  svc.shutdown();
}

TEST_F(ServiceTest, OversizedRequestAdmittedWhenQueueEmpty) {
  ServiceOptions options;
  options.shards = 1;
  options.cost_budget_ns = 1.0;  // smaller than any request's estimate
  SmmService svc(options);
  test::GemmProblem<double> p(32, 32, 32, 34);
  p.reference(1.0, 0.0);
  // The budget bounds accumulation, not request size: an empty queue
  // admits even a request that alone exceeds it.
  Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view());
  EXPECT_TRUE(t.wait().ok) << t.wait().message;
  EXPECT_TRUE(p.check(32));
  svc.shutdown();
}

// ---- circuit breaker -------------------------------------------------------

TEST_F(ServiceTest, BreakerUnitTripHalfOpenRecover) {
  CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.open_for = std::chrono::milliseconds(30);
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
  breaker.on_failure();
  breaker.on_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.allow());
  EXPECT_EQ(breaker.trips(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(breaker.allow());  // this caller is the half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.allow());  // probe slot taken
  breaker.on_failure();           // probe fails: straight back to open
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(breaker.allow());
  breaker.on_neutral();  // a cancelled probe frees the slot undecided
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());
  breaker.on_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST_F(ServiceTest, ServiceBreakerTripsOnRepeatedFailuresAndRecovers) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.threads_per_request = 2;  // route through the worker pool
  options.breaker.failure_threshold = 2;
  options.breaker.open_for = std::chrono::milliseconds(50);
  SmmService svc(options);
  test::GemmProblem<double> p(64, 64, 64, 41);

  // Warm the shape so the failing runs fail in execution, not plan build.
  EXPECT_TRUE(
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait().ok);

  {
    ScopedFault fault(FaultSite::kWorkerThrow,
                      FaultSpec{/*fire_after=*/0, /*max_fires=*/64});
    for (int i = 0; i < 2; ++i) {
      const Result& r =
          svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view())
              .wait();
      ASSERT_FALSE(r.ok);
      EXPECT_EQ(r.code, ErrorCode::kWorkerPanic) << r.message;
    }
    EXPECT_EQ(svc.shard_breaker_state(0), BreakerState::kOpen);
    // Open breaker: rejected at admission with kOverloaded, counted.
    const Result& rejected =
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
    ASSERT_FALSE(rejected.ok);
    EXPECT_EQ(rejected.code, ErrorCode::kOverloaded);
    EXPECT_GE(svc.stats().breaker_rejections, 1u);
  }

  // Fault gone; after open_for the next request is the half-open probe
  // and its success closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const Result& probe =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  EXPECT_TRUE(probe.ok) << probe.message;
  EXPECT_EQ(svc.shard_breaker_state(0), BreakerState::kClosed);
  svc.shutdown();
}

// ---- lifecycle -------------------------------------------------------------

TEST_F(ServiceTest, CancelDuringDrainCompletesQueuedAsCancelled) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  SmmService svc(options);
  Blocker blocker;
  Ticket busy = svc.submit_batch(1.0, blocker.items, 0.0);
  test::GemmProblem<double> p(32, 32, 32, 51);
  std::vector<Ticket> queued;
  for (int i = 0; i < 3; ++i)
    queued.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));

  std::thread drainer([&] { svc.drain(); });
  for (auto& t : queued) t.cancel();
  drainer.join();

  // drain() returned: every admitted request is terminal, and the
  // cancelled ones report kCancelled with C untouched.
  EXPECT_TRUE(busy.done());
  for (auto& t : queued) {
    ASSERT_TRUE(t.done());
    const Result& r = t.wait();
    if (!r.ok) EXPECT_EQ(r.code, ErrorCode::kCancelled) << r.message;
  }
  EXPECT_GE(svc.stats().cancellations, 1u);
  // Draining service refuses new work.
  const Result& late =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  ASSERT_FALSE(late.ok);
  EXPECT_EQ(late.code, ErrorCode::kShuttingDown);
  svc.shutdown();
}

TEST_F(ServiceTest, ShutdownCompletesAdmittedWorkAndReleasesPoolThreads) {
  ServiceOptions options;
  options.shards = 1;  // exercises the legacy process-wide pool promise
  options.lanes = 2;
  options.threads_per_request = 2;  // make the pool spawn workers
  std::vector<Ticket> tickets;
  test::GemmProblem<double> p(48, 48, 48, 52);
  // Two lanes execute two requests concurrently, so each request needs
  // its own C — sharing p.c across submissions would be a data race.
  std::vector<Matrix<double>> cs;
  for (int i = 0; i < 6; ++i) cs.emplace_back(48, 48);
  {
    SmmService svc(options);
    for (int i = 0; i < 6; ++i)
      tickets.push_back(svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                                   cs[static_cast<std::size_t>(i)].view()));
    svc.shutdown();
    for (auto& t : tickets) EXPECT_TRUE(t.done());
    // The pool below the service holds zero live threads.
    EXPECT_EQ(par::WorkerPool::instance().live_threads(), 0);
  }
  // The pool lazily respawns for the next user.
  par::run_parallel(2, [](int) {});
  EXPECT_GT(par::WorkerPool::instance().live_threads(), 0);
}

TEST_F(ServiceTest, ReleaseThreadsIsReentrantWithPoolUse) {
  auto& pool = par::WorkerPool::instance();
  par::run_parallel(3, [](int) {});
  EXPECT_GT(pool.live_threads(), 0);
  pool.release_threads();
  EXPECT_EQ(pool.live_threads(), 0);
  pool.release_threads();  // idempotent
  EXPECT_EQ(pool.live_threads(), 0);
  std::atomic<int> ran{0};
  par::run_parallel(3, [&](int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 3);
}

// ---- fork safety -----------------------------------------------------------

TEST_F(ServiceTest, ForkedChildAfterWarmupRunsSmmGemm) {
  // Warm everything fork() endangers: parked pool workers, the watchdog,
  // the process-wide plan caches.
  test::GemmProblem<double> p(32, 32, 32, 61);
  p.reference(1.0, 0.0);
  core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 2);
  ASSERT_TRUE(p.check(32));
  ASSERT_GT(par::WorkerPool::instance().live_threads(), 0);
  ASSERT_GE(common::fork_handler_count(), 2u);

  const std::size_t resets_before =
      robust::health().snapshot().fork_resets;
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: single-threaded, inherited pool/cache state reset by the
    // atfork handlers. A parallel smm_gemm must spawn a fresh roster and
    // produce the right numbers. _exit keeps gtest/atexit machinery out.
    int status = 0;
    try {
      test::GemmProblem<double> q(32, 32, 32, 61);
      q.reference(1.0, 0.0);
      core::smm_gemm(1.0, q.a.cview(), q.b.cview(), 0.0, q.c.view(), 2);
      if (!q.check(32)) status |= 1;
      if (robust::health().snapshot().fork_resets != resets_before + 1)
        status |= 2;
    } catch (...) {
      status |= 4;
    }
    _exit(status);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  // Parent unaffected: same call still works on the parent's roster.
  core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 2);
}

// ---- check_finite ----------------------------------------------------------

TEST_F(ServiceTest, CheckFiniteRejectsNaNInput) {
  test::GemmProblem<double> p(16, 16, 16, 71);
  p.a.view()(3, 4) = std::numeric_limits<double>::quiet_NaN();
  core::SmmOptions options;
  options.check_finite = true;
  const std::size_t before =
      robust::health().snapshot().nonfinite_rejections;
  try {
    core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 1,
                   options);
    FAIL() << "expected kNonFinite";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
  }
  EXPECT_EQ(robust::health().snapshot().nonfinite_rejections, before + 1);
  EXPECT_EQ(max_abs_diff(p.c.cview(), p.c_expected.cview()), 0.0);
}

TEST_F(ServiceTest, CheckFiniteSkipsCWhenBetaZero) {
  test::GemmProblem<double> p(16, 16, 16, 72);
  p.reference(1.0, 0.0);
  p.c.view()(0, 0) = std::numeric_limits<double>::infinity();
  core::SmmOptions options;
  options.check_finite = true;
  // beta == 0 overwrites C: a stale Inf there is harmless and allowed.
  core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 1,
                 options);
  EXPECT_TRUE(p.check(16));
  // beta != 0 reads C: now it must be rejected.
  p.c.view()(0, 0) = std::numeric_limits<double>::infinity();
  try {
    core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.5, p.c.view(), 1,
                   options);
    FAIL() << "expected kNonFinite";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
  }
}

TEST_F(ServiceTest, NonFiniteFaultSiteFires) {
  test::GemmProblem<double> p(16, 16, 16, 73);
  core::SmmOptions options;
  options.check_finite = true;
  ScopedFault fault(FaultSite::kNonFiniteInput, FaultSpec{});
  try {
    core::smm_gemm(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(), 1,
                   options);
    FAIL() << "expected injected kNonFinite";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
  }
  EXPECT_EQ(FaultInjector::instance().fired_count(FaultSite::kNonFiniteInput),
            1u);
}

TEST_F(ServiceTest, ServiceScreensNonFiniteWhenConfigured) {
  ServiceOptions options;
  options.gemm.check_finite = true;
  SmmService svc(options);
  test::GemmProblem<double> p(16, 16, 16, 74);
  p.a.view()(0, 0) = std::numeric_limits<double>::quiet_NaN();
  const Result& r =
      svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()).wait();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kNonFinite) << r.message;
  // A poisoned request is the caller's fault, not the substrate's: every
  // shard's breaker must stay closed.
  for (int s = 0; s < svc.options().shards; ++s)
    EXPECT_EQ(svc.shard_breaker_state(s), BreakerState::kClosed);
  svc.shutdown();
}

TEST_F(ServiceTest, SubmitBatchScreensNonFiniteWhenConfigured) {
  // submit_batch runs under ServiceOptions::gemm just as submit does: a
  // NaN in a batch item is rejected before any of its C is written.
  ServiceOptions options;
  options.shards = 1;
  options.gemm.check_finite = true;
  SmmService svc(options);
  test::GemmProblem<double> p(16, 16, 16, 75);
  p.a.view()(2, 3) = std::numeric_limits<double>::quiet_NaN();
  const std::size_t before =
      robust::health().snapshot().nonfinite_rejections;
  std::vector<service::BatchItem<double>> items{
      {p.a.cview(), p.b.cview(), p.c.view()}};
  const Result r = svc.submit_batch(1.0, items, 0.0).wait();
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.code, ErrorCode::kNonFinite) << r.message;
  EXPECT_EQ(max_abs_diff(p.c.cview(), p.c_expected.cview()), 0.0);
  EXPECT_EQ(robust::health().snapshot().nonfinite_rejections, before + 1);
  svc.shutdown();
}

// ---- coherent health snapshot ----------------------------------------------

TEST_F(ServiceTest, SnapshotNeverTearsAcrossTransaction) {
  robust::health().reset();
  std::atomic<bool> stop{false};
  // Writers keep two counters in lockstep inside transactions; a torn
  // snapshot would observe them unequal.
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        robust::Health::Transaction tx;
        robust::health().rebuild_fallbacks.fetch_add(
            1, std::memory_order_relaxed);
        robust::health().naive_fallbacks.fetch_add(
            1, std::memory_order_relaxed);
        // The shard router's correlated pair (DESIGN.md §13): admit()
        // brackets these two exactly like this.
        robust::health().service_submitted.fetch_add(
            1, std::memory_order_relaxed);
        robust::health().service_routed.fetch_add(
            1, std::memory_order_relaxed);
        // The autotuner's correlated pair (DESIGN.md §14): a re-plan is
        // always driven by a recorded sample.
        robust::health().tune_samples.fetch_add(1,
                                                std::memory_order_relaxed);
        robust::health().tune_replans.fetch_add(1,
                                                std::memory_order_relaxed);
        // The resilient client's correlated pair (DESIGN.md §16): a
        // rescued call implies a prior retry attempt, so
        // retry_successes <= retry_attempts must hold in every snapshot.
        robust::health().retry_attempts.fetch_add(
            1, std::memory_order_relaxed);
        robust::health().retry_successes.fetch_add(
            1, std::memory_order_relaxed);
      }
    });
  }
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(200);
  std::size_t reads = 0;
  while (std::chrono::steady_clock::now() < until) {
    const auto s = robust::health().snapshot();
    ASSERT_EQ(s.rebuild_fallbacks, s.naive_fallbacks)
        << "torn snapshot after " << reads << " reads";
    ASSERT_EQ(s.service_submitted, s.service_routed)
        << "torn submitted/routed pair after " << reads << " reads";
    ASSERT_EQ(s.tune_samples, s.tune_replans)
        << "torn tune samples/replans pair after " << reads << " reads";
    ASSERT_EQ(s.retry_attempts, s.retry_successes)
        << "torn retry attempts/successes pair after " << reads << " reads";
    ++reads;
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
  EXPECT_GT(reads, 0u);
  robust::health().reset();
}

// ---- concurrency stress ----------------------------------------------------

TEST_F(ServiceTest, ConcurrentSubmitCancelStress) {
  ServiceOptions options;
  options.shards = 1;  // the multi-shard stress lives in test_shard
  options.lanes = 2;
  options.queue_depth = 16;
  options.default_deadline_ms = 50;
  SmmService svc(options);
  constexpr int kProducers = 4;
  constexpr int kIters = 120;
  std::atomic<std::size_t> ok{0}, stopped{0}, refused{0}, failed{0};
  std::vector<std::thread> producers;
  for (int w = 0; w < kProducers; ++w) {
    producers.emplace_back([&, w] {
      test::GemmProblem<double> p(24, 24, 24,
                                  1000 + static_cast<std::uint64_t>(w));
      for (int i = 0; i < kIters; ++i) {
        const auto priority = static_cast<Priority>(i % 3);
        Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                              p.c.view(), priority);
        if (i % 3 == 0) t.cancel();
        const Result& r = t.wait();
        if (r.ok) {
          ok.fetch_add(1);
        } else if (r.code == ErrorCode::kCancelled ||
                   r.code == ErrorCode::kDeadlineExceeded) {
          stopped.fetch_add(1);
        } else if (r.code == ErrorCode::kOverloaded) {
          refused.fetch_add(1);
        } else {
          failed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.shutdown();
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(ok.load(), 0u);
  EXPECT_GT(stopped.load(), 0u);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted,
            static_cast<std::size_t>(kProducers) * kIters);
  EXPECT_EQ(s.submitted, s.admitted + s.rejected);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

}  // namespace
}  // namespace smm
