// smm::shard + the sharded/coalescing service (DESIGN.md §13): router
// determinism and spread, SMMKIT_SHARDS resolution, lane auto-sizing,
// bounded work stealing under one-hot load, coalesce grouping (window
// off and deadline-bounded window flush), per-member failure isolation
// inside a coalesced group, and a TSan-targeted concurrent
// submit/steal/coalesce stress.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/error.h"
#include "src/core/smm.h"
#include "src/shard/shard.h"
#include "src/service/smm_service.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;
using service::Ticket;

// ---- router ----------------------------------------------------------------

TEST(ShardRouter, HashAndRouteAreDeterministic) {
  const shard::ShapeClass cls{32, 32, 32, 1};
  const std::uint64_t h = shard::shape_class_hash(cls);
  EXPECT_EQ(h, shard::shape_class_hash(cls));
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(shard::route(h, 1e4, 8), shard::route(h, 1e4, 8));
  // Distinct scalar types of one shape are distinct classes.
  EXPECT_NE(h, shard::shape_class_hash({32, 32, 32, 0}));
  // One shard: everything routes to 0, whatever the hash or cost.
  EXPECT_EQ(shard::route(h, 1e4, 1), 0);
  EXPECT_EQ(shard::route(h, 1e9, 0), 0);
}

TEST(ShardRouter, SpreadsShapeClassesAcrossShards) {
  // The router must not collapse a varied small-shape mix onto one
  // shard; over the paper's SMM range we expect most of 8 shards hit.
  std::set<int> hit;
  for (index_t m = 4; m <= 64; m += 4)
    for (index_t n = 4; n <= 64; n += 12) {
      const double cost = 2.0 * m * n * 32;
      hit.insert(
          shard::route(shard::shape_class_hash({m, n, 32, 1}), cost, 8));
    }
  EXPECT_GE(hit.size(), 4u);
  for (const int s : hit) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
  }
}

TEST(ShardRouter, DefaultShardCountReadsEnv) {
  ASSERT_EQ(setenv("SMMKIT_SHARDS", "3", 1), 0);
  EXPECT_EQ(shard::default_shard_count(), 3);
  ASSERT_EQ(setenv("SMMKIT_SHARDS", "1000", 1), 0);
  EXPECT_EQ(shard::default_shard_count(), shard::kMaxShards);
  ASSERT_EQ(setenv("SMMKIT_SHARDS", "not-a-number", 1), 0);
  EXPECT_EQ(shard::default_shard_count(), 8);  // unparsable → panel count
  ASSERT_EQ(unsetenv("SMMKIT_SHARDS"), 0);
  EXPECT_EQ(shard::default_shard_count(), 8);
}

// ---- service integration ---------------------------------------------------

TEST(ShardService, SameShapeRoutesToSameShard) {
  ServiceOptions options;
  options.shards = 4;
  options.lanes = 1;
  SmmService svc(options);
  const int home = svc.route_shard(24, 24, 24, /*scalar_id=*/1);
  std::vector<test::GemmProblem<double>> probs;
  for (unsigned i = 0; i < 6; ++i) probs.emplace_back(24, 24, 24, 400 + i);
  std::vector<Ticket> tickets;
  for (auto& p : probs) {
    p.reference(1.0, 0.0);
    tickets.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  }
  for (auto& t : tickets) EXPECT_TRUE(t.wait().ok) << t.wait().message;
  for (auto& p : probs) EXPECT_TRUE(p.check(24));
  const auto s = svc.stats();
  ASSERT_EQ(s.routed_per_shard.size(), 4u);
  // Routing is a pure function of the shape class: all six landed home.
  EXPECT_EQ(s.routed_per_shard[static_cast<std::size_t>(home)], 6u);
  EXPECT_EQ(s.routed, s.submitted);
  std::size_t sum = 0;
  for (const auto r : s.routed_per_shard) sum += r;
  EXPECT_EQ(sum, s.routed);
  svc.shutdown();
}

TEST(ShardService, LanesDefaultDerivesFromNativeThreads) {
  ServiceOptions options;
  options.shards = 2;
  options.lanes = 0;  // auto
  SmmService svc(options);
  const int expected = std::max(1, par::native_threads_available() / 2);
  EXPECT_EQ(svc.options().lanes, expected);
  EXPECT_EQ(svc.options().shards, 2);
  svc.shutdown();
}

TEST(ShardService, StealsUnderOneHotLoad) {
  ServiceOptions options;
  options.shards = 3;
  options.lanes = 1;
  options.coalesce_depth = 1;  // isolate stealing from coalescing
  options.queue_depth = 256;
  SmmService svc(options);
  // One-hot: every request is the same shape class, so the router pins
  // the entire load to one shard; its two idle peers must pick it up.
  const index_t m = 64, n = 64, k = 64;
  constexpr std::size_t kLoad = 100;
  std::vector<test::GemmProblem<double>> probs;
  probs.reserve(kLoad);
  for (unsigned i = 0; i < kLoad; ++i) probs.emplace_back(m, n, k, 500 + i);
  // Reference results are computed BEFORE the submit burst: the naive
  // reference gemm is slow (especially under TSan), and interleaving it
  // with submissions would pace arrivals so far apart that the home
  // lane drains each one before the next lands — no backlog, nothing
  // for the peers to steal.
  for (auto& p : probs) p.reference(1.0, 0.0);
  std::vector<Ticket> tickets;
  tickets.reserve(kLoad);
  for (auto& p : probs)
    tickets.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  for (auto& t : tickets) EXPECT_TRUE(t.wait().ok) << t.wait().message;
  for (auto& p : probs) EXPECT_TRUE(p.check(k));
  const auto s = svc.stats();
  const int home = svc.route_shard(m, n, k, 1);
  EXPECT_EQ(s.routed_per_shard[static_cast<std::size_t>(home)], kLoad);
  // A stolen request is correct work done elsewhere — the counters prove
  // the peers participated.
  EXPECT_GE(s.steals, 1u);
  EXPECT_EQ(s.completed, kLoad);
  svc.shutdown();
}

TEST(ShardService, CoalescesQueuedSameShapeIntoOneGroup) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.coalesce_depth = 8;
  options.coalesce_window_us = 0;  // opportunistic sweep only
  options.queue_depth = 64;
  SmmService svc(options);
  // Occupy the single lane so the same-shape submissions pile up queued.
  Matrix<double> ba(96, 96), bb(96, 96);
  Rng rng(9);
  ba.fill_random(rng);
  bb.fill_random(rng);
  std::vector<Matrix<double>> bcs;
  std::vector<service::BatchItem<double>> blocker;
  for (int i = 0; i < 60; ++i) {
    bcs.emplace_back(96, 96);
    blocker.push_back({ba.cview(), bb.cview(), bcs.back().view()});
  }
  Ticket busy = svc.submit_batch(1.0, blocker, 0.0);
  while (svc.stats().in_flight == 0 && !busy.done())
    std::this_thread::yield();

  constexpr std::size_t kGroup = 6;
  std::vector<test::GemmProblem<double>> probs;
  for (unsigned i = 0; i < kGroup; ++i) probs.emplace_back(32, 30, 32, 600 + i);
  std::vector<Ticket> tickets;
  for (auto& p : probs) {
    p.reference(1.0, 0.0);
    tickets.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  }
  for (auto& t : tickets) EXPECT_TRUE(t.wait().ok) << t.wait().message;
  EXPECT_TRUE(busy.wait().ok);
  for (auto& p : probs) EXPECT_TRUE(p.check(32));
  const auto s = svc.stats();
  // All six were queued behind the blocker, so the lane's pop swept them
  // into one batched dispatch.
  EXPECT_EQ(s.coalesced_groups, 1u);
  EXPECT_EQ(s.coalesced_items, kGroup);
  svc.shutdown();
}

TEST(ShardService, CoalesceWindowFlushesOnDeadline) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.coalesce_depth = 8;
  options.coalesce_window_us = 500000;  // 500 ms — far past the deadline
  SmmService svc(options);
  // Warm the shape through the process-wide cache (shards=1 shares it)
  // so the flushed run is not a cold plan build racing the deadline.
  test::GemmProblem<double> warm(32, 32, 32, 610);
  core::smm_gemm(1.0, warm.a.cview(), warm.b.cview(), 0.0, warm.c.view(), 1);

  test::GemmProblem<double> p(32, 32, 32, 611);
  p.reference(1.0, 0.0);
  const auto t0 = std::chrono::steady_clock::now();
  Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view(),
                        Priority::kNormal, /*deadline_ms=*/100);
  const Result& r = t.wait();
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // The group deadline bound flushed the window with margin to run: the
  // request went terminal near its 100 ms deadline, nowhere near the
  // 500 ms window. A successful flush completes it; on a badly
  // overloaded host the margin itself may lapse — but never the window.
  EXPECT_LT(elapsed_ms, 400);
  if (r.ok) {
    EXPECT_GE(elapsed_ms, 40);  // the window really held it open
    EXPECT_TRUE(p.check(32));
  } else {
    EXPECT_EQ(r.code, ErrorCode::kDeadlineExceeded) << r.message;
  }
  svc.shutdown();
}

TEST(ShardService, CoalescedNeighborFailureDoesNotPoisonSiblings) {
  ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.coalesce_depth = 8;
  options.coalesce_window_us = 0;
  options.gemm.check_finite = true;
  SmmService svc(options);
  Matrix<double> ba(96, 96), bb(96, 96);
  Rng rng(11);
  ba.fill_random(rng);
  bb.fill_random(rng);
  std::vector<Matrix<double>> bcs;
  std::vector<service::BatchItem<double>> blocker;
  for (int i = 0; i < 60; ++i) {
    bcs.emplace_back(96, 96);
    blocker.push_back({ba.cview(), bb.cview(), bcs.back().view()});
  }
  Ticket busy = svc.submit_batch(1.0, blocker, 0.0);
  while (svc.stats().in_flight == 0 && !busy.done())
    std::this_thread::yield();

  std::vector<test::GemmProblem<double>> probs;
  for (unsigned i = 0; i < 4; ++i) probs.emplace_back(32, 30, 32, 620 + i);
  for (auto& p : probs) p.reference(1.0, 0.0);
  // Member 1 carries a NaN (fails the finite screen inside the group);
  // member 2 is cancelled while queued.
  probs[1].a.view()(3, 4) = std::numeric_limits<double>::quiet_NaN();
  const Matrix<double> c2_before = probs[2].c.clone();
  std::vector<Ticket> tickets;
  for (auto& p : probs)
    tickets.push_back(
        svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0, p.c.view()));
  tickets[2].cancel();
  EXPECT_TRUE(busy.wait().ok);

  EXPECT_TRUE(tickets[0].wait().ok) << tickets[0].wait().message;
  ASSERT_FALSE(tickets[1].wait().ok);
  EXPECT_EQ(tickets[1].wait().code, ErrorCode::kNonFinite);
  ASSERT_FALSE(tickets[2].wait().ok);
  EXPECT_EQ(tickets[2].wait().code, ErrorCode::kCancelled);
  EXPECT_TRUE(tickets[3].wait().ok) << tickets[3].wait().message;
  // The healthy siblings computed the right numbers; the failed and the
  // cancelled members left their C untouched.
  EXPECT_TRUE(probs[0].check(32));
  EXPECT_TRUE(probs[3].check(32));
  EXPECT_EQ(max_abs_diff(probs[2].c.cview(), c2_before.cview()), 0.0);
  // A neighbor's NaN is the caller's fault: the breaker stays closed.
  EXPECT_EQ(svc.shard_breaker_state(0), service::BreakerState::kClosed);
  svc.shutdown();
}

// ---- concurrency stress (run under TSan in CI) -----------------------------

TEST(ShardService, ConcurrentSubmitStealCoalesceStress) {
  ServiceOptions options;
  options.shards = 4;
  options.lanes = 1;
  options.queue_depth = 32;
  options.coalesce_depth = 4;
  options.coalesce_window_us = 200;
  options.default_deadline_ms = 250;
  SmmService svc(options);
  constexpr int kProducers = 4;
  constexpr int kIters = 60;
  std::atomic<std::size_t> ok{0}, stopped{0}, refused{0}, failed{0};
  std::vector<std::thread> producers;
  for (int w = 0; w < kProducers; ++w) {
    producers.emplace_back([&, w] {
      // Three shape classes per producer: traffic lands on several
      // shards, with enough same-shape pressure to coalesce and enough
      // imbalance to steal.
      std::vector<test::GemmProblem<double>> probs;
      for (unsigned s = 0; s < 3; ++s)
        probs.emplace_back(16 + 8 * s, 24, 16 + 8 * s,
                           700 + 10 * static_cast<unsigned>(w) + s);
      for (int i = 0; i < kIters; ++i) {
        auto& p = probs[static_cast<std::size_t>(i) % 3];
        Ticket t = svc.submit(1.0, p.a.cview(), p.b.cview(), 0.0,
                              p.c.view(), static_cast<Priority>(i % 3));
        if (i % 5 == 0) t.cancel();
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
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted,
            static_cast<std::size_t>(kProducers) * kIters);
  EXPECT_EQ(s.submitted, s.routed);
  EXPECT_EQ(s.submitted, s.admitted + s.rejected);
  std::size_t routed_sum = 0, admitted_sum = 0;
  for (const auto r : s.routed_per_shard) routed_sum += r;
  for (const auto a : s.admitted_per_shard) admitted_sum += a;
  EXPECT_EQ(routed_sum, s.routed);
  EXPECT_EQ(admitted_sum, s.admitted);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.in_flight, 0u);
}

}  // namespace
}  // namespace smm
