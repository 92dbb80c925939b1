#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/robust/fault_injection.h"
#include "src/threading/barrier.h"
#include "src/threading/partition.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"

namespace smm::par {
namespace {

TEST(Barrier, SingleParticipantNeverBlocks) {
  Barrier b(1);
  b.arrive_and_wait();
  b.arrive_and_wait();
}

TEST(Barrier, AllThreadsSeePhaseWrites) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 20;
  Barrier barrier(kThreads);
  std::vector<int> counters(kPhases, 0);
  std::atomic<bool> torn{false};
  run_parallel(kThreads, [&](int tid) {
    for (int p = 0; p < kPhases; ++p) {
      // Everyone checks the previous phase completed fully.
      if (p > 0 && counters[p - 1] != kThreads) torn = true;
      barrier.arrive_and_wait();
      if (tid == p % kThreads) counters[p] = kThreads;  // one writer
      barrier.arrive_and_wait();
      if (counters[p] != kThreads) torn = true;
      barrier.arrive_and_wait();
    }
  });
  EXPECT_FALSE(torn.load());
}

TEST(Barrier, InvalidParticipantsThrows) {
  EXPECT_THROW(Barrier(0), smm::Error);
}

TEST(RunParallel, AllIdsRunOnce) {
  std::vector<std::atomic<int>> hits(16);
  run_parallel(16, [&](int tid) { hits[static_cast<std::size_t>(tid)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunParallel, PropagatesException) {
  EXPECT_THROW(
      run_parallel(4,
                   [&](int tid) {
                     if (tid == 2) throw Error("boom");
                   }),
      smm::Error);
}

// ---- spin-then-park pool handoff --------------------------------------------

TEST(PoolHandoff, RegionWiderThanTheHostNeverSpins) {
  // A private pool, so no earlier narrow region left a worker spinning.
  auto pool = WorkerPool::create_private();
  const int width = native_threads_available() + 1;
  std::atomic<int> ran{0};
  const std::function<void(int)> body = [&](int) { ran.fetch_add(1); };
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(width));
  constexpr int kRegions = 200;
  for (int i = 0; i < kRegions; ++i)
    ASSERT_TRUE(pool->try_run(width, body, {}, errors));
  EXPECT_EQ(ran.load(), kRegions * width);
  const WorkerPool::Stats stats = pool->stats();
  EXPECT_EQ(stats.regions, static_cast<std::size_t>(kRegions));
  EXPECT_EQ(stats.spin_handoffs, 0u);
}

TEST(PoolHandoff, RegionAfterTheWorkerParkedCompletesAndCountsOnePark) {
  auto pool = WorkerPool::create_private();
  std::atomic<int> ran{0};
  const std::function<void(int)> body = [&](int) { ran.fetch_add(1); };
  std::vector<std::exception_ptr> errors(2);
  ASSERT_TRUE(pool->try_run(2, body, {}, errors));  // spawns the worker
  // Far past the spin budget: the worker has given up and parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const WorkerPool::Stats before = pool->stats();
  ASSERT_TRUE(pool->try_run(2, body, {}, errors));
  const WorkerPool::Stats after = pool->stats();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(after.parks, before.parks + 1);
  EXPECT_EQ(after.spin_handoffs, before.spin_handoffs);
}

TEST(PoolHandoff, FailuresInBackToBackRegionsAggregateExactly) {
  // Every 97th region fails: alternately on one worker (its exception
  // rethrown as-is) and on two (one aggregate kWorkerPanic naming both),
  // so failures land on regions that were handed off while spinning.
  constexpr int kRegions = 10000;
  constexpr int kThreads = 3;
  auto& pool = WorkerPool::instance();
  const std::size_t regions_before = pool.stats().regions;
  std::atomic<long> bodies{0};
  int single = 0;
  int aggregated = 0;
  int wrong = 0;
  for (int i = 0; i < kRegions; ++i) {
    const bool fail = i % 97 == 0;
    const bool twice = fail && (i / 97) % 2 == 1;
    try {
      run_parallel(kThreads, [&](int tid) {
        bodies.fetch_add(1);
        if (fail && tid == 1) throw std::invalid_argument("tid 1 dies");
        if (twice && tid == 2) throw std::runtime_error("tid 2 dies");
      });
      if (fail) ++wrong;
    } catch (const std::invalid_argument&) {
      if (twice) ++wrong;
      ++single;
    } catch (const Error& e) {
      const std::string what = e.what();
      if (!twice || e.code() != ErrorCode::kWorkerPanic ||
          what.find("thread 1") == std::string::npos ||
          what.find("thread 2") == std::string::npos)
        ++wrong;
      ++aggregated;
    }
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(single, 52);
  EXPECT_EQ(aggregated, 52);
  EXPECT_EQ(bodies.load(), static_cast<long>(kRegions) * kThreads);
  EXPECT_EQ(pool.stats().regions - regions_before,
            static_cast<std::size_t>(kRegions));
}

TEST(PoolHandoff, HundredThousandRegionsRunEachBodyOnceThroughFaultsAndAHang) {
  // Back-to-back two-thread regions on a private pool, a third of them
  // empty, with injected worker faults every 997th region and one
  // injected hang. Every body runs exactly once per region (a faulted
  // body not at all), every worker handoff is counted once as a spin
  // handoff or a park, and the hang ends in kPoolTimeout, quarantine and
  // a rebuild, after which the pool serves again.
  using robust::FaultSite;
  using robust::ScopedFault;
  auto pool = WorkerPool::create_private();
  const WorkerPool::CurrentPoolBinding bind(*pool);
  constexpr int kRegions = 100000;
  constexpr int kHangAt = kRegions / 2;
  robust::reset_injected_hangs();
  int wrong = 0;
  int faulted = 0;
  int timed_out = 0;
  std::atomic<long> work{0};
  for (int i = 0; i < kRegions; ++i) {
    const bool hang = i == kHangAt;
    const bool fault = !hang && i % 997 == 0;
    std::atomic<int> ran[2] = {0, 0};
    std::optional<ScopedFault> armed;
    if (hang) {
      // Short deadline for this region only: the watchdog is sleeping
      // toward a far one and must be woken for the shorter deadline.
      pool->set_watchdog_timeout_ms(100);
      armed.emplace(FaultSite::kWorkerHang,
                    robust::FaultSpec{.fire_after = 0, .max_fires = 1});
    } else if (fault) {
      armed.emplace(FaultSite::kWorkerThrow,
                    robust::FaultSpec{.fire_after = 0, .max_fires = 1});
    }
    try {
      run_parallel(2, [&](int tid) {
        ran[tid].fetch_add(1, std::memory_order_relaxed);
        if (i % 3 != 0)
          for (int k = 0; k < 64; ++k)
            work.fetch_add(k, std::memory_order_relaxed);
      });
      if (hang || fault) ++wrong;
    } catch (const Error& e) {
      if (hang && e.code() == ErrorCode::kPoolTimeout) {
        ++timed_out;
      } else if (fault && e.code() == ErrorCode::kWorkerPanic) {
        ++faulted;
      } else {
        ++wrong;
      }
    }
    armed.reset();
    const int r0 = ran[0].load();
    const int r1 = ran[1].load();
    if (hang) {
      // The hung worker never started its body; the master ran its own.
      if (r0 != 1 || r1 != 0) ++wrong;
      EXPECT_TRUE(pool->quarantined());
      robust::reset_injected_hangs();
      pool->set_watchdog_timeout_ms(30000);
    } else if (fault) {
      // Whichever thread hit the site first skipped its body.
      if (r0 + r1 != 1) ++wrong;
    } else if (r0 != 1 || r1 != 1) {
      ++wrong;
    }
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(timed_out, 1);
  EXPECT_EQ(faulted, kRegions / 997 + 1 - (kHangAt % 997 == 0 ? 1 : 0));
  EXPECT_FALSE(pool->quarantined());
  const WorkerPool::Stats stats = pool->stats();
  EXPECT_EQ(stats.watchdog_timeouts, 1u);
  EXPECT_EQ(stats.quarantines, 1u);
  EXPECT_EQ(stats.rebuilds, 1u);
  // The region after the hang was declined (served by the spawn
  // fallback while the roster was rebuilt); every other one was pooled.
  EXPECT_EQ(stats.regions, static_cast<std::size_t>(kRegions - 1));
  EXPECT_EQ(stats.dispatches, static_cast<std::size_t>(kRegions - 1));
  EXPECT_EQ(stats.spin_handoffs + stats.parks, stats.dispatches);
}

TEST(SplitRange, CoversWithoutOverlap) {
  for (index_t n : {0, 1, 7, 64, 100}) {
    for (int parts : {1, 3, 8}) {
      index_t covered = 0;
      index_t prev_end = 0;
      for (int p = 0; p < parts; ++p) {
        const Range r = split_range(n, parts, p);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(SplitRange, BalancedWithinOne) {
  for (int p = 0; p < 8; ++p) {
    const Range r = split_range(100, 8, p);
    EXPECT_GE(r.size(), 12);
    EXPECT_LE(r.size(), 13);
  }
}

TEST(SplitRangeAligned, QuantumBoundaries) {
  index_t covered = 0;
  for (int p = 0; p < 4; ++p) {
    const Range r = split_range_aligned(100, 4, p, 16);
    EXPECT_EQ(r.begin % 16, 0);
    covered += r.size();
  }
  EXPECT_EQ(covered, 100);
}

TEST(SplitRangeAligned, SmallExtentLeavesEmptyParts) {
  // 8 rows across 4 parts with quantum 8: one part gets all, rest empty.
  index_t total = 0;
  for (int p = 0; p < 4; ++p)
    total += split_range_aligned(8, 4, p, 8).size();
  EXPECT_EQ(total, 8);
}

TEST(Grid, SquareishWithMoreRows) {
  EXPECT_EQ(choose_grid(64).pr, 8);
  EXPECT_EQ(choose_grid(64).pc, 8);
  EXPECT_EQ(choose_grid(8).pr, 4);
  EXPECT_EQ(choose_grid(8).pc, 2);
  EXPECT_EQ(choose_grid(1).pr, 1);
  EXPECT_EQ(choose_grid(7).pr, 7);  // prime: 7x1
}

TEST(FactorPairs, Complete) {
  const auto pairs = factor_pairs(12);
  EXPECT_EQ(pairs.size(), 6u);  // 1,2,3,4,6,12
  for (const auto& [a, b] : pairs) EXPECT_EQ(a * b, 12);
}

TEST(Ways, ProductEqualsThreads) {
  for (int t : {1, 2, 8, 64}) {
    const Ways w =
        choose_ways(GemmShape{128, 2048, 2048}, t, 8, 12, 120, 1020);
    EXPECT_EQ(w.total(), t);
  }
}

TEST(Ways, PaperExampleM128) {
  // Section III-D: "Taking M = 128 as an example, BLIS can use 8 threads
  // to parallelize the jj loop and 8 threads to parallelize the j loop."
  const Ways w = choose_ways(GemmShape{128, 2048, 2048}, 64, 8, 12, 120, 1020);
  EXPECT_EQ(w.jc, 8);
  EXPECT_EQ(w.jr, 8);
  EXPECT_EQ(w.ic * w.ir, 1);
}

TEST(Ways, SmallMNotParallelizedOverM) {
  // Section III-D: when a dimension is particularly small, BLIS does not
  // parallelize it (M=64 with 64 threads must not use ic*ir = 64).
  const Ways w = choose_ways(GemmShape{64, 2048, 2048}, 64, 8, 12, 120, 1020);
  EXPECT_LE(w.ic * w.ir, 8);
  EXPECT_GE(w.jc * w.jr, 8);
}

TEST(Ways, TinyProblemStaysNearSequential) {
  const Ways w = choose_ways(GemmShape{8, 8, 8}, 64, 8, 12, 120, 1020);
  // Utilization collapses for every loop; the best the search can do is
  // keep oversubscription minimal — it must not spread M or N by 64.
  EXPECT_LE(w.ic * w.ir, 2);
}

}  // namespace
}  // namespace smm::par
