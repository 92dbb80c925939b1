// Concurrent chaos soak (DESIGN.md §10, acceptance harness): mixed
// smm_gemm / batched_smm / PrepackedB / GuardedExecutor traffic across
// threads while a fault scheduler cycles every injection site. The run
// must exhibit
//   - zero hangs: a global deadline (monitor thread) aborts the process
//     if the soak does not finish on time — the pool watchdog is what
//     makes this pass with kWorkerHang in the rotation;
//   - zero crashes: unexpected exception types are counted and fail the
//     run (fail-stop faults surfacing as smm::Error are expected);
//   - zero unverified results: guarded traffic is ABFT-checked on every
//     call; a fully failed guarded request fails the soak;
//   - observable degradation: every new failure-class health counter
//     (watchdog timeout, quarantine/rebuild, spawn failure, arena
//     fallback, cache-insert failure, prepack fallback) must be nonzero
//     by the end — a fault class that never fired was not soaked.
//
//   chaos_soak [--seconds 60] [--phase-ms 400] [--timeout-ms 250]
//
// Exit 0 on a clean soak, 1 on a violated invariant, 2 on the global
// deadline (printed by the monitor before _exit).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/soak.h"
#include "src/common/str.h"
#include "src/core/batched.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/matrix/matrix.h"
#include "src/plan/native_executor.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
#include "src/threading/thread_pool.h"
#include "src/threading/worker_pool.h"

namespace {

using namespace smm;
namespace soak = bench::soak;
using Clock = std::chrono::steady_clock;

struct Shared {
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ops{0};
  std::atomic<std::size_t> expected_errors{0};
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> guarded_failed{0};
  std::atomic<std::size_t> guarded_recovered{0};
  std::atomic<std::size_t> guarded_degraded{0};
};

using soak::random_matrix;

/// A fail-stop lane: fault-injected failures surface as smm::Error or
/// bad_alloc (expected); any other exception is a crash.
template <typename Op>
void fail_stop_lane(Shared& sh, Op&& op) {
  while (!sh.stop.load()) {
    try {
      op();
    } catch (const Error&) {
      sh.expected_errors.fetch_add(1);
    } catch (const std::bad_alloc&) {
      sh.expected_errors.fetch_add(1);
    } catch (...) {
      sh.unexpected.fetch_add(1);
    }
    sh.ops.fetch_add(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int seconds =
      std::max(1, std::stoi(bench::arg_value(argc, argv, "--seconds", "60")));
  const int phase_ms =
      std::max(50, std::stoi(bench::arg_value(argc, argv, "--phase-ms",
                                              "400")));
  const long timeout_ms =
      std::stol(bench::arg_value(argc, argv, "--timeout-ms", "250"));

  par::WorkerPool::instance().set_watchdog_timeout_ms(timeout_ms);
  const auto health0 = robust::health().snapshot();

  Shared sh;

  // Global deadline: generous slack over the nominal soak (hang phases
  // each cost up to timeout + grace; joins add a few more). If this
  // monitor fires, something waited forever — the exact failure mode the
  // watchdog exists to eliminate.
  const soak::DeadlineMonitor monitor(std::chrono::seconds(seconds + 60),
                                      "chaos soak");

  std::vector<std::thread> traffic;

  // Guarded traffic: the correctness oracle. Every served result is
  // ABFT-verified; kFailed would mean the whole degradation ladder
  // (retry -> rebuild -> naive) collapsed.
  traffic.emplace_back([&] {
    robust::GuardedExecutor guard;
    const Matrix<float> a = random_matrix(256, 64, 0x600D);
    const Matrix<float> b = random_matrix(64, 256, 0x600E);
    Matrix<float> c(256, 256);
    while (!sh.stop.load()) {
      try {
        const robust::RunReport r = guard.run(1.0f, a.cview(), b.cview(),
                                              0.0f, c.view(), 4);
        switch (r.outcome) {
          case robust::Outcome::kFailed:
            sh.guarded_failed.fetch_add(1);
            break;
          case robust::Outcome::kRecovered:
            sh.guarded_recovered.fetch_add(1);
            break;
          case robust::Outcome::kDegraded:
            sh.guarded_degraded.fetch_add(1);
            break;
          default:
            break;
        }
      } catch (...) {
        sh.unexpected.fetch_add(1);
      }
      sh.ops.fetch_add(1);
    }
  });

  // Raw warm-path traffic: parallel, cached, packing. Fail-stop faults
  // surface as smm::Error (expected); silent corruption phases make the
  // result wrong, which is exactly why this lane asserts no correctness
  // (the guarded lane owns that).
  traffic.emplace_back([&] {
    const Matrix<float> a = random_matrix(128, 128, 0x5A11);
    const Matrix<float> b = random_matrix(128, 128, 0x5A12);
    Matrix<float> c(128, 128);
    core::SmmOptions opts;
    opts.pack_a = opts.pack_b = core::SmmOptions::Packing::kAlways;
    fail_stop_lane(sh, [&] {
      core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view(), 4, opts);
    });
  });

  // Batched traffic over the shared process-wide cache.
  traffic.emplace_back([&] {
    constexpr int kItems = 4;
    std::vector<Matrix<float>> as, bs, cs;
    for (int i = 0; i < kItems; ++i) {
      as.push_back(random_matrix(32, 32, 100u + i));
      bs.push_back(random_matrix(32, 32, 200u + i));
      cs.emplace_back(32, 32);
    }
    fail_stop_lane(sh, [&] {
      std::vector<core::GemmBatchItem<float>> items;
      items.reserve(kItems);
      for (int i = 0; i < kItems; ++i)
        items.push_back({as[i].cview(), bs[i].cview(), cs[i].view()});
      core::batched_smm(1.0f, items, 0.0f, core::default_plan_cache(), 2);
    });
  });

  // Prepack traffic: handle construction under fire plus replay — the
  // lane that exercises kPrepackAlloc degradation.
  traffic.emplace_back([&] {
    const Matrix<float> a = random_matrix(24, 12, 0x9AC);
    const Matrix<float> b = random_matrix(12, 16, 0x9AD);
    Matrix<float> c(24, 16);
    core::SmmOptions opts;
    opts.pack_b = core::SmmOptions::Packing::kAlways;
    fail_stop_lane(sh, [&] {
      const auto handle =
          core::smm_prepack_b<float>(b.cview(), /*m=*/24, 1, opts);
      handle.run(1.0f, a.cview(), 0.0f, c.view());
    });
  });

  // Cache-churn traffic: a tiny private cache cycling more shapes than
  // it holds, so inserts (and therefore kCacheInsertFail) happen every
  // phase — the other lanes run warm and would never miss.
  traffic.emplace_back([&] {
    core::PlanCache churn(core::reference_smm(), /*capacity=*/2);
    const GemmShape shapes[] = {{8, 8, 8},    {16, 16, 16}, {24, 24, 24},
                                {32, 32, 32}, {40, 40, 40}, {48, 48, 48}};
    std::size_t i = 0;
    fail_stop_lane(sh, [&] {
      (void)churn.get(shapes[i++ % (sizeof(shapes) / sizeof(shapes[0]))],
                      plan::ScalarType::kF32, 1);
    });
  });

  // The fault scheduler: cycle every site for the whole soak, a burst of
  // fires per phase. Hang phases resolve within the watchdog deadline;
  // injected hangs are canceled (and blocking re-armed) between phases.
  constexpr robust::FaultSite kAllSites[] = {
      robust::FaultSite::kPackBitFlip,
      robust::FaultSite::kWorkerThrow,
      robust::FaultSite::kAllocFail,
      robust::FaultSite::kKernelMiscompute,
      robust::FaultSite::kWorkerHang,
      robust::FaultSite::kPoolSpawnFail,
      robust::FaultSite::kArenaExhausted,
      robust::FaultSite::kCacheInsertFail,
      robust::FaultSite::kPrepackAlloc,
      robust::FaultSite::kBarrierTrip,
  };
  const auto soak_end = Clock::now() + std::chrono::seconds(seconds);
  std::size_t phases = 0;
  while (Clock::now() < soak_end) {
    const robust::FaultSite site =
        kAllSites[phases++ % (sizeof(kAllSites) / sizeof(kAllSites[0]))];
    robust::FaultInjector::instance().arm(
        site, {.fire_after = 0, .max_fires = 64});
    std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms));
    robust::FaultInjector::instance().disarm(site);
    robust::cancel_injected_hangs();
    robust::reset_injected_hangs();
  }

  sh.stop.store(true);
  robust::cancel_injected_hangs();  // free stragglers so the joins finish
  for (auto& t : traffic) t.join();
  robust::reset_injected_hangs();
  robust::FaultInjector::instance().disarm_all();

  const auto health1 = robust::health().snapshot();
  const auto d = [&](std::size_t after, std::size_t before) {
    return after - before;
  };

  std::printf("chaos_soak: %d s, %zu phases, %zu ops\n", seconds, phases,
              sh.ops.load());
  std::printf("  expected errors      : %zu\n", sh.expected_errors.load());
  std::printf("  guarded recovered    : %zu\n", sh.guarded_recovered.load());
  std::printf("  guarded degraded     : %zu\n", sh.guarded_degraded.load());
  std::printf("  guarded FAILED       : %zu\n", sh.guarded_failed.load());
  std::printf("  unexpected exceptions: %zu\n", sh.unexpected.load());

  struct FailureClass {
    const char* name;
    std::size_t delta;
  };
  const FailureClass classes[] = {
      {"pool_watchdog_timeouts", d(health1.pool_watchdog_timeouts,
                                   health0.pool_watchdog_timeouts)},
      {"pool_quarantines",
       d(health1.pool_quarantines, health0.pool_quarantines)},
      {"pool_rebuilds", d(health1.pool_rebuilds, health0.pool_rebuilds)},
      {"pool_spawn_failures",
       d(health1.pool_spawn_failures, health0.pool_spawn_failures)},
      {"arena_fallbacks", d(health1.arena_fallbacks, health0.arena_fallbacks)},
      {"plan_cache_insert_failures",
       d(health1.plan_cache_insert_failures,
         health0.plan_cache_insert_failures)},
      {"prepack_fallbacks",
       d(health1.prepack_fallbacks, health0.prepack_fallbacks)},
  };
  soak::Gates gates;
  for (const FailureClass& g : classes) {
    std::printf("  %-27s: %zu\n", g.name, g.delta);
    gates.check(g.delta == 0,
                strprintf("failure class '%s' never fired", g.name));
  }
  std::printf("%s\n", robust::health().snapshot().to_string().c_str());

  // A clean post-soak call must compute correctly (bit-checked against
  // the naive oracle by the test suite; here: it must not throw).
  {
    const Matrix<float> a = random_matrix(96, 48, 0xF1A7);
    const Matrix<float> b = random_matrix(48, 64, 0xF1A8);
    Matrix<float> c(96, 64);
    core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view(), 4);
  }

  gates.check(sh.unexpected.load() != 0, "unexpected exceptions");
  gates.check(sh.guarded_failed.load() != 0,
              "a guarded request fully failed");
  return gates.verdict("chaos_soak");
}
