// Corruption soak (DESIGN.md §12, acceptance harness): random bit flips
// scheduled across every silent-data-corruption site — output elements
// (kKernelMiscompute), packed-B bytes (kPackBitFlip), freshly packed
// scratch panels (kScratchSlabFlip), sealed prepacked storage
// (kPrepackedStoreFlip), and cached plan entries (kPlanCacheFlip) —
// under concurrent mixed traffic. The run must exhibit
//   - ZERO silent corruptions: every lane checks every served result
//     against a precomputed oracle; one mismatch fails the soak;
//   - correction, not just recomputation: single-element damage must be
//     repaired in place at least once (integrity_corrected > 0);
//   - sealed-state defenses firing: prepack repacks and plan-seal
//     rebuilds (with their quarantine counters) must all be nonzero;
//   - exact accounting: detected == corrected + recomputed at the end.
//
// Lanes that carry their own defense (GuardedExecutor in correct and
// detect mode) run through every phase. Lanes whose defense lives in the
// storage layer (prepack replay, plan-cache churn) pause during phases
// that arm faults they cannot see (an output flip in an unguarded lane
// is silent by construction — the point of the guarded wrapper); the
// scheduler drains them before arming such a phase.
//
//   corruption_soak [--seconds 30] [--phase-ms 300]
//
// Exit 0 on a clean soak, 1 on any violated invariant, 2 on the global
// deadline.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/soak.h"
#include "src/common/rng.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"
#include "src/plan/native_executor.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"

namespace {

using namespace smm;
namespace soak = bench::soak;
using Clock = std::chrono::steady_clock;

// -1 = calm (no site armed). Lanes without their own ABFT only run when
// the armed site is one their storage-layer seals defend against.
std::atomic<int> g_armed_site{-1};

bool unguarded_lane_active() {
  const int site = g_armed_site.load(std::memory_order_relaxed);
  return site == -1 ||
         site == static_cast<int>(robust::FaultSite::kPrepackedStoreFlip) ||
         site == static_cast<int>(robust::FaultSite::kPlanCacheFlip);
}

struct Shared {
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> ops{0};
  std::atomic<std::size_t> silent_corruptions{0};
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> guarded_failed{0};
  std::atomic<std::size_t> corrected_serves{0};
};

using soak::random_matrix;

/// Runs `op` until the soak stops; every exception is unexpected. A
/// `storage_defended` lane pauses while an armed site is one it cannot see.
template <typename Op>
void run_lane(Shared& sh, bool storage_defended, Op&& op) {
  while (!sh.stop.load()) {
    if (storage_defended && !unguarded_lane_active()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    try {
      op();
    } catch (...) {
      sh.unexpected.fetch_add(1);
    }
    sh.ops.fetch_add(1);
  }
}

/// One lane's fixed problem plus its naive oracle and check tolerance.
struct Lane {
  Matrix<float> a, b, expected;
  double tol;
  Lane(index_t m, index_t n, index_t k, std::uint64_t seed)
      : a(random_matrix(m, k, seed)),
        b(random_matrix(k, n, seed + 1)),
        expected(m, n) {
    libs::naive_gemm(1.0f, a.cview(), b.cview(), 0.0f, expected.view());
    tol = gemm_tolerance<float>(k) * 8.0;
  }
  [[nodiscard]] bool check(const Matrix<float>& c) const {
    return max_abs_diff(c.cview(), expected.cview()) <= tol;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const int seconds = std::max(
      1, std::stoi(bench::arg_value(argc, argv, "--seconds", "30")));
  const int phase_ms = std::max(
      50, std::stoi(bench::arg_value(argc, argv, "--phase-ms", "300")));

  // Zero-hang gate, as in chaos_soak: a lane or the scheduler that waits
  // forever fails the run instead of holding it.
  const soak::DeadlineMonitor monitor(std::chrono::seconds(seconds + 60),
                                      "corruption soak");

  integrity::set_mode_override(integrity::AbftMode::kDetect);
  const auto health0 = robust::health().snapshot();
  Shared sh;

  std::vector<std::thread> traffic;

  // Correct-mode guarded lane: the headline defense. Every flip that
  // reaches its C must be repaired in place or recomputed — and the
  // served result always matches the oracle.
  traffic.emplace_back([&] {
    robust::GuardOptions opts;
    opts.abft = integrity::AbftMode::kCorrect;
    robust::GuardedExecutor guard(core::reference_smm(), opts);
    Lane lane(64, 48, 64, 0xC0DE);
    Matrix<float> c(64, 48);
    run_lane(sh, /*storage_defended=*/false, [&] {
      const robust::RunReport r = guard.run(1.0f, lane.a.cview(),
                                            lane.b.cview(), 0.0f, c.view(), 2);
      if (r.outcome == robust::Outcome::kFailed)
        sh.guarded_failed.fetch_add(1);
      else if (!lane.check(c))
        sh.silent_corruptions.fetch_add(1);
      if (r.outcome == robust::Outcome::kCorrected)
        sh.corrected_serves.fetch_add(1);
    });
  });

  // Detect-mode guarded lane: rejection + recompute must be just as
  // corruption-tight as correction.
  traffic.emplace_back([&] {
    robust::GuardOptions opts;
    opts.abft = integrity::AbftMode::kDetect;
    robust::GuardedExecutor guard(core::reference_smm(), opts);
    Lane lane(48, 48, 32, 0xDE7EC7);
    Matrix<float> c(48, 48);
    run_lane(sh, /*storage_defended=*/false, [&] {
      const robust::RunReport r = guard.run(1.0f, lane.a.cview(),
                                            lane.b.cview(), 0.0f, c.view(), 1);
      if (r.outcome == robust::Outcome::kFailed)
        sh.guarded_failed.fetch_add(1);
      else if (!lane.check(c))
        sh.silent_corruptions.fetch_add(1);
    });
  });

  // Prepack replay lane: one long-lived handle whose sealed storage is
  // the target of kPrepackedStoreFlip. Its defense is the content seal —
  // validation repacks rotted bytes before any kernel reads them.
  traffic.emplace_back([&] {
    core::SmmOptions opts;
    opts.pack_b = core::SmmOptions::Packing::kAlways;
    Lane lane(32, 32, 32, 0x9AC4);
    Matrix<float> c(32, 32);
    const auto handle =
        core::smm_prepack_b<float>(lane.b.cview(), /*m=*/32, 1, opts);
    run_lane(sh, /*storage_defended=*/true, [&] {
      handle.run(1.0f, lane.a.cview(), 0.0f, c.view());
      if (!lane.check(c)) sh.silent_corruptions.fetch_add(1);
    });
  });

  // Plan-cache churn lane: a private cache under kPlanCacheFlip. Rotted
  // entries must be quarantined and rebuilt — the executed plan is always
  // a valid one, so the result always checks out.
  traffic.emplace_back([&] {
    core::PlanCache cache(core::reference_smm(), /*capacity=*/4);
    Lane lane(24, 24, 24, 0xCACE);
    Matrix<float> c(24, 24);
    run_lane(sh, /*storage_defended=*/true, [&] {
      const auto plan =
          cache.get(GemmShape{24, 24, 24}, plan::ScalarType::kF32, 1);
      plan::execute_plan(*plan, 1.0f, lane.a.cview(), lane.b.cview(), 0.0f,
                         c.view());
      if (!lane.check(c)) sh.silent_corruptions.fetch_add(1);
    });
  });

  // The corruption scheduler: cycle every flip site with calm phases in
  // between. Before arming a site the storage-layer lanes cannot defend
  // against, publish it and drain their in-flight iterations.
  constexpr robust::FaultSite kFlipSites[] = {
      robust::FaultSite::kKernelMiscompute,
      robust::FaultSite::kPackBitFlip,
      robust::FaultSite::kScratchSlabFlip,
      robust::FaultSite::kPrepackedStoreFlip,
      robust::FaultSite::kPlanCacheFlip,
  };
  constexpr std::size_t kNumSites =
      sizeof(kFlipSites) / sizeof(kFlipSites[0]);
  // arm() resets the injector's per-site fire counter, so the soak keeps
  // its own cumulative tally for the every-site-fired gate.
  std::uint64_t fired_total[kNumSites] = {};
  Rng rng(0x50AC);
  auto& injector = robust::FaultInjector::instance();
  const auto soak_end = Clock::now() + std::chrono::seconds(seconds);
  std::size_t phases = 0;
  while (Clock::now() < soak_end) {
    const std::size_t site_idx = phases++ % kNumSites;
    const robust::FaultSite site = kFlipSites[site_idx];
    g_armed_site.store(static_cast<int>(site), std::memory_order_relaxed);
    // Drain: storage-defended lanes observe the phase and pause; their
    // in-flight iterations are microseconds, this is miles of margin.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // SINGLE flips, re-armed only after the pending one lands: one flip
    // per verification window is the common real-world case, and the one
    // the element-correction path must own (a burst would smear into
    // multi-element damage and only ever exercise panel/recompute).
    // Waiting for the fire — instead of blindly re-arming on a clock —
    // matters on slow builds (sanitizers): arm() resets fire_after
    // progress, so a timer-based re-arm can starve a site forever.
    const auto arm_single = [&] {
      injector.arm(site, {.fire_after = rng.next_u64() % 16, .max_fires = 1,
                          .seed = rng.next_u64()});
    };
    arm_single();
    const auto phase_end = Clock::now() + std::chrono::milliseconds(phase_ms);
    while (Clock::now() < phase_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (injector.fired_count(site) > 0) {
        fired_total[site_idx] += injector.fired_count(site);
        arm_single();
      }
    }
    fired_total[site_idx] += injector.fired_count(site);
    injector.disarm(site);
    g_armed_site.store(-1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::milliseconds(phase_ms / 4));
  }

  sh.stop.store(true);
  for (auto& t : traffic) t.join();
  robust::FaultInjector::instance().disarm_all();
  integrity::set_mode_override(integrity::AbftMode::kAuto);

  const auto health1 = robust::health().snapshot();
  const auto d = [](std::size_t after, std::size_t before) {
    return after - before;
  };
  const std::size_t detected =
      d(health1.integrity_detected, health0.integrity_detected);
  const std::size_t corrected =
      d(health1.integrity_corrected, health0.integrity_corrected);
  const std::size_t recomputed =
      d(health1.integrity_recomputed, health0.integrity_recomputed);
  const std::size_t quarantines =
      d(health1.integrity_quarantines, health0.integrity_quarantines);
  const std::size_t repacks =
      d(health1.prepack_repacks, health0.prepack_repacks);
  const std::size_t seal_rebuilds =
      d(health1.plan_seal_rebuilds, health0.plan_seal_rebuilds);

  std::printf("corruption_soak: %d s, %zu phases, %zu ops\n", seconds,
              phases, sh.ops.load());
  std::printf("  silent corruptions : %zu\n", sh.silent_corruptions.load());
  std::printf("  guarded FAILED     : %zu\n", sh.guarded_failed.load());
  std::printf("  unexpected         : %zu\n", sh.unexpected.load());
  std::printf("  corrected serves   : %zu\n", sh.corrected_serves.load());
  std::printf("  detected=%zu corrected=%zu recomputed=%zu\n", detected,
              corrected, recomputed);
  std::printf("  quarantines=%zu prepack_repacks=%zu seal_rebuilds=%zu\n",
              quarantines, repacks, seal_rebuilds);
  for (std::size_t i = 0; i < kNumSites; ++i)
    std::printf("  fired %-22s: %llu\n", robust::to_string(kFlipSites[i]),
                static_cast<unsigned long long>(fired_total[i]));

  soak::Gates gates;
  gates.check(sh.silent_corruptions.load() != 0,
              "a corrupted result escaped to a caller");
  gates.check(sh.guarded_failed.load() != 0, "a guarded request fully failed");
  gates.check(sh.unexpected.load() != 0, "unexpected exception");
  gates.check(detected == 0, "no corruption was ever detected");
  gates.check(corrected == 0,
              "no single-element damage was repaired in place (correction)");
  gates.check(quarantines == 0, "no sealed-state mismatch was quarantined");
  gates.check(repacks == 0, "prepacked storage rot never triggered a repack");
  gates.check(seal_rebuilds == 0,
              "plan-cache rot never triggered a rebuild");
  gates.check(detected != corrected + recomputed,
              "accounting: detected != corrected + recomputed");
  for (std::size_t i = 0; i < kNumSites; ++i)
    gates.check(fired_total[i] == 0, "a flip site never fired");
  return gates.verdict("corruption_soak");
}
