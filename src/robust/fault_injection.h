// Deterministic fault injection — the test harness for every error path in
// the execution stack. Injection points are compiled in permanently and
// threaded through the hot layers (pack routines, worker threads, scratch
// allocation, kernel epilogue); when nothing is armed the only cost is one
// relaxed atomic load of a process-wide flag, so production builds carry
// the hooks for free and tests can exercise any failure on demand.
//
// Faults are deterministic: a FaultSpec arms one site with an invocation
// counter (fire on the Nth hit, up to max_fires times) and a seed that
// picks *what* to corrupt (which element, which bit), so a failing seed
// reproduces exactly.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "src/common/types.h"

namespace smm::robust {

/// Where a fault lands. One enumerator per hooked layer.
enum class FaultSite : int {
  kPackBitFlip = 0,    ///< pack::pack_a/pack_b: flip a bit of one packed elem
  kWorkerThrow,        ///< par::run_parallel: throw from a worker body
  kAllocFail,          ///< AlignedBuffer::reset: scratch allocation fails
  kKernelMiscompute,   ///< native executor: corrupt one C element post-kernel
  kWorkerHang,         ///< WorkerPool: park a worker until the hang is canceled
  kPoolSpawnFail,      ///< worker-thread creation fails (pool grow + spawn path)
  kArenaExhausted,     ///< ExecScratch: the slab cannot serve the lease
  kCacheInsertFail,    ///< PlanCache: inserting a freshly built plan fails
  kPrepackAlloc,       ///< PrepackedB: materialization allocation fails
  kBarrierTrip,        ///< Barrier::arrive_and_wait: the arrival faults
  kNonFiniteInput,     ///< input-hygiene screen: reports a NaN/Inf input
  // Silent-data-corruption sites (DESIGN.md §12): bit rot in long-lived
  // or in-flight state, caught by the integrity layer rather than by a
  // thrown exception.
  kPrepackedStoreFlip, ///< PrepackedB: flip a bit in the sealed packed storage
  kPlanCacheFlip,      ///< PlanCache: rot a cached entry (seal diverges from plan)
  kScratchSlabFlip,    ///< executor: flip a bit in a freshly packed scratch panel
};
inline constexpr int kFaultSiteCount = 14;

const char* to_string(FaultSite site);

/// Arms one site. Deterministic: the site fires on invocation number
/// `fire_after` (0 = the very next hit), at most `max_fires` times; `seed`
/// selects the corrupted element/bit for the value-corrupting sites.
struct FaultSpec {
  std::uint64_t fire_after = 0;
  std::uint64_t max_fires = 1;
  std::uint64_t seed = 0x5eed5eedULL;
};

/// Process-wide injector. All methods are thread-safe; the disarmed fast
/// path is a single relaxed atomic load (see should_fire below).
class FaultInjector {
 public:
  static FaultInjector& instance();

  void arm(FaultSite site, FaultSpec spec);
  void disarm(FaultSite site);
  void disarm_all();

  /// Invocations of the site observed while it was armed.
  [[nodiscard]] std::uint64_t hit_count(FaultSite site) const;
  /// Faults actually delivered at the site since it was last armed.
  [[nodiscard]] std::uint64_t fired_count(FaultSite site) const;
  [[nodiscard]] bool armed(FaultSite site) const;

  /// Slow path of should_fire: counts the hit and decides. Never called
  /// when nothing is armed.
  bool fire(FaultSite site);

  /// Seed the site was armed with (valid while armed; used by the
  /// corruption helpers to pick elements/bits deterministically).
  [[nodiscard]] std::uint64_t seed(FaultSite site) const;

 private:
  FaultInjector() = default;
  struct SiteState;
  SiteState& state(FaultSite site) const;
};

namespace detail {
/// True iff any site is armed. Relaxed is fine: arming happens-before the
/// runs that are meant to observe it (tests arm, then call).
extern std::atomic<int> g_armed_sites;
}  // namespace detail

/// Hot-path hook: zero work unless some site is armed somewhere.
inline bool should_fire(FaultSite site) {
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0)
    return false;
  return FaultInjector::instance().fire(site);
}

/// Corrupt buf[i] (i chosen from the site's seed; the top exponent bit is
/// flipped so the delta is never numerically invisible) if the site
/// fires. Call from packing/kernel epilogues.
void maybe_corrupt_f32(FaultSite site, float* buf, index_t count);
void maybe_corrupt_f64(FaultSite site, double* buf, index_t count);

template <typename T>
inline void maybe_corrupt(FaultSite site, T* buf, index_t count) {
  // Disarmed: one relaxed load, no call.
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0) return;
  if constexpr (sizeof(T) == 4) {
    maybe_corrupt_f32(site, reinterpret_cast<float*>(buf), count);
  } else {
    maybe_corrupt_f64(site, reinterpret_cast<double*>(buf), count);
  }
}

/// Parking lot for kWorkerHang. A "hung" worker is not abandoned memory —
/// it blocks here, off the caller's stack, until something cancels the
/// hang: the pool watchdog (after poisoning the region) or a test/chaos
/// teardown. A canceled hang returns from block_here(), and the injection
/// site then throws like any other worker fault, so the thread unwinds
/// through the normal failure-aggregation path instead of leaking.
class HangController {
 public:
  /// Leaked singleton: a worker may still be parked here at process exit
  /// (a hang nobody canceled); destroying the condvar under it would be UB.
  static HangController& instance();

  /// Block until cancel_all(); returns immediately if already canceled.
  void block_here();
  /// Release every parked thread and make future block_here() calls
  /// return immediately (until reset()).
  void cancel_all();
  /// Re-arm blocking after a cancel (tests between cases).
  void reset();
  /// Threads currently parked.
  [[nodiscard]] int waiting() const;

 private:
  HangController() = default;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool canceled_ = false;
  int waiting_ = 0;
};

/// Shorthands used by the pool watchdog and test teardown.
inline void cancel_injected_hangs() { HangController::instance().cancel_all(); }
inline void reset_injected_hangs() { HangController::instance().reset(); }

/// RAII: disarms everything on destruction (tests use it so one failing
/// case cannot leak an armed fault into the next).
struct ScopedFault {
  ScopedFault(FaultSite site, FaultSpec spec) {
    FaultInjector::instance().arm(site, spec);
  }
  ~ScopedFault() { FaultInjector::instance().disarm_all(); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;
};

}  // namespace smm::robust
