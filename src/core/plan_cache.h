// Plan dispatch cache — the practical form of the paper's "adaptive code
// generation" recommendation (Section IV): like LIBXSMM's JIT dispatch,
// the expensive shape-specific artifact (here a GemmPlan instead of
// machine code) is built once per shape and looked up on every call.
// Thread-safe; LRU-bounded; concurrent misses on the same key are
// single-flighted (one build, every racer gets the same plan).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>

#include "src/common/function_ref.h"
#include "src/libs/gemm_interface.h"
#include "src/plan/plan.h"

namespace smm::core {

class PlanCache {
 public:
  /// Caches plans produced by `strategy` (which must outlive the cache).
  explicit PlanCache(const libs::GemmStrategy& strategy,
                     std::size_t capacity = 256);

  /// The plan for (shape, scalar, nthreads, fingerprint): cached, or
  /// built by the constructor strategy and inserted. `fingerprint`
  /// disambiguates plans that share a shape but were built under
  /// different options (e.g. core::options_fingerprint) — without it a
  /// cache serving several option sets would alias their plans. Returned
  /// as shared_ptr so an entry may be evicted while callers still
  /// execute it.
  std::shared_ptr<const plan::GemmPlan> get(GemmShape shape,
                                            plan::ScalarType scalar,
                                            int nthreads,
                                            std::uint64_t fingerprint = 0);

  /// Like get(), but a miss builds through `build` instead of the
  /// constructor strategy — the hook that lets one process-wide cache
  /// serve every option set. Concurrent misses on one key are
  /// single-flighted: the first caller builds, the racers block on the
  /// in-flight build and share its plan (counted as hits — they did not
  /// build). A build that throws propagates to its own caller only;
  /// waiters that shared the failed build retry the lookup (becoming
  /// builders themselves if needed), so one transient fault cannot fan
  /// out across every concurrent call, and a failed build is never
  /// cached. If inserting the freshly built plan fails (memory
  /// pressure), the plan is served uncached instead of throwing. A hit
  /// performs no heap allocation: the single-flight state is built only
  /// on a miss. `build` runs outside the cache lock.
  std::shared_ptr<const plan::GemmPlan> get_or_build(
      GemmShape shape, plan::ScalarType scalar, int nthreads,
      std::uint64_t fingerprint, FunctionRef<plan::GemmPlan()> build);

  [[nodiscard]] std::size_t size() const;
  // Counters are read lock-free while writers hold the mutex, so they
  // must be atomic (relaxed: they are statistics, not synchronization).
  [[nodiscard]] std::size_t hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Plans actually constructed on behalf of this cache. Single-flight
  /// makes builds() == misses() in steady state; the counter stays
  /// separate so tests can assert "warm calls build nothing".
  [[nodiscard]] std::size_t builds() const {
    return builds_.load(std::memory_order_relaxed);
  }
  /// Freshly built plans the cache could not insert (served uncached).
  [[nodiscard]] std::size_t insert_failures() const {
    return insert_failures_.load(std::memory_order_relaxed);
  }
  /// Sealed entries rejected on a hit (structural checksum mismatch —
  /// the cached plan rotted after insert). Each rejection quarantines
  /// the entry and falls through to a fresh build.
  [[nodiscard]] std::size_t seal_rejections() const {
    return seal_rejections_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  void clear();

  /// Fork safety (DESIGN.md §11): hold mu_ across fork() so the child's
  /// snapshot is consistent, and drop in-flight builds in the child —
  /// their builder threads died with the parent, so a child waiter on
  /// one of those futures would block forever. Registration is
  /// permanent: only immortal process-wide caches (smm_plan_cache,
  /// default_plan_cache) may call this, never per-instance caches.
  void protect_across_fork();

 private:
  struct Key {
    index_t m, n, k;
    int scalar;
    int nthreads;
    std::uint64_t fingerprint;
    auto operator<=>(const Key&) const = default;
  };
  using PlanPtr = std::shared_ptr<const plan::GemmPlan>;

  /// A cached plan plus the structural seal computed when it was built
  /// (integrity::plan_seal). Validated on every hit while the process
  /// integrity mode is on; a mismatch means the entry rotted in cache —
  /// it is quarantined (dropped) and the lookup falls through to a
  /// fresh build instead of serving the poisoned plan. The kPlanCacheFlip
  /// injection site corrupts the *stored seal* (under mu_), never the
  /// shared immutable plan — concurrent executors may be reading it.
  struct Entry {
    Key key;
    PlanPtr plan;
    std::uint64_t seal = 0;
  };

  const libs::GemmStrategy& strategy_;
  const std::size_t capacity_;
  mutable std::mutex mu_;
  // LRU: most recent at front; map points into the list.
  std::list<Entry> lru_;
  std::map<Key, decltype(lru_)::iterator> index_;
  // Builds in flight: racers on the same key wait on the shared future
  // instead of building redundantly. Entries are removed (under mu_)
  // when the build completes or throws.
  std::map<Key, std::shared_future<PlanPtr>> inflight_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> builds_{0};
  std::atomic<std::size_t> insert_failures_{0};
  std::atomic<std::size_t> seal_rejections_{0};
};

}  // namespace smm::core
