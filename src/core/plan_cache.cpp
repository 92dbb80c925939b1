#include "src/core/plan_cache.h"

#include <optional>
#include <utility>

#include "src/common/error.h"
#include "src/common/fork_guard.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"

namespace smm::core {

PlanCache::PlanCache(const libs::GemmStrategy& strategy,
                     std::size_t capacity)
    : strategy_(strategy), capacity_(capacity) {
  SMM_EXPECT(capacity > 0, "plan cache needs capacity");
}

std::shared_ptr<const plan::GemmPlan> PlanCache::get(
    GemmShape shape, plan::ScalarType scalar, int nthreads,
    std::uint64_t fingerprint) {
  return get_or_build(shape, scalar, nthreads, fingerprint, [&] {
    return strategy_.make_plan(shape, scalar, nthreads);
  });
}

std::shared_ptr<const plan::GemmPlan> PlanCache::get_or_build(
    GemmShape shape, plan::ScalarType scalar, int nthreads,
    std::uint64_t fingerprint, FunctionRef<plan::GemmPlan()> build) {
  const Key key{shape.m, shape.n, shape.k, static_cast<int>(scalar),
                nthreads, fingerprint};
  for (;;) {
    // Built only on a miss: std::promise allocates its shared state.
    std::optional<std::promise<PlanPtr>> promise;
    std::shared_future<PlanPtr> inflight;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = index_.find(key);
      if (it != index_.end()) {
        Entry& entry = *it->second;
        // Rot injection hits the stored seal, not the plan: the plan is
        // shared immutable state that concurrent executors may be
        // reading right now. Corrupting the seal exercises exactly the
        // same defense (mismatch -> quarantine -> rebuild).
        if (robust::should_fire(robust::FaultSite::kPlanCacheFlip))
          entry.seal ^= std::uint64_t{1} << 17;
        if (integrity::mode() != integrity::AbftMode::kOff &&
            integrity::plan_seal(*entry.plan) != entry.seal) {
          // The entry rotted after it was blessed. Quarantine it and fall
          // through to the miss path — a poisoned plan is never served.
          lru_.erase(it->second);
          index_.erase(it);
          seal_rejections_.fetch_add(1, std::memory_order_relaxed);
          robust::Health& h = robust::health();
          h.integrity_quarantines.fetch_add(1, std::memory_order_relaxed);
          h.plan_seal_rebuilds.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++hits_;
          lru_.splice(lru_.begin(), lru_, it->second);  // bump to front
          robust::health().plan_cache_hits.fetch_add(
              1, std::memory_order_relaxed);
          return it->second->plan;
        }
      }
      const auto flight = inflight_.find(key);
      if (flight != inflight_.end()) {
        // Same key already building: share that build instead of doing a
        // redundant one. Counted as a hit — this caller built nothing.
        inflight = flight->second;
        ++hits_;
        robust::health().plan_cache_hits.fetch_add(
            1, std::memory_order_relaxed);
      } else {
        ++misses_;
        robust::health().plan_cache_misses.fetch_add(
            1, std::memory_order_relaxed);
        promise.emplace();
        inflight_.emplace(key, promise->get_future().share());
      }
    }

    if (inflight.valid()) {
      try {
        return inflight.get();
      } catch (...) {
        // The build this caller piggybacked on failed. That failure is
        // the builder's own to report; swallowing it here and retrying
        // the full lookup keeps one transient fault from fanning out to
        // every concurrent caller of the key (and the failed in-flight
        // entry is already erased, so the retry starts clean).
        continue;
      }
    }

    // This caller builds. Outside the lock: plan construction is the
    // expensive part and must not serialize hits on other keys behind it.
    PlanPtr plan;
    std::uint64_t seal = 0;
    try {
      plan = std::make_shared<const plan::GemmPlan>(build());
      builds_.fetch_add(1, std::memory_order_relaxed);
      // Seal at build time, unconditionally (outside the lock — it walks
      // the whole op list): entries inserted while integrity was off must
      // still validate correctly if the mode is turned on later.
      seal = integrity::plan_seal(*plan);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_.erase(key);
      }
      promise->set_exception(std::current_exception());
      throw;
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      inflight_.erase(key);
      // clear() may have raced the build; insert into whatever state the
      // cache is in now (a pre-existing entry is impossible — inflight_
      // excluded every other builder of this key). An insert failure
      // (injected, or an allocation failing under real memory pressure)
      // degrades to serving the plan uncached: the caller paid for the
      // build and must get its plan; only future calls repay the miss.
      try {
        if (robust::should_fire(robust::FaultSite::kCacheInsertFail))
          throw Error(ErrorCode::kCacheInsertFail,
                      "smmkit: injected plan-cache insert failure");
        lru_.emplace_front(Entry{key, plan, seal});
        try {
          index_[key] = lru_.begin();
        } catch (...) {
          lru_.pop_front();  // keep lru_/index_ consistent
          throw;
        }
        if (lru_.size() > capacity_) {
          index_.erase(lru_.back().key);
          lru_.pop_back();
        }
      } catch (...) {
        insert_failures_.fetch_add(1, std::memory_order_relaxed);
        robust::health().plan_cache_insert_failures.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
    promise->set_value(plan);
    return plan;
  }
}

void PlanCache::protect_across_fork() {
  common::register_fork_handlers(common::ForkHandlers{
      /*prepare=*/[this] { mu_.lock(); },
      /*parent=*/[this] { mu_.unlock(); },
      /*child=*/
      [this] {
        // Completed entries stay valid (plans are immutable data); only
        // builds whose builder thread existed in the parent are gone.
        // The next miss on those keys rebuilds cleanly.
        inflight_.clear();
        mu_.unlock();
      }});
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
  // In-flight builds are left to finish: their waiters still get a plan,
  // and the completed build re-inserts into the emptied cache.
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  builds_.store(0, std::memory_order_relaxed);
}

}  // namespace smm::core
