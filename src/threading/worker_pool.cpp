#include "src/threading/worker_pool.h"

#include <algorithm>
#include <cstdlib>
#include <system_error>

#include "src/common/env.h"
#include "src/common/error.h"
#include "src/common/fork_guard.h"
#include "src/common/str.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/threading/spin.h"
#include "src/threading/thread_pool.h"

namespace smm::par {

namespace {

// Set while a thread executes a region body — on parked workers and on
// the master for the body it runs in place. A nested run_parallel from
// such a thread must not touch the pool (region_mu_ is non-recursive).
thread_local bool tls_in_pool_region = false;

// The innermost CurrentPoolBinding on this thread; null means "use the
// process-wide instance()". A raw pointer is safe because a binding's
// lifetime brackets every use (shard lanes bind for the whole request).
thread_local WorkerPool* tls_current_pool = nullptr;

// Spin budget of both handoff waits, as a time: `pause` costs ~140
// cycles on Sapphire Rapids and ~10 on pre-Skylake Intel cores, so a
// pause count would mean a different wait on every host. 50 µs covers
// what a caller does between back-to-back regions (a warm plan lookup
// is ≤ 28 µs at 192³) while an idle pool stops burning its cores almost
// at once.
constexpr std::chrono::microseconds kHandoffSpin{50};

/// Spin until `done()` holds or kHandoffSpin elapses; true when done()
/// held. Only used when the region fits the host (participants ≤
/// native_threads_available()), Barrier's rule: an oversubscribed
/// spinner steals the timeslice of the thread it waits for.
template <typename Done>
bool spin_for_handoff(Done done) {
  const auto until = std::chrono::steady_clock::now() + kHandoffSpin;
  for (;;) {
    if (done()) return true;
    if (std::chrono::steady_clock::now() >= until) return false;
    cpu_relax();
  }
}

}  // namespace

WorkerPool& WorkerPool::instance() {
  // Immortal (leaked) singleton: the ctor registers pthread_atfork
  // handlers that capture `this` and can never be unregistered, so the
  // pool must outlive any possible fork() — including one during or
  // after static destruction (fork_guard.h: only immortal process-wide
  // singletons may register). Threads are retired explicitly through
  // release_threads(); whatever is still parked dies with the process.
  static WorkerPool* pool = new WorkerPool(/*fork_guard=*/true);
  return *pool;
}

std::unique_ptr<WorkerPool> WorkerPool::create_private() {
  return std::unique_ptr<WorkerPool>(new WorkerPool(/*fork_guard=*/false));
}

WorkerPool& WorkerPool::current() {
  WorkerPool* bound = tls_current_pool;
  return bound != nullptr ? *bound : instance();
}

WorkerPool::CurrentPoolBinding::CurrentPoolBinding(WorkerPool& pool)
    : previous_(tls_current_pool) {
  tls_current_pool = &pool;
}

WorkerPool::CurrentPoolBinding::~CurrentPoolBinding() {
  tls_current_pool = previous_;
}

WorkerPool::WorkerPool(bool fork_guard) {
  // Generous default: the watchdog exists to catch dead workers, not slow
  // ones — a false positive poisons a healthy region mid-computation.
  timeout_ms_.store(env::read_long("SMMKIT_POOL_TIMEOUT_MS", 30000),
                    std::memory_order_relaxed);

  if (!fork_guard) return;

  // Fork safety (DESIGN.md §11): the child inherits the roster's state
  // but none of its threads — fork() copies only the calling thread. The
  // prepare handler holds both locks across the fork so the snapshot is
  // consistent (no region in flight, no half-grown roster); the child
  // handler then discards every thread handle and resets the pool to
  // empty, so the first post-fork region lazily spawns a fresh roster.
  common::register_fork_handlers(common::ForkHandlers{
      /*prepare=*/[this] {
        region_mu_.lock();
        mu_.lock();
      },
      /*parent=*/
      [this] {
        mu_.unlock();
        region_mu_.unlock();
      },
      /*child=*/
      [this] {
        // The std::thread handles refer to threads that do not exist in
        // this process; joining would hang, detaching passes a stale
        // descriptor to pthread_detach, and destruction would terminate().
        // Leak the handles — they are a few bytes, and fork-heavy callers
        // fork from a warmed parent rarely.
        new std::vector<std::thread>(std::move(workers_));
        workers_.clear();
        if (watchdog_.joinable()) new std::thread(std::move(watchdog_));
        ++generation_;
        wake_spinners();
        region_.reset();
        spare_region_.reset();
        task_nthreads_ = 0;
        deadline_armed_ = false;
        watchdog_wake_at_ = std::chrono::steady_clock::time_point::max();
        quarantined_ = false;
        watchdog_exit_ = false;
        // One increment per fork for the whole runtime (the plan caches
        // reset under the same atfork pass).
        robust::health().fork_resets.fetch_add(1,
                                               std::memory_order_relaxed);
        mu_.unlock();
        region_mu_.unlock();
      }});
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    wake_spinners();
  }
  cv_work_.notify_all();
  watchdog_cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (watchdog_.joinable()) watchdog_.join();
}

void WorkerPool::set_watchdog_timeout_ms(long ms) {
  timeout_ms_.store(ms < 0 ? 0 : ms, std::memory_order_relaxed);
}

long WorkerPool::watchdog_timeout_ms() const {
  return timeout_ms_.load(std::memory_order_relaxed);
}

bool WorkerPool::quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_;
}

void WorkerPool::serve(const std::shared_ptr<Region>& r, int tid) {
  tls_in_pool_region = true;
  std::exception_ptr err;
  try {
    if (tid != 0 && robust::should_fire(robust::FaultSite::kWorkerHang)) {
      // Models a stalled/descheduled/killed worker: park off the caller's
      // stack until the watchdog (or a test) cancels the hang, then fail
      // like any dead worker would.
      robust::HangController::instance().block_here();
      throw Error(ErrorCode::kPoolTimeout,
                  strprintf("smmkit: injected worker hang on thread %d "
                            "(released after cancel)",
                            tid));
    }
    if (robust::should_fire(robust::FaultSite::kWorkerThrow))
      throw Error(ErrorCode::kWorkerPanic,
                  strprintf("smmkit: injected worker fault on thread %d",
                            tid));
    bool run = true;
    if (tid != 0) {
      std::lock_guard<std::mutex> g(r->mu);
      run = !r->abandoned;  // caller gone: its body may dangle
    }
    if (run) (*r->body)(tid);
  } catch (...) {
    err = std::current_exception();
  }
  tls_in_pool_region = false;
  {
    std::lock_guard<std::mutex> g(r->mu);
    // While !abandoned (the flag is only flipped under r->mu) the caller
    // is still blocked inside try_run, so body/on_failure/errors are
    // alive. tid 0 is the caller's own thread: its slot is always safe.
    if (tid == 0 || !r->abandoned) {
      if (err) {
        r->errors[static_cast<std::size_t>(tid)] = err;
        // Unblock peers immediately: a dead body can never reach the
        // synchronization points the surviving bodies wait on.
        if (r->on_failure != nullptr && *r->on_failure) (*r->on_failure)();
      }
      r->finished[static_cast<std::size_t>(tid)] = 1;
    }
    // Drop the local reference while still holding r->mu. The caller
    // both reads the exception and releases the region's reference under
    // this mutex, so every release is mutex-ordered and the final delete
    // can never race a reader (exception_ptr's refcount lives in
    // uninstrumented libstdc++, invisible to TSan).
    err = nullptr;
    if (tid != 0) {
      if (--r->pending == 0) r->done_cv.notify_all();
      // Last write under r->mu: a spinning master takes r->mu as soon as
      // it sees the mirror reach zero.
      r->pending_spin.store(r->pending, std::memory_order_release);
    }
  }
}

void WorkerPool::worker_main(int wid, std::uint64_t seen,
                             std::uint64_t generation) {
  // `seen` was captured under mu_ at spawn registration, NOT read here:
  // the spawning region bumps epoch_ right after ensure_workers returns,
  // and a worker whose thread starts late must still see that bump as
  // new work, or the region waits forever for it. A generation mismatch
  // means the roster was rebuilt after a quarantine: this thread is no
  // longer part of the pool and exits.
  //
  // After serving a region the worker spins on wake_seq_ (no mu_) before
  // it parks, so a region dispatched right after the previous one is
  // picked up without a futex wakeup on either side.
  std::unique_lock<std::mutex> lock(mu_);
  const auto ready = [&] {
    return stop_ || generation_ != generation || epoch_ != seen;
  };
  bool caught_spinning = false;
  for (;;) {
    bool parked = false;
    if (!ready()) {
      cv_work_.wait(lock, ready);
      parked = true;
    }
    if (stop_ || generation_ != generation) return;
    seen = epoch_;
    if (wid >= task_nthreads_ - 1) {  // not part of this region
      caught_spinning = false;
      continue;
    }
    if (parked)
      ++parks_;
    else if (caught_spinning)
      ++spin_handoffs_;
    const std::shared_ptr<Region> region = region_;
    const bool spin = task_nthreads_ <= native_threads_available();
    // Read under mu_, so it matches `seen`: any later change to the
    // epoch or the roster moves it.
    const std::uint64_t ticket = wake_seq_.load(std::memory_order_relaxed);
    lock.unlock();
    serve(region, /*tid=*/wid + 1);
    caught_spinning = spin && spin_for_handoff([&] {
      return wake_seq_.load(std::memory_order_acquire) != ticket;
    });
    lock.lock();
  }
}

void WorkerPool::watchdog_main() {
  using Clock = std::chrono::steady_clock;
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t checked = 0;  // last epoch judged at its deadline
  for (;;) {
    if (stop_ || watchdog_exit_) return;
    if (region_ == nullptr || !deadline_armed_ || epoch_ == checked) {
      // Idle: nothing in flight needs a deadline. The next timed region's
      // try_run lowers watchdog_wake_at_ and notifies.
      watchdog_wake_at_ = Clock::time_point::max();
      watchdog_cv_.wait(lock, [&] {
        return stop_ || watchdog_exit_ ||
               watchdog_wake_at_ != Clock::time_point::max();
      });
      continue;
    }
    // Sleep until this region's deadline. Regions completing (or
    // starting) meanwhile do not wake the watchdog; only a try_run whose
    // deadline is earlier does, by lowering watchdog_wake_at_.
    const std::uint64_t epoch = epoch_;
    const auto wake_at = region_deadline_;
    watchdog_wake_at_ = wake_at;
    if (watchdog_cv_.wait_until(lock, wake_at, [&] {
          return stop_ || watchdog_exit_ || watchdog_wake_at_ != wake_at;
        }))
      continue;
    // The deadline belongs to `epoch`: if that region is over, re-arm on
    // whatever is in flight now instead of charging it to the next one.
    if (epoch_ != epoch || region_ == nullptr) continue;
    checked = epoch;
    const std::shared_ptr<Region> region = region_;
    const long timeout = timeout_ms_.load(std::memory_order_relaxed);
    lock.unlock();

    {
      std::unique_lock<std::mutex> g(region->mu);
      if (region->pending != 0) {
        region->timed_out = true;
        // Cancel the region: the caller's failure hook poisons the plan
        // barriers, so every body that is still alive fails out of its
        // next synchronization point instead of waiting forever for the
        // dead worker.
        if (region->on_failure != nullptr && *region->on_failure)
          (*region->on_failure)();
        g.unlock();
        robust::cancel_injected_hangs();
        g.lock();
        // Grace period: poisoned bodies need a moment to unwind. A
        // worker that still has not reported in is treated as lost —
        // the region is abandoned (survivors skip the caller's body,
        // which is about to go out of scope) and the master is released.
        const auto grace = std::chrono::milliseconds(
            std::clamp(timeout / 4, 10L, 1000L));
        if (!region->done_cv.wait_for(
                g, grace, [&] { return region->pending == 0; }))
          region->abandoned = true;
        region->done_cv.notify_all();
      }
    }
    lock.lock();
  }
}

bool WorkerPool::ensure_workers(int count) {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int>(workers_.size()) < count &&
      robust::should_fire(robust::FaultSite::kPoolSpawnFail)) {
    robust::health().pool_spawn_failures.fetch_add(
        1, std::memory_order_relaxed);
    return false;
  }
  while (static_cast<int>(workers_.size()) < count) {
    const int wid = static_cast<int>(workers_.size());
    const std::uint64_t spawn_epoch = epoch_;
    const std::uint64_t generation = generation_;
    try {
      workers_.emplace_back([this, wid, spawn_epoch, generation] {
        worker_main(wid, spawn_epoch, generation);
      });
    } catch (const std::system_error&) {
      // Resource exhaustion. The partial roster stays parked (it is
      // still valid); this region is declined and served by the spawn
      // fallback — which may itself fail, but per-call threads release
      // their resources, persistent ones would hold them forever.
      robust::health().pool_spawn_failures.fetch_add(
          1, std::memory_order_relaxed);
      return false;
    }
  }
  return true;
}

void WorkerPool::rebuild() {
  std::lock_guard<std::mutex> lock(mu_);
  // Retire the old roster: healthy parked workers wake on the generation
  // bump and exit; a hung worker exits whenever its hang resolves. They
  // are detached — joining would inherit the very hang the quarantine is
  // escaping.
  ++generation_;
  wake_spinners();
  for (auto& w : workers_) w.detach();
  workers_.clear();
  quarantined_ = false;
  ++rebuilds_;
  robust::health().pool_rebuilds.fetch_add(1, std::memory_order_relaxed);
  cv_work_.notify_all();
}

bool WorkerPool::try_run(int nthreads,
                         const std::function<void(int)>& body,
                         const std::function<void()>& on_worker_failure,
                         std::vector<std::exception_ptr>& errors) {
  if (nthreads - 1 > kMaxWorkers) return false;
  if (tls_in_pool_region) return false;
  std::unique_lock<std::mutex> region_lock(region_mu_, std::try_to_lock);
  if (!region_lock.owns_lock()) return false;

  bool need_rebuild = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    need_rebuild = quarantined_;
  }
  if (need_rebuild) {
    // Declining this one region lets the spawn fallback serve it while
    // the fresh roster spins up lazily on the next dispatch.
    rebuild();
    return false;
  }

  if (!ensure_workers(nthreads - 1)) return false;

  const long timeout = timeout_ms_.load(std::memory_order_relaxed);
  std::shared_ptr<Region> region;
  bool wake_watchdog = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!spare_region_) spare_region_ = std::make_shared<Region>();
    region = spare_region_;
    {
      std::lock_guard<std::mutex> g(region->mu);
      region->body = &body;
      region->on_failure = &on_worker_failure;
      region->nthreads = nthreads;
      region->pending = nthreads - 1;
      region->pending_spin.store(nthreads - 1, std::memory_order_relaxed);
      region->timed_out = false;
      region->abandoned = false;
      region->errors.assign(static_cast<std::size_t>(nthreads), nullptr);
      region->finished.assign(static_cast<std::size_t>(nthreads), 0);
    }
    region_ = region;
    task_nthreads_ = nthreads;
    ++regions_;
    dispatches_ += static_cast<std::size_t>(nthreads - 1);
    deadline_armed_ = timeout > 0;
    if (timeout > 0) {
      region_deadline_ = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(timeout);
      if (!watchdog_.joinable()) {
        try {
          watchdog_ = std::thread([this] { watchdog_main(); });
        } catch (const std::system_error&) {
          // No watchdog thread available: the pool still works, it just
          // cannot detect hangs. Deliberate best-effort.
        }
      } else if (region_deadline_ < watchdog_wake_at_) {
        // Idle-parked watchdog (wake_at is max), or one sleeping toward
        // a later deadline than this region's (the timeout shrank).
        watchdog_wake_at_ = region_deadline_;
        wake_watchdog = true;
      }
    }
    ++epoch_;
    wake_spinners();
  }
  // No syscall when no worker is parked: spinning workers saw wake_seq_.
  cv_work_.notify_all();
  if (wake_watchdog) watchdog_cv_.notify_one();
  robust::health().pool_regions.fetch_add(1, std::memory_order_relaxed);

  serve(region, /*tid=*/0);  // master participates instead of blocking
  if (nthreads <= native_threads_available()) {
    spin_for_handoff([&] {
      return region->pending_spin.load(std::memory_order_acquire) == 0;
    });
  }

  bool timed_out = false;
  bool abandoned = false;
  {
    std::unique_lock<std::mutex> g(region->mu);
    region->done_cv.wait(
        g, [&] { return region->pending == 0 || region->abandoned; });
    timed_out = region->timed_out;
    abandoned = region->abandoned;
    for (int t = 0; t < nthreads; ++t)
      errors[static_cast<std::size_t>(t)] =
          region->errors[static_cast<std::size_t>(t)];
    if (timed_out) {
      for (int t = 1; t < nthreads; ++t) {
        auto& slot = errors[static_cast<std::size_t>(t)];
        if (!region->finished[static_cast<std::size_t>(t)] && !slot)
          slot = std::make_exception_ptr(Error(
              ErrorCode::kPoolTimeout,
              strprintf("smmkit: pool worker (thread %d) missed the "
                        "%ld ms watchdog deadline",
                        t, timeout)));
      }
    }
    // Release the region's exception references here, on the caller's
    // thread and under the region mutex — not when the next (possibly
    // unrelated) caller recycles the region. The exception object must
    // not be deleted on a thread that never synchronized with its
    // readers: exception_ptr's refcount lives in uninstrumented
    // libstdc++, so TSan cannot prove a cross-thread last release safe.
    region->errors.assign(region->errors.size(), nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    region_.reset();
    if (abandoned) spare_region_.reset();  // the lost worker still owns it
    if (timed_out) {
      ++watchdog_timeouts_;
      robust::health().pool_watchdog_timeouts.fetch_add(
          1, std::memory_order_relaxed);
      // Quarantine before releasing region_mu_: the next try_run must
      // see it and rebuild, never dispatch onto a roster with a lost
      // worker.
      if (!quarantined_) {
        quarantined_ = true;
        ++quarantines_;
        robust::health().pool_quarantines.fetch_add(
            1, std::memory_order_relaxed);
      }
    }
  }
  return true;
}

void WorkerPool::release_threads() {
  // Exclusive with regions: holding region_mu_ guarantees nothing is in
  // flight while the roster is retired, so every healthy worker is
  // parked on cv_work_ and exits promptly on the generation bump.
  std::lock_guard<std::mutex> region_lock(region_mu_);
  std::vector<std::thread> retired;
  std::thread dog;
  bool join_workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    // A quarantined roster may hold a thread that is genuinely hung:
    // joining it would inherit the hang. Detach those (rebuild() does
    // the same); a healthy roster is joined so the no-live-threads
    // promise is real.
    join_workers = !quarantined_;
    quarantined_ = false;
    retired.swap(workers_);
    dog = std::move(watchdog_);
    watchdog_exit_ = dog.joinable();
    wake_spinners();
  }
  cv_work_.notify_all();
  watchdog_cv_.notify_all();
  for (auto& w : retired) {
    if (join_workers)
      w.join();
    else
      w.detach();
  }
  if (dog.joinable()) dog.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    watchdog_exit_ = false;  // the next timed region respawns a watchdog
    watchdog_wake_at_ = std::chrono::steady_clock::time_point::max();
  }
}

int WorkerPool::live_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size()) + (watchdog_.joinable() ? 1 : 0);
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{static_cast<int>(workers_.size()),
               regions_,
               dispatches_,
               watchdog_timeouts_,
               quarantines_,
               rebuilds_,
               spin_handoffs_,
               parks_};
}

}  // namespace smm::par
