#include "src/threading/worker_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
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

using Clock = std::chrono::steady_clock;

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
  const auto until = Clock::now() + kHandoffSpin;
  for (;;) {
    if (done()) return true;
    if (Clock::now() >= until) return false;
    cpu_relax();
  }
}

// Region word: sequence number in the high bits, width in the low ones.
constexpr int kWidthBits = 16;
constexpr std::uint64_t kWidthMask = (std::uint64_t{1} << kWidthBits) - 1;

std::uint64_t region_word(std::uint64_t seq, int nthreads) {
  return seq << kWidthBits | static_cast<std::uint64_t>(nthreads);
}

// Completion word: the workers of region `seq` that finished (count),
// tagged with (the low bits of) that region's sequence number, plus
// flags. The first worker to finish a region restarts the count at 1
// under the new tag, so the master never writes the word on dispatch.
constexpr int kSeqShift = 12;  // count bits: kMaxWorkers fits
constexpr std::uint64_t kCountMask = (std::uint64_t{1} << kSeqShift) - 1;
constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << 47) - 1;
/// The roster is retired: its workers exit.
constexpr std::uint64_t kRetired = std::uint64_t{1} << 59;
/// A master or the watchdog waits on Roster::cv: finishing workers
/// notify it.
constexpr std::uint64_t kWaiters = std::uint64_t{1} << 60;
/// The watchdog expired the region (sticky: the roster is retired next).
constexpr std::uint64_t kTimedOut = std::uint64_t{1} << 61;
/// The watchdog is calling the region's failure hook: the master must
/// not return (the hook and what it touches live in the caller).
constexpr std::uint64_t kPinned = std::uint64_t{1} << 62;
/// The watchdog gave up on the region: workers that have not started
/// their body never will, and the master returns without them.
constexpr std::uint64_t kAbandoned = std::uint64_t{1} << 63;
constexpr std::uint64_t kFlags =
    kRetired | kWaiters | kTimedOut | kPinned | kAbandoned;

std::uint64_t done_tag(std::uint64_t seq) {
  return (seq & kSeqMask) << kSeqShift;
}

/// Whether every worker of region `seq` (of `nthreads`) has reported in,
/// judged from completion word `v`. The word counts for the region it is
/// tagged with: an older tag means none of this region's workers
/// finished yet, a newer one that this region completed before it.
bool region_complete(std::uint64_t v, std::uint64_t seq, int nthreads) {
  if (nthreads <= 1) return true;
  const std::uint64_t ahead = ((v >> kSeqShift) - seq) & kSeqMask;
  if (ahead == 0)
    return (v & kCountMask) == static_cast<std::uint64_t>(nthreads - 1);
  return ahead < (kSeqMask >> 1);
}

/// The master may return: its workers all reported in and the watchdog
/// is not inside the failure hook, or the watchdog abandoned the region.
bool master_may_return(std::uint64_t v, std::uint64_t seq, int nthreads) {
  return (v & kAbandoned) != 0 ||
         ((v & kPinned) == 0 && region_complete(v, seq, nthreads));
}

/// Still in flight with workers outstanding, as the watchdog sees it.
bool in_flight(std::uint64_t v, std::uint64_t seq, int nthreads) {
  return (v & kAbandoned) == 0 && !region_complete(v, seq, nthreads);
}

constexpr std::int64_t kNoDeadline = 0;
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

Clock::time_point from_ns(std::int64_t ns) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::nanoseconds(ns)));
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

WorkerPool::WorkerPool(bool fork_guard)
    : watchdog_wake_ns_(kNever), roster_(make_roster()) {
  // Generous default: the watchdog exists to catch dead workers, not slow
  // ones — a false positive poisons a healthy region mid-computation.
  timeout_ms_.store(env::read_long("SMMKIT_POOL_TIMEOUT_MS", 30000),
                    std::memory_order_relaxed);

  if (!fork_guard) return;

  // Fork safety (DESIGN.md §11): the child inherits the roster's state
  // but none of its threads — fork() copies only the calling thread. The
  // prepare handler holds both locks across the fork so the snapshot is
  // consistent (no region in flight, no half-grown roster); the child
  // handler then discards every thread handle and installs an empty
  // roster, so the first post-fork region lazily spawns a fresh one.
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
        // fork from a warmed parent rarely. The old roster is leaked with
        // them: its slot mutexes may be held by threads that are gone.
        new std::vector<std::thread>(std::move(workers_));
        workers_.clear();
        if (watchdog_.joinable()) new std::thread(std::move(watchdog_));
        for (const auto& slot : roster_->slots) {
          retired_spin_handoffs_ +=
              slot->spin_handoffs.load(std::memory_order_relaxed);
          retired_parks_ += slot->parks.load(std::memory_order_relaxed);
        }
        new std::shared_ptr<Roster>(std::move(roster_));
        roster_ = make_roster();
        deadline_ns_.store(kNoDeadline, std::memory_order_relaxed);
        watchdog_wake_ns_.store(kNever, std::memory_order_relaxed);
        quarantined_.store(false, std::memory_order_relaxed);
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
    retire_roster_locked();
  }
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
  return quarantined_.load(std::memory_order_acquire);
}

WorkerPool::Region WorkerPool::Roster::region_fields(
    std::uint64_t word) const {
  // Acquire loads pair with try_run's release stores: if a field read
  // here already belongs to a later region, region `word` is over
  // (completed or abandoned), and every completion-word load after this
  // one sees that. On x86-64 and AArch64 (ldar) these cost what relaxed
  // loads do on a line the worker already holds.
  Region r;
  r.seq = word >> kWidthBits;
  r.nthreads = static_cast<int>(word & kWidthMask);
  r.body = Body(body_object.load(std::memory_order_acquire),
                body_thunk.load(std::memory_order_acquire));
  r.on_failure = Hook(hook_object.load(std::memory_order_acquire),
                      hook_thunk.load(std::memory_order_acquire));
  r.errors = errors.load(std::memory_order_acquire);
  return r;
}

void WorkerPool::serve(Roster& roster, Slot* slot, const Region& r,
                       int tid) {
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
    // Exactly once against abandonment: a worker that finds the region
    // abandoned never starts the caller's body, which may dangle by now.
    if (tid == 0 ||
        (roster.done.load(std::memory_order_acquire) & kAbandoned) == 0)
      r.body(tid);
  } catch (...) {
    err = std::current_exception();
  }
  tls_in_pool_region = false;
  if (err) {
    if (tid == 0) {
      // The master's own slot: the caller is this thread.
      r.errors[0] = err;
      // Unblock peers immediately: a dead body can never reach the
      // synchronization points the surviving bodies wait on.
      if (r.on_failure) r.on_failure();
    } else {
      // Under Roster::mu, which abandonment also takes: while the region
      // is not abandoned the caller is still blocked inside try_run, so
      // the hook and the error slots are alive.
      std::lock_guard<std::mutex> g(roster.mu);
      if ((roster.done.load(std::memory_order_relaxed) & kAbandoned) == 0) {
        r.errors[tid] = err;
        if (r.on_failure) r.on_failure();
      }
      // Drop the local reference under the mutex too: the caller's reads
      // are ordered after it (by this mutex, or by the completion word
      // below), so the exception's last release never races a reader
      // (exception_ptr's refcount lives in uninstrumented libstdc++,
      // invisible to TSan).
      err = nullptr;
    }
  }
  if (tid == 0) return;
  slot->finished_seq.store(r.seq, std::memory_order_relaxed);
  // Report in: one compare-exchange on the completion word, which
  // publishes the body's writes (and any error) to the master.
  std::uint64_t v = roster.done.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = ((v >> kSeqShift) & kSeqMask) == (r.seq & kSeqMask)
               ? v + 1
               : (v & kFlags) | done_tag(r.seq) | 1;
  } while (!roster.done.compare_exchange_weak(v, next,
                                              std::memory_order_release,
                                              std::memory_order_relaxed));
  if ((v & kWaiters) != 0) {
    { std::lock_guard<std::mutex> g(roster.mu); }
    roster.cv.notify_all();
  }
}

void WorkerPool::worker_main(std::shared_ptr<Roster> roster_ref, Slot* slot,
                             int wid, std::uint64_t seen) {
  // `seen` is the region sequence number at spawn registration, NOT read
  // here: the spawning region publishes right after ensure_workers
  // returns, and a worker whose thread starts late must still see that
  // region as new work, or the region waits forever for it.
  //
  // After serving a region the worker spins on the region word before it
  // parks, so a region dispatched right after the previous one is picked
  // up without a futex wakeup on either side.
  Roster& roster = *roster_ref;
  bool spin = false;  // the last region served fits the host
  for (;;) {
    std::uint64_t word = roster.region_word.load(std::memory_order_acquire);
    bool parked = false;
    if ((word >> kWidthBits) == seen &&
        !(spin && spin_for_handoff([&] {
          word = roster.region_word.load(std::memory_order_acquire);
          return (word >> kWidthBits) != seen;
        }))) {
      // Park. Announce it first, then re-check: try_run publishes, then
      // reads `parked` (both seq_cst), so one of the two sees the other.
      std::unique_lock<std::mutex> lock(slot->mu);
      slot->parked.store(true, std::memory_order_seq_cst);
      while (((word = roster.region_word.load(std::memory_order_seq_cst)) >>
              kWidthBits) == seen)
        slot->cv.wait(lock);
      slot->parked.store(false, std::memory_order_relaxed);
      parked = true;
    }
    seen = word >> kWidthBits;
    const Region r = roster.region_fields(word);
    if ((roster.done.load(std::memory_order_acquire) & kRetired) != 0)
      return;
    if (wid >= r.nthreads - 1) {
      // Not part of this region: park until a region names this worker.
      spin = false;
      continue;
    }
    // A handoff needed no futex wakeup only if the worker was spinning.
    std::atomic<std::size_t>& count =
        spin && !parked ? slot->spin_handoffs : slot->parks;
    count.store(count.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    serve(roster, slot, r, /*tid=*/wid + 1);
    spin = r.nthreads <= native_threads_available();
  }
}

void WorkerPool::watchdog_main() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t checked = 0;  // last region judged at its deadline
  // The region the watchdog should guard: in flight, timed, not judged.
  const auto armable = [&](Region& r, std::int64_t& deadline) {
    const std::uint64_t word =
        roster_->region_word.load(std::memory_order_seq_cst);
    deadline = deadline_ns_.load(std::memory_order_acquire);
    r = roster_->region_fields(word);
    return r.seq != checked && deadline != kNoDeadline &&
           in_flight(roster_->done.load(std::memory_order_acquire), r.seq,
                     r.nthreads);
  };
  for (;;) {
    if (stop_ || watchdog_exit_) return;
    Region r;
    std::int64_t deadline = kNoDeadline;
    if (!armable(r, deadline)) {
      // Idle: announce it, then re-check (try_run publishes, then reads
      // watchdog_wake_ns_, both seq_cst, so one side sees the other). The
      // next timed region's try_run lowers watchdog_wake_ns_ and notifies.
      watchdog_wake_ns_.store(kNever, std::memory_order_seq_cst);
      if (armable(r, deadline)) continue;
      watchdog_cv_.wait(lock, [&] {
        return stop_ || watchdog_exit_ ||
               watchdog_wake_ns_.load(std::memory_order_relaxed) != kNever;
      });
      continue;
    }
    // Sleep until this region's deadline. Regions completing (or
    // starting) meanwhile do not wake the watchdog; only a try_run whose
    // deadline is earlier does, by lowering watchdog_wake_ns_.
    watchdog_wake_ns_.store(deadline, std::memory_order_seq_cst);
    if (watchdog_cv_.wait_until(lock, from_ns(deadline), [&] {
          return stop_ || watchdog_exit_ ||
                 watchdog_wake_ns_.load(std::memory_order_relaxed) !=
                     deadline;
        }))
      continue;
    // The deadline belongs to region r: if it is over, re-arm on
    // whatever is in flight now instead of charging it to the next one.
    if ((roster_->region_word.load(std::memory_order_acquire) >>
         kWidthBits) != r.seq ||
        !in_flight(roster_->done.load(std::memory_order_acquire), r.seq,
                   r.nthreads))
      continue;
    checked = r.seq;
    // The roster cannot change while r is in flight (retiring one needs
    // region_mu_, which r's master holds).
    const std::shared_ptr<Roster> roster = roster_;
    const long timeout = timeout_ms_.load(std::memory_order_relaxed);
    lock.unlock();
    expire(*roster, r, timeout);
    lock.lock();
  }
}

void WorkerPool::expire(Roster& roster, const Region& r, long timeout) {
  {
    // Pin the region while it is still in flight: from here until the
    // pin is cleared the master cannot return, so the caller's failure
    // hook is safe to call.
    std::lock_guard<std::mutex> g(roster.mu);
    std::uint64_t v = roster.done.load(std::memory_order_acquire);
    do {
      if (!in_flight(v, r.seq, r.nthreads)) return;
    } while (!roster.done.compare_exchange_weak(
        v, v | kTimedOut | kPinned, std::memory_order_acq_rel,
        std::memory_order_acquire));
  }
  // Cancel the region: the caller's failure hook poisons the plan
  // barriers, so every body that is still alive fails out of its next
  // synchronization point instead of waiting forever for the dead worker.
  if (r.on_failure) r.on_failure();
  robust::cancel_injected_hangs();
  std::unique_lock<std::mutex> g(roster.mu);
  roster.done.fetch_and(~kPinned, std::memory_order_acq_rel);
  roster.done.fetch_or(kWaiters, std::memory_order_acq_rel);
  roster.cv.notify_all();  // a parked master re-checks the pin
  // Grace period: poisoned bodies need a moment to unwind. A worker that
  // still has not reported in is treated as lost — the region is
  // abandoned (survivors skip the caller's body, which is about to go
  // out of scope) and the master is released.
  const auto grace =
      std::chrono::milliseconds(std::clamp(timeout / 4, 10L, 1000L));
  if (!roster.cv.wait_for(g, grace, [&] {
        return !in_flight(roster.done.load(std::memory_order_acquire),
                          r.seq, r.nthreads);
      })) {
    std::uint64_t v = roster.done.load(std::memory_order_acquire);
    while (in_flight(v, r.seq, r.nthreads) &&
           !roster.done.compare_exchange_weak(v, v | kAbandoned,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
    }
  }
  roster.cv.notify_all();
}

bool WorkerPool::ensure_workers(int count) {
  // workers_ only changes under region_mu_, which the caller holds.
  if (static_cast<int>(workers_.size()) >= count) return true;
  std::lock_guard<std::mutex> lock(mu_);
  if (robust::should_fire(robust::FaultSite::kPoolSpawnFail)) {
    robust::health().pool_spawn_failures.fetch_add(
        1, std::memory_order_relaxed);
    return false;
  }
  while (static_cast<int>(workers_.size()) < count) {
    const int wid = static_cast<int>(workers_.size());
    try {
      if (static_cast<int>(roster_->slots.size()) <= wid)
        roster_->slots.push_back(std::make_unique<Slot>());
      Slot* slot = roster_->slots[static_cast<std::size_t>(wid)].get();
      workers_.emplace_back([roster = roster_, slot, wid, seen = seq_] {
        worker_main(roster, slot, wid, seen);
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

void WorkerPool::retire_roster_locked() {
  Roster& old = *roster_;
  old.done.fetch_or(kRetired, std::memory_order_seq_cst);
  // A region word naming nobody: spinning workers see it move, find the
  // retire flag, and exit. Parked ones are woken below.
  ++seq_;
  old.region_word.store(region_word(seq_, 0), std::memory_order_seq_cst);
  for (const auto& slot : old.slots) {
    retired_spin_handoffs_ +=
        slot->spin_handoffs.load(std::memory_order_relaxed);
    retired_parks_ += slot->parks.load(std::memory_order_relaxed);
    { std::lock_guard<std::mutex> g(slot->mu); }
    slot->cv.notify_all();
  }
  roster_ = make_roster();
}

std::shared_ptr<WorkerPool::Roster> WorkerPool::make_roster() const {
  auto roster = std::make_shared<Roster>();
  roster->region_word.store(region_word(seq_, 0), std::memory_order_relaxed);
  return roster;
}

void WorkerPool::rebuild() {
  std::lock_guard<std::mutex> lock(mu_);
  // Retire the old roster: healthy workers wake on the retire and exit;
  // a hung worker exits whenever its hang resolves. They are detached —
  // joining would inherit the very hang the quarantine is escaping.
  retire_roster_locked();
  for (auto& w : workers_) w.detach();
  workers_.clear();
  quarantined_.store(false, std::memory_order_release);
  ++rebuilds_;
  robust::health().pool_rebuilds.fetch_add(1, std::memory_order_relaxed);
}

bool WorkerPool::try_run(int nthreads, FunctionRef<void(int)> body,
                         FunctionRef<void()> on_worker_failure,
                         std::span<std::exception_ptr> errors) {
  if (nthreads - 1 > kMaxWorkers) return false;
  if (tls_in_pool_region) return false;
  std::unique_lock<std::mutex> region_lock(region_mu_, std::try_to_lock);
  if (!region_lock.owns_lock()) return false;

  if (quarantined_.load(std::memory_order_relaxed)) {
    // Declining this one region lets the spawn fallback serve it while
    // the fresh roster spins up lazily on the next dispatch.
    rebuild();
    return false;
  }

  if (!ensure_workers(nthreads - 1)) return false;

  // Publish. Each field is a release store, so a reader that sees one
  // of them also sees everything before it — the previous region's
  // completion above all (region_fields); the region word then
  // publishes the fields themselves.
  const long timeout = timeout_ms_.load(std::memory_order_relaxed);
  const std::int64_t deadline =
      timeout > 0
          ? to_ns(Clock::now() + std::chrono::milliseconds(timeout))
          : kNoDeadline;
  const std::uint64_t seq = ++seq_;
  Roster& roster = *roster_;
  roster.body_object.store(body.object(), std::memory_order_release);
  roster.body_thunk.store(body.thunk(), std::memory_order_release);
  roster.hook_object.store(on_worker_failure.object(),
                           std::memory_order_release);
  roster.hook_thunk.store(on_worker_failure.thunk(),
                          std::memory_order_release);
  roster.errors.store(errors.data(), std::memory_order_release);
  deadline_ns_.store(deadline, std::memory_order_release);
  roster.region_word.store(region_word(seq, nthreads),
                           std::memory_order_seq_cst);

  // Wake the participants that parked; spinning ones already saw the
  // word. A parked worker announced it before re-checking the word.
  for (int w = 0; w < nthreads - 1; ++w) {
    Slot& slot = *roster.slots[static_cast<std::size_t>(w)];
    if (slot.parked.load(std::memory_order_seq_cst)) {
      { std::lock_guard<std::mutex> g(slot.mu); }
      slot.cv.notify_one();
    }
  }
  if (timeout > 0 &&
      (!watchdog_.joinable() ||
       deadline < watchdog_wake_ns_.load(std::memory_order_seq_cst))) {
    // Slow path: no watchdog yet, or it is idle-parked (wake time kNever)
    // or sleeping toward a later deadline than this region's (the
    // timeout shrank).
    std::lock_guard<std::mutex> lock(mu_);
    if (!watchdog_.joinable()) {
      try {
        watchdog_ = std::thread([this] { watchdog_main(); });
      } catch (const std::system_error&) {
        // No watchdog thread available: the pool still works, it just
        // cannot detect hangs. Deliberate best-effort.
      }
    } else if (deadline <
               watchdog_wake_ns_.load(std::memory_order_relaxed)) {
      watchdog_wake_ns_.store(deadline, std::memory_order_relaxed);
      watchdog_cv_.notify_one();
    }
  }
  regions_.fetch_add(1, std::memory_order_relaxed);
  dispatches_.fetch_add(static_cast<std::size_t>(nthreads - 1),
                        std::memory_order_relaxed);
  robust::health().pool_regions.fetch_add(1, std::memory_order_relaxed);

  const Region mine{seq, nthreads, body, on_worker_failure, errors.data()};
  serve(roster, nullptr, mine, /*tid=*/0);  // master runs body 0 in place

  std::uint64_t v = roster.done.load(std::memory_order_acquire);
  if (!master_may_return(v, seq, nthreads) &&
      nthreads <= native_threads_available()) {
    spin_for_handoff([&] {
      v = roster.done.load(std::memory_order_acquire);
      return master_may_return(v, seq, nthreads);
    });
  }
  if (!master_may_return(v, seq, nthreads)) {
    std::unique_lock<std::mutex> g(roster.mu);
    v = roster.done.fetch_or(kWaiters, std::memory_order_acq_rel) |
        kWaiters;
    while (!master_may_return(v, seq, nthreads)) {
      roster.cv.wait(g);
      v = roster.done.load(std::memory_order_acquire);
    }
    roster.done.fetch_and(~kWaiters, std::memory_order_relaxed);
  }
  if ((v & kTimedOut) == 0) return true;

  // Timed out (and maybe abandoned). Under Roster::mu a late worker's
  // error write cannot interleave with these reads.
  {
    std::lock_guard<std::mutex> g(roster.mu);
    for (int t = 1; t < nthreads; ++t) {
      auto& slot = errors[static_cast<std::size_t>(t)];
      const bool finished =
          roster.slots[static_cast<std::size_t>(t - 1)]->finished_seq.load(
              std::memory_order_acquire) == seq;
      if (!finished && !slot)
        slot = std::make_exception_ptr(Error(
            ErrorCode::kPoolTimeout,
            strprintf("smmkit: pool worker (thread %d) missed the "
                      "%ld ms watchdog deadline",
                      t, timeout)));
    }
  }
  roster.cv.notify_all();  // a watchdog still in its grace wait
  watchdog_timeouts_.fetch_add(1, std::memory_order_relaxed);
  robust::health().pool_watchdog_timeouts.fetch_add(
      1, std::memory_order_relaxed);
  // Quarantine before releasing region_mu_: the next try_run must see it
  // and rebuild, never dispatch onto a roster with a lost worker.
  if (!quarantined_.exchange(true, std::memory_order_acq_rel)) {
    quarantines_.fetch_add(1, std::memory_order_relaxed);
    robust::health().pool_quarantines.fetch_add(1,
                                                std::memory_order_relaxed);
  }
  return true;
}

void WorkerPool::release_threads() {
  // Exclusive with regions: holding region_mu_ guarantees nothing is in
  // flight while the roster is retired, so every healthy worker is
  // spinning or parked and exits promptly on the retire.
  std::lock_guard<std::mutex> region_lock(region_mu_);
  std::vector<std::thread> retired;
  std::thread dog;
  bool join_workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A quarantined roster may hold a thread that is genuinely hung:
    // joining it would inherit the hang. Detach those (rebuild() does
    // the same); a healthy roster is joined so the no-live-threads
    // promise is real.
    join_workers = !quarantined_.load(std::memory_order_relaxed);
    quarantined_.store(false, std::memory_order_release);
    retire_roster_locked();
    retired.swap(workers_);
    dog = std::move(watchdog_);
    watchdog_exit_ = dog.joinable();
  }
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
    watchdog_wake_ns_.store(kNever, std::memory_order_relaxed);
  }
}

int WorkerPool::live_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size()) + (watchdog_.joinable() ? 1 : 0);
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.workers = static_cast<int>(workers_.size());
  s.regions = regions_.load(std::memory_order_relaxed);
  s.dispatches = dispatches_.load(std::memory_order_relaxed);
  s.watchdog_timeouts = watchdog_timeouts_.load(std::memory_order_relaxed);
  s.quarantines = quarantines_.load(std::memory_order_relaxed);
  s.rebuilds = rebuilds_;
  s.spin_handoffs = retired_spin_handoffs_;
  s.parks = retired_parks_;
  for (const auto& slot : roster_->slots) {
    s.spin_handoffs += slot->spin_handoffs.load(std::memory_order_relaxed);
    s.parks += slot->parks.load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace smm::par
