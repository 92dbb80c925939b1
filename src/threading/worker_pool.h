// Persistent worker pool behind par::run_parallel.
//
// The paper's Table II shows fixed per-call costs (Sync dominating
// multi-threaded SMM); spawning and joining OS threads per fork-join
// region is exactly such a cost — microseconds of kernel work to execute
// microseconds of FMAs. The pool keeps a set of workers and hands them
// fork-join regions by epoch: dispatching a region is one mutex
// acquisition plus an epoch bump, and completion is a counter.
//
// Even a condvar handoff costs two futex wakeups per region (worker on
// dispatch, master on completion), each a scheduler round trip of
// several microseconds on a virtualized host. So both sides spin before
// they park: after serving a region a worker spins on an atomic wake
// sequence (bumped with every epoch) for a bounded time, and the master,
// after body 0, spins on an atomic mirror of the region's pending count.
// Back-to-back regions — a caller looping over parallel GEMMs — are then
// handed off with no syscall at all; a region after an idle gap pays the
// parked path. Spinning only happens when the region's participants fit
// the host (≤ native_threads_available(), Barrier's rule): an
// oversubscribed spinner would steal the timeslice of the very thread it
// waits for.
//
// Plans may contain inter-thread barriers, so all nthreads bodies of a
// region must run concurrently; the pool therefore dedicates one
// worker per body (growing on demand, master runs body 0 in place) and
// never multiplexes two bodies of one region onto a thread. Regions are
// exclusive: a caller that cannot take the pool (it is busy, or the
// caller is itself a pool worker mid-region) falls back to
// spawn-per-call, so nesting and concurrent independent regions keep the
// exact pre-pool semantics.
//
// Watchdog + quarantine (DESIGN.md §10): a persistent pool turns one
// hung/parked/killed worker into a process-wide hang — every later
// region waits on the dead thread forever. A dedicated watchdog thread
// therefore puts a deadline on each in-flight region. It does not wake
// per region: it sleeps until the deadline of the region it armed on,
// and on waking checks whether that same epoch is still in flight with
// workers outstanding; if not, it re-arms on the current region, or
// parks idle until the next one. try_run notifies it only when it is
// idle-parked or the new deadline is earlier than the one it sleeps
// toward (a shortened timeout). On a real expiry it poisons the region
// (the caller's on_worker_failure hook, which cancels plan barriers),
// releases injected hangs, and — if workers still have not reported in
// after a grace period — abandons the region (survivors skip the
// caller's body, which may no longer exist) and quarantines the pool.
// The timed-out call fails with ErrorCode::kPoolTimeout instead of
// hanging. A quarantined pool rebuilds its roster (fresh generation,
// old threads detached) on the next try_run, which is declined once so
// the caller serves that region via spawn-per-call while the new roster
// comes up.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace smm::par {

class WorkerPool {
 public:
  /// Hard cap on parked workers; regions wider than this fall back to
  /// spawn-per-call (native_threads_available() is clamped to the same
  /// bound, so only explicit oversubscription ever exceeds it).
  static constexpr int kMaxWorkers = 256;

  /// The process-wide pool used by run_parallel.
  static WorkerPool& instance();

  /// A privately owned pool (the sharded service gives each shard one so
  /// panels stop contending on a single region lock). Unlike instance(),
  /// a private pool registers no atfork handlers — fork handlers are
  /// permanent and capture `this`, which only an immortal object may do
  /// (fork_guard.h). A forked child must therefore not reuse inherited
  /// private pools; the service rebuilds its shards instead.
  static std::unique_ptr<WorkerPool> create_private();

  /// The pool run_parallel dispatches to on this thread: the pool bound
  /// by the innermost live CurrentPoolBinding, else instance().
  static WorkerPool& current();

  /// Binds `pool` as this thread's current() for the binding's lifetime
  /// (restores the previous binding on destruction). Shard lanes hold one
  /// across each request so nested run_parallel calls land on the
  /// shard-local pool.
  class CurrentPoolBinding {
   public:
    explicit CurrentPoolBinding(WorkerPool& pool);
    ~CurrentPoolBinding();
    CurrentPoolBinding(const CurrentPoolBinding&) = delete;
    CurrentPoolBinding& operator=(const CurrentPoolBinding&) = delete;

   private:
    WorkerPool* previous_;
  };

  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Try to run body(0..nthreads-1) as one pool region: workers execute
  /// tids 1..nthreads-1, the calling thread executes tid 0, and the call
  /// returns after every body finished. Exceptions are captured into
  /// `errors[tid]` (never rethrown here); a capturing body invokes
  /// on_worker_failure immediately, while peers still run. Returns false
  /// without running anything when the pool cannot take the region (busy
  /// with another region, called from inside a region, nthreads exceeds
  /// kMaxWorkers + 1, the pool is quarantined and rebuilding, or growing
  /// the roster failed) — the caller then spawns threads instead.
  ///
  /// If the watchdog deadline expires mid-region, tids that never
  /// reported in get Error(kPoolTimeout) in their error slot and the
  /// call still returns true (the caller's aggregation raises it).
  bool try_run(int nthreads, const std::function<void(int)>& body,
               const std::function<void()>& on_worker_failure,
               std::vector<std::exception_ptr>& errors);

  /// Observability (relaxed counters; see robust::health() for the
  /// process-wide mirror).
  struct Stats {
    int workers = 0;             ///< threads currently parked/spawned
    std::size_t regions = 0;     ///< regions served by the pool
    std::size_t dispatches = 0;  ///< worker wakeups summed over regions
    std::size_t watchdog_timeouts = 0;  ///< regions past their deadline
    std::size_t quarantines = 0;        ///< pool taken out of service
    std::size_t rebuilds = 0;           ///< fresh rosters after quarantine
    /// Worker handoffs caught while the worker was still spinning after
    /// its previous region (no futex wakeup on either side).
    std::size_t spin_handoffs = 0;
    /// Worker handoffs that had to wake a worker parked on the condvar
    /// (idle gap longer than the spin budget, or an oversubscribed
    /// region, which never spins).
    std::size_t parks = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// True on a thread currently executing a pool-region body (used by
  /// run_parallel to route nested regions to the spawn path; taking the
  /// non-recursive region lock from such a thread would be UB).
  [[nodiscard]] static bool on_pool_thread();

  /// Per-region watchdog deadline in milliseconds; 0 disables the
  /// watchdog. Defaults to SMMKIT_POOL_TIMEOUT_MS (or 30000 — generous:
  /// a false positive poisons a healthy slow region). Tests shrink it.
  void set_watchdog_timeout_ms(long ms);
  [[nodiscard]] long watchdog_timeout_ms() const;

  /// True while the pool is out of service awaiting its rebuild.
  [[nodiscard]] bool quarantined() const;

  /// Retire the roster and the watchdog, joining every thread: when this
  /// returns, the pool owns zero live threads (service shutdown promises
  /// exactly that). The pool stays usable — the next try_run lazily
  /// respawns workers and watchdog. A quarantined roster may contain a
  /// genuinely hung thread; those are detached (as rebuild() does)
  /// instead of inheriting the hang into this call.
  void release_threads();

  /// Threads currently owned by the pool (workers + watchdog) — the
  /// quantity release_threads drives to zero. Tests assert on it.
  [[nodiscard]] int live_threads() const;

 private:
  /// `fork_guard` registers the permanent atfork handlers — true only for
  /// the immortal instance(); private pools must pass false.
  explicit WorkerPool(bool fork_guard);

  /// One fork-join region's shared state. Heap-held behind shared_ptr:
  /// an abandoned worker may outlive the try_run call that created the
  /// region, so nothing it touches may live on the caller's stack.
  struct Region {
    const std::function<void(int)>* body = nullptr;
    const std::function<void()>* on_failure = nullptr;
    int nthreads = 0;

    std::mutex mu;
    std::condition_variable done_cv;
    int pending = 0;       ///< workers (not the master) still running
    /// Mirror of `pending` the master spins on before parking on
    /// done_cv; written under `mu` together with `pending`.
    std::atomic<int> pending_spin{0};
    bool timed_out = false;
    /// Watchdog gave up waiting: the caller will return, so body /
    /// on_failure / the error slots must no longer be touched by late
    /// workers (except the master's own slot 0 — the master IS the
    /// caller).
    bool abandoned = false;
    std::vector<std::exception_ptr> errors;
    std::vector<unsigned char> finished;
  };

  /// `start_epoch` is the epoch at spawn registration (captured under
  /// mu_), so a late-starting thread still treats the spawning region's
  /// epoch bump as new work. `generation` pins the thread to one roster:
  /// a rebuild bumps the generation and the old roster exits.
  void worker_main(int wid, std::uint64_t start_epoch,
                   std::uint64_t generation);
  /// Bump wake_seq_ so spinning workers re-check the pool state. Callers
  /// hold mu_ and have just changed epoch_, stop_, generation_ or
  /// watchdog_exit_.
  void wake_spinners() { wake_seq_.fetch_add(1, std::memory_order_release); }
  void watchdog_main();
  /// Execute body `tid` of `region` with capture/poison/accounting.
  void serve(const std::shared_ptr<Region>& region, int tid);
  /// Grow the roster to `count` workers. Returns false when thread
  /// creation failed (injected kPoolSpawnFail or std::system_error);
  /// callers then decline the region. Callers hold region_mu_.
  bool ensure_workers(int count);
  /// Start a fresh roster after quarantine. Callers hold region_mu_.
  void rebuild();

  // Serializes regions; try_run holds it for the whole region.
  std::mutex region_mu_;

  // Protects the epoch/region handoff and the worker roster.
  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable watchdog_cv_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
  std::shared_ptr<Region> region_;  ///< in-flight region (null when idle)
  std::chrono::steady_clock::time_point region_deadline_{};
  bool deadline_armed_ = false;  ///< region_deadline_ applies to region_
  /// When the watchdog next wakes on its own; time_point::max() while it
  /// is parked idle. try_run notifies it only for a deadline earlier than
  /// this (idle, or a shrunken timeout).
  std::chrono::steady_clock::time_point watchdog_wake_at_ =
      std::chrono::steady_clock::time_point::max();
  std::uint64_t epoch_ = 0;
  /// What spinning workers watch instead of taking mu_: bumped (under
  /// mu_) with every epoch_, stop_, generation_ and watchdog_exit_
  /// change.
  std::atomic<std::uint64_t> wake_seq_{0};
  std::uint64_t generation_ = 0;
  int task_nthreads_ = 0;
  bool stop_ = false;
  /// release_threads() asks the current watchdog thread (only it) to
  /// exit; unlike stop_, the pool keeps serving and respawns one later.
  bool watchdog_exit_ = false;
  bool quarantined_ = false;
  std::size_t regions_ = 0;
  std::size_t dispatches_ = 0;
  std::size_t watchdog_timeouts_ = 0;
  std::size_t quarantines_ = 0;
  std::size_t rebuilds_ = 0;
  std::size_t spin_handoffs_ = 0;
  std::size_t parks_ = 0;
  std::atomic<long> timeout_ms_;

  /// Reused across regions (regions are serialized, so between regions
  /// the master owns it exclusively); replaced after an abandonment —
  /// the hung worker still holds a reference to the old one.
  std::shared_ptr<Region> spare_region_;
};

}  // namespace smm::par
