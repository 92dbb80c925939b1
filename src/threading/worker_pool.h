// Persistent worker pool behind par::run_parallel.
//
// The paper's Table II shows fixed per-call costs (Sync dominating
// multi-threaded SMM); spawning and joining OS threads per fork-join
// region is exactly such a cost — microseconds of kernel work to execute
// microseconds of FMAs. The pool keeps a set of workers and hands them
// fork-join regions.
//
// The handoff is one cache-line round trip each way. The master writes
// the region (body, failure hook, error slots) into the roster's region
// line and publishes it with one store of the region word (sequence
// number and width); a worker acquires that word, runs its body, and
// records its completion with one compare-exchange on the roster's
// completion word, which the master spins on. No mutex, reference count
// or heap write sits on that path. Both sides spin before they park:
// after serving a region a worker spins on the region word for a bounded
// time, and the master, after body 0, spins on the completion word. Back-to-back regions — a
// caller looping over parallel GEMMs — are handed off with no syscall at
// all; a region after an idle gap pays the parked path, which waits on
// the same two words through per-worker condvars (a worker parks only
// after announcing it in its slot, so the master notifies only parked
// participants). Spinning only happens when the region's participants
// fit the host (≤ native_threads_available(), Barrier's rule): an
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
// and on waking checks whether that same region is still in flight with
// workers outstanding; if not, it re-arms on the current region, or
// parks idle until the next one. try_run notifies it only when it is
// idle-parked or the new deadline is earlier than the one it sleeps
// toward (a shortened timeout). On a real expiry it pins the region in
// the completion word (the caller cannot return while pinned), poisons
// it (the caller's on_worker_failure hook, which cancels plan barriers),
// releases injected hangs, and — if workers still have not reported in
// after a grace period — abandons the region in the same word: a worker
// that has not started its body by then never starts it, and the master
// is released. The timed-out call fails with ErrorCode::kPoolTimeout
// instead of hanging, and the pool is quarantined. A quarantined pool
// retires its roster (fresh completion word, old threads detached) on
// the next try_run, which is declined once so the caller serves that
// region via spawn-per-call while the new roster comes up. A late worker
// of the retired roster only ever touches that roster's own state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/common/function_ref.h"

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
  /// `errors[tid]` (never rethrown here; `errors` holds nthreads null
  /// slots); a capturing body invokes on_worker_failure immediately,
  /// while peers still run. Returns false without running anything when
  /// the pool cannot take the region (busy with another region, called
  /// from inside a region, nthreads exceeds kMaxWorkers + 1, the pool is
  /// quarantined and rebuilding, or growing the roster failed) — the
  /// caller then spawns threads instead.
  ///
  /// If the watchdog deadline expires mid-region, tids that never
  /// reported in get Error(kPoolTimeout) in their error slot and the
  /// call still returns true (the caller's aggregation raises it).
  bool try_run(int nthreads, FunctionRef<void(int)> body,
               FunctionRef<void()> on_worker_failure,
               std::span<std::exception_ptr> errors);

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
    /// Every other worker handoff: the worker was parked on its condvar
    /// (idle gap longer than the spin budget), just spawned, or back
    /// from an oversubscribed region, which never spins. spin_handoffs +
    /// parks == dispatches once every dispatched worker has picked its
    /// region up.
    std::size_t parks = 0;
  };
  [[nodiscard]] Stats stats() const;

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

  using Body = FunctionRef<void(int)>;
  using Hook = FunctionRef<void()>;

  /// One region as a participant sees it: what the region line held
  /// when the participant acquired the region word.
  struct Region {
    std::uint64_t seq = 0;
    int nthreads = 0;
    Body body;
    Hook on_failure;
    std::exception_ptr* errors = nullptr;
  };

  /// One worker. The parking line is read by the master at every
  /// dispatch (a cache hit unless the worker parked since) and written
  /// only when the worker parks; the record line is written by the
  /// worker once per region it serves and read only by stats() and by a
  /// timed-out master.
  struct Slot {
    alignas(64) std::atomic<bool> parked{false};
    std::mutex mu;
    std::condition_variable cv;
    alignas(64) std::atomic<std::uint64_t> finished_seq{0};
    std::atomic<std::size_t> spin_handoffs{0};
    std::atomic<std::size_t> parks{0};
  };

  /// The workers of one generation and the two lines they share with
  /// the master. Retired (never reused) after a quarantine, on
  /// release_threads and at destruction: a late worker of a timed-out
  /// region may still write the completion word, so a fresh roster gets
  /// fresh lines. Workers hold it by shared_ptr and touch nothing else of
  /// the pool, so a detached one may outlive the pool itself.
  struct Roster {
    /// Region line, written by the master, read by workers: sequence
    /// number (high 48 bits) and width (low 16) of the region last
    /// published, and that region's fields.
    alignas(64) std::atomic<std::uint64_t> region_word{0};
    std::atomic<void*> body_object{nullptr};
    std::atomic<Body::Thunk> body_thunk{nullptr};
    std::atomic<void*> hook_object{nullptr};
    std::atomic<Hook::Thunk> hook_thunk{nullptr};
    std::atomic<std::exception_ptr*> errors{nullptr};
    /// Completion line, written by workers, read by the master (see the
    /// k* bits in worker_pool.cpp): which region its count belongs to,
    /// how many of that region's workers finished, and the waiter /
    /// timeout / pin / abandon / retire flags.
    alignas(64) std::atomic<std::uint64_t> done{0};
    /// Slow path only: a parked master or watchdog, error capture, and
    /// abandonment (which must exclude a late worker's error write).
    alignas(64) std::mutex mu;
    std::condition_variable cv;
    /// Grown by ensure_workers under region_mu_ and mu_.
    std::vector<std::unique_ptr<Slot>> slots;

    /// The region line's fields for region word `word` (which the caller
    /// loaded with acquire).
    Region region_fields(std::uint64_t word) const;
  };

  /// A fresh roster whose region word names region `seq_` with no
  /// participants.
  std::shared_ptr<Roster> make_roster() const;
  static void worker_main(std::shared_ptr<Roster> roster, Slot* slot,
                          int wid, std::uint64_t seen);
  void watchdog_main();
  /// Execute body `tid` of `r` with capture/poison/accounting.
  static void serve(Roster& roster, Slot* slot, const Region& r, int tid);
  /// Watchdog expiry of region `r` on `roster`: pin, poison, grace, and
  /// abandonment if workers still have not reported in.
  void expire(Roster& roster, const Region& r, long timeout);
  /// Grow the roster to `count` workers. Returns false when thread
  /// creation failed (injected kPoolSpawnFail or std::system_error);
  /// callers then decline the region. Callers hold region_mu_.
  bool ensure_workers(int count);
  /// Start a fresh roster after quarantine. Callers hold region_mu_.
  void rebuild();
  /// Retire the current roster and install an empty one: its workers see
  /// a region word with no participants and the retire flag, and exit.
  /// Callers hold region_mu_ and mu_; the threads stay in workers_.
  void retire_roster_locked();

  // ---- master line: written by the master, read by the watchdog ----------
  /// Steady-clock deadline (ns since epoch) of the published region;
  /// kNoDeadline when its watchdog is off.
  alignas(64) std::atomic<std::int64_t> deadline_ns_{0};
  /// When the watchdog next wakes on its own; kNever while it is parked
  /// idle. try_run notifies it only for a deadline earlier than this.
  std::atomic<std::int64_t> watchdog_wake_ns_{0};
  std::atomic<long> timeout_ms_;
  std::atomic<bool> quarantined_{false};
  std::atomic<std::size_t> regions_{0};
  std::atomic<std::size_t> dispatches_{0};
  std::atomic<std::size_t> watchdog_timeouts_{0};
  std::atomic<std::size_t> quarantines_{0};
  /// Last region sequence number; the master owns it under region_mu_.
  std::uint64_t seq_ = 0;

  // ---- slow path -----------------------------------------------------------
  // Serializes regions; try_run holds it for the whole region.
  alignas(64) std::mutex region_mu_;

  // Protects the roster, the threads and the watchdog's state.
  mutable std::mutex mu_;
  std::condition_variable watchdog_cv_;
  std::shared_ptr<Roster> roster_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
  /// Handoff counts of retired rosters (stats() adds the live slots').
  std::size_t retired_spin_handoffs_ = 0;
  std::size_t retired_parks_ = 0;
  std::size_t rebuilds_ = 0;
  bool stop_ = false;
  /// release_threads() asks the current watchdog thread (only it) to
  /// exit; unlike stop_, the pool keeps serving and respawns one later.
  bool watchdog_exit_ = false;
};

}  // namespace smm::par
