// smm::service — the traffic-safe front door of the runtime
// (DESIGN.md §11, sharded and coalesced in §13).
//
// The paper's motivating workload is serving-style: floods of small
// GEMMs from DNN inference, where the fixed per-call costs (Table II's
// Sync column) dominate. Under overload such a runtime must shed work
// early — a request queued past its deadline burns queue space and sync
// cost to produce a result nobody reads. SmmService therefore puts a
// bounded, deadline-aware admission layer above smm_gemm/batched_smm:
//
//   submit() ─ router ─► shard ── admission ──► queue ─► lanes ─► gemm
//               │          │        │ depth/cost budget → kOverloaded
//               │          │        ├─ shed watermarks  → kOverloaded
//               │          │        └─ circuit breaker  → kOverloaded
//               │          └─ own WorkerPool + PlanCache + lanes
//               └─ hash(shape class) ⊕ cost bucket (smm::shard)
//
// Sharding (DESIGN.md §13): the runtime is partitioned into N execution
// domains mirroring the sim's 8 NUMA panels. Each shard owns its queue,
// its lanes, a private WorkerPool, and a partitioned PlanCache, so hot
// shapes stay plan-cache-local and shards do not contend on one mutex.
// Bounded work stealing (one request at a time, only from shards with
// ≥2 queued) keeps a skewed shape distribution from idling capacity.
//
// Coalescing: lanes group same-shape same-options queued requests into
// one batched_smm_each call (micro-batch window, depth- and
// deadline-bounded), amortizing the per-call dispatch cost Table II
// shows dominating small multi-threaded SMM. Completion fans back out to
// the individual Tickets with per-item error/cancel propagation — a
// coalesced neighbor's failure never poisons siblings.
//
// Failure domains (smm::failover, DESIGN.md §15): every shard — the only
// shard of a one-shard service included — carries its own health ledger
// and circuit breaker, driven by that shard's outcome stream alone. A
// quarantined shard is drained — its queue re-routes along a
// deterministic fallback ring, in-flight work runs to terminal state —
// and its home traffic diverts at admission until the rebuild probe
// proves recovery. With multiple shards, kHigh requests with deadline
// slack are hedged: a backup fires on a different shard after a
// percentile-based delay, the first terminal claims the ticket, the
// loser is cancelled and never double-counts. When a majority of shards
// are quarantined (a quarantined sole shard is a majority) the service
// browns out: kLow shed at the door, tune sampling paused, ABFT-correct
// serving detect-only.
//
// Rejections are O(µs): submit() does shape validation, routing, plus a
// mutex-guarded admission decision — plan resolution, packing, and
// execution all happen on the lanes.
//
// Lifecycle: drain() stops admitting and completes every admitted
// request; shutdown() drains, retires every shard's lanes, and releases
// both the per-shard pools' and the process-wide WorkerPool's threads,
// so a stopped service leaves zero live pool threads behind.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/error.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/failover/failover.h"
#include "src/matrix/view.h"
#include "src/service/circuit_breaker.h"
#include "src/threading/worker_pool.h"

namespace smm::service {

/// Shedding order under pressure: kLow is refused first (above the low
/// watermark), then kNormal (above the high watermark); kHigh is only
/// refused when the queue is hard-full of equal-or-higher work.
enum class Priority { kLow = 0, kNormal = 1, kHigh = 2 };

const char* to_string(Priority priority);

struct ServiceOptions {
  /// Execution domains (DESIGN.md §13). 0 = auto: SMMKIT_SHARDS, else 8
  /// (the sim's panel count). Each shard owns its queue, lanes, a
  /// private WorkerPool, and a partitioned PlanCache; queue_depth,
  /// watermarks, and cost_budget_ns are all per shard. 1 = one domain
  /// on the process-wide pool and plan cache; it runs the same
  /// admission, breaker and health code as N shards.
  int shards = 0;
  /// Bounded queue depth per shard; admissions beyond it are rejected
  /// (or evict a lower-priority entry). Env: SMMKIT_QUEUE_DEPTH.
  std::size_t queue_depth = 64;
  /// Deadline applied to requests submitted without one; 0 = none.
  /// Env: SMMKIT_DEFAULT_DEADLINE_MS.
  long default_deadline_ms = 0;
  /// Estimated-cost budget (ns of predicted single-lane work) each
  /// shard's queue may hold; 0 disables the cost gate. An oversized
  /// single request is still admitted when the queue is empty — the
  /// budget bounds queue *accumulation*, not request size.
  double cost_budget_ns = 0.0;
  /// Queue fill fraction above which kLow arrivals are shed.
  /// Env: SMMKIT_SHED_LOW_WATERMARK.
  double shed_low_watermark = 0.5;
  /// Queue fill fraction above which kNormal arrivals are shed too.
  /// Env: SMMKIT_SHED_HIGH_WATERMARK.
  double shed_high_watermark = 0.8;
  /// Service lanes (worker threads draining the queue) *per shard*.
  /// 0 = auto: max(1, native_threads_available() / shards). Note that
  /// native_threads_available() honors SMMKIT_MAX_THREADS, so capping
  /// the pool also narrows the auto-derived lane count.
  int lanes = 0;
  /// nthreads handed to smm_gemm per request.
  int threads_per_request = 1;
  /// Most same-shape requests one coalesced dispatch may carry; 1
  /// disables coalescing. Env: SMMKIT_COALESCE_DEPTH.
  std::size_t coalesce_depth = 16;
  /// Micro-batch window (µs) a lane may hold an underfull coalesce
  /// group open for late same-shape arrivals. 0 = opportunistic only
  /// (group whatever is already queued, never wait). The window is also
  /// deadline-bounded: it never holds a member near its deadline.
  /// Env: SMMKIT_COALESCE_WINDOW_US.
  long coalesce_window_us = 0;
  /// Price admissions with the host-calibrated cost model instead of the
  /// deterministic reference constants (tests keep the default).
  bool calibrated_cost = false;
  /// Options for the underlying smm_gemm calls (check_finite lives
  /// here: a serving front-end typically turns it on).
  core::SmmOptions gemm;
  CircuitBreaker::Options breaker;
  /// Per-shard failure domains, re-routing, hedging, brownout
  /// (smm::failover, DESIGN.md §15). `breaker` above configures every
  /// shard's private breaker.
  failover::FailoverOptions failover;
};

/// ServiceOptions with the SMMKIT_* environment overrides applied on top
/// of `base` (unparsable or negative values are ignored).
ServiceOptions service_options_from_env(ServiceOptions base = {});

/// Terminal state of one request.
struct Result {
  bool ok = false;
  /// Meaningful when !ok. kOverloaded/kShuttingDown were refused at
  /// admission; kCancelled/kDeadlineExceeded stopped cooperatively
  /// (queued-but-unstarted requests leave C untouched); anything else is
  /// an execution failure surfaced as-is.
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
};

namespace detail {
struct RequestState {
  CancelSource cancel;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result result;
  /// Hedged execution (DESIGN.md §15): primary and backup share this
  /// state, and exactly one of them may record the outcome and publish
  /// the result — whoever wins this exchange. Only consulted for hedged
  /// requests.
  std::atomic<bool> claimed{false};
  bool claim() { return !claimed.exchange(true, std::memory_order_acq_rel); }
};

/// The typed operands of a coalescable GEMM submission, type-erased into
/// Request::args so the shard queue stays untyped.
template <typename T>
struct GemmArgs {
  T alpha;
  T beta;
  ConstMatrixView<T> a;
  ConstMatrixView<T> b;
  MatrixView<T> c;
};
}  // namespace detail

/// Handle to one submitted request. Cheap to copy; outliving the service
/// is safe (the service completes every admitted request before its
/// lanes retire).
class Ticket {
 public:
  Ticket() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Ask the request to stop. Queued: it completes kCancelled, C
  /// untouched. Executing: the token unwinds it at the next op boundary.
  /// Finished: no effect.
  void cancel();

  /// Block until the request reaches a terminal state. On an rvalue
  /// ticket (`svc.submit(...).wait()`) the Result is returned by value —
  /// the temporary ticket may hold the last reference to it.
  const Result& wait() const&;
  Result wait() &&;

  /// Block until terminal or the timeout passes. Returns true when the
  /// request reached a terminal state within the wait (the result can
  /// then be read with wait(), which no longer blocks); false on
  /// timeout — the request is still in flight and the ticket stays
  /// valid, so the caller may cancel, keep waiting, or race a retry.
  /// An invalid ticket returns true (wait() reports the error).
  template <typename Rep, typename Period>
  bool wait_for(std::chrono::duration<Rep, Period> timeout) const {
    return wait_until(std::chrono::steady_clock::now() + timeout);
  }
  bool wait_until(std::chrono::steady_clock::time_point deadline) const;

  [[nodiscard]] bool done() const;

 private:
  friend class SmmService;
  explicit Ticket(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::RequestState> state_;
};

/// One item of a batch submission (mirrors core::GemmBatchItem).
template <typename T>
struct BatchItem {
  ConstMatrixView<T> a;
  ConstMatrixView<T> b;
  MatrixView<T> c;
};

/// The SmmService counters that robust::health() mirrors, one
/// X(stats_field, health_mirror) row each. SmmService::Stats has one field
/// per row, and every bump of a row also bumps its Health mirror, so the
/// two views move together. Invariants (DESIGN.md §13/§15): submitted ==
/// routed == Σ routed_per_shard + rerouted (every submission is routed
/// exactly once; a placement diverted off its quarantined home — at
/// admission or by a drain — is attributed to `rerouted` instead of a
/// shard), admitted == Σ admitted_per_shard, and submitted == admitted +
/// rejected.
#define SMM_SERVICE_COUNTERS(X)                                                \
  X(submitted, service_submitted)                                              \
  X(admitted, service_admitted)                                                \
  X(completed, service_completed) /* finished successfully */                  \
  X(rejected, service_rejected) /* kOverloaded/kShuttingDown at submit */      \
  X(shed, service_shed) /* subset of rejected: watermark refusals */           \
  X(breaker_rejections, service_breaker_rejections) /* subset of rejected */   \
  /* Admitted, then displaced by a higher-priority arrival (completes          \
     kOverloaded). Counted here only — submitted == admitted +                 \
     rejected, and admitted work ends completed, evicted, cancelled,           \
     deadline-missed, or failed. */                                            \
  X(evicted, service_evictions)                                                \
  X(deadline_misses, service_deadline_misses)                                  \
  X(cancellations, service_cancellations)                                      \
  /* Sharded runtime (DESIGN.md §13). */                                       \
  X(routed, service_routed) /* placements (== submitted) */                    \
  X(steals, service_steals) /* requests run by a non-home shard */             \
  X(coalesced_groups, service_coalesced_groups) /* >=2-member dispatches */    \
  X(coalesced_items, service_coalesced_items) /* requests in those groups */   \
  /* Failure domains (DESIGN.md §15). */                                       \
  X(rerouted, service_rerouted) /* diverted off a quarantined home */          \
  X(hedged, service_hedged) /* backup submissions fired */                     \
  X(hedge_wins, service_hedge_wins) /* hedged requests whose backup won */     \
  X(shard_quarantines, shard_quarantines) /* entries into kQuarantined */      \
  X(shard_rebuilds, shard_rebuilds) /* quarantine -> rebuilding probes */      \
  X(brownouts, service_brownouts) /* brownout-mode entries */

class SmmService {
 public:
  explicit SmmService(ServiceOptions options = {});
  /// Implies shutdown(): drains admitted work, retires the lanes,
  /// releases the pool threads.
  ~SmmService();
  SmmService(const SmmService&) = delete;
  SmmService& operator=(const SmmService&) = delete;

  /// Submit C = alpha*A*B + beta*C. The views are borrowed: their
  /// storage must stay alive and unmodified (C unread) until the
  /// ticket's terminal state. Never blocks on execution; a refused
  /// request returns an already-completed ticket (kOverloaded /
  /// kShuttingDown). Shape errors throw (caller bugs, not load).
  /// `deadline_ms` 0 means the service default.
  template <typename T>
  Ticket submit(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                MatrixView<T> c, Priority priority = Priority::kNormal,
                long deadline_ms = 0);

  /// Submit a whole batch as one request (runs through batched_smm with
  /// the request's token and `gemm` options, as submit does; one ticket
  /// covers all items). Batch
  /// submissions route by a combined hash of their item shapes and are
  /// never coalesced with other requests.
  template <typename T>
  Ticket submit_batch(T alpha, std::vector<BatchItem<T>> items, T beta,
                      Priority priority = Priority::kNormal,
                      long deadline_ms = 0);

  /// Stop admitting (submits now refuse with kShuttingDown) and block
  /// until every admitted request reached a terminal state. Open
  /// coalesce windows flush immediately. Idempotent; the lanes stay up
  /// (a test can cancel tickets mid-drain).
  void drain();

  /// drain(), then retire every shard's lanes and release both the
  /// per-shard pools' and the process-wide WorkerPool's threads. After
  /// shutdown() the service owns no threads and the pools have none
  /// parked. Idempotent; the destructor calls it.
  void shutdown();

  /// Point-in-time counters: one field per SMM_SERVICE_COUNTERS row (its
  /// invariants are stated there), two queue gauges, per-shard counts.
  struct Stats {
#define SMM_SERVICE_STATS_FIELD(field, mirror) std::size_t field = 0;
    SMM_SERVICE_COUNTERS(SMM_SERVICE_STATS_FIELD)
#undef SMM_SERVICE_STATS_FIELD
    std::size_t queued = 0;      ///< currently waiting (all shards)
    std::size_t in_flight = 0;   ///< currently executing (all shards)
    std::vector<std::size_t> routed_per_shard;
    std::vector<std::size_t> admitted_per_shard;
  };
  [[nodiscard]] Stats stats() const;

  /// The breaker admission consults for traffic placed on one shard.
  [[nodiscard]] BreakerState shard_breaker_state(int shard_idx) const;

  // Failure-domain surface (DESIGN.md §15), the same for any shard count.
  /// Lifecycle state of one shard.
  [[nodiscard]] failover::ShardState shard_state(int shard_idx) const;
  /// Administratively quarantine a shard (fault drills, operational
  /// tooling): its queue drains onto the fallback ring, its home traffic
  /// diverts at admission, and it is *held* until revive_shard(). On a
  /// one-shard service there is no fallback: queued work is evicted,
  /// new work is refused kOverloaded, and the service browns out.
  void quarantine_shard(int shard_idx);
  /// Administrative revive: the shard re-enters as kRebuilding and heals
  /// to kHealthy on its first clean completion.
  void revive_shard(int shard_idx);
  /// True while the service is in brownout (majority of shards
  /// quarantined): kLow shed at the door, tune sampling paused,
  /// ABFT-correct serving detect-only.
  [[nodiscard]] bool in_brownout() const {
    return brownout_.load(std::memory_order_relaxed);
  }
  /// Fraction of the service's aggregate queue capacity currently
  /// occupied: queued / (queue_depth × shards). A caller-side limiter
  /// (smm::resilient, DESIGN.md §16) reads this as a congestion signal —
  /// it is a relaxed snapshot, cheap enough for every submit decision.
  [[nodiscard]] double queue_fill() const;
  /// Options with the auto knobs (shards, lanes) resolved.
  [[nodiscard]] const ServiceOptions& options() const { return options_; }

  /// Predicted single-lane cost (ns) of one m×n×k request — the unit of
  /// cost_budget_ns (exposed so benches can size an overload factor).
  /// Serves the autotuner's observed per-shape-class EWMA once a class
  /// has enough samples (smm::tune, DESIGN.md §14), so long-lived
  /// services re-read their admission budgets from reality instead of
  /// trusting the constants snapshotted at construction; falls back to
  /// those constants (2mnk·flop_ns + dispatch_ns) for unseen shapes or
  /// with SMMKIT_AUTOTUNE=off.
  [[nodiscard]] double estimate_cost_ns(index_t m, index_t n,
                                        index_t k) const;

  /// The shard the router would place an m×n×k request of scalar type
  /// `scalar_id` (0 = f32, 1 = f64) on — deterministic (tests assert it).
  [[nodiscard]] int route_shard(index_t m, index_t n, index_t k,
                                int scalar_id) const;

 private:
  enum class State { kRunning, kDraining, kStopped };

  /// One enumerator per SMM_SERVICE_COUNTERS row; indexes counters_.
  enum class Counter : std::size_t {
#define SMM_SERVICE_COUNTER_ID(field, mirror) field,
    SMM_SERVICE_COUNTERS(SMM_SERVICE_COUNTER_ID)
#undef SMM_SERVICE_COUNTER_ID
    kCount
  };

  struct Shard;

  /// What coalescing keys on: two requests merge into one batched
  /// dispatch only when shape, scalar type, and scale factors all agree
  /// (options are service-wide, so "same options" holds by construction).
  struct CoalesceKey {
    index_t m = 0;
    index_t n = 0;
    index_t k = 0;
    int scalar = 0;
    double alpha = 0.0;
    double beta = 0.0;
    bool valid = false;  ///< batch submissions never coalesce
    [[nodiscard]] bool matches(const CoalesceKey& o) const {
      return valid && o.valid && m == o.m && n == o.n && k == o.k &&
             scalar == o.scalar && alpha == o.alpha && beta == o.beta;
    }
  };

  using ByteRange = std::pair<const void*, const void*>;

  struct Request {
    std::shared_ptr<detail::RequestState> state;
    /// Single-request execution against the shard's plan cache.
    std::function<void(const CancelToken&, core::PlanCache&)> run;
    /// Hedged variant (set instead of `run`): computes from submit-time
    /// snapshots of ALL operands into a private scratch C, claims the
    /// shared state, and publishes into the user's C only on a won claim.
    /// The arms never race on user memory, and the losing arm — which
    /// may outlive the ticket's terminal state — touches none of the
    /// caller-borrowed views at all (the caller is free to release them
    /// the moment wait() returns). Returns whether this execution won.
    std::function<bool(const CancelToken&, core::PlanCache&)> run_claim;
    Priority priority = Priority::kNormal;
    double est_cost_ns = 0.0;
    int home = 0;  ///< shard the router placed this request on
    std::chrono::steady_clock::time_point deadline{};
    bool has_deadline = false;
    /// Hedge backup: bypasses admission stats, never coalesces, and on a
    /// lost claim (or a drain with no fallback) is dropped silently —
    /// the primary owns the ticket.
    bool backup = false;
    /// Already attributed to `rerouted` instead of a shard's routed
    /// counter (admission diversion or a quarantine drain); a second
    /// move must not count again.
    bool rerouted = false;
    /// Backup executions cancel independently of the shared ticket
    /// source (the loser is cancelled without touching the winner).
    std::shared_ptr<CancelSource> exec_cancel;
    CoalesceKey key;
    /// detail::GemmArgs<T> when key.valid (run_group recovers the type).
    std::shared_ptr<void> args;
    /// Coalesced execution of a whole same-key group; set alongside args.
    void (*run_group)(SmmService&, Shard&, std::vector<Request>&) = nullptr;
    /// Operand storage extents for the coalesce sweep's conflict checks
    /// (type-erased so the sweep never touches args).
    ByteRange a_range{nullptr, nullptr};
    ByteRange b_range{nullptr, nullptr};
    ByteRange c_range{nullptr, nullptr};
  };

  /// One execution domain: queue + lanes + pool + plan cache + health
  /// (DESIGN.md §13/§15). `pool`/`cache` are null on a single-shard
  /// service, which runs on the process-wide instances (shard_pool() and
  /// shard_cache() hide the difference).
  struct Shard {
    std::mutex mu;
    std::condition_variable work_cv;
    /// One deque per priority class; lanes pop the highest non-empty.
    std::deque<Request> queues[3];
    std::size_t queued = 0;
    double queued_cost_ns = 0.0;
    std::vector<std::thread> lanes;
    std::unique_ptr<par::WorkerPool> pool;
    std::unique_ptr<core::PlanCache> cache;
    /// Failure-domain ledger + per-shard breaker (DESIGN.md §15); never
    /// null.
    std::unique_ptr<failover::ShardHealth> health;
    /// Pool-quarantine count last attributed by the supervisor (seeded
    /// at construction; afterwards only the supervisor thread touches it).
    std::size_t seen_pool_quarantines = 0;
    std::atomic<std::size_t> routed{0};
    std::atomic<std::size_t> admitted{0};
    std::atomic<std::size_t> steals{0};
  };

  /// One registered hedge: the shared ticket state, the pre-built backup
  /// request, and when to fire it. Guarded by hedge_mu_.
  struct HedgeEntry {
    std::shared_ptr<detail::RequestState> state;
    Request backup;
    std::chrono::steady_clock::time_point fire_at{};
    std::shared_ptr<CancelSource> backup_cancel;  ///< set once fired
    /// Where admission actually placed the primary (it may have been
    /// diverted off a quarantined home): the ring scan for the backup
    /// starts after THIS shard, so a hedge never lands on the very
    /// domain it exists to route around.
    int primary_shard = 0;
    bool fired = false;
  };

  /// The admission decision plus enqueue on the request's home shard.
  /// Returns the ticket; refusals are already recorded in it.
  Ticket admit(Request request);
  /// Complete-and-remove every queued request whose token is already
  /// stopped (cancelled or past deadline) without executing it. Called
  /// by lanes under shard.mu before picking work, so a starved class
  /// still reaches a terminal state at the lanes' pop cadence.
  void reap_stopped_locked(Shard& shard);
  void lane_main(int shard_idx);
  /// Pop a leader and coalesce same-key queued requests behind it, up to
  /// coalesce_depth, optionally holding the micro-batch window open.
  /// Accounts every popped member (in_flight before queued, so drain
  /// never sees a gap). Caller holds `lock` on shard.mu.
  void pop_group_locked(Shard& shard, std::unique_lock<std::mutex>& lock,
                        std::vector<Request>& group);
  /// Move every queued request matching the group leader's key (and not
  /// conflicting with a member's output) into the group. Returns how
  /// many joined. Caller holds shard.mu.
  std::size_t sweep_matches_locked(Shard& shard,
                                   std::vector<Request>& group);
  /// Latest instant the window may hold this group (earliest member
  /// deadline minus a safety margin scaled by the group's predicted
  /// cost).
  [[nodiscard]] std::chrono::steady_clock::time_point group_deadline_bound(
      const std::vector<Request>& group) const;
  /// Steal ONE request from the back of another shard's lowest-priority
  /// queue (only from shards with >= 2 queued — bounded stealing leaves
  /// the victim its plan-cache-local work) and run it on the thief's
  /// domain. Returns true when something was stolen and executed.
  bool try_steal(int thief_idx);
  void execute(Request& request, Shard& shard);
  template <typename T>
  static void run_coalesced(SmmService& svc, Shard& shard,
                            std::vector<Request>& group);
  /// The completed/cancelled/deadline/breaker bookkeeping shared by the
  /// single-request and coalesced completion paths. `shard` is the
  /// domain that *executed* the request — its ledger and breaker take
  /// the outcome.
  void record_outcome(const Result& result, Shard& shard);
  static void complete(const std::shared_ptr<detail::RequestState>& state,
                       Result result);

  // Failure domains (DESIGN.md §15).
  /// May placements land on shards_[idx] right now?
  [[nodiscard]] bool shard_admissible(int idx) const;
  /// Supervisor thread: pool-quarantine attribution, quarantine expiry,
  /// hedge firing/cancellation, brownout evaluation.
  void failover_main();
  void tick_failover();
  /// Entry into kQuarantined: mirror counters, drain the queue onto the
  /// fallback ring, re-evaluate brownout. Never called under a shard mu.
  void handle_quarantine(int idx);
  /// Entry into kRebuilding: blank the shard's plan cache (its cached
  /// state is suspect), mirror counters, wake the lanes.
  void begin_shard_rebuild(Shard& shard);
  /// Move every queued request off shards_[idx] to the next admissible
  /// shard on the ring; requests with no fallback complete kOverloaded
  /// (backups are dropped silently). Nothing is left stranded.
  void drain_shard_queue(int idx);
  /// Re-route one already-extracted request (the caller did the
  /// in_flight/queued handover). Returns false when it had to terminate
  /// the request instead.
  void place_rerouted(Request request, int from_idx);
  void evaluate_brownout();
  /// Register a hedge for a just-admitted eligible request.
  /// `primary_shard` is the shard admission actually placed it on.
  void register_hedge(Request backup_template, int primary_shard);
  /// Fire one backup onto `target`'s kHigh queue (bypasses admission —
  /// hedges are best-effort; a full queue skips the fire).
  bool enqueue_backup(int target, Request backup);
  [[nodiscard]] core::PlanCache& shard_cache(Shard& shard) const;
  [[nodiscard]] par::WorkerPool& shard_pool(Shard& shard) const;
  /// The construction-time constants alone (no tuner feedback): what
  /// route_shard buckets on, so a shape's home shard never moves when
  /// the tuner revises its cost (plan/pool locality outlives tuning).
  [[nodiscard]] double static_cost_ns(index_t m, index_t n,
                                      index_t k) const;
  [[nodiscard]] State state() const {
    return state_.load(std::memory_order_acquire);
  }
  void maybe_notify_drained();
  /// Bump one service counter and its robust::health() mirror (relaxed).
  void count(Counter counter, std::size_t n = 1);

  ServiceOptions options_;
  double flop_ns_ = 0.0;      ///< cost-model constants, resolved once
  double dispatch_ns_ = 0.0;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<State> state_{State::kRunning};
  /// Serializes state transitions (drain/shutdown vs each other).
  std::mutex lifecycle_mu_;
  /// drain() waits here for both totals to reach zero; lanes notify
  /// through maybe_notify_drained().
  mutable std::mutex drain_mu_;
  std::condition_variable drained_cv_;
  std::atomic<std::size_t> total_queued_{0};
  std::atomic<std::size_t> total_in_flight_{0};

  std::atomic<std::size_t>
      counters_[static_cast<std::size_t>(Counter::kCount)]{};

  // Failure domains (DESIGN.md §15).
  std::atomic<bool> brownout_{false};
  failover::LatencyWindow latency_;
  /// Hedge registry and the supervisor thread (failover_main).
  std::mutex hedge_mu_;
  std::vector<HedgeEntry> hedges_;
  std::mutex supervisor_mu_;
  std::condition_variable supervisor_cv_;
  bool supervisor_running_ = false;  // guarded by supervisor_mu_
  std::thread supervisor_;
};

}  // namespace smm::service
