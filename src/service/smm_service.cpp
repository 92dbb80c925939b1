#include "src/service/smm_service.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <utility>

#include "src/common/env.h"
#include "src/common/str.h"
#include "src/core/batched.h"
#include "src/core/parallel_cost.h"
#include "src/matrix/matrix.h"
#include "src/model/parallel_runtime.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "src/shard/shard.h"
#include "src/threading/thread_pool.h"
#include "src/tune/tune.h"
#include "src/threading/worker_pool.h"

namespace smm::service {

namespace {

/// One row of SMM_SERVICE_COUNTERS: the Stats field and its Health mirror,
/// in enum order. A row naming a missing Health counter fails to compile.
struct CounterRow {
  std::size_t SmmService::Stats::*field;
  std::atomic<std::size_t> robust::Health::*mirror;
};

#define SMM_SERVICE_COUNTER_ROW(field, mirror) \
  {&SmmService::Stats::field, &robust::Health::mirror},
constexpr CounterRow kCounterRows[] = {
    SMM_SERVICE_COUNTERS(SMM_SERVICE_COUNTER_ROW)};
#undef SMM_SERVICE_COUNTER_ROW

}  // namespace

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::kLow:
      return "low";
    case Priority::kNormal:
      return "normal";
    case Priority::kHigh:
      return "high";
  }
  return "?";
}

namespace {

bool ranges_overlap(const std::pair<const void*, const void*>& x,
                    const std::pair<const void*, const void*>& y) {
  return x.first < y.second && y.first < x.second;
}

}  // namespace

ServiceOptions service_options_from_env(ServiceOptions base) {
  const long depth =
      env::read_long("SMMKIT_QUEUE_DEPTH",
                     static_cast<long>(base.queue_depth));
  if (depth > 0) base.queue_depth = static_cast<std::size_t>(depth);
  base.default_deadline_ms =
      env::read_long("SMMKIT_DEFAULT_DEADLINE_MS", base.default_deadline_ms);
  // SMMKIT_SHARDS applies through the shards==0 auto path (the ctor
  // resolves it via shard::default_shard_count), so an explicit
  // ServiceOptions::shards always wins over the environment.
  const long coalesce_depth =
      env::read_long("SMMKIT_COALESCE_DEPTH",
                     static_cast<long>(base.coalesce_depth));
  if (coalesce_depth > 0)
    base.coalesce_depth = static_cast<std::size_t>(coalesce_depth);
  base.coalesce_window_us =
      env::read_long("SMMKIT_COALESCE_WINDOW_US", base.coalesce_window_us);
  const double low = env::read_fraction("SMMKIT_SHED_LOW_WATERMARK",
                                        base.shed_low_watermark);
  const double high = env::read_fraction("SMMKIT_SHED_HIGH_WATERMARK",
                                         base.shed_high_watermark);
  // The ctor requires low <= high; an env pair that violates it is
  // ignored as a whole, like any other unparsable value — a
  // misconfigured scrape knob must not turn into a startup throw.
  if (low <= high) {
    base.shed_low_watermark = low;
    base.shed_high_watermark = high;
  }
  base.failover = failover::failover_options_from_env(base.failover);
  return base;
}

void Ticket::cancel() {
  if (state_ != nullptr) state_->cancel.request_cancel();
}

const Result& Ticket::wait() const& {
  static const Result invalid{false, ErrorCode::kPrecondition,
                              "wait() on an invalid ticket"};
  if (state_ == nullptr) return invalid;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->result;
}

Result Ticket::wait() && { return static_cast<const Ticket&>(*this).wait(); }

bool Ticket::wait_until(std::chrono::steady_clock::time_point deadline) const {
  // Invalid tickets report "terminal": wait() surfaces the error and a
  // timed-wait loop must not spin on a handle that can never complete.
  if (state_ == nullptr) return true;
  std::unique_lock<std::mutex> lock(state_->mu);
  return state_->cv.wait_until(lock, deadline,
                               [&] { return state_->done; });
}

bool Ticket::done() const {
  if (state_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

SmmService::SmmService(ServiceOptions options)
    : options_(options) {
  // Resolve the auto knobs into options_ so options() reports what the
  // service actually runs with.
  if (options_.shards <= 0) options_.shards = shard::default_shard_count();
  options_.shards = std::clamp(options_.shards, 1, shard::kMaxShards);
  if (options_.lanes <= 0)
    options_.lanes =
        std::max(1, par::native_threads_available() / options_.shards);
  if (options_.coalesce_depth == 0) options_.coalesce_depth = 1;
  if (options_.coalesce_window_us < 0) options_.coalesce_window_us = 0;
  SMM_EXPECT(options_.queue_depth > 0, "service needs a queue");
  SMM_EXPECT(options_.threads_per_request >= 1,
             "service needs at least one thread per request");
  SMM_EXPECT(options_.shed_low_watermark <= options_.shed_high_watermark,
             "shed watermarks must be ordered low <= high");
  const model::ParallelCostModel model =
      options_.calibrated_cost ? core::calibrated_cost_model()
                               : model::reference_cost_model();
  flop_ns_ = model.flop_ns;
  dispatch_ns_ = model.dispatch_ns;

  // A single-shard service runs on the process-wide pool and plan cache;
  // N > 1 gives every shard a private domain (DESIGN.md §13) so panels
  // stop contending on one region lock and one cache mutex. Either way
  // every shard is a failure domain with its own ledger and breaker.
  const bool isolated = options_.shards > 1;
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->health = std::make_unique<failover::ShardHealth>(options_.failover,
                                                         options_.breaker);
    if (isolated) {
      sh->pool = par::WorkerPool::create_private();
      sh->cache = std::make_unique<core::PlanCache>(core::reference_smm());
    }
    // Only quarantines from here on are this service's business: the
    // shared process pool may carry earlier ones.
    sh->seen_pool_quarantines = shard_pool(*sh).stats().quarantines;
    shards_.push_back(std::move(sh));
  }
  for (int s = 0; s < options_.shards; ++s) {
    auto& sh = *shards_[static_cast<std::size_t>(s)];
    sh.lanes.reserve(static_cast<std::size_t>(options_.lanes));
    for (int l = 0; l < options_.lanes; ++l)
      sh.lanes.emplace_back([this, s] { lane_main(s); });
  }
  supervisor_running_ = true;
  supervisor_ = std::thread([this] { failover_main(); });
}

SmmService::~SmmService() { shutdown(); }

double SmmService::static_cost_ns(index_t m, index_t n, index_t k) const {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
             static_cast<double>(k) * flop_ns_ +
         dispatch_ns_;
}

double SmmService::estimate_cost_ns(index_t m, index_t n, index_t k) const {
  // Admission budgets track reality: once the autotuner has a steady
  // per-shape-class EWMA (either scalar type — the estimate runs before
  // T is known), it replaces the construction-time constants here, so
  // queued_cost_ns and the coalescing cost bucket price requests at what
  // they actually cost on this host today.
  if (tune::mode() != tune::Mode::kOff) {
    const std::optional<double> observed = tune::tuner().observed_cost_ns(
        m, n, k, /*scalar=*/-1, options_.threads_per_request);
    if (observed.has_value()) return *observed;
  }
  return static_cost_ns(m, n, k);
}

int SmmService::route_shard(index_t m, index_t n, index_t k,
                            int scalar_id) const {
  // Routing stays on the static estimate on purpose: a tuned cost that
  // drifts across a log2 bucket boundary would re-home a hot shape mid-
  // run, abandoning its shard-local plan cache and warm pool (§13/§14).
  return shard::route(shard::shape_class_hash({m, n, k, scalar_id}),
                      static_cost_ns(m, n, k),
                      static_cast<int>(shards_.size()));
}

double SmmService::queue_fill() const {
  const double capacity = static_cast<double>(options_.queue_depth) *
                          static_cast<double>(shards_.size());
  if (capacity <= 0.0) return 0.0;
  const auto queued = total_queued_.load(std::memory_order_relaxed);
  return static_cast<double>(queued) / capacity;
}

core::PlanCache& SmmService::shard_cache(Shard& shard) const {
  return shard.cache != nullptr ? *shard.cache : core::smm_plan_cache();
}

par::WorkerPool& SmmService::shard_pool(Shard& shard) const {
  return shard.pool != nullptr ? *shard.pool : par::WorkerPool::instance();
}

void SmmService::complete(
    const std::shared_ptr<detail::RequestState>& state, Result result) {
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->done) return;
  state->result = std::move(result);
  state->done = true;
  state->cv.notify_all();
}

void SmmService::maybe_notify_drained() {
  if (total_queued_.load(std::memory_order_acquire) == 0 &&
      total_in_flight_.load(std::memory_order_acquire) == 0) {
    // Empty critical section: a drain() that read non-zero totals must
    // reach its wait before this notify, or it would sleep through it.
    { std::lock_guard<std::mutex> g(drain_mu_); }
    drained_cv_.notify_all();
  }
}

// Forced inline (GCC declines on its own): a bump stays two relaxed adds.
[[gnu::always_inline]] inline void SmmService::count(Counter counter,
                                                    std::size_t n) {
  const auto i = static_cast<std::size_t>(counter);
  counters_[i].fetch_add(n, std::memory_order_relaxed);
  (robust::health().*kCounterRows[i].mirror)
      .fetch_add(n, std::memory_order_relaxed);
}

Ticket SmmService::admit(Request request) {
  // Failure-domain diversion (DESIGN.md §15): a quarantined home sends
  // its placements to the next admissible shard on the deterministic
  // fallback ring. The route hash itself is untouched — request.home
  // (and with it the coalesce key population) stays stable, only the
  // placement moves.
  int target = request.home;
  if (!shard_admissible(target)) {
    const int n = static_cast<int>(shards_.size());
    target = failover::next_on_ring(
        target, n, [&](int idx) { return shard_admissible(idx); });
  }
  Shard& shard = *shards_[static_cast<std::size_t>(target)];
  {
    // Correlated pair (DESIGN.md §13): every submission is routed
    // exactly once, before the admission decision — a health snapshot
    // must never observe service_submitted != service_routed.
    robust::Health::Transaction tx;
    count(Counter::submitted);
    count(Counter::routed);
  }
  if (target == request.home) {
    shard.routed.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Diverted placements land in `rerouted`, not a shard's routed
    // counter: routed == Σ routed_per_shard + rerouted stays exact.
    request.rerouted = true;
    count(Counter::rerouted);
  }
  Ticket ticket(request.state);

  // Refusals complete the ticket immediately — the entire decision is one
  // mutex-guarded inspection of the shard's queue counters, O(µs), no
  // plan work.
  const auto refuse = [&](ErrorCode code, std::string msg, bool is_shed,
                          bool is_breaker) {
    count(Counter::rejected);
    if (is_shed) count(Counter::shed);
    if (is_breaker) count(Counter::breaker_rejections);
    complete(request.state, Result{false, code, std::move(msg)});
    return ticket;
  };

  std::shared_ptr<detail::RequestState> victim;
  // Hedge-eligible (submit armed run_claim): snapshot the backup before
  // the primary is moved into the queue. The copy shares the ticket
  // state and the submit-time operand snapshot; backup=true makes it
  // silent on a lost claim.
  std::optional<Request> backup_template;
  if (request.run_claim != nullptr && !request.backup) {
    backup_template = request;
    backup_template->backup = true;
    backup_template->rerouted = false;
  }
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (state() != State::kRunning) {
      lock.unlock();
      return refuse(ErrorCode::kShuttingDown,
                    "smm service: draining, no new work admitted", false,
                    false);
    }

    // Brownout (DESIGN.md §15): under a majority outage the surviving
    // capacity is reserved for the traffic that matters — kLow is shed
    // at the door regardless of queue fill.
    if (request.priority == Priority::kLow &&
        brownout_.load(std::memory_order_relaxed)) {
      lock.unlock();
      return refuse(ErrorCode::kOverloaded,
                    "smm service: brownout, low-priority traffic shed",
                    true, false);
    }

    // Load shedding: above the watermarks, lower classes are refused
    // outright so the remaining depth is reserved for the traffic that
    // matters (Table II's lesson — queueing into sync-bound collapse
    // serves nobody).
    const double fill = static_cast<double>(shard.queued) /
                        static_cast<double>(options_.queue_depth);
    if ((request.priority == Priority::kLow &&
         fill >= options_.shed_low_watermark) ||
        (request.priority <= Priority::kNormal &&
         fill >= options_.shed_high_watermark)) {
      lock.unlock();
      return refuse(
          ErrorCode::kOverloaded,
          strprintf("smm service: shed %s-priority request at %.0f%% fill",
                    to_string(request.priority), fill * 100.0),
          true, false);
    }

    // Cost budget: bounds queue *accumulation*, not request size — an
    // oversized request still runs when it has the queue to itself.
    if (options_.cost_budget_ns > 0.0 && shard.queued > 0 &&
        shard.queued_cost_ns + request.est_cost_ns >
            options_.cost_budget_ns) {
      lock.unlock();
      return refuse(ErrorCode::kOverloaded,
                    "smm service: queued-cost budget exhausted", false,
                    false);
    }

    // At a hard-full queue a higher class may displace the newest entry
    // of a strictly lower one; identify the victim's class now but pop
    // it only once the arrival is certain to be admitted.
    int victim_class = -1;
    if (shard.queued >= options_.queue_depth) {
      for (int p = 0; p < static_cast<int>(request.priority); ++p) {
        if (shard.queues[p].empty()) continue;
        victim_class = p;
        break;
      }
      if (victim_class < 0) {
        lock.unlock();
        return refuse(ErrorCode::kOverloaded,
                      "smm service: queue full", false, false);
      }
    }

    // The target shard's breaker is consulted after every load-shaped
    // refusal (so a refused request never consumes the half-open probe
    // slot) but before the eviction is performed (so a breaker refusal
    // strands no already-popped victim — it simply stays queued). A
    // quarantined domain's breaker is tripped on entry, so traffic with
    // no admissible domain left (on a one-shard service: its only one)
    // is normally refused here.
    CircuitBreaker& breaker = shard.health->breaker();
    if (!breaker.allow()) {
      lock.unlock();
      return refuse(ErrorCode::kOverloaded,
                    "smm service: circuit breaker open", false, true);
    }
    if (!shard_admissible(target)) {
      // The breaker went half-open during a long (administrative) hold,
      // or the target flipped between selection and lock. Release the
      // probe slot and refuse — never enqueue onto a domain the drain
      // owns.
      breaker.on_neutral();
      lock.unlock();
      return refuse(ErrorCode::kOverloaded,
                    "smm service: no healthy shard domain available",
                    false, false);
    }

    if (victim_class >= 0) {
      auto& q = shard.queues[victim_class];
      victim = std::move(q.back().state);
      shard.queued_cost_ns -= q.back().est_cost_ns;
      q.pop_back();
      --shard.queued;
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
    }

    shard.queued_cost_ns += request.est_cost_ns;
    shard.queues[static_cast<int>(request.priority)].push_back(
        std::move(request));
    ++shard.queued;
    total_queued_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.work_cv.notify_one();
  // Hedged request admitted (submit armed run_claim): register the
  // backup template with the supervisor, which fires it on a different
  // shard once the hedge delay elapses. Registration is outside the
  // shard lock — the supervisor takes shard locks when it fires. The
  // entry records where the primary actually landed (`target`, not
  // `home`: a rerouted primary already sits on home's ring successor,
  // which is exactly where a home-relative scan would put the backup).
  if (backup_template.has_value())
    register_hedge(std::move(*backup_template), target);
  count(Counter::admitted);
  shard.admitted.fetch_add(1, std::memory_order_relaxed);

  if (victim != nullptr) {
    // The victim was *admitted* (it is counted in `admitted`) and is now
    // terminated post-admission, so it lands in its own counter — not in
    // `rejected`/`shed`, which partition *submissions*: submitted ==
    // admitted + rejected, and admitted work ends completed, evicted,
    // cancelled, deadline-missed, or failed.
    count(Counter::evicted);
    complete(victim,
             Result{false, ErrorCode::kOverloaded,
                    "smm service: evicted by a higher-priority arrival"});
  }
  return ticket;
}

bool SmmService::shard_admissible(int idx) const {
  return shards_[static_cast<std::size_t>(idx)]->health->admissible();
}

void SmmService::record_outcome(const Result& result, Shard& shard) {
  CircuitBreaker& breaker = shard.health->breaker();
  // Ledger transitions: the executing shard's own outcome stream drives
  // its lifecycle — a quarantine entry discovered here owns the drain
  // that follows.
  const auto on_shard_failure = [&] {
    if (!shard.health->on_failure()) return;
    // The ledger just crossed into quarantine: drain the shard. shards_
    // holds unique_ptrs, so recover the index by scan (failure path
    // only, <=64 entries).
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].get() == &shard) {
        handle_quarantine(static_cast<int>(i));
        break;
      }
    }
  };
  if (result.ok) {
    count(Counter::completed);
    breaker.on_success();
    shard.health->on_success();
    return;
  }
  switch (result.code) {
    case ErrorCode::kCancelled:
      count(Counter::cancellations);
      breaker.on_neutral();
      break;
    case ErrorCode::kDeadlineExceeded:
      count(Counter::deadline_misses);
      breaker.on_neutral();
      break;
    case ErrorCode::kNonFinite:
    case ErrorCode::kBadShape:
    case ErrorCode::kAlias:
    case ErrorCode::kPrecondition:
      // The request's own fault: says nothing about the substrate.
      breaker.on_neutral();
      break;
    case ErrorCode::kDataCorrupted:
    case ErrorCode::kCacheCorrupted:
      // Silent-data-corruption defenses fired and could not repair:
      // the substrate is actively producing wrong bytes — the
      // strongest possible signal to trip the breaker.
      breaker.on_failure();
      on_shard_failure();
      break;
    default:
      // Infrastructure-class failure (dead worker, pool timeout,
      // allocation collapse): counts toward tripping the breaker.
      breaker.on_failure();
      on_shard_failure();
      break;
  }
}

BreakerState SmmService::shard_breaker_state(int shard_idx) const {
  return shards_[static_cast<std::size_t>(shard_idx)]
      ->health->breaker()
      .state();
}

failover::ShardState SmmService::shard_state(int shard_idx) const {
  return shards_[static_cast<std::size_t>(shard_idx)]->health->state();
}

void SmmService::quarantine_shard(int shard_idx) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_idx)];
  // force_quarantine() is true exactly on *entry*: an upgrade of an
  // existing quarantine to an administrative hold needs no second drain.
  if (shard.health->force_quarantine()) handle_quarantine(shard_idx);
}

void SmmService::revive_shard(int shard_idx) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_idx)];
  if (!shard.health->revive()) return;
  begin_shard_rebuild(shard);
}

void SmmService::begin_shard_rebuild(Shard& shard) {
  // The quarantined domain's cached plans are suspect — whatever broke
  // the substrate may have rotted them (that is what the seals catch,
  // but a rebuild starts from a blank slate instead of betting on it).
  // The process-wide cache a one-shard service borrows is left alone:
  // it serves callers outside this service too.
  if (shard.cache != nullptr) shard.cache->clear();
  count(Counter::shard_rebuilds);
  evaluate_brownout();
  shard.work_cv.notify_all();
}

void SmmService::failover_main() {
  // Supervisor cadence: 200µs keeps quarantine expiry and hedge firing
  // well under any deadline a serving workload would set, while the
  // notify in register_hedge() covers hedges shorter than a tick.
  std::unique_lock<std::mutex> lock(supervisor_mu_);
  while (supervisor_running_) {
    supervisor_cv_.wait_for(lock, std::chrono::microseconds(200));
    if (!supervisor_running_) return;
    lock.unlock();
    tick_failover();
    lock.lock();
  }
}

void SmmService::tick_failover() {
  const auto now = std::chrono::steady_clock::now();
  const int n = static_cast<int>(shards_.size());

  // 1. Pool-quarantine attribution: the watchdog of the pool a shard
  //    runs on is that shard's hardest health signal. Each shard reads
  //    its own pool's count — a panel's hung pool condemns the panel,
  //    never a shard of this or another service that runs elsewhere.
  for (int i = 0; i < n; ++i) {
    Shard& shard = *shards_[static_cast<std::size_t>(i)];
    const std::size_t q = shard_pool(shard).stats().quarantines;
    if (q > shard.seen_pool_quarantines) {
      shard.seen_pool_quarantines = q;
      if (shard.health->on_pool_quarantine()) handle_quarantine(i);
    }
  }

  // 2. Quarantine expiry: kQuarantined -> kRebuilding once the hold
  //    elapses; the first clean completion heals the shard.
  for (int i = 0; i < n; ++i) {
    Shard& shard = *shards_[static_cast<std::size_t>(i)];
    if (shard.health->maybe_begin_rebuild(now)) begin_shard_rebuild(shard);
  }

  // 3. Hedge sweep: cancel losers of decided races, fire backups whose
  //    delay elapsed. Lock order is hedge_mu_ -> shard.mu (enqueue);
  //    no path takes them in the other order.
  const bool browned_out = brownout_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(hedge_mu_);
  for (auto it = hedges_.begin(); it != hedges_.end();) {
    bool done;
    {
      std::lock_guard<std::mutex> g(it->state->mu);
      done = it->state->done;
    }
    const bool stopped = it->state->cancel.token().stop_requested();
    if (done || stopped) {
      // The race is decided (or the caller stopped the ticket): stop
      // the outstanding arms and retire the entry. A cancelled loser
      // reaps out of its queue, loses the claim, and vanishes without
      // a second completion. Stopping the shared source after done is
      // invisible to the caller (the result is already recorded) and
      // spares a still-queued loser its pointless run.
      if (it->backup_cancel != nullptr) it->backup_cancel->request_cancel();
      if (done) it->state->cancel.request_cancel();
      it = hedges_.erase(it);
      continue;
    }
    if (!it->fired && now >= it->fire_at) {
      it->fired = true;
      if (state() == State::kRunning && !browned_out) {
        // Scan relative to the primary's actual placement, not its
        // routed home: an admission-diverted primary already runs on
        // home's ring successor, and a home-relative scan would land
        // the backup on that same shard — doubling its load and
        // forfeiting the different-shard isolation the hedge is for.
        // next_on_ring starts after `primary_shard`, so the primary's
        // own domain is excluded by construction.
        const int target = failover::next_on_ring(
            it->primary_shard, n,
            [&](int idx) { return shard_admissible(idx); });
        if (target != it->primary_shard) {
          Request backup = std::move(it->backup);
          backup.exec_cancel =
              backup.has_deadline
                  ? std::make_shared<CancelSource>(backup.deadline)
                  : std::make_shared<CancelSource>();
          it->backup_cancel = backup.exec_cancel;
          if (enqueue_backup(target, std::move(backup))) {
            count(Counter::hedged);
          } else {
            // Queue full or the service stopped running between the
            // check and the enqueue: the hedge is best-effort, the
            // primary still owns the ticket.
            it->backup_cancel = nullptr;
          }
        }
        // No admissible second shard: nothing to hedge onto — the
        // primary runs unhedged (fired stays true; the entry is GC'd
        // when the ticket reaches terminal).
      }
    }
    ++it;
  }
}

void SmmService::handle_quarantine(int idx) {
  count(Counter::shard_quarantines);
  drain_shard_queue(idx);
  evaluate_brownout();
}

void SmmService::drain_shard_queue(int idx) {
  Shard& shard = *shards_[static_cast<std::size_t>(idx)];
  std::vector<Request> orphans;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& q : shard.queues) {
      for (auto& r : q) {
        // in_flight before queued: drain() watches the pair and must
        // never observe a mid-migration request as "done".
        total_in_flight_.fetch_add(1, std::memory_order_relaxed);
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        orphans.push_back(std::move(r));
      }
      q.clear();
    }
    shard.queued = 0;
    shard.queued_cost_ns = 0.0;
  }
  for (auto& r : orphans) place_rerouted(std::move(r), idx);
}

void SmmService::place_rerouted(Request request, int from_idx) {
  const int n = static_cast<int>(shards_.size());
  const int target = failover::next_on_ring(
      from_idx, n, [&](int idx) { return shard_admissible(idx); });
  if (target != from_idx) {
    Shard& shard = *shards_[static_cast<std::size_t>(target)];
    const bool attribute = !request.rerouted && !request.backup;
    const int pclass = static_cast<int>(request.priority);
    request.rerouted = true;
    bool placed = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      // A re-routed ticket was already admitted once; it only bounces
      // when the fallback has no room at all (hard-full), in which case
      // it terminates below rather than strand.
      if (state() != State::kStopped &&
          shard.queued < options_.queue_depth) {
        shard.queued_cost_ns += request.est_cost_ns;
        shard.queues[pclass].push_back(std::move(request));
        ++shard.queued;
        total_queued_.fetch_add(1, std::memory_order_relaxed);
        total_in_flight_.fetch_sub(1, std::memory_order_relaxed);
        placed = true;
      }
    }
    if (placed) {
      if (attribute) {
        // First migration: the placement leaves its origin's routed
        // count for `rerouted`, keeping routed == Σ routed_per_shard +
        // rerouted exact.
        shards_[static_cast<std::size_t>(from_idx)]->routed.fetch_sub(
            1, std::memory_order_relaxed);
        count(Counter::rerouted);
      }
      shard.work_cv.notify_one();
      maybe_notify_drained();
      return;
    }
  }
  // No admissible fallback (or it is hard-full): the ticket terminates
  // here — never stranded in a quarantined queue.
  if (request.backup ||
      (request.run_claim != nullptr && !request.state->claim())) {
    // A backup (or a hedged primary whose sibling already claimed) is
    // dropped silently: the other arm owns the ticket.
    total_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    maybe_notify_drained();
    return;
  }
  count(Counter::evicted);
  complete(request.state,
           Result{false, ErrorCode::kOverloaded,
                  "smm service: shard quarantined, no healthy fallback"});
  total_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  maybe_notify_drained();
}

void SmmService::evaluate_brownout() {
  const int n = static_cast<int>(shards_.size());
  int admissible = 0;
  for (int i = 0; i < n; ++i)
    if (shard_admissible(i)) ++admissible;
  // Majority rule: fewer than half the domains still admitting is no
  // longer a local failure — the service sheds optional work explicitly
  // instead of letting the survivors collapse under the full load.
  const bool should = 2 * admissible < n;
  const bool was = brownout_.exchange(should, std::memory_order_relaxed);
  if (should && !was) {
    count(Counter::brownouts);
    // Counted holds: a second browned-out service instance keeps the
    // process-wide suppressions up after this one exits or shuts down.
    tune::hold_sampling_suppression();
    integrity::hold_repair_suppression();
  } else if (!should && was) {
    tune::release_sampling_suppression();
    integrity::release_repair_suppression();
  }
}

void SmmService::register_hedge(Request backup_template,
                                int primary_shard) {
  const auto now = std::chrono::steady_clock::now();
  double delay_ns;
  if (options_.failover.hedge_ms > 0) {
    delay_ns = static_cast<double>(options_.failover.hedge_ms) * 1e6;
  } else {
    // Percentile rule: past the p95 of recent completions a still-
    // outstanding request has statistically stalled. Floor keeps
    // microsecond shapes from hedging instantly (pure waste); cap keeps
    // the backup worth firing — launched with at least half the
    // deadline budget left. (Hedge eligibility guarantees a deadline.)
    const double budget_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            backup_template.deadline - now)
            .count();
    delay_ns = latency_.quantile(options_.failover.hedge_percentile,
                                 2.0 * backup_template.est_cost_ns);
    delay_ns = std::clamp(delay_ns, 2.0e4, std::max(2.0e4, 0.5 * budget_ns));
  }
  HedgeEntry entry;
  entry.state = backup_template.state;
  entry.primary_shard = primary_shard;
  entry.fire_at =
      now + std::chrono::nanoseconds(static_cast<long long>(delay_ns));
  entry.backup = std::move(backup_template);
  {
    std::lock_guard<std::mutex> lock(hedge_mu_);
    hedges_.push_back(std::move(entry));
  }
  // A hedge shorter than the supervisor tick still fires on time.
  supervisor_cv_.notify_all();
}

bool SmmService::enqueue_backup(int target, Request backup) {
  Shard& shard = *shards_[static_cast<std::size_t>(target)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (state() != State::kRunning) return false;
    if (shard.queued >= options_.queue_depth) return false;
    shard.queued_cost_ns += backup.est_cost_ns;
    // kHigh on purpose: the eviction victim scan only considers classes
    // strictly below an arrival, so hedge machinery is never evicted
    // (and never evicts — backups bypass admission entirely).
    shard.queues[2].push_back(std::move(backup));
    ++shard.queued;
    total_queued_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.work_cv.notify_one();
  return true;
}

void SmmService::execute(Request& request, Shard& shard) {
  // A hedged backup runs under its own CancelSource so the supervisor
  // can cancel the loser without disturbing the caller-facing source.
  const CancelToken token = request.exec_cancel != nullptr
                                ? request.exec_cancel->token()
                                : request.state->cancel.token();
  const bool claiming = request.run_claim != nullptr;
  Result result;
  // Queued-but-unstarted stop: complete without touching C (or any plan
  // state) — exactly the "work nobody is waiting for" shedding exists
  // to avoid.
  if (token.cancel_requested()) {
    result = {false, ErrorCode::kCancelled,
              "smm service: cancelled while queued"};
  } else if (token.expired()) {
    result = {false, ErrorCode::kDeadlineExceeded,
              "smm service: deadline passed while queued"};
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    try {
      // A degraded/rebuilding shard produces failover-shaped latencies
      // (cold caches, half-open probes) that must not be ingested as
      // evidence — neither by the tuner (sampling suppressed for the
      // run) nor by the hedge LatencyWindow (recording skipped below):
      // failure-inflated wall times would stretch the p95-derived
      // hedge delay exactly when hedging matters most. Snapshot of the
      // state at run start; a mid-run transition misclassifies at most
      // this one observation.
      const bool shard_healthy =
          shard.health->state() == failover::ShardState::kHealthy;
      std::optional<tune::ScopedSampleSuppression> suppress;
      if (!shard_healthy) suppress.emplace();
      if (claiming) {
        // Hedged: compute into private scratch, then race for the
        // claim. Only the winner published into the caller's C; the
        // loser's work is discarded without touching any shared state.
        if (!request.run_claim(token, shard_cache(shard))) {
          if (!request.backup) shard.health->breaker().on_neutral();
          return;  // the sibling owns the outcome — record nothing
        }
        result.ok = true;
        if (request.backup) count(Counter::hedge_wins);
      } else {
        request.run(token, shard_cache(shard));
        result.ok = true;
      }
      if (shard_healthy)
        latency_.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
    } catch (const Error& e) {
      ErrorCode code = e.code();
      // A stop inside a parallel plan poisons the peers' barriers, so
      // the aggregate can surface as kWorkerPanic/kPoolTimeout; the
      // token knows the real reason.
      if ((code == ErrorCode::kWorkerPanic ||
           code == ErrorCode::kPoolTimeout) &&
          token.stop_requested()) {
        code = token.cancel_requested() ? ErrorCode::kCancelled
                                        : ErrorCode::kDeadlineExceeded;
      }
      result = {false, code, e.what()};
    } catch (const std::bad_alloc&) {
      result = {false, ErrorCode::kAlloc,
                "smm service: allocation failed"};
    } catch (const std::exception& e) {
      result = {false, ErrorCode::kUnknown, e.what()};
    }
  }

  if (claiming && !result.ok) {
    // First terminal wins — success or failure alike. A second arm is
    // still racing (or already terminal); if the claim is lost, this
    // arm's outcome is nobody's business.
    if (!request.state->claim()) {
      if (!request.backup) shard.health->breaker().on_neutral();
      return;
    }
  }
  record_outcome(result, shard);
  complete(request.state, std::move(result));
}

template <typename T>
void SmmService::run_coalesced(SmmService& svc, Shard& shard,
                               std::vector<Request>& group) {
  std::vector<core::GemmBatchItem<T>> items;
  std::vector<CancelToken> token_storage;
  std::vector<const CancelToken*> tokens;
  items.reserve(group.size());
  token_storage.reserve(group.size());  // no realloc: tokens points in
  tokens.reserve(group.size());
  const auto* lead =
      static_cast<const detail::GemmArgs<T>*>(group.front().args.get());
  for (auto& r : group) {
    const auto* args =
        static_cast<const detail::GemmArgs<T>*>(r.args.get());
    items.push_back({args->a, args->b, args->c});
    token_storage.push_back(r.state->cancel.token());
    tokens.push_back(&token_storage.back());
  }

  {
    // Correlated pair: a snapshot must never see a group without its
    // items (or vice versa).
    robust::Health::Transaction tx;
    svc.count(Counter::coalesced_groups);
    svc.count(Counter::coalesced_items, group.size());
  }

  // One batched dispatch for the whole group: one plan lookup, one
  // pack of the shared B (when the items share one), one fork-join —
  // the Table II per-call overhead paid once instead of group-size
  // times. batched_smm_each never lets one member's failure poison a
  // sibling; the catch below only guards its own preconditions.
  std::vector<core::BatchItemStatus> statuses;
  std::optional<tune::ScopedSampleSuppression> suppress;
  if (shard.health->state() != failover::ShardState::kHealthy)
    suppress.emplace();
  try {
    statuses = core::batched_smm_each(
        lead->alpha, items, lead->beta, svc.shard_cache(shard),
        svc.options_.threads_per_request, &svc.options_.gemm, &tokens);
  } catch (const Error& e) {
    statuses.assign(group.size(),
                    core::BatchItemStatus{false, e.code(), e.what()});
  } catch (const std::exception& e) {
    statuses.assign(
        group.size(),
        core::BatchItemStatus{false, ErrorCode::kUnknown, e.what()});
  }

  // Success accounting is batched: one counter bump and one breaker
  // on_success per group instead of per member (on_success is
  // idempotent — it resets the failure streak — so folding N calls into
  // one is semantically identical and keeps the per-item completion
  // cost flat as groups deepen). Failures stay per-member so the
  // breaker sees every individual infrastructure signal.
  std::size_t ok_members = 0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    Result result;
    if (statuses[i].ok) {
      result.ok = true;
      ++ok_members;
    } else {
      ErrorCode code = statuses[i].code;
      // Same reclassification as execute(): a stop that surfaced as a
      // poisoned parallel region is reported as the stop it was.
      if ((code == ErrorCode::kWorkerPanic ||
           code == ErrorCode::kPoolTimeout) &&
          token_storage[i].stop_requested()) {
        code = token_storage[i].cancel_requested()
                   ? ErrorCode::kCancelled
                   : ErrorCode::kDeadlineExceeded;
      }
      result = Result{false, code, statuses[i].message};
      svc.record_outcome(result, shard);
    }
    complete(group[i].state, std::move(result));
  }
  if (ok_members > 0) {
    svc.count(Counter::completed, ok_members);
    shard.health->breaker().on_success();
    shard.health->on_success();
  }
}

void SmmService::reap_stopped_locked(Shard& shard) {
  for (auto& q : shard.queues) {
    for (auto it = q.begin(); it != q.end();) {
      // A hedged backup is stopped through its private source (the
      // supervisor cancels the loser once the sibling is terminal).
      const CancelToken token = it->exec_cancel != nullptr
                                    ? it->exec_cancel->token()
                                    : it->state->cancel.token();
      if (!token.stop_requested()) {
        ++it;
        continue;
      }
      const auto unqueue = [&] {
        shard.queued_cost_ns -= it->est_cost_ns;
        --shard.queued;
        total_queued_.fetch_sub(1, std::memory_order_relaxed);
        it = q.erase(it);
      };
      if (it->run_claim != nullptr && !it->state->claim()) {
        // The sibling already owns the terminal outcome: this arm is
        // pure leftovers — drop it without a second completion or any
        // health accounting (no double-counting).
        unqueue();
        continue;
      }
      Result result =
          token.cancel_requested()
              ? Result{false, ErrorCode::kCancelled,
                       "smm service: cancelled while queued"}
              : Result{false, ErrorCode::kDeadlineExceeded,
                       "smm service: deadline passed while queued"};
      count(result.code == ErrorCode::kCancelled ? Counter::cancellations
                                                 : Counter::deadline_misses);
      // Mirrors execute()'s queued pre-check: a stop is neutral for the
      // breaker, but must still release a half-open probe slot the
      // request may hold from admission. Backups never took that slot.
      if (!it->backup) shard.health->breaker().on_neutral();
      complete(it->state, std::move(result));
      unqueue();
    }
  }
}

std::size_t SmmService::sweep_matches_locked(Shard& shard,
                                             std::vector<Request>& group) {
  const CoalesceKey key = group.front().key;  // copy: group may realloc
  std::size_t added = 0;
  for (int p = 2; p >= 0 && group.size() < options_.coalesce_depth; --p) {
    auto& q = shard.queues[p];
    for (auto it = q.begin();
         it != q.end() && group.size() < options_.coalesce_depth;) {
      if (!it->key.matches(key)) {
        ++it;
        continue;
      }
      // A candidate whose output overlaps a member's operands (or whose
      // inputs a member writes) stays queued and runs in a later group —
      // batched workers write all Cs concurrently.
      bool conflict = false;
      for (const auto& member : group) {
        if (ranges_overlap(it->c_range, member.c_range) ||
            ranges_overlap(it->c_range, member.a_range) ||
            ranges_overlap(it->c_range, member.b_range) ||
            ranges_overlap(member.c_range, it->a_range) ||
            ranges_overlap(member.c_range, it->b_range)) {
          conflict = true;
          break;
        }
      }
      if (conflict) {
        ++it;
        continue;
      }
      // in_flight before queued: drain() watches the pair and must
      // never observe a popped-but-unaccounted request as "done".
      total_in_flight_.fetch_add(1, std::memory_order_relaxed);
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
      --shard.queued;
      shard.queued_cost_ns -= it->est_cost_ns;
      group.push_back(std::move(*it));
      it = q.erase(it);
      ++added;
    }
  }
  return added;
}

std::chrono::steady_clock::time_point SmmService::group_deadline_bound(
    const std::vector<Request>& group) const {
  auto bound = std::chrono::steady_clock::time_point::max();
  double cost_ns = 0.0;
  for (const auto& r : group) cost_ns += r.est_cost_ns;
  // Safety margin: leave the group at least 4x its predicted cost (and
  // never less than 2 ms) of runway before the earliest deadline — a
  // window must amortize dispatch, not manufacture deadline misses.
  const auto margin = std::chrono::nanoseconds(
      static_cast<long long>(std::max(4.0 * cost_ns, 2e6)));
  for (const auto& r : group)
    if (r.has_deadline) bound = std::min(bound, r.deadline - margin);
  return bound;
}

void SmmService::pop_group_locked(Shard& shard,
                                  std::unique_lock<std::mutex>& lock,
                                  std::vector<Request>& group) {
  for (int p = 2; p >= 0; --p) {
    auto& q = shard.queues[p];
    if (q.empty()) continue;
    total_in_flight_.fetch_add(1, std::memory_order_relaxed);
    total_queued_.fetch_sub(1, std::memory_order_relaxed);
    --shard.queued;
    shard.queued_cost_ns -= q.front().est_cost_ns;
    group.push_back(std::move(q.front()));
    q.pop_front();
    break;
  }
  if (group.empty()) return;
  const std::size_t depth = options_.coalesce_depth;
  if (depth <= 1 || !group.front().key.valid) return;

  // Opportunistic sweep: whatever same-key work is already queued rides
  // along for free (no waiting involved).
  sweep_matches_locked(shard, group);
  if (group.size() >= depth || options_.coalesce_window_us <= 0 ||
      state() != State::kRunning)
    return;

  // Micro-batch window: hold the underfull group open for late same-key
  // arrivals. Depth-, deadline-, and lifecycle-bounded — drain() and
  // shutdown() notify the cv, flushing every open window immediately.
  auto flush_at = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(options_.coalesce_window_us);
  flush_at = std::min(flush_at, group_deadline_bound(group));
  while (group.size() < depth && state() == State::kRunning &&
         std::chrono::steady_clock::now() < flush_at) {
    if (shard.work_cv.wait_until(lock, flush_at) ==
        std::cv_status::timeout)
      break;
    if (state() != State::kRunning) break;
    if (sweep_matches_locked(shard, group) > 0)
      flush_at = std::min(flush_at, group_deadline_bound(group));
  }
}

bool SmmService::try_steal(int thief_idx) {
  if (state() != State::kRunning) return false;
  const int n = static_cast<int>(shards_.size());
  Shard& mine = *shards_[static_cast<std::size_t>(thief_idx)];
  // Only a healthy or merely degraded shard may steal: a quarantined or
  // rebuilding domain must not pull fresh work onto the very substrate
  // the ledger just condemned.
  const auto mine_state = mine.health->state();
  if (mine_state != failover::ShardState::kHealthy &&
      mine_state != failover::ShardState::kDegraded)
    return false;
  for (int d = 1; d < n; ++d) {
    const int victim_idx = (thief_idx + d) % n;
    // A quarantined victim's queue belongs to the drain: stealing from
    // it would race the re-route and double-handle tickets.
    if (!shard_admissible(victim_idx)) continue;
    Shard& victim = *shards_[static_cast<std::size_t>(victim_idx)];
    Request stolen;
    bool got = false;
    {
      std::lock_guard<std::mutex> lock(victim.mu);
      // Bounded stealing: take ONE request, and only from a shard with
      // at least two queued — the victim keeps its plan-cache-local
      // work and the stolen plan is rebuilt at most once per thief.
      if (victim.queued >= 2) {
        for (int p = 0; p <= 2; ++p) {  // lowest class first: it waits
          auto& q = victim.queues[p];   // longest at home anyway
          if (q.empty()) continue;
          total_in_flight_.fetch_add(1, std::memory_order_relaxed);
          total_queued_.fetch_sub(1, std::memory_order_relaxed);
          --victim.queued;
          victim.queued_cost_ns -= q.back().est_cost_ns;
          stolen = std::move(q.back());
          q.pop_back();
          got = true;
          break;
        }
      }
    }
    if (!got) continue;
    mine.steals.fetch_add(1, std::memory_order_relaxed);
    count(Counter::steals);
    // Runs on the thief's domain (its pool binding is lane-scoped, its
    // cache passed here) — the whole point is using idle capacity.
    execute(stolen, mine);
    total_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    maybe_notify_drained();
    return true;
  }
  return false;
}

void SmmService::lane_main(int shard_idx) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_idx)];
  const bool multi = shards_.size() > 1;
  // Bind the shard's pool as this lane's run_parallel target: every
  // nested fork-join region lands on shard-local workers.
  par::WorkerPool::CurrentPoolBinding binding(shard_pool(shard));
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    const auto ready = [&] {
      return state() == State::kStopped || shard.queued > 0;
    };
    if (multi) {
      // Timed wait: an idle shard periodically scans peers for steals.
      shard.work_cv.wait_for(lock, std::chrono::microseconds(500), ready);
    } else {
      shard.work_cv.wait(lock, ready);
    }
    // Deadline-aware sweep before picking work: under sustained
    // higher-priority pressure a queued lower-class item may never be
    // popped, yet its caller's deadline keeps running. Reaping stopped
    // items here bounds time-to-terminal by the lane's pop cadence
    // instead of the item's (possibly starved) queue position.
    if (shard.queued > 0) reap_stopped_locked(shard);
    if (shard.queued == 0) {
      maybe_notify_drained();
      if (state() == State::kStopped) return;
      if (multi && state() == State::kRunning) {
        lock.unlock();
        try_steal(shard_idx);
        lock.lock();
      }
      continue;
    }
    std::vector<Request> group;
    pop_group_locked(shard, lock, group);
    if (group.empty()) continue;
    lock.unlock();
    if (group.size() == 1) {
      execute(group.front(), shard);
    } else {
      group.front().run_group(*this, shard, group);
    }
    total_in_flight_.fetch_sub(group.size(), std::memory_order_relaxed);
    maybe_notify_drained();
    lock.lock();
  }
}

void SmmService::drain() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    State expected = State::kRunning;
    state_.compare_exchange_strong(expected, State::kDraining,
                                   std::memory_order_acq_rel);
  }
  // Admission barrier + window flush: an admit that saw kRunning holds
  // its shard mutex until its enqueue is accounted in total_queued_, so
  // taking each mutex once makes every such enqueue visible below; the
  // wakeup flushes any open coalesce window.
  for (auto& shard : shards_) {
    { std::lock_guard<std::mutex> g(shard->mu); }
    shard->work_cv.notify_all();
  }
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [&] {
    return total_queued_.load(std::memory_order_acquire) == 0 &&
           total_in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void SmmService::shutdown() {
  drain();
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    state_.store(State::kStopped, std::memory_order_release);
  }
  // Supervisor first: it re-routes into shard queues and fires backups,
  // so it must be gone before the lanes stop popping.
  {
    std::lock_guard<std::mutex> lock(supervisor_mu_);
    supervisor_running_ = false;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
  {
    std::lock_guard<std::mutex> lock(hedge_mu_);
    hedges_.clear();
  }
  // The brownout suppressions are process-global counted holds (tune,
  // integrity): a service that dies browned-out must release its own
  // hold — and only its own; another instance's brownout stays in
  // force (the exchange guarantees exactly one release per entry).
  if (brownout_.exchange(false, std::memory_order_relaxed)) {
    tune::release_sampling_suppression();
    integrity::release_repair_suppression();
  }
  std::vector<std::thread> lanes;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> g(shard->mu);
      for (auto& lane : shard->lanes) lanes.push_back(std::move(lane));
      shard->lanes.clear();
    }
    shard->work_cv.notify_all();
  }
  for (auto& lane : lanes) lane.join();
  // The service promised its caller a clean exit: after this, neither
  // the service nor any pool underneath it owns a live thread.
  for (auto& shard : shards_)
    if (shard->pool != nullptr) shard->pool->release_threads();
  par::WorkerPool::instance().release_threads();
}

SmmService::Stats SmmService::stats() const {
  Stats s;
  for (std::size_t i = 0; i < std::size(kCounterRows); ++i)
    s.*kCounterRows[i].field = counters_[i].load(std::memory_order_relaxed);
  s.queued = total_queued_.load(std::memory_order_relaxed);
  s.in_flight = total_in_flight_.load(std::memory_order_relaxed);
  s.routed_per_shard.reserve(shards_.size());
  s.admitted_per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    s.routed_per_shard.push_back(
        shard->routed.load(std::memory_order_relaxed));
    s.admitted_per_shard.push_back(
        shard->admitted.load(std::memory_order_relaxed));
  }
  return s;
}

template <typename T>
Ticket SmmService::submit(T alpha, ConstMatrixView<T> a,
                          ConstMatrixView<T> b, T beta, MatrixView<T> c,
                          Priority priority, long deadline_ms) {
  SMM_EXPECT_CODE(a.rows() == c.rows() && b.cols() == c.cols() &&
                      a.cols() == b.rows(),
                  ErrorCode::kBadShape,
                  "service submit: dimension mismatch");
  SMM_EXPECT_CODE((a.empty() || a.data() != nullptr) &&
                      (b.empty() || b.data() != nullptr) &&
                      (c.empty() || c.data() != nullptr),
                  ErrorCode::kBadShape,
                  "service submit: operand has null data");
  Request request;
  request.priority = priority;
  request.est_cost_ns = estimate_cost_ns(c.rows(), c.cols(), a.cols());
  request.state = std::make_shared<detail::RequestState>();
  const long ms =
      deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  if (ms > 0) {
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms);
    request.has_deadline = true;
    request.state->cancel = CancelSource(request.deadline);
  }
  const int scalar_id = sizeof(T) == 4 ? 0 : 1;
  request.home = route_shard(c.rows(), c.cols(), a.cols(), scalar_id);
  const int threads = options_.threads_per_request;
  const core::SmmOptions gemm = options_.gemm;
  request.run = [alpha, a, b, beta, c, threads, gemm](
                    const CancelToken& token, core::PlanCache& cache) {
    core::smm_gemm(alpha, a, b, beta, c, threads, gemm, token, cache);
  };
  if (c.rows() > 0 && c.cols() > 0 && a.cols() > 0) {
    // Coalescable: record the key, the typed operands, and the
    // type-erased storage extents the sweep's conflict checks read.
    request.key = CoalesceKey{c.rows(),
                              c.cols(),
                              a.cols(),
                              scalar_id,
                              static_cast<double>(alpha),
                              static_cast<double>(beta),
                              true};
    request.args = std::make_shared<detail::GemmArgs<T>>(
        detail::GemmArgs<T>{alpha, beta, a, b, c});
    request.run_group = &SmmService::run_coalesced<T>;
    request.a_range = storage_range(a);
    request.b_range = storage_range(b);
    request.c_range = storage_range(ConstMatrixView<T>(c));
  }
  // Hedged execution (DESIGN.md §15): a kHigh request whose deadline
  // budget exceeds hedge_budget_factor × its predicted cost can afford
  // to run twice — a backup fires on a different shard after the hedge
  // delay, first terminal wins. ALL THREE operands are snapshotted here
  // into service-owned storage: the winner claims and completes while
  // the loser may still be executing (its cancellation is cooperative),
  // and the submit() contract lets the caller free A/B/C the moment
  // wait() returns — a loser still reading the borrowed views would be
  // a use-after-free. Both arms therefore compute from the snapshots
  // into private scratch; only the claim winner publishes into the
  // caller's C (and beta-accumulation reads a stable pre-image). A
  // hedged request never coalesces: its group siblings would write the
  // user's C directly, defeating the claim protocol. A one-shard service
  // has no second domain to fire a backup on, so it never pays for the
  // snapshots.
  if (shards_.size() > 1 && priority == Priority::kHigh && ms > 0 &&
      c.rows() > 0 && c.cols() > 0 && a.cols() > 0 &&
      static_cast<double>(ms) * 1e6 >
          options_.failover.hedge_budget_factor * request.est_cost_ns) {
    auto a0 = std::make_shared<Matrix<T>>(a.rows(), a.cols(), a.layout());
    for (index_t j = 0; j < a.cols(); ++j)
      for (index_t i = 0; i < a.rows(); ++i) (*a0)(i, j) = a(i, j);
    auto b0 = std::make_shared<Matrix<T>>(b.rows(), b.cols(), b.layout());
    for (index_t j = 0; j < b.cols(); ++j)
      for (index_t i = 0; i < b.rows(); ++i) (*b0)(i, j) = b(i, j);
    auto c0 = std::make_shared<Matrix<T>>(c.rows(), c.cols(), c.layout());
    for (index_t j = 0; j < c.cols(); ++j)
      for (index_t i = 0; i < c.rows(); ++i) (*c0)(i, j) = c(i, j);
    request.run = nullptr;
    request.key = CoalesceKey{};
    request.args = nullptr;
    request.run_group = nullptr;
    request.run_claim = [alpha, a0, b0, beta, c, c0, threads, gemm,
                         state = request.state](
                            const CancelToken& token,
                            core::PlanCache& cache) -> bool {
      Matrix<T> scratch = c0->clone();
      core::smm_gemm(alpha, a0->cview(), b0->cview(), beta,
                     scratch.view(), threads, gemm, token, cache);
      if (!state->claim()) return false;  // the sibling already decided
      // Publish: the caller observes C only after wait() returns, and
      // complete() hands the result over under state->mu — the mutex
      // orders this copy before any caller read.
      MatrixView<T> out = c;
      for (index_t j = 0; j < out.cols(); ++j)
        for (index_t i = 0; i < out.rows(); ++i)
          out(i, j) = scratch(i, j);
      return true;
    };
  }
  return admit(std::move(request));
}

template Ticket SmmService::submit(float, ConstMatrixView<float>,
                                   ConstMatrixView<float>, float,
                                   MatrixView<float>, Priority, long);
template Ticket SmmService::submit(double, ConstMatrixView<double>,
                                   ConstMatrixView<double>, double,
                                   MatrixView<double>, Priority, long);

template <typename T>
Ticket SmmService::submit_batch(T alpha, std::vector<BatchItem<T>> items,
                                T beta, Priority priority,
                                long deadline_ms) {
  auto batch =
      std::make_shared<std::vector<core::GemmBatchItem<T>>>();
  batch->reserve(items.size());
  const int scalar_id = sizeof(T) == 4 ? 0 : 1;
  // Batch submissions route by a combined hash of their item shapes:
  // identical batches stay shard-local; they never coalesce with other
  // requests (the batch is already amortized).
  std::uint64_t h = 1469598103934665603ull;
  double est = 0.0;
  for (const auto& item : items) {
    h ^= shard::shape_class_hash(
        {item.c.rows(), item.c.cols(), item.a.cols(), scalar_id});
    h *= 1099511628211ull;
    batch->push_back({item.a, item.b, item.c});
    est += estimate_cost_ns(item.c.rows(), item.c.cols(), item.a.cols());
  }
  Request request;
  request.priority = priority;
  request.est_cost_ns = est;
  request.home = shard::route(h, est, static_cast<int>(shards_.size()));
  request.state = std::make_shared<detail::RequestState>();
  const long ms =
      deadline_ms > 0 ? deadline_ms : options_.default_deadline_ms;
  if (ms > 0) {
    request.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(ms);
    request.has_deadline = true;
    request.state->cancel = CancelSource(request.deadline);
  }
  const int threads = options_.threads_per_request;
  const core::SmmOptions gemm = options_.gemm;
  request.run = [alpha, beta, batch, threads, gemm](
                    const CancelToken& token, core::PlanCache& cache) {
    core::batched_smm(alpha, *batch, beta, cache, threads, &token, &gemm);
  };
  return admit(std::move(request));
}

template Ticket SmmService::submit_batch(float,
                                         std::vector<BatchItem<float>>,
                                         float, Priority, long);
template Ticket SmmService::submit_batch(double,
                                         std::vector<BatchItem<double>>,
                                         double, Priority, long);

}  // namespace smm::service
