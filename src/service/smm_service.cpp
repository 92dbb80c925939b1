#include "src/service/smm_service.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <utility>

#include "src/common/env.h"
#include "src/common/str.h"
#include "src/core/batched.h"
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
  // Admissions are priced with the deterministic reference constants.
  const model::ParallelCostModel model = model::reference_cost_model();
  flop_ns_ = model.flop_ns;
  dispatch_ns_ = model.dispatch_ns;

  // A single-shard service runs on the process-wide pool and plan cache;
  // N > 1 gives every shard a private domain (DESIGN.md §13) so panels
  // stop contending on one region lock and one cache mutex. Either way
  // every shard is a failure domain with its own health ledger.
  const bool isolated = options_.shards > 1;
  shards_.reserve(static_cast<std::size_t>(options_.shards));
  for (int s = 0; s < options_.shards; ++s) {
    auto sh = std::make_unique<Shard>();
    sh->health = std::make_unique<failover::ShardHealth>(options_.failover);
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
  // Cost estimates track reality: once the tuner has a steady
  // per-shape-class EWMA (either scalar type — the estimate runs before
  // T is known), it replaces the construction-time constants here, so
  // the coalescing cost bucket prices requests at what they actually
  // cost on this host today.
  if (tune::mode() != tune::Mode::kOff) {
    const std::optional<double> observed = tune::tuner().observed_cost_ns(
        m, n, k, /*scalar=*/-1, options_.threads_per_request);
    if (observed.has_value()) return *observed;
  }
  return static_cost_ns(m, n, k);
}

int SmmService::route_shard(index_t m, index_t n, index_t k,
                            int scalar_id) const {
  // Routing stays on the static estimate on purpose: an observed cost that
  // drifts across a log2 bucket boundary would re-home a hot shape mid-
  // run, abandoning its shard-local plan cache and warm pool (§13/§14).
  return shard::route(shard::shape_class_hash({m, n, k, scalar_id}),
                      static_cost_ns(m, n, k),
                      static_cast<int>(shards_.size()));
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

// Forced inline (GCC declines on its own): a bump stays two adds. Both
// release, per health.h's ordering rule: every row may be the effect of a
// row above it (admitted of submitted, completed of admitted, ...). On
// x86 a release add is the same lock xadd as a relaxed one.
[[gnu::always_inline]] inline void SmmService::count(Counter counter,
                                                    std::size_t n) {
  const auto i = static_cast<std::size_t>(counter);
  counters_[i].fetch_add(n, std::memory_order_release);
  (robust::health().*kCounterRows[i].mirror)
      .fetch_add(n, std::memory_order_release);
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
  // Every submission is routed exactly once, before the admission
  // decision, so Stats::routed is `submitted` itself (DESIGN.md §13).
  count(Counter::submitted);
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
                          bool is_quarantine) {
    count(Counter::rejected);
    if (is_shed) count(Counter::shed);
    if (is_quarantine) count(Counter::quarantine_rejections);
    complete(request.state, Result{false, code, std::move(msg)});
    return ticket;
  };

  std::shared_ptr<detail::RequestState> victim;
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

    // The target's health ledger is read under shard.mu, before the
    // eviction is performed (so a refusal strands no already-popped
    // victim — it simply stays queued). Traffic with no admissible
    // domain left (on a one-shard service: its only one) is refused
    // here, and so is a target that entered quarantine between
    // selection and lock: the quarantine flips the state before its
    // drain takes shard.mu, so work never lands on a domain the drain
    // already emptied.
    if (!shard_admissible(target)) {
      lock.unlock();
      return refuse(ErrorCode::kOverloaded,
                    "smm service: shard quarantined, no healthy domain",
                    false, true);
    }

    if (victim_class >= 0) {
      auto& q = shard.queues[victim_class];
      victim = std::move(q.back().state);
      q.pop_back();
      --shard.queued;
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
    }

    // Counted before the push, under shard.mu: the lane that pops the
    // request bumps `completed` after it, so completed <= admitted holds
    // in every stats() copy (health.h's ordering rule).
    count(Counter::admitted);
    shard.admitted.fetch_add(1, std::memory_order_relaxed);
    shard.queues[static_cast<int>(request.priority)].push_back(
        std::move(request));
    ++shard.queued;
    total_queued_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.work_cv.notify_one();

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
    shard.health->on_success();
    return;
  }
  switch (result.code) {
    case ErrorCode::kCancelled:
      count(Counter::cancellations);
      break;
    case ErrorCode::kDeadlineExceeded:
      count(Counter::deadline_misses);
      break;
    case ErrorCode::kNonFinite:
    case ErrorCode::kBadShape:
    case ErrorCode::kAlias:
    case ErrorCode::kPrecondition:
      // The request's own fault: says nothing about the substrate.
      break;
    default:
      // Infrastructure-class failure (dead worker, pool timeout,
      // allocation collapse) or unrepaired corruption (the substrate is
      // producing wrong bytes): counts toward quarantine.
      on_shard_failure();
      break;
  }
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
  // Supervisor cadence: 200µs keeps quarantine expiry and pool-
  // quarantine attribution well under any deadline a serving workload
  // would set.
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
  }
  for (auto& r : orphans) place_rerouted(std::move(r), idx);
}

void SmmService::place_rerouted(Request request, int from_idx) {
  const int n = static_cast<int>(shards_.size());
  const int target = failover::next_on_ring(
      from_idx, n, [&](int idx) { return shard_admissible(idx); });
  if (target != from_idx) {
    Shard& shard = *shards_[static_cast<std::size_t>(target)];
    const bool attribute = !request.rerouted;
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

void SmmService::execute(Request& request, Shard& shard) {
  const CancelToken token = request.state->cancel.token();
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
    try {
      // A degraded/rebuilding shard produces failover-shaped latencies
      // (cold caches, rebuild probes) that the tuner must not ingest as
      // evidence: sampling is suppressed for the run. Snapshot of the
      // state at run start; a mid-run transition misclassifies at most
      // this one observation.
      std::optional<tune::ScopedSampleSuppression> suppress;
      if (shard.health->state() != failover::ShardState::kHealthy)
        suppress.emplace();
      request.run(token, shard_cache(shard));
      result.ok = true;
    } catch (const std::exception& e) {
      ErrorCode code = error_code_of(e);
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

  // Items before their group (the rows' table order), so every
  // snapshot keeps 2 * coalesced_groups <= coalesced_items.
  svc.count(Counter::coalesced_items, group.size());
  svc.count(Counter::coalesced_groups);

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
  } catch (const std::exception& e) {
    statuses.assign(group.size(),
                    core::BatchItemStatus{false, error_code_of(e), e.what()});
  }

  // Success accounting is batched: one counter bump and one ledger
  // on_success per group instead of per member (on_success is
  // idempotent — it resets the failure streak — so folding N calls into
  // one is semantically identical and keeps the per-item completion
  // cost flat as groups deepen). Failures stay per-member so the
  // ledger sees every individual infrastructure signal.
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
    shard.health->on_success();
  }
}

void SmmService::reap_stopped_locked(Shard& shard) {
  for (auto& q : shard.queues) {
    for (auto it = q.begin(); it != q.end();) {
      const CancelToken token = it->state->cancel.token();
      if (!token.stop_requested()) {
        ++it;
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
      complete(it->state, std::move(result));
      --shard.queued;
      total_queued_.fetch_sub(1, std::memory_order_relaxed);
      it = q.erase(it);
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
  // Supervisor first: it re-routes into shard queues, so it must be
  // gone before the lanes stop popping.
  {
    std::lock_guard<std::mutex> lock(supervisor_mu_);
    supervisor_running_ = false;
  }
  supervisor_cv_.notify_all();
  if (supervisor_.joinable()) supervisor_.join();
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
  // Bottom-up acquire loads (health.h's ordering rule): an effect row is
  // read before its cause, so e.g. completed <= admitted in every copy.
  Stats s;
  for (std::size_t i = std::size(kCounterRows); i-- > 0;)
    s.*kCounterRows[i].field = counters_[i].load(std::memory_order_acquire);
  s.routed = s.submitted;
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
  // Batch submissions route by a combined hash of their item shapes and
  // their static cost (as route_shard does, so an observed cost never
  // re-homes a batch): identical batches stay shard-local; they never
  // coalesce with other requests (the batch is already amortized).
  // Admission prices the batch at the observed estimate.
  std::uint64_t h = 1469598103934665603ull;
  double est = 0.0;
  double static_est = 0.0;
  for (const auto& item : items) {
    const index_t m = item.c.rows(), n = item.c.cols(), k = item.a.cols();
    h ^= shard::shape_class_hash({m, n, k, scalar_id});
    h *= 1099511628211ull;
    batch->push_back({item.a, item.b, item.c});
    est += estimate_cost_ns(m, n, k);
    static_est += static_cost_ns(m, n, k);
  }
  Request request;
  request.priority = priority;
  request.est_cost_ns = est;
  request.home =
      shard::route(h, static_est, static_cast<int>(shards_.size()));
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
