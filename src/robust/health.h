// Process-wide health counters for the robustness layer: how often the
// guarded executor ran, retried, degraded, or failed, and how often the
// batched driver hit per-item trouble. Lock-free (relaxed atomics — these
// are monotonic event counts, not synchronization); a serving system polls
// snapshot() for observability.
//
// Every counter is one row of SMM_HEALTH_COUNTERS below. The snapshot
// field, the atomic, the snapshot load, reset() and to_string() are all
// generated from that row, so adding a counter means adding one row.
//
// Coherent snapshots (DESIGN.md §11): lone increments stay relaxed, but
// sites that update *several correlated* counters (a guarded run landing
// its outcome, the batched driver accounting a failure set, the service
// resolving a request) bracket the group in a Health::Transaction — a
// writer-exclusive seqlock bump. snapshot() retries until it reads a
// quiescent sequence, so a scraper can no longer observe a torn
// cross-counter state such as clean_runs > guarded_runs.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

/// The counter table: X(name) per counter, in snapshot and to_string()
/// order. Every counter is a std::size_t event count starting at 0.
#define SMM_HEALTH_COUNTERS(X)                                                 \
  X(guarded_runs)                                                              \
  X(clean_runs)                                                                \
  X(retries)                                                                   \
  X(rebuild_fallbacks)                                                         \
  X(naive_fallbacks)                                                           \
  X(failures)                                                                  \
  X(checksum_rejections)                                                       \
  X(worker_panics)                                                             \
  X(alloc_failures)                                                            \
  X(batched_items)                                                             \
  X(batched_item_failures)                                                     \
  /* Batch items whose B pack was served from a shared prepacked handle        \
     (the same-shape same-B fast path of batched dispatch). */                 \
  X(batched_prepack_reuse)                                                     \
  /* Call-overhead fast path (DESIGN.md §8): how many fork-join regions        \
     the persistent pool served vs fell back to spawn-per-call, and how        \
     the process-wide plan caches are hitting. */                              \
  X(pool_regions)                                                              \
  X(pool_spawn_fallbacks)                                                      \
  X(plan_cache_hits)                                                           \
  X(plan_cache_misses)                                                         \
  /* Runtime hardening (DESIGN.md §10): watchdog detections, pool              \
     lifecycle events, and the memory-pressure degradations. Each counter      \
     is the observable face of one failure class — survivable faults must      \
     still show up here. */                                                    \
  X(pool_watchdog_timeouts)                                                    \
  X(pool_quarantines)                                                          \
  X(pool_rebuilds)                                                             \
  X(pool_spawn_failures)                                                       \
  X(arena_fallbacks)                                                           \
  X(plan_cache_insert_failures)                                                \
  X(prepack_fallbacks)                                                         \
  /* Serving layer (DESIGN.md §11): admission, shedding, deadlines, the        \
     circuit breaker, input hygiene, and fork-lifecycle resets. */             \
  X(service_submitted)                                                         \
  X(service_admitted)                                                          \
  X(service_completed)                                                         \
  X(service_rejected)         /* all admission-time rejections */              \
  X(service_shed)             /* watermark refusals (subset of rejected) */    \
  X(service_evictions)        /* admitted, displaced by a higher class */      \
  X(service_deadline_misses)                                                   \
  X(service_cancellations)                                                     \
  X(service_breaker_trips)                                                     \
  X(service_breaker_rejections)                                                \
  /* Sharded runtime (DESIGN.md §13): placement, skew repair, and              \
     dispatch amortization. Invariant (bracketed in a Transaction at the       \
     admission site): service_routed == service_submitted — every              \
     submission is routed exactly once, before the admission decision. */      \
  X(service_routed)           /* submissions placed on a shard */              \
  X(service_steals)           /* requests run by a non-home shard */           \
  X(service_coalesced_groups) /* >=2-member batched dispatches */              \
  X(service_coalesced_items)  /* requests served inside those groups */        \
  /* Failure domains (DESIGN.md §15): the per-shard lifecycle, drain           \
     re-routing, hedged deadline requests, and brownout entries.               \
     Invariant (enforced in tests): service_routed counts every                \
     submission once — a diversion or drain moves the *per-shard*              \
     attribution and lands here instead, never double-counts. */               \
  X(service_rerouted)         /* placements diverted off a quarantined home */ \
  X(service_hedged)           /* backup submissions fired */                   \
  X(service_hedge_wins)       /* hedged requests whose backup won */           \
  X(shard_quarantines)        /* shard entries into kQuarantined */            \
  X(shard_rebuilds)           /* quarantine -> rebuilding probes */            \
  X(service_brownouts)        /* brownout-mode entries */                      \
  X(nonfinite_rejections)                                                      \
  X(fork_resets)              /* atfork child-side pool resets */              \
  /* Integrity layer (DESIGN.md §12): ABFT detections and how each one was     \
     resolved, plus sealed-state (plan cache / prepacked B) lifecycle.         \
     Accounting invariant for guarded traffic: every detection is resolved     \
     by an in-place element correction, a localized panel recompute, or a      \
     full re-execution — detected == corrected + recomputed (the only skew     \
     is a run whose every recovery stage was disabled or failed). */           \
  X(integrity_detected)       /* verifications that found corruption */        \
  X(integrity_corrected)      /* resolved by single-element repair */          \
  X(integrity_recomputed)     /* resolved by panel or full recompute */        \
  X(integrity_quarantines)    /* sealed entries failing their checksum */      \
  X(prepack_repacks)          /* PrepackedB seal mismatch -> repacked */       \
  X(plan_seal_rebuilds)       /* PlanCache seal mismatch -> rebuilt */         \
  X(corrected_runs)           /* guarded runs served via in-place repair */    \
  /* Online autotuning (DESIGN.md §14): the observe/adapt feedback loop.       \
     Invariant (Transaction-bracketed at the install site): every re-plan      \
     was driven by at least one sample — tune_replans <= tune_samples. */      \
  X(tune_samples)             /* timed warm calls fed to the tuner */          \
  X(tune_replans)             /* epoch bumps (plan installs/reverts) */        \
  X(tune_table_hits)          /* classes warm-started from disk */             \
  X(tune_table_stale)         /* tables rejected (corrupt/foreign) */          \
  /* Caller-side resilience (DESIGN.md §16): the retry budget and the          \
     adaptive concurrency limiter. Invariant (attempt bumped before its        \
     outcome can land): retry_successes <= retry_attempts. */                  \
  X(retry_attempts)           /* resubmissions by the resilient client */      \
  X(retry_successes)          /* retries that reached ok */                    \
  X(retry_budget_exhausted)   /* dry-bucket fast-fails */                      \
  X(limiter_dips)             /* AIMD multiplicative decreases */

namespace smm::robust {

/// Point-in-time copy of the counters (plain values, safe to ship around).
struct HealthSnapshot {
#define SMM_HEALTH_SNAPSHOT_FIELD(name) std::size_t name = 0;
  SMM_HEALTH_COUNTERS(SMM_HEALTH_SNAPSHOT_FIELD)
#undef SMM_HEALTH_SNAPSHOT_FIELD

  /// Space-separated `name=value`, one token per counter in table order.
  [[nodiscard]] std::string to_string() const;
};

/// The counters themselves. All increments are relaxed.
class Health {
 public:
  static Health& instance();

#define SMM_HEALTH_ATOMIC(name) std::atomic<std::size_t> name{0};
  SMM_HEALTH_COUNTERS(SMM_HEALTH_ATOMIC)
#undef SMM_HEALTH_ATOMIC

  /// Brackets a correlated multi-counter update: writer-exclusive (a
  /// mutex serializes transactions) with an odd/even sequence bump so
  /// snapshot() can detect and retry a torn read. Increments inside a
  /// transaction stay relaxed — the sequence provides the grouping, not
  /// the ordering. Single-counter events do not need one.
  class Transaction {
   public:
    Transaction();
    ~Transaction();
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;
  };

  /// One coherent copy of every counter: no transaction is half-visible
  /// in the result. Lone relaxed increments may land on either side of
  /// the snapshot (they carry no cross-counter invariant). Lock-free on
  /// the happy path; under a writer storm it falls back to taking the
  /// transaction mutex, so it always terminates.
  [[nodiscard]] HealthSnapshot snapshot() const;
  void reset();

 private:
  Health() = default;
  HealthSnapshot read_counters() const;

  mutable std::mutex tx_mu_;
  std::atomic<std::uint64_t> tx_seq_{0};
};

/// Shorthand accessor.
inline Health& health() { return Health::instance(); }

}  // namespace smm::robust
