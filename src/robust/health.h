// Process-wide health counters for the robustness layer: how often the
// guarded executor ran, retried, degraded, or failed, and how often the
// batched driver hit per-item trouble. Lock-free atomics; a serving system
// polls snapshot() for observability.
//
// Every counter is one row of SMM_HEALTH_COUNTERS below. The snapshot
// field, the atomic, the snapshot load, reset() and to_string() are all
// generated from that row, so adding a counter means adding one row.
//
// Counter invariants by order (DESIGN.md §11). Some rows promise that an
// effect never outnumbers its cause (clean_runs <= guarded_runs,
// tune_replans <= tune_samples, ...). Each such promise holds in every
// snapshot, with no lock and no retry, by one rule:
//   an effect row sits below its cause row in the table, is bumped after
//   it with memory_order_release, and snapshot() loads the rows
//   bottom-up with memory_order_acquire.
// A reader whose acquire load sees N effect bumps synchronizes with each
// of them (every later RMW continues a release sequence), so the cause
// bumps sequenced before them are visible to the cause row's load, which
// comes later: it reads at least N. Rows with no cause stay relaxed.
// SmmService::stats() follows the same rule; tests/test_robust.cpp
// checks the documented row orders at compile time.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

/// The counter table: X(name) per counter, in snapshot and to_string()
/// order. Every counter is a std::size_t event count starting at 0.
#define SMM_HEALTH_COUNTERS(X)                                                 \
  X(guarded_runs)                                                              \
  /* Guarded-run outcomes, each an effect of guarded_runs: clean_runs +        \
     corrected_runs + rebuild_fallbacks + naive_fallbacks + failures <=        \
     guarded_runs. retries sits above the outcome rows that can follow         \
     a retry, so a snapshot showing the outcome shows its retries. */          \
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
  /* Serving layer (DESIGN.md §11): admission, shedding, deadlines,            \
     quarantine refusals, input hygiene, and fork-lifecycle resets. */         \
  X(service_submitted)                                                         \
  X(service_admitted)                                                          \
  X(service_completed)                                                         \
  X(service_rejected)         /* all admission-time rejections */              \
  X(service_shed)             /* watermark refusals (subset of rejected) */    \
  X(service_evictions)        /* admitted, displaced by a higher class */      \
  X(service_deadline_misses)                                                   \
  X(service_cancellations)                                                     \
  X(service_quarantine_rejections) /* target shard quarantined */              \
  /* Sharded runtime (DESIGN.md §13): skew repair and dispatch                 \
     amortization. */                                                          \
  X(service_steals)           /* requests run by a non-home shard */           \
  X(service_coalesced_items)  /* requests served in >=2-member groups */       \
  X(service_coalesced_groups) /* those groups: 2 * groups <= items */          \
  /* Failure domains (DESIGN.md §15): the per-shard lifecycle, drain           \
     re-routing, and brownout entries.                                         \
     Invariant (enforced in tests): every submission is routed once — a        \
     diversion or drain moves the *per-shard* attribution and lands in         \
     service_rerouted instead, never double-counts. */                         \
  X(service_rerouted)         /* placements diverted off a quarantined home */ \
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
  /* Observed cost (DESIGN.md §14): the sampler behind the service's cost      \
     estimates. Nothing installs plans any more, so tune_replans stays 0;      \
     the row is kept for readers that check it does not move. */               \
  X(tune_samples)             /* timed warm calls fed to the tuner */          \
  X(tune_replans)             /* always 0: the tuner never re-plans */

namespace smm::robust {

/// Point-in-time copy of the counters (plain values, safe to ship around).
struct HealthSnapshot {
#define SMM_HEALTH_SNAPSHOT_FIELD(name) std::size_t name = 0;
  SMM_HEALTH_COUNTERS(SMM_HEALTH_SNAPSHOT_FIELD)
#undef SMM_HEALTH_SNAPSHOT_FIELD

  /// Space-separated `name=value`, one token per counter in table order.
  [[nodiscard]] std::string to_string() const;
};

/// The counters themselves. Effect rows are bumped with release (see the
/// ordering rule at the top of this file); every other bump is relaxed.
class Health {
 public:
  static Health& instance();

#define SMM_HEALTH_ATOMIC(name) std::atomic<std::size_t> name{0};
  SMM_HEALTH_COUNTERS(SMM_HEALTH_ATOMIC)
#undef SMM_HEALTH_ATOMIC

  /// Every counter, loaded bottom-up with acquire: each documented
  /// "effect <= cause" invariant holds in the result. Independent rows
  /// may land on either side of a concurrent bump.
  [[nodiscard]] HealthSnapshot snapshot() const;
  void reset();

 private:
  Health() = default;
};

/// Shorthand accessor.
inline Health& health() { return Health::instance(); }

}  // namespace smm::robust
