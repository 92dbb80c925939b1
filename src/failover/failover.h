// smm::failover — per-shard failure domains (DESIGN.md §15).
//
// Every shard of a service is its own failure domain: a single sick
// shard (hung pool, corrupted private cache) must neither refuse
// traffic for all shards nor keep silently receiving its deterministic
// share of the route hash. Each shard therefore carries one health
// ledger, so the service can treat shards the way the asymmetric-
// capacity literature treats cores: unequal, time-varying capacity
// that routing and admission must track.
//
// Per shard, one lifecycle state machine
//       healthy ──failures──► degraded ──more──► quarantined
//          ▲                                        │ hold
//          └────── success ◄── rebuilding ◄─────────┘ (quarantine_ms)
// driven by that shard's own outcome stream (infra-class failures, pool
// quarantines), never by a neighbour's. It is the shard's only failure
// detector: admission refuses placements exactly while the shard is
// quarantined, so the hold is the fast-fail window and the rebuild
// state is the probe.
//
// The service layers two mechanisms on top (smm_service.h):
//   - re-routing: a quarantined shard is drained and its traffic follows
//     a deterministic fallback ring to the next admissible shard (the
//     route hash is untouched, so coalescing keys stay stable);
//   - brownout: when a majority of shards are quarantined, kLow is shed
//     at the door, tune sampling pauses, and ABFT-correct serves
//     detect-only — explicit degraded service instead of refusing
//     everything.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace smm::failover {

/// Shard lifecycle (DESIGN.md §15). kQuarantined is the only state that
/// refuses placements; kDegraded and kRebuilding still serve traffic
/// (rebuilding is the probe that proves recovery).
enum class ShardState : std::uint8_t {
  kHealthy = 0,
  kDegraded,
  kQuarantined,
  kRebuilding,
};

const char* to_string(ShardState state);

/// Per-shard failure-domain knobs. Every shard of every service runs the
/// ledger; a one-shard service is a one-domain case of the same code
/// (its quarantine has no fallback and is a majority outage).
struct FailoverOptions {
  /// Consecutive infra-class failures before healthy -> degraded.
  int degrade_after = 2;
  /// Consecutive infra-class failures before degraded -> quarantined.
  int quarantine_after = 4;
  /// How long a quarantined shard is held before the rebuild probe
  /// (kRebuilding) readmits traffic. Env: SMMKIT_SHARD_QUARANTINE (ms).
  long quarantine_ms = 25;
};

/// FailoverOptions with the SMMKIT_* environment overrides applied on
/// top of `base` (unparsable or negative values are ignored).
FailoverOptions failover_options_from_env(FailoverOptions base = {});

/// Health ledger for one shard: the lifecycle state machine. Outcome
/// feeds come from the shard's own traffic only. The `on_*` transitions
/// return true exactly when the event moved the shard *into*
/// kQuarantined — the caller owns the drain that must follow.
class ShardHealth {
 public:
  explicit ShardHealth(FailoverOptions options);

  [[nodiscard]] ShardState state() const {
    return state_.load(std::memory_order_acquire);
  }
  /// May the router/ring place new work here? Everything but
  /// kQuarantined: degraded still serves, rebuilding is the probe.
  [[nodiscard]] bool admissible() const {
    return state() != ShardState::kQuarantined;
  }

  /// A request this shard executed reached a clean terminal: clears the
  /// failure streak; a rebuilding or degraded shard heals to kHealthy.
  void on_success();
  /// Infra-class failure (dead worker, pool timeout, allocation
  /// collapse, unrepaired data corruption). Returns true on entry into
  /// kQuarantined.
  bool on_failure();
  /// The shard's private pool quarantined itself (watchdog): the hard
  /// signal — straight to kQuarantined. Returns true on entry.
  bool on_pool_quarantine();
  /// Administrative quarantine (fault drills, operational tooling).
  /// Held until revive() — it never auto-expires into rebuilding.
  bool force_quarantine();
  /// kQuarantined -> kRebuilding once quarantine_ms has elapsed (no-op
  /// for administrative holds). Returns true on the transition.
  bool maybe_begin_rebuild(std::chrono::steady_clock::time_point now);
  /// Administrative revive: kQuarantined -> kRebuilding immediately.
  bool revive();

  [[nodiscard]] std::size_t quarantines() const {
    return quarantines_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

 private:
  /// Returns true when this call moved the shard into kQuarantined.
  bool enter_quarantine_locked(bool admin_hold);
  bool begin_rebuild_locked();

  FailoverOptions options_;
  mutable std::mutex mu_;
  std::atomic<ShardState> state_{ShardState::kHealthy};
  int consecutive_failures_ = 0;  // guarded by mu_
  bool admin_hold_ = false;       // guarded by mu_
  std::chrono::steady_clock::time_point quarantined_until_{};  // mu_
  std::atomic<std::size_t> quarantines_{0};
  std::atomic<std::size_t> rebuilds_{0};
};

/// Deterministic fallback ring: the first shard after `home` (scanning
/// (home+1) % n, (home+2) % n, ...) for which `admissible` holds.
/// Returns `home` when no other shard qualifies — the caller decides
/// whether home itself can take the work. Pure scan, no state: the same
/// health vector always yields the same fallback (tests assert it).
template <typename Pred>
int next_on_ring(int home, int nshards, Pred admissible) {
  for (int d = 1; d < nshards; ++d) {
    const int candidate = (home + d) % nshards;
    if (admissible(candidate)) return candidate;
  }
  return home;
}

}  // namespace smm::failover
