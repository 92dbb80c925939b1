// Circuit breaker for the serving front-end (DESIGN.md §11).
//
// When the execution substrate below the queue is sick — the worker pool
// quarantined, guarded runs failing back-to-back — admitting more
// traffic only converts every queued request into another failure after
// it has burned queue time. The breaker converts that state into fast
// rejections at admission: it *trips* open after `failure_threshold`
// consecutive infrastructure failures (or immediately on an external
// trip: its shard's health ledger entering quarantine), rejects all
// traffic for `open_for`, then lets exactly one probe request through
// (half-open). The probe's outcome decides: success closes the breaker,
// failure re-opens it for another `open_for`.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>

namespace smm::service {

enum class BreakerState {
  kClosed,    ///< healthy: all requests admitted
  kOpen,      ///< tripped: all requests rejected until the probe window
  kHalfOpen,  ///< probe window: one request in flight decides the state
};

const char* to_string(BreakerState state);

class CircuitBreaker {
 public:
  struct Options {
    /// Consecutive on_failure() calls that trip the breaker.
    int failure_threshold = 5;
    /// How long a tripped breaker rejects before probing.
    std::chrono::milliseconds open_for{100};
  };

  CircuitBreaker();
  explicit CircuitBreaker(Options options);

  /// Admission gate. Closed: true. Open: false until `open_for` elapsed,
  /// then the first caller becomes the half-open probe (true). Half-open:
  /// false while the probe is in flight.
  [[nodiscard]] bool allow();

  /// The guarded work succeeded: close (also lands the half-open probe).
  void on_success();

  /// Infrastructure failure (dead worker, pool timeout, allocation
  /// collapse). Counts toward the trip threshold; fails a half-open
  /// probe back to open.
  void on_failure();

  /// The work finished for a reason that says nothing about the
  /// substrate (cancelled, deadline passed, bad input). Releases a
  /// half-open probe slot without deciding the state, so the next
  /// request can probe.
  void on_neutral();

  /// External trip — the caller observed substrate sickness out of band
  /// (the owning shard's ledger entered quarantine).
  void trip();

  [[nodiscard]] BreakerState state() const;
  [[nodiscard]] std::size_t trips() const;

 private:
  void trip_locked();

  const Options options_;
  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  bool probe_in_flight_ = false;
  std::chrono::steady_clock::time_point reopen_at_{};
  std::size_t trips_ = 0;
};

}  // namespace smm::service
