// smm::resilient — the caller-side resilience layer (DESIGN.md §16).
//
// The server protects itself: shedding, deadlines, per-shard quarantine,
// hedging, brownout. But every typed refusal is returned to
// the caller, and a naive caller loop ("try again until it works") is
// exactly how a transient capacity dip becomes a *metastable retry
// storm*: with fresh arrival rate λ and per-request attempt count E[A],
// offered load is λ·E[A] — once failures drive E[A] up, offered load
// rises, failures rise further, and the system parks in a saturated
// state that persists long after the original fault clears.
//
// ResilientClient wraps SmmService::submit with retries that CANNOT
// amplify an outage, by construction:
//
//   execute() ─ limiter ──► submit ─► timed wait ─► ok? ──────────► done
//                AIMD │                │ fail
//        (dips on     │         classify (retry_class.h)
//         refusals,   │                ├─ fatal ─────────────────► done
//         probes up   │                ├─ budget dry ─► kRetryBudgetExhausted
//         on success) │                ├─ can't finish in time ──► done
//                     │                └─ spend token [+ backoff], restore C,
//                     └────────────────── resubmit
//
// Three independent bounds stack:
//   1. The process-wide token-bucket *retry budget*: retries spend a
//      token, and tokens are minted only as a fraction (default 10%) of
//      first-attempt traffic. Aggregate offered load is therefore at
//      most λ·(1 + fraction) no matter how many callers loop — below the
//      storm threshold whenever steady-state headroom exceeds the
//      fraction. A dry bucket fails fast (O(µs), no sleep) with the
//      typed kRetryBudgetExhausted.
//   2. Deadline pricing: a retry is submitted only when the remaining
//      deadline can still cover the tuned cost estimate plus the planned
//      backoff — work that cannot finish in time is never offered.
//   3. The AIMD concurrency limiter: multiplicative decrease on
//      overload/brownout signals, additive probe-up on successes, so the
//      client's in-flight window tracks the server's effective capacity
//      (the same loop TCP uses to share a bottleneck link).
//
// Retries are idempotent even with beta != 0: execute() snapshots C at
// entry and restores it before every resubmission, so a half-written or
// accumulated C never feeds a second attempt.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "src/matrix/view.h"
#include "src/resilient/retry_class.h"
#include "src/service/smm_service.h"

namespace smm::resilient {

struct ResilientOptions {
  /// Total attempts per execute() including the first; >= 1.
  /// Env: SMMKIT_RETRY_MAX_ATTEMPTS.
  int max_attempts = 4;
  /// Decorrelated-jitter backoff base (µs) for kRetryableAfterBackoff
  /// failures; kRetryable failures resubmit immediately.
  /// Env: SMMKIT_BACKOFF_BASE_US.
  long backoff_base_us = 200;
  /// Backoff sleep cap (µs).
  long backoff_cap_us = 20000;
  /// Tokens minted into the retry budget per first attempt — the bound
  /// on aggregate retry amplification. Env: SMMKIT_RETRY_BUDGET.
  double retry_budget_fraction = 0.1;
  /// Bucket capacity (burst allowance); the bucket starts full.
  double retry_budget_cap = 64.0;
  /// Ceiling for the adaptive in-flight window. 0 = auto: sized from
  /// the wrapped service's lane count. Env: SMMKIT_CLIENT_LIMIT.
  int max_concurrency = 0;
  /// false pins the limiter at max_concurrency (no AIMD).
  bool adaptive = true;
  /// Seed for the jitter PRNG (per-call streams are derived from it).
  std::uint64_t jitter_seed = 0x9e3779b97f4a7c15ull;
};

/// ResilientOptions with the SMMKIT_* environment overrides applied on
/// top of `base` (malformed values are ignored — common/env policy).
ResilientOptions resilient_options_from_env(ResilientOptions base = {});

/// Token bucket bounding aggregate retry traffic. First attempts mint
/// `fraction` tokens (clamped to `cap`); each retry spends one whole
/// token. Shared process-wide by default (process_retry_budget()) — the
/// bound must hold across every client in the process, not per client.
class RetryBudget {
 public:
  /// The bucket starts full: a fresh process may absorb a small burst of
  /// transient faults before earning its keep.
  explicit RetryBudget(double initial_tokens = 64.0)
      : tokens_(initial_tokens < 0.0 ? 0.0 : initial_tokens) {}

  /// Mint `fraction` tokens for one first attempt, clamped to `cap`.
  void earn(double fraction, double cap);
  /// Spend one token; false (and no state change) when tokens < 1.
  bool try_acquire();
  [[nodiscard]] double tokens() const;
  /// Test seam: set the level directly.
  void reset(double tokens);

 private:
  mutable std::mutex mu_;
  double tokens_;
};

/// The process-wide bucket every ResilientClient spends from unless a
/// private one is injected (tests).
RetryBudget& process_retry_budget();

/// AIMD adaptive concurrency limiter: a client-side in-flight window
/// that backs off multiplicatively on overload signals and probes up
/// additively (~one slot per window of successes), converging on the
/// server's effective capacity like a TCP congestion window.
class AdaptiveLimiter {
 public:
  struct Options {
    int min_limit = 1;
    int max_limit = 64;
    /// Window shrink factor on overload.
    double decrease_factor = 0.5;
    /// Refractory period between dips: one overload *episode* (a burst
    /// of refusals from the same congested window) dips once, not once
    /// per refusal — without it the window collapses to min_limit on
    /// every queue spike.
    long dip_cooldown_us = 2000;
    /// false pins the limit at max_limit.
    bool adaptive = true;
  };

  explicit AdaptiveLimiter(Options options);

  /// Take an in-flight slot. Blocks while the window is full; with
  /// `has_deadline`, gives up at `deadline` and returns false (no slot
  /// taken). Every true return must be paired with release().
  bool acquire(std::chrono::steady_clock::time_point deadline,
               bool has_deadline);
  void release();
  /// Additive increase: ~+1 slot per `limit` successes.
  void on_success();
  /// Multiplicative decrease (rate-limited by dip_cooldown_us); counts
  /// robust::health().limiter_dips when it actually dips.
  void on_overload();

  [[nodiscard]] int limit() const;
  [[nodiscard]] int in_flight() const;
  [[nodiscard]] std::size_t dips() const;

 private:
  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  double limit_;
  int in_flight_ = 0;
  std::size_t dips_ = 0;
  std::chrono::steady_clock::time_point last_dip_{};
};

/// Caller-side wrapper around one SmmService. Thread-safe: any number of
/// threads may call execute() concurrently (that is the point — the
/// limiter arbitrates them).
class ResilientClient {
 public:
  /// `budget` defaults to the process-wide bucket; tests inject private
  /// ones. The client borrows both references — the service and budget
  /// must outlive it.
  explicit ResilientClient(service::SmmService& service,
                           ResilientOptions options = {},
                           RetryBudget* budget = nullptr);

  /// Synchronous resilient C = alpha*A*B + beta*C: submit, wait, and
  /// retry per the layer contract above. Always returns a terminal
  /// Result; on failure C holds the entry-time contents (every attempt
  /// restores the snapshot before resubmitting, and the service's own
  /// contract keeps C untouched on refusals/cancellations).
  /// `deadline_ms` 0 means the service default.
  template <typename T>
  service::Result execute(T alpha, ConstMatrixView<T> a,
                          ConstMatrixView<T> b, T beta, MatrixView<T> c,
                          service::Priority priority =
                              service::Priority::kNormal,
                          long deadline_ms = 0) {
    // Snapshot C once at entry iff an attempt can read it (beta != 0);
    // with beta == 0 every attempt fully overwrites C, so re-running is
    // idempotent without the copy.
    const index_t m = c.rows(), n = c.cols();
    std::vector<T> c0;
    if (beta != T(0)) {
      c0.resize(static_cast<std::size_t>(m) * static_cast<std::size_t>(n));
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i)
          c0[static_cast<std::size_t>(i + j * m)] = c(i, j);
    }
    const auto restore_c = [&] {
      if (c0.empty()) return;
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i)
          c(i, j) = c0[static_cast<std::size_t>(i + j * m)];
    };
    // Each attempt is submitted with the *remaining* client deadline so
    // the service enforces the same budget the retry loop prices against
    // (a retry must not restart the full deadline server-side).
    const auto submit_once = [&](long remaining_ms) {
      return service_.submit(alpha, a, b, beta, c, priority, remaining_ms);
    };
    return run_attempts(service_.estimate_cost_ns(m, n, a.cols()),
                        submit_once, restore_c, deadline_ms);
  }

  /// Point-in-time client-local counters (the process-wide view lives in
  /// robust::health()).
  struct Stats {
    std::size_t calls = 0;            ///< execute() invocations
    std::size_t retries = 0;          ///< resubmissions
    std::size_t retry_successes = 0;  ///< calls rescued by a retry
    std::size_t budget_exhausted = 0; ///< dry-bucket fast-fails
    std::size_t deadline_gated = 0;   ///< retries refused: can't finish in time
    std::size_t limiter_timeouts = 0; ///< no in-flight slot before deadline
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const ResilientOptions& options() const { return options_; }
  [[nodiscard]] AdaptiveLimiter& limiter() { return limiter_; }
  [[nodiscard]] RetryBudget& budget() { return *budget_; }

 private:
  /// The type-erased retry loop (everything past operand handling).
  /// `submit_once` receives the remaining deadline budget in ms (the
  /// original `deadline_ms` on the first attempt, what is left of it on
  /// retries; 0 stays 0 = service default / none).
  service::Result run_attempts(
      double est_cost_ns,
      const std::function<service::Ticket(long)>& submit_once,
      const std::function<void()>& restore_c, long deadline_ms);

  service::SmmService& service_;
  ResilientOptions options_;
  RetryBudget* budget_;
  AdaptiveLimiter limiter_;
  std::atomic<std::uint64_t> call_seq_{0};
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> retry_successes_{0};
  std::atomic<std::size_t> budget_exhausted_{0};
  std::atomic<std::size_t> deadline_gated_{0};
  std::atomic<std::size_t> limiter_timeouts_{0};
};

}  // namespace smm::resilient
