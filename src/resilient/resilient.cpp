#include "src/resilient/resilient.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "src/common/env.h"
#include "src/common/str.h"
#include "src/robust/health.h"

namespace smm::resilient {

ResilientOptions resilient_options_from_env(ResilientOptions base) {
  base.max_attempts = static_cast<int>(env::read_positive_long(
      "SMMKIT_RETRY_MAX_ATTEMPTS", base.max_attempts));
  base.backoff_base_us =
      env::read_long("SMMKIT_BACKOFF_BASE_US", base.backoff_base_us);
  base.retry_budget_fraction =
      env::read_fraction("SMMKIT_RETRY_BUDGET", base.retry_budget_fraction);
  base.max_concurrency = static_cast<int>(
      env::read_long("SMMKIT_CLIENT_LIMIT", base.max_concurrency));
  return base;
}

void RetryBudget::earn(double fraction, double cap) {
  if (fraction <= 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  tokens_ = std::min(cap, tokens_ + fraction);
}

bool RetryBudget::try_acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

double RetryBudget::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tokens_;
}

void RetryBudget::reset(double tokens) {
  std::lock_guard<std::mutex> lock(mu_);
  tokens_ = std::max(0.0, tokens);
}

RetryBudget& process_retry_budget() {
  // Immortal (leaked) like the worker pool and the tuner: clients may
  // spend from it on threads whose lifetime static destruction does not
  // respect.
  static RetryBudget* bucket = new RetryBudget();
  return *bucket;
}

AdaptiveLimiter::AdaptiveLimiter(Options options) : options_(options) {
  options_.min_limit = std::max(1, options_.min_limit);
  options_.max_limit = std::max(options_.min_limit, options_.max_limit);
  // Start wide open: the first overload signal snaps the window to the
  // server's real capacity faster than a slow-start climb would find it,
  // and a fault-free client never pays a warm-up penalty.
  limit_ = static_cast<double>(options_.max_limit);
}

bool AdaptiveLimiter::acquire(std::chrono::steady_clock::time_point deadline,
                              bool has_deadline) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto has_slot = [&] {
    return in_flight_ < static_cast<int>(limit_);
  };
  if (has_deadline) {
    if (!cv_.wait_until(lock, deadline, has_slot)) return false;
  } else {
    cv_.wait(lock, has_slot);
  }
  ++in_flight_;
  return true;
}

void AdaptiveLimiter::release() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    in_flight_ = std::max(0, in_flight_ - 1);
  }
  cv_.notify_one();
}

void AdaptiveLimiter::on_success() {
  if (!options_.adaptive) return;
  bool slot_opened = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int before = static_cast<int>(limit_);
    // Additive increase, ~one slot per `limit` successes: the classic
    // AIMD probe — linear exploration above the last known-good window.
    limit_ = std::min(static_cast<double>(options_.max_limit),
                      limit_ + 1.0 / std::max(1.0, limit_));
    slot_opened = static_cast<int>(limit_) > before;
  }
  if (slot_opened) cv_.notify_all();
}

void AdaptiveLimiter::on_overload() {
  if (!options_.adaptive) return;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One dip per congestion episode: the refusals a single over-wide
    // window caused all arrive together, and each one re-reporting the
    // same episode must not compound the decrease.
    if (last_dip_ != std::chrono::steady_clock::time_point{} &&
        now - last_dip_ < std::chrono::microseconds(options_.dip_cooldown_us))
      return;
    last_dip_ = now;
    limit_ = std::max(static_cast<double>(options_.min_limit),
                      limit_ * options_.decrease_factor);
    ++dips_;
  }
  robust::health().limiter_dips.fetch_add(1, std::memory_order_relaxed);
}

int AdaptiveLimiter::limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(limit_);
}

int AdaptiveLimiter::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

std::size_t AdaptiveLimiter::dips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dips_;
}

namespace {

std::uint64_t xorshift64(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

AdaptiveLimiter::Options limiter_options(const service::SmmService& service,
                                         const ResilientOptions& options) {
  AdaptiveLimiter::Options lo;
  int cap = options.max_concurrency;
  if (cap <= 0) {
    // Auto: twice the service's total lane count — enough in-flight work
    // to keep every lane busy plus a queued successor, small enough that
    // a refusal storm cannot build a deep client-side pile-up.
    const service::ServiceOptions& so = service.options();
    cap = std::max(4, so.shards * std::max(1, so.lanes) * 2);
  }
  lo.max_limit = cap;
  lo.adaptive = options.adaptive;
  return lo;
}

}  // namespace

ResilientClient::ResilientClient(service::SmmService& service,
                                 ResilientOptions options, RetryBudget* budget)
    : service_(service),
      options_(options),
      budget_(budget != nullptr ? budget : &process_retry_budget()),
      limiter_(limiter_options(service, options)) {
  options_.max_attempts = std::max(1, options_.max_attempts);
  options_.backoff_base_us = std::max<long>(1, options_.backoff_base_us);
  options_.backoff_cap_us =
      std::max(options_.backoff_base_us, options_.backoff_cap_us);
  options_.retry_budget_fraction =
      std::clamp(options_.retry_budget_fraction, 0.0, 1.0);
}

service::Result ResilientClient::run_attempts(
    double est_cost_ns,
    const std::function<service::Ticket(long)>& submit_once,
    const std::function<void()>& restore_c, long deadline_ms) {
  using clock = std::chrono::steady_clock;
  robust::Health& h = robust::health();
  calls_.fetch_add(1, std::memory_order_relaxed);

  const long dl_ms = deadline_ms > 0 ? deadline_ms
                                     : service_.options().default_deadline_ms;
  const bool has_deadline = dl_ms > 0;
  const clock::time_point deadline =
      clock::now() + std::chrono::milliseconds(dl_ms);

  if (!limiter_.acquire(deadline, has_deadline)) {
    limiter_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return {false, ErrorCode::kDeadlineExceeded,
            "resilient: no client-limiter slot before the deadline"};
  }
  struct SlotGuard {
    AdaptiveLimiter& limiter;
    ~SlotGuard() { limiter.release(); }
  } slot_guard{limiter_};

  // First-attempt traffic mints the retry budget: aggregate retries are
  // bounded to `fraction` of fresh load no matter how many callers loop.
  budget_->earn(options_.retry_budget_fraction, options_.retry_budget_cap);

  // Per-call decorrelated-jitter stream (no shared RNG state to contend
  // on; the call counter decorrelates concurrent callers).
  std::uint64_t rng =
      options_.jitter_seed ^
      (call_seq_.fetch_add(1, std::memory_order_relaxed) *
           0x2545F4914F6CDD1Dull +
       0x9E3779B97F4A7C15ull);
  long prev_sleep_us = options_.backoff_base_us;
  service::Result last{};
  for (int attempt = 1;; ++attempt) {
    // Retries carry the REMAINING deadline budget, not a fresh one: the
    // service must enforce the same clock the pricing below reads.
    long submit_ms = deadline_ms;
    if (has_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - clock::now())
                            .count();
      submit_ms = std::max<long>(1, static_cast<long>(left));
    }
    service::Ticket ticket = submit_once(submit_ms);
    if (has_deadline) {
      // The service enforces the deadline itself (queue reaping, token
      // checks at op boundaries); the timed wait is a backstop against
      // waiting forever, after which cancel + blocking wait is
      // guaranteed terminal (the service completes every admitted
      // request before its lanes retire).
      if (!ticket.wait_until(deadline +
                             std::chrono::milliseconds(
                                 std::max<long>(50, dl_ms))))
        ticket.cancel();
    }
    const service::Result& result = ticket.wait();
    if (result.ok) {
      limiter_.on_success();
      if (attempt > 1) {
        // Released after this call's attempt bump, so every snapshot
        // keeps retry_successes <= retry_attempts (health.h's rule).
        h.retry_successes.fetch_add(1, std::memory_order_release);
        retry_successes_.fetch_add(1, std::memory_order_relaxed);
      }
      return result;
    }
    last = result;
    // Congestion signals feed the AIMD window whether or not this call
    // retries — a fatal caller error still rode a refused/browned-out
    // system and the window must hear about it.
    if (result.code == ErrorCode::kOverloaded || service_.in_brownout())
      limiter_.on_overload();
    const RetryClass cls = classify(result.code);
    if (cls == RetryClass::kFatal || attempt >= options_.max_attempts)
      return last;
    // Plan the resubmission before spending anything: backoff length and
    // deadline pricing are pure arithmetic (no sleeps yet), so every
    // refusal path below stays O(µs).
    long sleep_us = 0;
    if (cls == RetryClass::kRetryableAfterBackoff) {
      // Decorrelated jitter: sleep ~ U[base, 3*prev], capped. Spreads
      // synchronized retry herds apart while still growing the expected
      // backoff geometrically under persistent pressure.
      const long lo = options_.backoff_base_us;
      const long hi = std::max(lo + 1, prev_sleep_us * 3);
      sleep_us = std::min(
          options_.backoff_cap_us,
          lo + static_cast<long>(xorshift64(rng) %
                                 static_cast<std::uint64_t>(hi - lo)));
      prev_sleep_us = sleep_us;
    }
    if (has_deadline) {
      const double remaining_ns =
          std::chrono::duration<double, std::nano>(deadline - clock::now())
              .count();
      // Never resubmit work that cannot finish in time: the retry must
      // cover its backoff plus the tuned cost estimate of the GEMM
      // itself inside the remaining deadline budget.
      if (remaining_ns <
          est_cost_ns + static_cast<double>(sleep_us) * 1e3) {
        deadline_gated_.fetch_add(1, std::memory_order_relaxed);
        return last;
      }
    }
    if (!budget_->try_acquire()) {
      h.retry_budget_exhausted.fetch_add(1, std::memory_order_relaxed);
      budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
      return {false, ErrorCode::kRetryBudgetExhausted,
              strprintf("resilient: retry budget exhausted after %d "
                        "attempt(s); last failure: %s",
                        attempt, smm::to_string(last.code))};
    }
    h.retry_attempts.fetch_add(1, std::memory_order_relaxed);
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (sleep_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    // Idempotency with beta != 0: the attempt about to run reads C, so
    // put back the submit-time snapshot first.
    restore_c();
  }
}

ResilientClient::Stats ResilientClient::stats() const {
  Stats s;
  s.calls = calls_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retry_successes = retry_successes_.load(std::memory_order_relaxed);
  s.budget_exhausted = budget_exhausted_.load(std::memory_order_relaxed);
  s.deadline_gated = deadline_gated_.load(std::memory_order_relaxed);
  s.limiter_timeouts = limiter_timeouts_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace smm::resilient
