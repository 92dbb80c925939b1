#include "src/robust/guarded_executor.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/str.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/plan/native_executor.h"
#include "src/robust/abft.h"
#include "src/robust/health.h"
#include "src/robust/retry_class.h"

namespace smm::robust {

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kCorrected:
      return "corrected";
    case Outcome::kRecovered:
      return "recovered";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kFailed:
      return "failed";
  }
  return "?";
}

std::string RunReport::summary() const {
  return strprintf(
      "outcome=%s attempts=%d retries=%d fallback=%s repair=%s "
      "first_error=%s residual=%.3e",
      to_string(outcome), attempts, retries, fallback, repair,
      smm::to_string(first_error), checksum_residual);
}

GuardedExecutor::GuardedExecutor(GuardOptions options)
    : GuardedExecutor(core::reference_smm(), options) {}

GuardedExecutor::GuardedExecutor(const libs::GemmStrategy& strategy,
                                 GuardOptions options,
                                 std::size_t cache_capacity)
    : strategy_(strategy),
      options_(options),
      cache_(strategy, cache_capacity) {}

template <typename T>
RunReport GuardedExecutor::run(T alpha, ConstMatrixView<T> a,
                               ConstMatrixView<T> b, T beta, MatrixView<T> c,
                               int nthreads) {
  SMM_EXPECT_CODE(nthreads >= 1, ErrorCode::kPrecondition,
                  "guarded run needs at least one thread");
  SMM_EXPECT_CODE(a.rows() == c.rows() && b.cols() == c.cols() &&
                      a.cols() == b.rows(),
                  ErrorCode::kBadShape, "guarded run: dimension mismatch");
  SMM_EXPECT_CODE(a.empty() || a.data() != nullptr, ErrorCode::kBadShape,
                  "guarded run: A has null data");
  SMM_EXPECT_CODE(b.empty() || b.data() != nullptr, ErrorCode::kBadShape,
                  "guarded run: B has null data");
  SMM_EXPECT_CODE(c.empty() || c.data() != nullptr, ErrorCode::kBadShape,
                  "guarded run: C has null data");
  SMM_EXPECT_CODE(!views_overlap(ConstMatrixView<T>(c), a) &&
                      !views_overlap(ConstMatrixView<T>(c), b),
                  ErrorCode::kAlias, "guarded run: C aliases an input");

  Health& h = health();
  h.guarded_runs.fetch_add(1, std::memory_order_relaxed);

  RunReport report;
  if (c.empty()) {  // nothing to compute (and nothing to verify)
    report.outcome = Outcome::kOk;
    h.clean_runs.fetch_add(1, std::memory_order_release);
    return report;
  }

  const index_t m = c.rows(), n = c.cols();
  const GemmShape shape{m, n, a.cols()};
  const auto scalar =
      sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;
  const int threads = std::min(nthreads, strategy_.traits().max_threads);

  // Snapshot C (col-major, plain vector so the snapshot itself sits
  // outside every injection point): retries restore it because beta reads
  // the pre-update C, and a failed request must leave C untouched.
  std::vector<T> c0(static_cast<std::size_t>(m * n));
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      c0[static_cast<std::size_t>(i + j * m)] = c(i, j);
  const auto restore_c = [&] {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        c(i, j) = c0[static_cast<std::size_t>(i + j * m)];
  };

  const auto record_error = [&](ErrorCode code, const char* what) {
    report.last_error = code;
    if (report.first_error == ErrorCode::kUnknown) {
      report.first_error = code;
      report.first_error_message = what;
    }
    switch (code) {
      case ErrorCode::kChecksumMismatch:
      case ErrorCode::kDataCorrupted:  // correct-mode unrepairable damage
        h.checksum_rejections.fetch_add(1, std::memory_order_relaxed);
        break;
      case ErrorCode::kWorkerPanic:
        h.worker_panics.fetch_add(1, std::memory_order_relaxed);
        break;
      case ErrorCode::kAlloc:
      case ErrorCode::kArenaExhausted:
        h.alloc_failures.fetch_add(1, std::memory_order_relaxed);
        break;
      case ErrorCode::kPoolTimeout:
      case ErrorCode::kPoolSpawnFail:
        // Counted at the source (pool_watchdog_timeouts /
        // pool_spawn_failures); classify as a worker-side failure here
        // so the guarded-run view stays complete.
        h.worker_panics.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        break;
    }
  };

  // ABFT policy: the option resolves kAuto against the process-wide
  // SMMKIT_ABFT mode; verify=false turns everything off.
  const auto mode = options_.verify ? integrity::resolve(options_.abft)
                                    : integrity::AbftMode::kOff;

  // Pre-update checksum, computed ONCE from the snapshot: every attempt's
  // verification (and any number of retries) reuses it, so beta != 0 runs
  // get the same row+column verification as beta == 0 ones.
  CChecksums c0sums;
  if (mode != integrity::AbftMode::kOff && beta != T(0))
    c0sums = checksum_c<T>(c0.data(), m, m, n);

  // Verify (and in kCorrect mode repair) the *result*; an unrepairable
  // check failure is just another retryable fault. A detection the repair
  // could not clear is resolved by the chain's re-execution — count that
  // as the recompute so detected == corrected + recomputed holds.
  const auto verify_result = [&]() -> bool {
    if (mode == integrity::AbftMode::kOff) return true;
    const IntegrityReport ir = verify_and_repair<T>(
        alpha, a, b, beta, beta != T(0) ? &c0sums : nullptr,
        beta != T(0) ? c0.data() : nullptr, m, c, mode,
        options_.tolerance_scale);
    report.checksum_residual = ir.residual;
    if (ir.ok) {
      if (ir.repair != Repair::kNone) report.repair = to_string(ir.repair);
      return true;
    }
    h.integrity_recomputed.fetch_add(1, std::memory_order_relaxed);
    if (mode == integrity::AbftMode::kCorrect)
      record_error(ErrorCode::kDataCorrupted,
                   "checksums rejected the result and the localized "
                   "repair could not fix it");
    else
      record_error(ErrorCode::kChecksumMismatch,
                   "row checksum rejected the result");
    return false;
  };

  // One attempt of a planned execution: true iff it ran and verified.
  const auto attempt = [&](const plan::GemmPlan& p) -> bool {
    ++report.attempts;
    try {
      plan::execute_plan(p, alpha, a, b, beta, c);
    } catch (const std::exception& e) {
      record_error(error_code_of(e), e.what());
      restore_c();
      return false;
    }
    if (!verify_result()) {
      restore_c();
      return false;
    }
    return true;
  };

  // Lands the run's outcome: retries first, then the outcome row with
  // release (health.h's ordering rule), so a snapshot that shows the
  // outcome also shows the run's guarded_runs bump and its retries.
  const auto finish = [&](Outcome base, const char* fallback,
                          std::atomic<std::size_t>* outcome_counter) {
    report.retries = report.attempts > 0 ? report.attempts - 1 : 0;
    if (report.retries > 0)
      h.retries.fetch_add(static_cast<std::size_t>(report.retries),
                          std::memory_order_relaxed);
    if (outcome_counter != nullptr)
      outcome_counter->fetch_add(1, std::memory_order_release);
    report.fallback = fallback;
    report.outcome = base;
  };

  // Stage 1: the cached plan, with transient-fault retries.
  std::shared_ptr<const plan::GemmPlan> cached;
  try {
    cached = cache_.get(shape, scalar, threads);
  } catch (const std::exception& e) {
    record_error(error_code_of(e), e.what());
  }
  if (cached) {
    for (int t = 0; t < 1 + std::max(0, options_.retries); ++t) {
      if (attempt(*cached)) {
        const bool repaired = std::strcmp(report.repair, "none") != 0;
        if (report.attempts == 1)
          finish(repaired ? Outcome::kCorrected : Outcome::kOk, "none",
                 repaired ? &h.corrected_runs : &h.clean_runs);
        else
          finish(Outcome::kRecovered, "none", nullptr);
        return report;
      }
      // Classification (retry_class.h): a fatal failure is deterministic
      // — re-running the identical plan would fail identically, so spend
      // the remaining retries on the rebuild and naive stages instead of
      // burning them here.
      if (classify(report.last_error) == RetryClass::kFatal) break;
    }
  }

  // Stage 2: rebuild from the strategy — recovers from a corrupted cache
  // entry or a plan-level fault the retry could not clear. Pool-class
  // faults (a hung/timed-out worker, thread creation failing) indict the
  // parallel runtime itself, not the plan: rebuild serial so the fresh
  // attempt needs no workers at all.
  if (options_.allow_rebuild) {
    const bool pool_fault = report.last_error == ErrorCode::kWorkerPanic ||
                            report.last_error == ErrorCode::kPoolTimeout ||
                            report.last_error == ErrorCode::kPoolSpawnFail;
    try {
      const plan::GemmPlan fresh =
          strategy_.make_plan(shape, scalar, pool_fault ? 1 : threads);
      if (attempt(fresh)) {
        finish(Outcome::kDegraded, "rebuilt-plan", &h.rebuild_fallbacks);
        return report;
      }
    } catch (const std::exception& e) {
      record_error(error_code_of(e), e.what());
    }
  }

  // Stage 3: the trusted triple loop. No packing, no scratch, no worker
  // threads — immune to every injection point by construction.
  if (options_.allow_naive) {
    ++report.attempts;
    libs::naive_gemm(alpha, a, b, beta, c);
    if (verify_result()) {
      finish(Outcome::kDegraded, "naive", &h.naive_fallbacks);
      return report;
    }
    restore_c();
  }

  finish(Outcome::kFailed, "none", &h.failures);
  return report;
}

template RunReport GuardedExecutor::run(float, ConstMatrixView<float>,
                                        ConstMatrixView<float>, float,
                                        MatrixView<float>, int);
template RunReport GuardedExecutor::run(double, ConstMatrixView<double>,
                                        ConstMatrixView<double>, double,
                                        MatrixView<double>, int);

}  // namespace smm::robust
