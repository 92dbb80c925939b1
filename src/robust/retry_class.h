// ErrorCode -> RetryClass: the one question robust::GuardedExecutor asks
// after a failed attempt of its cached plan — would re-running the same
// plan fail the same way? The table is a constexpr switch with NO default:
// classify_raw returns -1 for an unhandled code, and the static_assert
// below walks every value in [0, kErrorCodeCount), so adding an ErrorCode
// without classifying it here fails to compile instead of silently
// becoming retryable.
#pragma once

#include "src/common/error.h"

namespace smm::robust {

enum class RetryClass {
  /// Transient or capacity failure (worker panic, flipped bit, allocation
  /// pressure, shed): the same plan may succeed when run again.
  kRetryable = 0,
  /// Deterministic or terminal: the same call will fail the same way
  /// (bad arguments), or retrying is semantically wrong (cancelled,
  /// deadline passed, shutting down). Never re-run the same plan.
  kFatal,
};

namespace detail {

constexpr int classify_raw(ErrorCode code) {
  switch (code) {
    // Transient infrastructure faults: the request was unlucky, not the
    // system unhealthy (the guarded executor's stage 1, DESIGN.md §7).
    case ErrorCode::kKernelFault:
    case ErrorCode::kChecksumMismatch:
    case ErrorCode::kWorkerPanic:
    case ErrorCode::kPoolTimeout:
    case ErrorCode::kDataCorrupted:
    case ErrorCode::kCacheCorrupted:
    // Capacity/pressure signals: a later attempt may find the memory or
    // the thread it lacked.
    case ErrorCode::kOverloaded:
    case ErrorCode::kAlloc:
    case ErrorCode::kArenaExhausted:
    case ErrorCode::kCacheInsertFail:
    case ErrorCode::kPrepackFallback:
    case ErrorCode::kPoolSpawnFail:
      return static_cast<int>(RetryClass::kRetryable);
    // Deterministic failures (same inputs -> same outcome) and terminal
    // lifecycle states.
    case ErrorCode::kUnknown:
    case ErrorCode::kPrecondition:
    case ErrorCode::kBadShape:
    case ErrorCode::kAlias:
    case ErrorCode::kNonFinite:
    case ErrorCode::kCancelled:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kShuttingDown:
      return static_cast<int>(RetryClass::kFatal);
  }
  return -1;  // unclassified: trips the exhaustiveness static_assert
}

constexpr bool classification_is_exhaustive() {
  for (int i = 0; i < kErrorCodeCount; ++i) {
    if (classify_raw(static_cast<ErrorCode>(i)) < 0) return false;
  }
  return true;
}

static_assert(classification_is_exhaustive(),
              "every ErrorCode must be classified in classify_raw(); a new "
              "code was added to common/error.h without a RetryClass");

}  // namespace detail

/// Classify a failure for retry purposes. Total over ErrorCode (enforced
/// at compile time), so callers never need a default branch.
constexpr RetryClass classify(ErrorCode code) {
  const int raw = detail::classify_raw(code);
  return raw < 0 ? RetryClass::kFatal : static_cast<RetryClass>(raw);
}

}  // namespace smm::robust
