// Error reporting: SMM_EXPECT for recoverable precondition checks (throws),
// used at public API boundaries; internal invariants use assert-style checks.
// Errors carry an ErrorCode so callers (notably robust::GuardedExecutor) can
// classify failures and choose a recovery strategy instead of string-matching.
#pragma once

#include <stdexcept>
#include <string>

namespace smm {

/// Failure taxonomy. Every smm::Error carries one of these; the guarded
/// executor keys its retry/degrade decisions off them and the health
/// counters aggregate by code.
enum class ErrorCode {
  kUnknown = 0,        ///< legacy/uncategorized failure
  kPrecondition,       ///< generic SMM_EXPECT violation at an API boundary
  kBadShape,           ///< negative/zero/mismatched dimensions or strides
  kAlias,              ///< output aliases an input (or another output)
  kAlloc,              ///< scratch/packed buffer allocation failed
  kKernelFault,        ///< a micro-kernel produced (or hit) a fault
  kChecksumMismatch,   ///< ABFT verification rejected the result
  kWorkerPanic,        ///< exception escaped a parallel worker body
  kPoolTimeout,        ///< watchdog: a pool worker missed its deadline
  kPoolSpawnFail,      ///< worker-thread creation failed (pool or spawn path)
  kArenaExhausted,     ///< ExecScratch slab growth failed under pressure
  kCacheInsertFail,    ///< PlanCache could not insert a freshly built plan
  kPrepackFallback,    ///< PrepackedB could not materialize its buffers
  // Silent-data-corruption defense (DESIGN.md §12).
  kDataCorrupted,      ///< ABFT found corruption the repair path could not fix
  kCacheCorrupted,     ///< sealed cached state (plan / prepacked B) failed its
                       ///< content checksum and could not be restored
  // Serving layer (DESIGN.md §11): admission, deadlines, lifecycle.
  kCancelled,          ///< the caller cancelled the request
  kDeadlineExceeded,   ///< the request's deadline passed before completion
  kOverloaded,         ///< admission control rejected the request (queue
                       ///< full, cost budget spent, shed, or its shard
                       ///< quarantined)
  kShuttingDown,       ///< the service is draining; no new work admitted
  kNonFinite,          ///< an input operand contains NaN/Inf
};

/// Number of ErrorCode values. Keep in sync with the last enumerator; the
/// guarded executor's classification table (robust/retry_class.h)
/// static_asserts exhaustiveness against this so an unclassified new code
/// fails to compile.
inline constexpr int kErrorCodeCount =
    static_cast<int>(ErrorCode::kNonFinite) + 1;

const char* to_string(ErrorCode code);

/// Exception type thrown on precondition violations at API boundaries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), code_(ErrorCode::kUnknown) {}
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// The ErrorCode a caught exception stands for: an Error's own code,
/// kAlloc for std::bad_alloc, kUnknown for anything else. One mapping
/// for every catch site, so memory pressure is retried alike solo,
/// batched and coalesced.
[[nodiscard]] ErrorCode error_code_of(const std::exception& e);

namespace detail {
[[noreturn]] void raise_error(const char* cond, const char* file, int line,
                              const std::string& msg);
[[noreturn]] void raise_error(ErrorCode code, const char* cond,
                              const char* file, int line,
                              const std::string& msg);
}  // namespace detail

}  // namespace smm

/// Precondition check that survives NDEBUG builds: public entry points
/// validate caller-supplied dimensions/pointers with this.
#define SMM_EXPECT(cond, msg)                                          \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::smm::detail::raise_error(#cond, __FILE__, __LINE__, (msg));    \
    }                                                                  \
  } while (false)

/// SMM_EXPECT with an explicit ErrorCode (taxonomy-aware boundaries).
#define SMM_EXPECT_CODE(cond, code, msg)                               \
  do {                                                                 \
    if (!(cond)) {                                                     \
      ::smm::detail::raise_error((code), #cond, __FILE__, __LINE__,    \
                                 (msg));                               \
    }                                                                  \
  } while (false)
