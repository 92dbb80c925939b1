#include "src/common/error.h"

#include <new>
#include <sstream>

namespace smm {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kUnknown:
      return "unknown";
    case ErrorCode::kPrecondition:
      return "precondition";
    case ErrorCode::kBadShape:
      return "bad-shape";
    case ErrorCode::kAlias:
      return "alias";
    case ErrorCode::kAlloc:
      return "alloc";
    case ErrorCode::kKernelFault:
      return "kernel-fault";
    case ErrorCode::kChecksumMismatch:
      return "checksum-mismatch";
    case ErrorCode::kWorkerPanic:
      return "worker-panic";
    case ErrorCode::kPoolTimeout:
      return "pool-timeout";
    case ErrorCode::kPoolSpawnFail:
      return "pool-spawn-fail";
    case ErrorCode::kArenaExhausted:
      return "arena-exhausted";
    case ErrorCode::kCacheInsertFail:
      return "cache-insert-fail";
    case ErrorCode::kPrepackFallback:
      return "prepack-fallback";
    case ErrorCode::kDataCorrupted:
      return "data-corrupted";
    case ErrorCode::kCacheCorrupted:
      return "cache-corrupted";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kDeadlineExceeded:
      return "deadline-exceeded";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kShuttingDown:
      return "shutting-down";
    case ErrorCode::kNonFinite:
      return "non-finite";
  }
  return "?";
}

ErrorCode error_code_of(const std::exception& e) {
  if (const auto* err = dynamic_cast<const Error*>(&e)) return err->code();
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr)
    return ErrorCode::kAlloc;
  return ErrorCode::kUnknown;
}

namespace detail {

void raise_error(const char* cond, const char* file, int line,
                 const std::string& msg) {
  raise_error(ErrorCode::kPrecondition, cond, file, line, msg);
}

void raise_error(ErrorCode code, const char* cond, const char* file,
                 int line, const std::string& msg) {
  std::ostringstream os;
  os << "smmkit: " << msg << " [" << to_string(code)
     << ", failed: " << cond << " at " << file << ':' << line << ']';
  throw Error(code, os.str());
}

}  // namespace detail
}  // namespace smm
