#include "src/plan/exec_scratch.h"

#include "src/common/error.h"
#include "src/robust/fault_injection.h"

namespace smm::plan {

ExecScratch& ExecScratch::local() {
  thread_local ExecScratch arena;
  return arena;
}

bool ExecScratch::reserve(std::size_t bytes) {
  // Memory-pressure injection: the slab refuses to serve this lease.
  // Consulted on every reserve (not just growth) so chaos tests can hit
  // it on warm paths too; the Lease catches and degrades to per-buffer
  // allocation.
  if (bytes > 0 &&
      robust::should_fire(robust::FaultSite::kArenaExhausted))
    throw Error(ErrorCode::kArenaExhausted,
                "smmkit: injected scratch-arena exhaustion");
  if (bytes <= capacity_) return false;
  // High-water-mark growth: the slab only ever grows, so a steady stream
  // of same-shape calls stabilizes after the first.
  slab_.reset_unchecked(static_cast<index_t>(bytes));
  capacity_ = bytes;
  ++grows_;
  return true;  // reset_unchecked value-initializes — already zero
}

}  // namespace smm::plan
