#include "src/plan/exec_scratch.h"

#include <cstring>

#include "src/common/error.h"
#include "src/robust/fault_injection.h"

namespace smm::plan {

ExecScratch& ExecScratch::local() {
  thread_local ExecScratch arena;
  return arena;
}

void ExecScratch::reserve_and_zero(std::size_t bytes) {
  // Memory-pressure injection: the slab refuses to serve this lease.
  // Consulted on every reserve (not just growth) so chaos tests can hit
  // it on warm paths too; the Lease catches and degrades to per-buffer
  // allocation.
  if (bytes > 0 &&
      robust::should_fire(robust::FaultSite::kArenaExhausted))
    throw Error(ErrorCode::kArenaExhausted,
                "smmkit: injected scratch-arena exhaustion");
  if (bytes > capacity_) {
    // High-water-mark growth: the slab only ever grows, so a steady
    // stream of same-shape calls stabilizes after the first.
    slab_.reset_unchecked(static_cast<index_t>(bytes));
    capacity_ = bytes;
    ++grows_;
    return;  // reset_unchecked value-initializes — already zero
  }
  if (bytes > 0) std::memset(slab_.data(), 0, bytes);
}

}  // namespace smm::plan
