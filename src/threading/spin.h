// Busy-wait hint shared by the spin-then-park waits in the threading
// layer (Barrier arrival, WorkerPool handoff).
#pragma once

#include <atomic>

namespace smm::par {

/// One spin-loop pause: tells the core this is a wait loop (x86 `pause`,
/// ARM `yield`) so it yields pipeline resources to a sibling hyperthread
/// and does not flood the memory system with speculative loads.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

}  // namespace smm::par
