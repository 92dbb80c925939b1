#include "src/threading/barrier.h"

#include "src/common/error.h"
#include "src/robust/fault_injection.h"
#include "src/threading/spin.h"
#include "src/threading/thread_pool.h"

namespace smm::par {

namespace {

/// Spin budget before parking. Sized so a barrier whose peers are a few
/// microseconds behind resolves without a syscall, while a genuinely
/// stalled round parks quickly instead of burning a core.
constexpr int kSpinRounds = 4096;

}  // namespace

Barrier::Barrier(int participants)
    : participants_(participants),
      spin_(participants <= native_threads_available()) {
  SMM_EXPECT(participants > 0, "barrier needs at least one participant");
}

void Barrier::throw_poisoned() {
  throw Error(ErrorCode::kWorkerPanic,
              "smmkit: parallel region aborted: a peer worker failed before "
              "reaching the barrier");
}

void Barrier::arrive_and_wait() {
  if (robust::should_fire(robust::FaultSite::kBarrierTrip)) {
    // An arrival that faults can never complete the round: poison first
    // so peers (current waiters and later arrivals) fail instead of
    // waiting for this participant forever, then die like any worker.
    poison();
    throw Error(ErrorCode::kWorkerPanic,
                "smmkit: injected barrier fault at arrival");
  }
  if (poisoned_.load(std::memory_order_acquire)) throw_poisoned();
  if (participants_ == 1) return;

  // Every participant of round r was released from round r-1 after the
  // epoch bump, so the epoch read here is the round's stable sense even
  // though peers may already be arriving for it.
  const std::uint32_t my_epoch = epoch_.load(std::memory_order_acquire);
  const int pos = arrived_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (pos == participants_) {
    // Reset before the release bump: a peer can only re-arrive after it
    // observes the bump, so the counter is quiescent here.
    arrived_.store(0, std::memory_order_relaxed);
    {
      // The bump is published under mu_ so a parking waiter cannot miss
      // it between its predicate check and cv_.wait.
      std::lock_guard<std::mutex> lock(mu_);
      epoch_.store(my_epoch + 1, std::memory_order_release);
    }
    cv_.notify_all();
    return;
  }

  if (spin_) {
    for (int i = 0; i < kSpinRounds; ++i) {
      if (epoch_.load(std::memory_order_acquire) != my_epoch) return;
      if (poisoned_.load(std::memory_order_acquire)) {
        if (epoch_.load(std::memory_order_acquire) != my_epoch) return;
        // This round can never complete; withdraw the arrival so the
        // count stays sane for any arrivals that race the poison.
        arrived_.fetch_sub(1, std::memory_order_acq_rel);
        throw_poisoned();
      }
      cpu_relax();
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return epoch_.load(std::memory_order_acquire) != my_epoch ||
           poisoned_.load(std::memory_order_acquire);
  });
  if (epoch_.load(std::memory_order_acquire) == my_epoch) {
    // Woken by poison(), not by a completed round.
    arrived_.fetch_sub(1, std::memory_order_acq_rel);
    throw_poisoned();
  }
}

void Barrier::poison() {
  {
    // Publish under mu_ for the same reason as the epoch bump: a waiter
    // between predicate check and park must not miss the wakeup.
    std::lock_guard<std::mutex> lock(mu_);
    poisoned_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

}  // namespace smm::par
