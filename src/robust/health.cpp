#include "src/robust/health.h"

#include <atomic>

namespace smm::robust {

namespace {

/// One row of SMM_HEALTH_COUNTERS: its name, snapshot field and atomic.
struct Counter {
  const char* name;
  std::size_t HealthSnapshot::*value;
  std::atomic<std::size_t> Health::*live;
};

#define SMM_HEALTH_ROW(name) {#name, &HealthSnapshot::name, &Health::name},
constexpr Counter kCounters[] = {SMM_HEALTH_COUNTERS(SMM_HEALTH_ROW)};
#undef SMM_HEALTH_ROW

}  // namespace

Health& Health::instance() {
  static Health h;
  return h;
}

Health::Transaction::Transaction() {
  Health& h = health();
  h.tx_mu_.lock();
  // Odd sequence = transaction in progress. A release *fence* after the
  // bump, not a release bump: release on the RMW would only order the
  // ops *before* it, letting the transaction's relaxed counter writes
  // move above the odd store. The fence pairs with the acquire fence in
  // snapshot(): a reader that sees any in-transaction write then also
  // sees the odd sequence on its validating load, and retries.
  h.tx_seq_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
}

Health::Transaction::~Transaction() {
  Health& h = health();
  // Release RMW: the transaction's counter writes cannot sink below the
  // even store. Pairs with the acquire load that starts snapshot().
  h.tx_seq_.fetch_add(1, std::memory_order_release);
  h.tx_mu_.unlock();
}

HealthSnapshot Health::read_counters() const {
  HealthSnapshot s;
  for (const Counter& c : kCounters)
    s.*c.value = (this->*c.live).load(std::memory_order_relaxed);
  return s;
}

HealthSnapshot Health::snapshot() const {
  // Seqlock read: retry while a transaction is in flight or completed
  // mid-read. A bounded number of optimistic attempts, then fall back to
  // excluding writers via the transaction mutex — snapshot() must
  // terminate even under a transaction storm.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint64_t s0 = tx_seq_.load(std::memory_order_acquire);
    if (s0 & 1) continue;  // transaction in progress
    HealthSnapshot s = read_counters();
    // Acquire *fence* before the validating load: an acquire load would
    // only order the ops *after* it, letting the relaxed counter reads
    // sink below the validation. The fence pairs with the release fence
    // in Transaction's ctor (see there).
    std::atomic_thread_fence(std::memory_order_acquire);
    if (tx_seq_.load(std::memory_order_relaxed) == s0) return s;
  }
  std::lock_guard<std::mutex> lock(tx_mu_);
  return read_counters();
}

void Health::reset() {
  for (const Counter& c : kCounters) this->*c.live = 0;
}

std::string HealthSnapshot::to_string() const {
  std::string out;
  for (const Counter& c : kCounters) {
    if (!out.empty()) out += ' ';
    out += c.name;
    out += '=';
    out += std::to_string(this->*c.value);
  }
  return out;
}

}  // namespace smm::robust
