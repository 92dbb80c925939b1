#include "src/failover/failover.h"

#include "src/common/env.h"

namespace smm::failover {

const char* to_string(ShardState state) {
  switch (state) {
    case ShardState::kHealthy:
      return "healthy";
    case ShardState::kDegraded:
      return "degraded";
    case ShardState::kQuarantined:
      return "quarantined";
    case ShardState::kRebuilding:
      return "rebuilding";
  }
  return "?";
}

FailoverOptions failover_options_from_env(FailoverOptions base) {
  base.quarantine_ms =
      env::read_long("SMMKIT_SHARD_QUARANTINE", base.quarantine_ms);
  return base;
}

ShardHealth::ShardHealth(FailoverOptions options) : options_(options) {}

void ShardHealth::on_success() {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  const ShardState s = state_.load(std::memory_order_relaxed);
  // A quarantined shard cannot heal through traffic it no longer owns
  // (stolen leftovers, in-flight stragglers): recovery goes through the
  // rebuild probe so the state machine has one re-entry path.
  if (s == ShardState::kDegraded || s == ShardState::kRebuilding)
    state_.store(ShardState::kHealthy, std::memory_order_release);
}

bool ShardHealth::on_failure() {
  std::lock_guard<std::mutex> lock(mu_);
  const ShardState s = state_.load(std::memory_order_relaxed);
  if (s == ShardState::kQuarantined) return false;
  if (s == ShardState::kRebuilding) {
    // The probe failed: recovery was premature, straight back out.
    return enter_quarantine_locked(/*admin_hold=*/false);
  }
  ++consecutive_failures_;
  if (s == ShardState::kHealthy &&
      consecutive_failures_ >= options_.degrade_after)
    state_.store(ShardState::kDegraded, std::memory_order_release);
  if (consecutive_failures_ >= options_.quarantine_after)
    return enter_quarantine_locked(/*admin_hold=*/false);
  return false;
}

bool ShardHealth::on_pool_quarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) == ShardState::kQuarantined)
    return false;
  return enter_quarantine_locked(/*admin_hold=*/false);
}

bool ShardHealth::force_quarantine() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) == ShardState::kQuarantined) {
    admin_hold_ = true;  // upgrade an organic quarantine to a held one
    return false;
  }
  return enter_quarantine_locked(/*admin_hold=*/true);
}

bool ShardHealth::maybe_begin_rebuild(
    std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) != ShardState::kQuarantined)
    return false;
  if (admin_hold_ || now < quarantined_until_) return false;
  return begin_rebuild_locked();
}

bool ShardHealth::revive() {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_.load(std::memory_order_relaxed) != ShardState::kQuarantined)
    return false;
  return begin_rebuild_locked();
}

bool ShardHealth::enter_quarantine_locked(bool admin_hold) {
  state_.store(ShardState::kQuarantined, std::memory_order_release);
  consecutive_failures_ = 0;
  admin_hold_ = admin_hold;
  quarantined_until_ = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(options_.quarantine_ms);
  quarantines_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShardHealth::begin_rebuild_locked() {
  state_.store(ShardState::kRebuilding, std::memory_order_release);
  consecutive_failures_ = 0;
  admin_hold_ = false;
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace smm::failover
