#include "src/robust/health.h"

#include <atomic>
#include <iterator>

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

HealthSnapshot Health::snapshot() const {
  // Bottom-up acquire loads: an effect row is read before its cause row
  // (the ordering rule in health.h), so the cause reads at least as many
  // bumps as the effect it caused.
  HealthSnapshot s;
  for (std::size_t i = std::size(kCounters); i-- > 0;)
    s.*kCounters[i].value =
        (this->*kCounters[i].live).load(std::memory_order_acquire);
  return s;
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
