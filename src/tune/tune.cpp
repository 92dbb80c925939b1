#include "src/tune/tune.h"

#include <cmath>
#include <mutex>

#include "src/common/env.h"
#include "src/robust/health.h"

namespace smm::tune {

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kAuto:
      return "auto";
    case Mode::kOff:
      return "off";
    case Mode::kObserve:
      return "observe";
  }
  return "?";
}

Mode mode_from_env() {
  const std::string v = env::read_string("SMMKIT_AUTOTUNE", "observe");
  if (v == "off") return Mode::kOff;
  if (v == "observe") return Mode::kObserve;
  return Mode::kObserve;  // unparsable: keep the safe default
}

namespace {
// kAuto (0) doubles as "no override".
std::atomic<std::uint8_t> g_override{static_cast<std::uint8_t>(Mode::kAuto)};
}  // namespace

Mode mode() {
  const auto ov =
      static_cast<Mode>(g_override.load(std::memory_order_relaxed));
  if (ov != Mode::kAuto) return ov;
  // The env knob is read once: getenv on every warm call would put a
  // linear environ scan on the hot path (the SMMKIT_ABFT precedent).
  static const Mode env = mode_from_env();
  return env;
}

void set_mode_override(Mode mode) {
  g_override.store(static_cast<std::uint8_t>(mode),
                   std::memory_order_relaxed);
}

namespace {
std::atomic<int> g_sampling_suppression_holds{0};
thread_local int t_sample_suppress_depth = 0;
}  // namespace

void hold_sampling_suppression() {
  g_sampling_suppression_holds.fetch_add(1, std::memory_order_relaxed);
}

void release_sampling_suppression() {
  // CAS loop instead of fetch_sub: clamped at zero so an unbalanced
  // release can never park the counter negative and swallow the next
  // holder's suppression.
  int held = g_sampling_suppression_holds.load(std::memory_order_relaxed);
  while (held > 0 && !g_sampling_suppression_holds.compare_exchange_weak(
                         held, held - 1, std::memory_order_relaxed)) {
  }
}

bool sampling_suppressed() {
  return t_sample_suppress_depth > 0 ||
         g_sampling_suppression_holds.load(std::memory_order_relaxed) > 0;
}

ScopedSampleSuppression::ScopedSampleSuppression() {
  ++t_sample_suppress_depth;
}

ScopedSampleSuppression::~ScopedSampleSuppression() {
  --t_sample_suppress_depth;
}

SampleToken Tuner::sample_token() {
  if (mode() == Mode::kOff) return {};
  // Failover gate (DESIGN.md §15): a suppressed context (brownout, or a
  // lane executing on a non-healthy shard) produces wall times that
  // describe the failure, not the plan — issue no token at all.
  if (sampling_suppressed()) return {};
  const std::uint64_t n =
      call_counter_.fetch_add(1, std::memory_order_relaxed);
  return {n % kSamplePeriod == 0};
}

void Tuner::record(const ShapeClass& sc, SampleToken token, double wall_ns) {
  if (!token.sample || !(wall_ns > 0.0) || !std::isfinite(wall_ns)) return;
  if (mode() == Mode::kOff) return;

  std::unique_lock<std::shared_mutex> lock(mu_);
  ClassState& st = classes_[sc];
  samples_.fetch_add(1, std::memory_order_relaxed);
  robust::health().tune_samples.fetch_add(1, std::memory_order_relaxed);
  st.ewma_ns = st.samples == 0
                   ? wall_ns
                   : st.ewma_ns + kEwmaAlpha * (wall_ns - st.ewma_ns);
  ++st.samples;
}

std::optional<double> Tuner::observed_cost_ns(index_t m, index_t n,
                                              index_t k, int scalar,
                                              int nthreads) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (scalar >= 0) {
    const auto it = classes_.find(ShapeClass{m, n, k, scalar, nthreads});
    if (it == classes_.end() || it->second.samples < kMinSamples)
      return std::nullopt;
    return it->second.ewma_ns;
  }
  // scalar < 0: the service estimates before it knows T — serve the
  // best-observed class of either scalar type for this (m, n, k, nt).
  std::optional<double> out;
  for (int s = 0; s < 2; ++s) {
    const auto it = classes_.find(ShapeClass{m, n, k, s, nthreads});
    if (it == classes_.end() || it->second.samples < kMinSamples) continue;
    if (!out || it->second.samples > kMinSamples) out = it->second.ewma_ns;
  }
  return out;
}

void Tuner::reset() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  classes_.clear();
  call_counter_.store(0, std::memory_order_relaxed);
  samples_.store(0, std::memory_order_relaxed);
}

std::uint64_t Tuner::samples() const {
  return samples_.load(std::memory_order_relaxed);
}

Tuner& tuner() {
  // Immortal (leaked) like smm_plan_cache: warm-path callers touch it
  // from worker threads whose lifetime static destruction does not
  // respect.
  static Tuner* instance = new Tuner;
  return *instance;
}

}  // namespace smm::tune
