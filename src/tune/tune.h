// smm::tune — observed per-shape-class cost (DESIGN.md §14).
//
// The runtime already produces the ground truth of what a call costs on
// this host today: its wall clock. This module samples it and keeps one
// EWMA per shape class, which SmmService reads as its cost estimate once
// a class has enough samples. It never changes a plan decision: plans
// come from the closed-form selection (Eqs. 3-5) and the calibrated cost
// model alone.
//
// Sampling: 1-in-N warm calls are bracketed by two clock reads (a global
// relaxed counter — no allocation, one extra branch on the unsampled hot
// path).
//
// Modes (SMMKIT_AUTOTUNE, default observe):
//   off      zero-overhead: one relaxed load per call, nothing recorded.
//   observe  sample + maintain the per-class EWMA behind the service's
//            cost estimates.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>

#include "src/common/types.h"

namespace smm::tune {

/// The sampling policy. kAuto defers to the process-wide mode
/// (SMMKIT_AUTOTUNE env knob); the other two are explicit overrides.
enum class Mode : std::uint8_t { kAuto = 0, kOff, kObserve };

const char* to_string(Mode mode);

/// Parse SMMKIT_AUTOTUNE ("off" / "observe") afresh; unset or unparsable
/// values yield the default, kObserve.
Mode mode_from_env();

/// The resolved process-wide mode: the test override if one is set,
/// otherwise the env knob read once per process. Never returns kAuto.
Mode mode();

/// Test hook: pin the process-wide mode (kAuto clears the override and
/// returns to the env-derived value). Takes effect immediately.
void set_mode_override(Mode mode);

/// Process-wide sampling gate (smm::failover's brownout): while any
/// hold is outstanding, sample_token issues no tokens — the EWMA is
/// frozen rather than fed wall times from a runtime in degraded
/// service. Counted, not boolean, so independent holders (two browned-
/// out SmmService instances) compose: one holder releasing never lifts
/// another's suppression. release is clamped at zero (a stray extra
/// release is a no-op, not a latent un-suppression debt).
void hold_sampling_suppression();
void release_sampling_suppression();

/// True when sampling is currently gated off, either process-wide (see
/// above) or by a ScopedSampleSuppression on this thread.
bool sampling_suppressed();

/// Thread-scoped sampling gate: the serving layer wraps executions that
/// land on a non-healthy shard (failover re-routes, rebuild probes,
/// guarded retries on a degraded domain) so their wall times — inflated
/// by spawn fallbacks and retry ladders — can never poison the EWMA.
/// Nestable; cheap (one thread-local increment).
class ScopedSampleSuppression {
 public:
  ScopedSampleSuppression();
  ~ScopedSampleSuppression();
  ScopedSampleSuppression(const ScopedSampleSuppression&) = delete;
  ScopedSampleSuppression& operator=(const ScopedSampleSuppression&) =
      delete;
};

/// What the tuner keys on — the service router's shape class plus the
/// caller's thread budget (the same shape under different budgets costs
/// differently).
struct ShapeClass {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  int scalar = 0;  ///< plan::ScalarType as an int
  int nthreads = 1;
  auto operator<=>(const ShapeClass&) const = default;
};

/// One sampling decision: record() only takes a timing made under a
/// token that said to sample.
struct SampleToken {
  bool sample = false;
};

class Tuner {
 public:
  /// Sampling period: one timed call in kSamplePeriod.
  static constexpr std::uint64_t kSamplePeriod = 64;
  /// Samples before a class's EWMA is served as its observed cost.
  static constexpr std::uint64_t kMinSamples = 6;
  /// EWMA weight of one new sample.
  static constexpr double kEwmaAlpha = 0.25;

  /// Should this call be timed? A global 1-in-N counter, gated by the
  /// mode and the failover suppressions.
  SampleToken sample_token();

  /// Feed one observed call's end-to-end wall-clock ns into the class
  /// EWMA. Non-positive or non-finite walls are not observations.
  void record(const ShapeClass& sc, SampleToken token, double wall_ns);

  /// Observed steady-state cost for admission budgets: the EWMA of the
  /// class once it has kMinSamples. scalar < 0 matches either scalar
  /// type (the service estimates before it knows T). nullopt = no data,
  /// caller falls back to its static constants.
  [[nodiscard]] std::optional<double> observed_cost_ns(index_t m, index_t n,
                                                       index_t k, int scalar,
                                                       int nthreads) const;

  /// Drop every class and counter (tests).
  void reset();

  /// Samples recorded, also mirrored into robust::health().tune_samples.
  [[nodiscard]] std::uint64_t samples() const;

 private:
  struct ClassState {
    double ewma_ns = 0.0;
    std::uint64_t samples = 0;
  };

  mutable std::shared_mutex mu_;
  std::map<ShapeClass, ClassState> classes_;
  std::atomic<std::uint64_t> call_counter_{0};
  std::atomic<std::uint64_t> samples_{0};
};

/// The process-wide tuner behind smm_gemm and SmmService. Immortal (like
/// smm_plan_cache).
Tuner& tuner();

}  // namespace smm::tune
