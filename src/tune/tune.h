// smm::tune — online input-aware autotuning (DESIGN.md §14).
//
// The paper's Section IV asks for JIT-like adaptive plan generation; IAAT
// (PAPERS.md) shows that for small GEMM the *input distribution at run
// time* beats any one-shot selection. The runtime already produces the
// ground truth — execute_plan_timed's per-op wall clock — so this module
// closes the loop:
//
//   sample ──► per-shape-class EWMA/variance ──► divergence trigger
//     ▲                                               │
//     │                                               ▼
//   PlanCache ◄── epoch-bumped fingerprint ◄── explore TuneSpace
//     (per shard)                                candidates (posterior)
//                                                     │
//                      SMMKIT_TUNE_DIR ◄── persist ◄──┘ commit winner
//
// Sampling: 1-in-N warm calls run through the timed executor (a global
// relaxed counter — no allocation, one extra branch on the unsampled hot
// path). The EWMA+variance per shape class is the tuner's posterior over
// the *installed* plan; exploration installs each candidate BuildSpec
// from core::TuneSpace in turn (ranked by the analytic cost model — the
// model is the prior, observation refines it) and commits the winner.
//
// Every install bumps the class's tuning epoch, which is folded into the
// PlanCache fingerprint: a re-plan is an ordinary cache miss under a new
// key, so stale plans age out of the (per-shard) LRU without a flush and
// concurrent executors keep their shared_ptr to the old plan safely.
//
// Modes (SMMKIT_AUTOTUNE, default observe):
//   off      zero-overhead: one relaxed load per call, nothing recorded.
//   observe  sample + maintain the table, feed SmmService's admission
//            budgets — but never change a plan decision.
//   adapt    observe + explore/commit plan overrides.
//
// Persistence: the tuned table (plus the calibrated cost model that
// produced it) is written to SMMKIT_TUNE_DIR keyed by a machine
// fingerprint; a warm-started process loads committed winners (zero
// exploration) and the calibrated constants (zero calibration). Foreign,
// truncated, or corrupted tables are rejected and rebuilt, never trusted
// (the smm::integrity seal idiom, tune_table.h).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/core/plan_builder.h"
#include "src/model/parallel_runtime.h"
#include "src/plan/plan_stats.h"

namespace smm::tune {

/// The autotuning policy. kAuto defers to the process-wide mode
/// (SMMKIT_AUTOTUNE env knob); the other three are explicit overrides.
enum class Mode : std::uint8_t { kAuto = 0, kOff, kObserve, kAdapt };

const char* to_string(Mode mode);

/// Parse SMMKIT_AUTOTUNE ("off" / "observe" / "adapt") afresh; unset or
/// unparsable values yield the default, kObserve.
Mode mode_from_env();

/// The resolved process-wide mode: the test override if one is set,
/// otherwise the env knob read once per process. Never returns kAuto.
Mode mode();

/// Test hook: pin the process-wide mode (kAuto clears the override and
/// returns to the env-derived value). Takes effect immediately.
void set_mode_override(Mode mode);

/// Process-wide sampling gate (smm::failover's brownout): while any
/// hold is outstanding, sample_token issues no tokens — the posterior
/// is frozen rather than fed wall times from a runtime in degraded
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
/// by spawn fallbacks and retry ladders — can never poison the EWMA
/// posterior or trigger a spurious re-plan. Nestable; cheap (one
/// thread-local increment).
class ScopedSampleSuppression {
 public:
  ScopedSampleSuppression();
  ~ScopedSampleSuppression();
  ScopedSampleSuppression(const ScopedSampleSuppression&) = delete;
  ScopedSampleSuppression& operator=(const ScopedSampleSuppression&) =
      delete;
};

/// What the tuner keys on — the service router's shape class plus the
/// caller's thread budget (the same shape tuned under different budgets
/// is a different decision).
struct ShapeClass {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  int scalar = 0;  ///< plan::ScalarType as an int
  int nthreads = 1;
  auto operator<=>(const ShapeClass&) const = default;
};

/// The tuner's say in one plan lookup. fingerprint is XOR-folded into
/// the PlanCache key; 0 (with !has_spec) is the untouched default path.
struct PlanChoice {
  std::uint64_t fingerprint = 0;
  bool has_spec = false;
  core::BuildSpec spec;
};

/// Token pairing a sampling decision with the tuning epoch it was made
/// under; record() discards samples whose epoch has moved on (the timing
/// belongs to a plan the tuner already replaced).
struct SampleToken {
  bool sample = false;
  std::uint32_t epoch = 0;
};

/// Point-in-time view of one shape class (tests, table export).
struct ClassSnapshot {
  ShapeClass key;
  double ewma_ns = 0.0;
  double ewvar_ns2 = 0.0;
  std::uint64_t samples = 0;
  std::uint32_t epoch = 0;
  bool committed = false;    ///< a tuned winner is installed
  bool exploring = false;    ///< mid-trial
  bool from_table = false;   ///< winner came from the persisted table
  core::BuildSpec spec;      ///< meaningful when committed
};

class Tuner {
 public:
  /// Re-plan trigger: |observed - predicted| / predicted beyond this
  /// enters exploration; a committed class whose EWMA drifts past
  /// (1 + kHysteresis) x committed cost re-opens it. The band is wide
  /// on purpose — re-planning has a cost, flapping has a bigger one.
  static constexpr double kHysteresis = 0.35;

  struct Options {
    /// Steady-state sampling period: one timed call in `sample_period`
    /// (exploration trials force-sample their class). <= 1 samples every
    /// call.
    int sample_period = 64;
    /// Samples before the divergence trigger may fire (variance needs a
    /// floor under it).
    int min_samples = 6;
    /// Timed samples each exploration trial collects per candidate.
    int trial_samples = 3;
    /// Candidates drawn from core::TuneSpace per exploration round,
    /// ranked by predicted cost (the analytic prior prunes the grid so
    /// a round stays a bounded burst, not an exhaustive sweep).
    int max_candidates = 6;
    /// Also explore a class that stays hot (>= hot_samples timed
    /// samples) even when prediction tracks observation — divergence
    /// finds mispredicted classes, this finds mispriced ones.
    std::uint64_t hot_samples = 24;
    /// EWMA weight of one new sample.
    double ewma_alpha = 0.25;
    /// Directory for the persisted table ("" = in-memory only). The
    /// process-wide tuner() takes this from SMMKIT_TUNE_DIR.
    std::string table_dir;
  };

  Tuner();
  explicit Tuner(Options options);

  /// The plan the tuner wants for this class under the current mode.
  /// kOff/kObserve (and unknown classes): the zero PlanChoice — default
  /// fingerprint, default builder. kAdapt: the installed winner or the
  /// active exploration candidate. O(map lookup) under a shared lock.
  PlanChoice plan_choice(const ShapeClass& sc);

  /// Should this call run through the timed executor? Steady state is a
  /// global 1-in-N counter; classes mid-exploration always sample (the
  /// trial needs its observations now, not in N calls).
  SampleToken sample_token(const ShapeClass& sc);

  /// Feed one observed call: wall-clock ns end-to-end plus the per-thread
  /// Table II breakdown the timed executor produced. Updates the class
  /// EWMA/variance, advances exploration trials, commits winners, and
  /// persists on commit. Samples from a stale epoch are dropped.
  void record(const ShapeClass& sc, SampleToken token, double wall_ns,
              const std::vector<plan::ThreadTiming>& timings);

  /// Observed steady-state cost for admission budgets: the EWMA of the
  /// class once it has min_samples. scalar < 0 matches either scalar
  /// type (the service estimates before it knows T). nullopt = no data,
  /// caller falls back to its static constants.
  [[nodiscard]] std::optional<double> observed_cost_ns(index_t m, index_t n,
                                                       index_t k, int scalar,
                                                       int nthreads) const;

  /// Write the committed table (winners + calibrated cost model) to
  /// `path`. Returns false (and leaves any previous file alone) on I/O
  /// trouble.
  bool save_table(const std::string& path) const;

  /// Load a persisted table: committed winners enter the class map as
  /// installed plans (no exploration — the warm start), and the stored
  /// calibrated cost model seeds core::set_calibrated_model. A file that
  /// is unreadable, truncated, sealed wrong, or fingerprinted for
  /// another machine is rejected (tune_table_stale) and the tuner
  /// rebuilds from scratch. Returns whether the table was accepted.
  bool load_table(const std::string& path);

  /// Default table path for `dir` on this machine.
  [[nodiscard]] static std::string table_path(const std::string& dir);

  /// Drop every class, epoch, and counter (benches/tests; plans already
  /// in a PlanCache are unaffected — they age out by fingerprint).
  void reset();

  /// Replace the knobs (benches/tests: shrink sample_period and the
  /// trial counts so an A/B soak converges in seconds). Existing class
  /// state is kept. Not safe against concurrent warm calls — quiesce
  /// the tuner's callers first.
  void set_options(Options options);

  // Event counters, also mirrored into robust::health() (tune_*).
  [[nodiscard]] std::uint64_t samples() const;
  [[nodiscard]] std::uint64_t replans() const;
  [[nodiscard]] std::uint64_t table_hits() const;
  [[nodiscard]] std::uint64_t table_stale() const;

  [[nodiscard]] std::vector<ClassSnapshot> snapshot_classes() const;
  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Candidate {
    core::BuildSpec spec;
    double predicted_ns = 0.0;  ///< analytic prior
    double mean_ns = 0.0;       ///< posterior mean (prior + samples)
    int samples = 0;
  };

  struct ClassState {
    enum class Phase : std::uint8_t { kBaseline, kExplore, kCommitted };
    Phase phase = Phase::kBaseline;
    double ewma_ns = 0.0;
    double ewvar_ns2 = 0.0;
    std::uint64_t samples = 0;
    std::uint32_t epoch = 0;
    /// Exploration state: candidate list and the index under trial.
    std::vector<Candidate> candidates;
    int active = -1;
    /// Posterior mean of the default plan (baseline EWMA at explore
    /// entry; candidate -1).
    double default_mean_ns = 0.0;
    /// Committed winner (has_override => not the default spec).
    bool has_override = false;
    core::BuildSpec installed;
    double committed_ns = 0.0;  ///< EWMA at commit, the drift baseline
    bool explored_once = false;
    bool from_table = false;
  };

  void begin_explore_locked(const ShapeClass& sc, ClassState& st);
  void install_locked(const ShapeClass& sc, ClassState& st,
                      bool has_override, const core::BuildSpec& spec);
  void commit_locked(const ShapeClass& sc, ClassState& st);
  [[nodiscard]] double predict_ns(const ShapeClass& sc,
                                  const core::BuildSpec& spec) const;

  Options options_;
  mutable std::shared_mutex mu_;
  std::map<ShapeClass, ClassState> classes_;
  /// Classes currently mid-exploration: lets sample_token skip the map
  /// lookup entirely in the (steady-state) zero case.
  std::atomic<int> exploring_{0};
  std::atomic<std::uint64_t> call_counter_{0};
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<std::uint64_t> replans_{0};
  std::atomic<std::uint64_t> table_hits_{0};
  std::atomic<std::uint64_t> table_stale_{0};
};

/// The process-wide tuner behind smm_gemm and SmmService. First use
/// reads SMMKIT_TUNE_DIR and, when set, loads the persisted table —
/// which also seeds the calibrated cost model, so a warm start skips
/// both calibration and exploration. Immortal (like smm_plan_cache).
Tuner& tuner();

}  // namespace smm::tune
