#include "src/tune/tune.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "src/common/env.h"
#include "src/core/autotune.h"
#include "src/core/parallel_cost.h"
#include "src/core/smm.h"
#include "src/robust/health.h"
#include "src/tune/tune_table.h"

namespace smm::tune {

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kAuto:
      return "auto";
    case Mode::kOff:
      return "off";
    case Mode::kObserve:
      return "observe";
    case Mode::kAdapt:
      return "adapt";
  }
  return "?";
}

Mode mode_from_env() {
  const std::string v = env::read_string("SMMKIT_AUTOTUNE", "observe");
  if (v == "off") return Mode::kOff;
  if (v == "observe") return Mode::kObserve;
  if (v == "adapt") return Mode::kAdapt;
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

namespace {

/// The PlanCache key contribution of one tuning epoch: epoch 0 (never
/// re-planned, and any class the tuner reverted to the default spec)
/// contributes nothing, so those lookups alias the untouched default
/// entry instead of duplicating it.
std::uint64_t epoch_fingerprint(std::uint32_t epoch) {
  if (epoch == 0) return 0;
  std::uint64_t h = 1469598103934665603ull ^ (0x746e65ull << 8);  // "tne"
  h ^= epoch;
  h *= 1099511628211ull;
  return h;
}

GemmShape class_shape(const ShapeClass& sc) {
  return GemmShape{sc.m, sc.n, sc.k};
}

plan::ScalarType class_scalar(const ShapeClass& sc) {
  return sc.scalar == static_cast<int>(plan::ScalarType::kF64)
             ? plan::ScalarType::kF64
             : plan::ScalarType::kF32;
}

/// The spec the un-tuned runtime path would build for this class (the
/// runtime entry points resolve kAuto scaling to kMeasured before the
/// builder runs, so mirror that here).
core::BuildSpec class_default_spec(const ShapeClass& sc) {
  core::SmmOptions options;
  options.thread_scaling = core::SmmOptions::ThreadScaling::kMeasured;
  return core::default_build_spec(class_shape(sc), class_scalar(sc),
                                  sc.nthreads, options);
}

bool same_spec(const core::BuildSpec& a, const core::BuildSpec& b) {
  return a.mr == b.mr && a.nr == b.nr && a.mc == b.mc && a.kc == b.kc &&
         a.nc == b.nc && a.pack_a == b.pack_a && a.pack_b == b.pack_b &&
         a.edge_pack_b == b.edge_pack_b && a.nthreads == b.nthreads &&
         a.ways.jc == b.ways.jc && a.ways.ic == b.ways.ic &&
         a.ways.jr == b.ways.jr && a.ways.ir == b.ways.ir &&
         a.k_parts == b.k_parts && a.host_tiles == b.host_tiles;
}

}  // namespace

Tuner::Tuner() : Tuner(Options{}) {}

Tuner::Tuner(Options options) : options_(std::move(options)) {}

double Tuner::predict_ns(const ShapeClass& sc,
                         const core::BuildSpec& spec) const {
  const model::ParallelCostModel& m = core::calibrated_cost_model();
  return model::predict_parallel_ns(m, class_shape(sc), spec.nthreads,
                                    spec.k_parts, spec.ways, spec.mr,
                                    spec.nr, spec.mc, spec.kc, spec.nc);
}

PlanChoice Tuner::plan_choice(const ShapeClass& sc) {
  if (mode() != Mode::kAdapt) return {};
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = classes_.find(sc);
  if (it == classes_.end()) return {};
  const ClassState& st = it->second;
  if (!st.has_override) return {};  // default plan, default cache key
  PlanChoice choice;
  choice.fingerprint = epoch_fingerprint(st.epoch);
  choice.has_spec = true;
  choice.spec = st.installed;
  return choice;
}

SampleToken Tuner::sample_token(const ShapeClass& sc) {
  if (mode() == Mode::kOff) return {};
  // Failover gate (DESIGN.md §15): a suppressed context (brownout, or a
  // lane executing on a non-healthy shard) produces wall times that
  // describe the failure, not the plan — issue no token at all so even
  // an exploration trial never ingests them.
  if (sampling_suppressed()) return {};
  // Mid-exploration classes sample every call — a trial that waited for
  // the 1-in-N counter would take N x trial_samples calls to converge.
  // The atomic count keeps this a single relaxed load when (as almost
  // always) nothing is exploring.
  if (exploring_.load(std::memory_order_relaxed) > 0) {
    std::shared_lock<std::shared_mutex> lock(mu_);
    const auto it = classes_.find(sc);
    if (it != classes_.end() &&
        it->second.phase == ClassState::Phase::kExplore)
      return {true, it->second.epoch};
  }
  const std::uint64_t n =
      call_counter_.fetch_add(1, std::memory_order_relaxed);
  const int period = std::max(1, options_.sample_period);
  if (n % static_cast<std::uint64_t>(period) != 0) return {};
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = classes_.find(sc);
  return {true, it == classes_.end() ? 0u : it->second.epoch};
}

void Tuner::begin_explore_locked(const ShapeClass& sc, ClassState& st) {
  // The observed default cost is the posterior the candidates must beat;
  // st.installed still holds the default spec at this point (kBaseline)
  // or the previously committed winner (drift re-entry) — either way the
  // incumbent the winner is compared against.
  st.default_mean_ns = st.ewma_ns;
  st.explored_once = true;

  // Candidate generation: diversity-first, prior-ranked. On hosts where
  // the analytic model separates candidates (multi-thread shapes) the
  // stable sort puts the cheapest first; where it cannot (serial plans
  // price identically — the model carries no pack or tile term for
  // them), the construction order guarantees the single-knob variations
  // of the incumbent (pack_b flip, kc steps, alternate tiles) all make
  // the truncated list instead of one corner of the grid.
  const core::BuildSpec base = class_default_spec(sc);
  std::vector<Candidate> cands;
  const auto push = [&](core::BuildSpec spec) {
    if (same_spec(spec, base)) return;
    // Cooperative multi-thread plans of the smm family require packing
    // (shared buffers); skip inconsistent candidates rather than build
    // them (autotune.h). Host-family plans read unpacked operands.
    if (spec.nthreads > 1 && spec.k_parts == 1 && !spec.pack_b &&
        !spec.host_tiles)
      return;
    for (const Candidate& c : cands)
      if (same_spec(c.spec, spec)) return;
    Candidate cand;
    cand.spec = spec;
    cand.predicted_ns = predict_ns(sc, spec);
    cands.push_back(cand);
  };

  // 1. The incumbent with packing flipped (the paper's Section III-A
  //    heuristic is exactly the decision most worth second-guessing).
  {
    core::BuildSpec flip = base;
    flip.pack_b = !base.pack_b;
    flip.edge_pack_b = !flip.pack_b;
    push(flip);
  }
  const core::TuneSpace space;
  // 2. kc steps at the incumbent tile.
  for (const index_t kc : space.kc_values) {
    core::BuildSpec alt = base;
    alt.kc = kc;
    push(alt);
  }
  // 3. Alternate tiles (autotune's construction: static parallel choice,
  //    both packing modes).
  for (const auto& [mr, nr] : space.tiles) {
    for (const bool pack_b : space.pack_b_choices) {
      if (const auto alt = core::tile_candidate(class_shape(sc), sc.nthreads,
                                                mr, nr, base.kc,
                                                base.pack_a, pack_b))
        push(*alt);
    }
  }

  std::stable_sort(cands.begin(), cands.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.predicted_ns < b.predicted_ns;
                   });
  const auto limit = static_cast<std::size_t>(
      std::max(1, options_.max_candidates));
  if (cands.size() > limit) cands.resize(limit);
  if (cands.empty()) {
    // Nothing to try (degenerate space): stay committed to the default.
    st.phase = ClassState::Phase::kCommitted;
    st.committed_ns = st.ewma_ns;
    return;
  }

  st.candidates = std::move(cands);
  st.active = 0;
  if (st.phase != ClassState::Phase::kExplore)
    exploring_.fetch_add(1, std::memory_order_relaxed);
  st.phase = ClassState::Phase::kExplore;
  install_locked(sc, st, /*has_override=*/true, st.candidates[0].spec);
}

void Tuner::install_locked(const ShapeClass& /*sc*/, ClassState& st,
                           bool has_override,
                           const core::BuildSpec& spec) {
  st.has_override = has_override;
  st.installed = spec;
  ++st.epoch;
  replans_.fetch_add(1, std::memory_order_relaxed);
  // An effect of the sample record() bumped just before it in the same
  // call: release, so a snapshot never reads tune_replans ahead of the
  // samples that caused them (health.h's ordering rule).
  robust::health().tune_replans.fetch_add(1, std::memory_order_release);
}

void Tuner::commit_locked(const ShapeClass& sc, ClassState& st) {
  // Posterior winner: the best observed candidate mean vs the observed
  // default. Unobserved candidates (cancelled trials) can't win.
  int best = -1;
  for (std::size_t i = 0; i < st.candidates.size(); ++i) {
    const Candidate& c = st.candidates[i];
    if (c.samples == 0) continue;
    if (best < 0 || c.mean_ns < st.candidates[static_cast<std::size_t>(
                                    best)].mean_ns)
      best = static_cast<int>(i);
  }
  const bool candidate_wins =
      best >= 0 && st.default_mean_ns > 0.0 &&
      st.candidates[static_cast<std::size_t>(best)].mean_ns <
          st.default_mean_ns;
  if (candidate_wins) {
    const Candidate& win = st.candidates[static_cast<std::size_t>(best)];
    install_locked(sc, st, /*has_override=*/true, win.spec);
    st.committed_ns = win.mean_ns;
    st.ewma_ns = win.mean_ns;
  } else {
    // The default held: revert. Epoch still bumps (the trial plans must
    // age out) but the zero fingerprint re-aliases the default entry.
    install_locked(sc, st, /*has_override=*/false, class_default_spec(sc));
    st.committed_ns =
        st.default_mean_ns > 0.0 ? st.default_mean_ns : st.ewma_ns;
    st.ewma_ns = st.committed_ns;
  }
  st.ewvar_ns2 = 0.0;
  st.candidates.clear();
  st.candidates.shrink_to_fit();
  st.active = -1;
  st.phase = ClassState::Phase::kCommitted;
  exploring_.fetch_sub(1, std::memory_order_relaxed);
}

void Tuner::record(const ShapeClass& sc, SampleToken token, double wall_ns,
                   const std::vector<plan::ThreadTiming>& /*timings*/) {
  if (!token.sample || !(wall_ns > 0.0) || !std::isfinite(wall_ns)) return;
  const Mode m = mode();
  if (m == Mode::kOff) return;

  bool committed = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto [it, inserted] = classes_.try_emplace(sc);
    ClassState& st = it->second;
    if (inserted) st.installed = class_default_spec(sc);
    if (token.epoch != st.epoch) return;  // a plan the tuner replaced

    samples_.fetch_add(1, std::memory_order_relaxed);
    robust::health().tune_samples.fetch_add(1, std::memory_order_relaxed);

    // EWMA + exponentially weighted variance of the installed plan.
    const double a = std::clamp(options_.ewma_alpha, 0.01, 1.0);
    if (st.samples == 0) {
      st.ewma_ns = wall_ns;
      st.ewvar_ns2 = 0.0;
    } else {
      const double d = wall_ns - st.ewma_ns;
      st.ewma_ns += a * d;
      st.ewvar_ns2 = (1.0 - a) * (st.ewvar_ns2 + a * d * d);
    }
    ++st.samples;

    if (m != Mode::kAdapt) return;  // observe: the posterior is the product

    switch (st.phase) {
      case ClassState::Phase::kBaseline: {
        if (st.samples < static_cast<std::uint64_t>(
                             std::max(1, options_.min_samples)))
          break;
        const double predicted = predict_ns(sc, st.installed);
        const bool diverged =
            predicted > 0.0 &&
            std::abs(st.ewma_ns - predicted) > kHysteresis * predicted;
        const bool hot = !st.explored_once &&
                         st.samples >= options_.hot_samples;
        if (diverged || hot) begin_explore_locked(sc, st);
        break;
      }
      case ClassState::Phase::kExplore: {
        if (st.active < 0 ||
            st.active >= static_cast<int>(st.candidates.size())) {
          commit_locked(sc, st);
          committed = true;
          break;
        }
        Candidate& cand =
            st.candidates[static_cast<std::size_t>(st.active)];
        cand.mean_ns = (cand.mean_ns * cand.samples + wall_ns) /
                       (cand.samples + 1);
        ++cand.samples;
        if (cand.samples >= std::max(1, options_.trial_samples)) {
          ++st.active;
          if (st.active < static_cast<int>(st.candidates.size())) {
            install_locked(
                sc, st, /*has_override=*/true,
                st.candidates[static_cast<std::size_t>(st.active)].spec);
          } else {
            commit_locked(sc, st);
            committed = true;
          }
        }
        break;
      }
      case ClassState::Phase::kCommitted: {
        // Drift: the workload (or the machine) moved out from under the
        // committed winner; re-open the class. The hysteresis band keeps
        // ordinary variance from flapping plans.
        if (st.committed_ns > 0.0 &&
            st.ewma_ns > (1.0 + kHysteresis) * st.committed_ns)
          begin_explore_locked(sc, st);
        break;
      }
    }
  }
  // Persist outside the unique lock (save_table takes a shared lock).
  if (committed && !options_.table_dir.empty())
    save_table(table_path(options_.table_dir));
}

std::optional<double> Tuner::observed_cost_ns(index_t m, index_t n,
                                              index_t k, int scalar,
                                              int nthreads) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto min_n =
      static_cast<std::uint64_t>(std::max(1, options_.min_samples));
  if (scalar >= 0) {
    const auto it = classes_.find(ShapeClass{m, n, k, scalar, nthreads});
    if (it == classes_.end() || it->second.samples < min_n)
      return std::nullopt;
    return it->second.ewma_ns;
  }
  // scalar < 0: the service estimates before it knows T — serve the
  // best-observed class of either scalar type for this (m, n, k, nt).
  std::optional<double> out;
  for (int s = 0; s < 2; ++s) {
    const auto it = classes_.find(ShapeClass{m, n, k, s, nthreads});
    if (it == classes_.end() || it->second.samples < min_n) continue;
    if (!out || it->second.samples > min_n) out = it->second.ewma_ns;
  }
  return out;
}

std::string Tuner::table_path(const std::string& dir) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "smmtune-" + fingerprint_token(machine_fingerprint()) + ".tbl";
  return path;
}

bool Tuner::save_table(const std::string& path) const {
  std::vector<TableEntry> entries;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (const auto& [key, st] : classes_) {
      if (st.phase != ClassState::Phase::kCommitted) continue;
      TableEntry e;
      e.key = key;
      e.epoch = st.epoch;
      e.has_override = st.has_override;
      e.spec = st.installed;
      e.mean_ns = st.ewma_ns;
      e.var_ns2 = st.ewvar_ns2;
      e.samples = st.samples;
      entries.push_back(e);
    }
  }
  return write_table(path, machine_fingerprint(),
                     core::calibrated_cost_model(), entries);
}

bool Tuner::load_table(const std::string& path) {
  model::ParallelCostModel stored;
  std::vector<TableEntry> entries;
  const TableStatus status =
      read_table(path, machine_fingerprint(), &stored, &entries);
  if (status == TableStatus::kMissing) return false;  // cold start
  if (status != TableStatus::kOk) {
    table_stale_.fetch_add(1, std::memory_order_relaxed);
    robust::health().tune_table_stale.fetch_add(1,
                                                std::memory_order_relaxed);
    return false;
  }
  // Seed the process cost model before anything calibrates: the warm
  // start skips the measurement burst too. A process that already
  // calibrated keeps its own constants (set_calibrated_model no-ops) —
  // the table's committed winners are still valid observations.
  core::set_calibrated_model(stored);

  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const TableEntry& e : entries) {
    ClassState st;
    st.phase = ClassState::Phase::kCommitted;
    st.ewma_ns = e.mean_ns;
    st.ewvar_ns2 = e.var_ns2;
    st.samples = e.samples;
    st.epoch = e.epoch;
    st.has_override = e.has_override;
    st.installed = e.has_override ? e.spec : class_default_spec(e.key);
    st.committed_ns = e.mean_ns;
    st.explored_once = true;
    st.from_table = true;
    classes_[e.key] = std::move(st);
    table_hits_.fetch_add(1, std::memory_order_relaxed);
    robust::health().tune_table_hits.fetch_add(1,
                                               std::memory_order_relaxed);
  }
  return true;
}

void Tuner::reset() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  classes_.clear();
  exploring_.store(0, std::memory_order_relaxed);
  call_counter_.store(0, std::memory_order_relaxed);
  samples_.store(0, std::memory_order_relaxed);
  replans_.store(0, std::memory_order_relaxed);
  table_hits_.store(0, std::memory_order_relaxed);
  table_stale_.store(0, std::memory_order_relaxed);
}

void Tuner::set_options(Options options) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  options_ = std::move(options);
}

std::uint64_t Tuner::samples() const {
  return samples_.load(std::memory_order_relaxed);
}
std::uint64_t Tuner::replans() const {
  return replans_.load(std::memory_order_relaxed);
}
std::uint64_t Tuner::table_hits() const {
  return table_hits_.load(std::memory_order_relaxed);
}
std::uint64_t Tuner::table_stale() const {
  return table_stale_.load(std::memory_order_relaxed);
}

std::vector<ClassSnapshot> Tuner::snapshot_classes() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<ClassSnapshot> out;
  out.reserve(classes_.size());
  for (const auto& [key, st] : classes_) {
    ClassSnapshot s;
    s.key = key;
    s.ewma_ns = st.ewma_ns;
    s.ewvar_ns2 = st.ewvar_ns2;
    s.samples = st.samples;
    s.epoch = st.epoch;
    s.committed = st.phase == ClassState::Phase::kCommitted;
    s.exploring = st.phase == ClassState::Phase::kExplore;
    s.from_table = st.from_table;
    s.spec = st.installed;
    out.push_back(s);
  }
  return out;
}

Tuner& tuner() {
  // Immortal (leaked) like smm_plan_cache: warm-path callers touch it
  // from worker threads whose lifetime static destruction does not
  // respect. First use reads SMMKIT_TUNE_DIR and loads the persisted
  // table, so the seed happens before the first plan build that would
  // otherwise trigger calibration.
  static Tuner* instance = [] {
    Tuner::Options options;
    options.table_dir = env::read_string("SMMKIT_TUNE_DIR", "");
    auto* t = new Tuner{options};
    if (!options.table_dir.empty())
      t->load_table(Tuner::table_path(options.table_dir));
    return t;
  }();
  return *instance;
}

}  // namespace smm::tune
