#include "src/core/smm.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "src/common/error.h"
#include "src/common/str.h"
#include "src/core/autotune.h"
#include "src/core/kernel_select.h"
#include "src/core/parallel_cost.h"
#include "src/core/parallel_select.h"
#include "src/core/plan_builder.h"
#include "src/core/plan_cache.h"
#include "src/plan/native_executor.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/tune/tune.h"

namespace smm::core {

namespace {

// Blocking of the reference SMM: mc/nc divisible by every main tile,
// kc large enough that SMM-sized K never splits.
constexpr index_t kMc = 240;
constexpr index_t kKc = 512;
constexpr index_t kNc = 480;

/// A block bigger than this (bytes) no longer fits comfortably next to the
/// other operands in the 2 MB shared L2 — only then is packing A worth it.
constexpr index_t kPackAThresholdBytes = 1024 * 1024;

/// B reuse count (M / mr) below which packing B cannot amortize: the P2C
/// ratio (M+N)/(2MN) says small M makes the packed elements too rarely
/// reused (Section III-A).
constexpr index_t kPackBMinReuseRows = 48;

/// B footprint below which packing buys nothing even with reuse: the
/// whole matrix already sits in the shared L2, so direct access is as
/// fast as a packed buffer and strictly cheaper (no copy) — the "small"
/// regime where the paper says to avoid packing altogether.
constexpr index_t kPackBFootprintBytes = 1024 * 1024;

class ReferenceSmm final : public libs::GemmStrategy {
 public:
  explicit ReferenceSmm(SmmOptions options) : options_(options) {
    traits_.name = "smm-ref";
    traits_.assembly_layers = "Layer 4-7";
    traits_.unroll = 8;
    traits_.kernel_tiles = "adaptive(16x4,12x4,8x8,...)";
    traits_.packs_a = false;
    traits_.packs_b = true;  // when it pays off
    traits_.edge = libs::EdgeStrategy::kEdgeKernels;
    traits_.parallel = libs::ParallelMethod::kMultiDim;
  }

  [[nodiscard]] const libs::LibraryTraits& traits() const override {
    return traits_;
  }

  [[nodiscard]] plan::GemmPlan make_plan(GemmShape shape,
                                         plan::ScalarType scalar,
                                         int nthreads) const override {
    plan::GemmPlan plan;
    plan.strategy = traits_.name;
    plan.shape = shape;
    plan.scalar = scalar;
    build_smm_plan(plan,
                   default_build_spec(shape, scalar, nthreads, options_));
    plan.validate();
    return plan;
  }

 private:
  SmmOptions options_;
  libs::LibraryTraits traits_;
};

}  // namespace

BuildSpec default_build_spec(GemmShape shape, plan::ScalarType scalar,
                             int nthreads, const SmmOptions& options) {
  BuildSpec spec;
  if (options.adaptive_kernel) {
    const KernelChoice choice = choose_main_tile(shape);
    spec.mr = choice.mr;
    spec.nr = choice.nr;
  } else {
    spec.mr = 16;
    spec.nr = 4;
  }
  spec.mc = kMc;
  spec.kc = kKc;
  spec.nc = kNc;

  int max_threads = nthreads;
  if (options.thread_cap > 0)
    max_threads = std::min(max_threads, options.thread_cap);
  // kAuto resolves to the static heuristic here: a directly built plan
  // must be a pure function of (shape, scalar, nthreads, options), or
  // simulated goldens would vary with the machine running the tests.
  // The runtime entry points opt into kMeasured before reaching this.
  const model::ParallelCostModel* cost =
      options.thread_scaling == SmmOptions::ThreadScaling::kMeasured
          ? &calibrated_cost_model()
          : nullptr;
  const ParallelChoice par_choice =
      choose_parallel(shape, std::max(1, max_threads), spec.mr, spec.nr,
                      spec.mc, spec.nc, 4, cost, spec.kc);
  spec.nthreads = par_choice.nthreads;
  spec.ways = par_choice.ways;
  spec.k_parts = par_choice.k_parts;

  const PackingDecision pd =
      decide_packing(shape, plan::elem_bytes(scalar), options);
  spec.pack_a = pd.pack_a;
  spec.pack_b = pd.pack_b;
  spec.edge_pack_b = pd.edge_pack_b;
  return spec;
}

PackingDecision decide_packing(GemmShape shape, index_t elem_bytes,
                               const SmmOptions& options) {
  PackingDecision out;
  switch (options.pack_a) {
    case SmmOptions::Packing::kAlways:
      out.pack_a = true;
      break;
    case SmmOptions::Packing::kNever:
      out.pack_a = false;
      break;
    case SmmOptions::Packing::kAuto:
      out.pack_a = shape.m * shape.k * elem_bytes > kPackAThresholdBytes;
      break;
  }
  switch (options.pack_b) {
    case SmmOptions::Packing::kAlways:
      out.pack_b = true;
      break;
    case SmmOptions::Packing::kNever:
      out.pack_b = false;
      break;
    case SmmOptions::Packing::kAuto:
      out.pack_b = shape.m >= kPackBMinReuseRows &&
                   shape.k * shape.n * elem_bytes > kPackBFootprintBytes;
      break;
  }
  out.edge_pack_b = !out.pack_b && options.edge_pack;
  return out;
}

const libs::GemmStrategy& reference_smm() {
  static const ReferenceSmm instance{SmmOptions{}};
  return instance;
}

std::uint64_t options_fingerprint(const SmmOptions& options) {
  // FNV-1a over every field: any option that changes the plan the builder
  // would emit must change the cache key, or two option sets alias.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(static_cast<std::uint64_t>(options.pack_a));
  mix(static_cast<std::uint64_t>(options.pack_b));
  mix(options.edge_pack ? 1u : 0u);
  mix(options.adaptive_kernel ? 1u : 0u);
  mix(static_cast<std::uint64_t>(
      static_cast<std::int64_t>(options.thread_cap)));
  mix(static_cast<std::uint64_t>(options.thread_scaling));
  mix(options.check_finite ? 1u : 0u);
  mix(static_cast<std::uint64_t>(options.abft));
  return h;
}

PlanCache& smm_plan_cache() {
  // Immortal (leaked): protect_across_fork registers atfork handlers
  // capturing the cache that can never be unregistered, so the cache
  // must survive static destruction (fork_guard.h).
  static PlanCache* cache = new PlanCache{reference_smm()};
  static const bool fork_guarded = (cache->protect_across_fork(), true);
  (void)fork_guarded;
  return *cache;
}

namespace {

/// The runtime entry points resolve kAuto to the measured cost model:
/// the decision (and the one-time calibration behind it) runs at most
/// once per (shape, scalar, nthreads, options) because it happens inside
/// the cached plan build.
SmmOptions resolve_runtime_scaling(const SmmOptions& options) {
  SmmOptions resolved = options;
  if (resolved.thread_scaling == SmmOptions::ThreadScaling::kAuto)
    resolved.thread_scaling = SmmOptions::ThreadScaling::kMeasured;
  return resolved;
}

/// Whether the tuner may speak for this (already resolved) option set:
/// only when every plan-shaping field is at its runtime default. An
/// explicit pack/tile/thread option is the caller overruling the
/// heuristics, and a tuned spec overruling the caller back would break
/// it; and a sample taken under exotic options would pollute the class
/// posterior the default-options traffic is keyed on. check_finite and
/// abft ride along freely — they never change the built plan.
bool tuner_applies(const SmmOptions& resolved) {
  static const SmmOptions defaults =
      resolve_runtime_scaling(SmmOptions{});
  return resolved.pack_a == defaults.pack_a &&
         resolved.pack_b == defaults.pack_b &&
         resolved.edge_pack == defaults.edge_pack &&
         resolved.adaptive_kernel == defaults.adaptive_kernel &&
         resolved.thread_cap == defaults.thread_cap &&
         resolved.thread_scaling == defaults.thread_scaling;
}

}  // namespace

std::shared_ptr<const plan::GemmPlan> cached_smm_plan(
    PlanCache& cache, GemmShape shape, plan::ScalarType scalar,
    int nthreads, const SmmOptions& options) {
  const SmmOptions resolved = resolve_runtime_scaling(options);
  std::uint64_t fingerprint = options_fingerprint(resolved);
  // The tuner's say (DESIGN.md §14): in adapt mode an installed winner
  // (or exploration candidate) overrides the default spec, keyed by an
  // epoch-bumped fingerprint — a re-plan is an ordinary cache miss under
  // a new key, so stale plans age out of the LRU without a flush. kOff
  // skips even the lookup; the zero PlanChoice leaves the key unchanged.
  tune::PlanChoice choice;
  if (tune::mode() != tune::Mode::kOff && tuner_applies(resolved)) {
    choice = tune::tuner().plan_choice(tune::ShapeClass{
        shape.m, shape.n, shape.k, static_cast<int>(scalar), nthreads});
    fingerprint ^= choice.fingerprint;
  }
  return cache.get_or_build(shape, scalar, nthreads, fingerprint, [&] {
    if (choice.has_spec)
      return build_tuned_plan(shape, scalar, choice.spec);
    return ReferenceSmm{resolved}.make_plan(shape, scalar, nthreads);
  });
}

/// check_finite screen: one pass over each operand before any plan work.
/// C only participates when beta != 0 (a beta of zero overwrites C, so a
/// stale NaN there is harmless). The injection site models a poisoned
/// request without having to corrupt a real buffer.
template <typename T>
void screen_finite(ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                   ConstMatrixView<T> c) {
  const auto reject = [](const char* operand, index_t i, index_t j) {
    robust::health().nonfinite_rejections.fetch_add(
        1, std::memory_order_relaxed);
    throw Error(ErrorCode::kNonFinite,
                strprintf("smm_gemm: non-finite value in %s at (%ld, %ld)",
                          operand, static_cast<long>(i),
                          static_cast<long>(j)));
  };
  if (robust::should_fire(robust::FaultSite::kNonFiniteInput))
    reject("A (injected)", 0, 0);
  const auto scan = [&](ConstMatrixView<T> v, const char* operand) {
    for (index_t j = 0; j < v.cols(); ++j)
      for (index_t i = 0; i < v.rows(); ++i)
        if (!std::isfinite(v(i, j))) reject(operand, i, j);
  };
  scan(a, "A");
  scan(b, "B");
  if (beta != T(0)) scan(c, "C");
}

template void screen_finite(ConstMatrixView<float>, ConstMatrixView<float>,
                            float, ConstMatrixView<float>);
template void screen_finite(ConstMatrixView<double>,
                            ConstMatrixView<double>, double,
                            ConstMatrixView<double>);

namespace {

template <typename T>
void smm_gemm_impl(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
                   T beta, MatrixView<T> c, int nthreads,
                   const SmmOptions& options, const CancelToken* cancel,
                   PlanCache* cache = nullptr) {
  SMM_EXPECT_CODE(a.rows() == c.rows() && b.cols() == c.cols() &&
                      a.cols() == b.rows(),
                  ErrorCode::kBadShape, "smm_gemm dimension mismatch");
  SMM_EXPECT_CODE((a.empty() || a.data() != nullptr) &&
                      (b.empty() || b.data() != nullptr) &&
                      (c.empty() || c.data() != nullptr),
                  ErrorCode::kBadShape, "smm_gemm operand has null data");
  SMM_EXPECT(nthreads >= 1, "smm_gemm needs at least one thread");
  if (options.check_finite)
    screen_finite(a, b, beta, ConstMatrixView<T>(c));
  // A token already stopped at entry rejects the call before the plan is
  // even looked up — C untouched.
  if (cancel != nullptr) cancel->throw_if_stopped();
  const GemmShape shape{c.rows(), c.cols(), a.cols()};
  const auto scalar = sizeof(T) == 4 ? plan::ScalarType::kF32
                                     : plan::ScalarType::kF64;
  // Warm path: the plan is a cache lookup, not a rebuild — on SMM-sized
  // shapes the build costs more than the multiply it describes.
  PlanCache& plans = cache != nullptr ? *cache : smm_plan_cache();
  const auto p = cached_smm_plan(plans, shape, scalar, nthreads, options);
  // 1-in-N sampling for the autotuner: two clock reads bracket the plain
  // executor. Deliberately NOT execute_plan_timed here — its per-op
  // instrumentation costs roughly a clock read per op, which both
  // inflates small-shape observations and biases candidate trials toward
  // plans with fewer, larger ops (a small-tile plan would look slower
  // than it is). The per-op Table II breakdown stays a diagnosis path
  // (table2_breakdown, execute_plan_timed); the posterior needs only the
  // end-to-end wall. The unsampled path pays one relaxed load + branch.
  if (tune::mode() != tune::Mode::kOff &&
      tuner_applies(resolve_runtime_scaling(options))) {
    const tune::ShapeClass sc{shape.m, shape.n, shape.k,
                              static_cast<int>(scalar), nthreads};
    const tune::SampleToken token = tune::tuner().sample_token(sc);
    if (token.sample) {
      const auto t0 = std::chrono::steady_clock::now();
      plan::execute_plan(*p, alpha, a, b, beta, c, cancel);
      // Reached only on a clean run: a cancel unwind throws past the
      // record, so a truncated call never pollutes the posterior.
      const double wall_ns =
          static_cast<double>(std::chrono::duration_cast<
                                  std::chrono::nanoseconds>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count());
      tune::tuner().record(sc, token, wall_ns, {});
      return;
    }
  }
  plan::execute_plan(*p, alpha, a, b, beta, c, cancel);
}

}  // namespace

std::unique_ptr<libs::GemmStrategy> make_reference_smm(SmmOptions options) {
  return std::make_unique<ReferenceSmm>(options);
}

template <typename T>
void smm_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
              MatrixView<T> c, int nthreads, const SmmOptions& options) {
  smm_gemm_impl(alpha, a, b, beta, c, nthreads, options, nullptr);
}

template void smm_gemm(float, ConstMatrixView<float>, ConstMatrixView<float>,
                       float, MatrixView<float>, int, const SmmOptions&);
template void smm_gemm(double, ConstMatrixView<double>,
                       ConstMatrixView<double>, double, MatrixView<double>,
                       int, const SmmOptions&);

template <typename T>
void smm_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
              MatrixView<T> c, int nthreads, const SmmOptions& options,
              const CancelToken& cancel) {
  smm_gemm_impl(alpha, a, b, beta, c, nthreads, options, &cancel);
}

template void smm_gemm(float, ConstMatrixView<float>, ConstMatrixView<float>,
                       float, MatrixView<float>, int, const SmmOptions&,
                       const CancelToken&);
template void smm_gemm(double, ConstMatrixView<double>,
                       ConstMatrixView<double>, double, MatrixView<double>,
                       int, const SmmOptions&, const CancelToken&);

template <typename T>
void smm_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
              MatrixView<T> c, int nthreads, const SmmOptions& options,
              const CancelToken& cancel, PlanCache& cache) {
  smm_gemm_impl(alpha, a, b, beta, c, nthreads, options, &cancel, &cache);
}

template void smm_gemm(float, ConstMatrixView<float>, ConstMatrixView<float>,
                       float, MatrixView<float>, int, const SmmOptions&,
                       const CancelToken&, PlanCache&);
template void smm_gemm(double, ConstMatrixView<double>,
                       ConstMatrixView<double>, double, MatrixView<double>,
                       int, const SmmOptions&, const CancelToken&,
                       PlanCache&);

template <typename T>
void smm_gemm(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
              ConstMatrixView<T> b, T beta, MatrixView<T> c, int nthreads,
              const SmmOptions& options) {
  SmmOptions adjusted = options;
  // A transposed col-major input reads op(A) with strided rows, which
  // only the scalar generic kernel can consume in place: pack it instead
  // (the pack absorbs the transpose at copy cost).
  if (trans_a == Trans::kTrans &&
      adjusted.pack_a == SmmOptions::Packing::kAuto) {
    adjusted.pack_a = SmmOptions::Packing::kAlways;
  }
  smm_gemm(alpha, apply_trans(trans_a, a), apply_trans(trans_b, b), beta, c,
           nthreads, adjusted);
}

template void smm_gemm(Trans, Trans, float, ConstMatrixView<float>,
                       ConstMatrixView<float>, float, MatrixView<float>,
                       int, const SmmOptions&);
template void smm_gemm(Trans, Trans, double, ConstMatrixView<double>,
                       ConstMatrixView<double>, double, MatrixView<double>,
                       int, const SmmOptions&);

template <typename T>
plan::PrepackedB<T> smm_prepack_b(ConstMatrixView<T> b, index_t m,
                                  int nthreads, const SmmOptions& options) {
  SMM_EXPECT(m >= 0, "smm_prepack_b needs a non-negative M");
  SMM_EXPECT(nthreads >= 1, "smm_prepack_b needs at least one thread");
  const GemmShape shape{m, b.cols(), b.rows()};
  const auto scalar = sizeof(T) == 4 ? plan::ScalarType::kF32
                                     : plan::ScalarType::kF64;
  return plan::PrepackedB<T>(
      cached_smm_plan(smm_plan_cache(), shape, scalar, nthreads, options),
      b);
}

template plan::PrepackedB<float> smm_prepack_b(ConstMatrixView<float>,
                                               index_t, int,
                                               const SmmOptions&);
template plan::PrepackedB<double> smm_prepack_b(ConstMatrixView<double>,
                                                index_t, int,
                                                const SmmOptions&);

}  // namespace smm::core
