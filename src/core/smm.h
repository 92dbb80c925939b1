// Reference SMM implementation (paper Section IV).
//
// The paper's four recommendations, realized:
//  1. *Packing-optional SMM*: an auto heuristic driven by the P2C analysis
//     (Section III-A) decides per shape whether packing A/B pays off; when
//     it does not, kernels read the operands in place.
//  2. *A set of optimal micro-kernels*: the "smm" kernel family —
//     register-feasible tiles (Eq. 4) with pipelined schedules, plus a full
//     lattice of vectorized edge kernels (the Fig. 7 pitfalls avoided).
//  3. *Adaptive code generation*: the plan builder selects the main tile
//     and the kernel mix per input shape at plan time (the JIT stand-in:
//     instead of emitting instructions, it composes the kernel plan and
//     precomputes every operand offset).
//  4. *Multi-dimensional parallelization*: run-time ways selection that
//     refuses to parallelize small dimensions and caps the thread count
//     when the tile grid cannot feed more threads.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/cancel.h"
#include "src/libs/gemm_interface.h"
#include "src/matrix/view.h"
#include "src/plan/native_executor.h"
#include "src/robust/integrity.h"

namespace smm::core {

class PlanCache;

struct SmmOptions {
  enum class Packing { kAuto, kAlways, kNever };
  Packing pack_a = Packing::kAuto;
  Packing pack_b = Packing::kAuto;
  /// Fig. 8: when B stays unpacked and N % nr != 0, pack just the edge
  /// columns so the edge kernels keep contiguous vector access.
  bool edge_pack = true;
  /// Choose the main tile per shape (false pins 16x4).
  bool adaptive_kernel = true;
  /// How the thread count/ways are decided within the caller's budget.
  ///  - kStatic: the deterministic tile-grid heuristic alone.
  ///  - kMeasured: candidates priced in predicted wall-clock with the
  ///    host-calibrated cost model (core/parallel_cost.h) — may use
  ///    fewer threads than requested when dispatch/sync would eat the
  ///    speedup, never more than the static cap.
  ///  - kAuto: kMeasured on the runtime entry points (smm_gemm,
  ///    smm_prepack_b), kStatic for directly built strategies
  ///    (make_plan), so plans fed to the simulator and golden tests
  ///    never depend on the build host.
  enum class ThreadScaling { kAuto, kStatic, kMeasured };
  ThreadScaling thread_scaling = ThreadScaling::kAuto;
  /// Input hygiene (DESIGN.md §11): scan A, B (and C when beta != 0) for
  /// NaN/Inf before executing and reject with kNonFinite. Off by default —
  /// the scan is O(input) per call; serving front-ends turn it on so a
  /// poisoned request is rejected at admission instead of tripping ABFT
  /// checksums (or silently corrupting C) downstream.
  bool check_finite = false;
  /// Integrity policy (DESIGN.md §12) carried by this option set — kAuto
  /// defers to the process-wide SMMKIT_ABFT knob. smm_gemm itself never
  /// verifies (robust::GuardedExecutor is the verification wrapper), but
  /// the field participates in options_fingerprint, so option sets that
  /// differ only in integrity policy never alias a cache entry.
  integrity::AbftMode abft = integrity::AbftMode::kAuto;
};

/// Process-wide instance with default options.
const libs::GemmStrategy& reference_smm();

/// A strategy with explicit options (ablation benches).
std::unique_ptr<libs::GemmStrategy> make_reference_smm(SmmOptions options);

/// Convenience one-call API: C = alpha*A*B + beta*C with the reference SMM.
/// A tiny product (tiny_path_applies) runs as one sweep of host tiles
/// with no plan; every other call runs its cached plan.
///
/// Failure semantics (DESIGN.md §10): memory-pressure trouble on the warm
/// path degrades instead of throwing — a full scratch arena falls back to
/// per-call buffers, a plan-cache insert failure serves the plan
/// uncached, and prepack handles fall back to pack-on-the-fly — so only
/// genuine faults surface. Those are fail-stop: a dead/hung pool worker
/// fails the call with kWorkerPanic/kPoolTimeout (the watchdog bounds the
/// wait; the pool quarantines and rebuilds itself), and callers that need
/// retry/verify semantics on top wrap calls in robust::GuardedExecutor.
template <typename T>
void smm_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
              MatrixView<T> c, int nthreads = 1,
              const SmmOptions& options = {});

/// Cancellable smm_gemm (DESIGN.md §11): `cancel` is consulted at op
/// boundaries inside the plan — a stop observed before the first op
/// leaves C untouched; a mid-plan stop unwinds with kCancelled /
/// kDeadlineExceeded and may leave C partial. A tiny product, which has
/// no plan, consults it once, at entry. The serving layer threads each
/// request's token through here.
template <typename T>
void smm_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
              MatrixView<T> c, int nthreads, const SmmOptions& options,
              const CancelToken& cancel);

/// Same, against an explicit plan cache instead of the process-wide
/// smm_plan_cache() — each shard of the sharded service (DESIGN.md §13)
/// owns a partitioned cache so hot shapes stay cache-local without
/// cross-shard lock traffic.
template <typename T>
void smm_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
              MatrixView<T> c, int nthreads, const SmmOptions& options,
              const CancelToken& cancel, PlanCache& cache);

/// BLAS-style: C = alpha * op(A) * op(B) + beta * C. Transposition is a
/// view; a transposed A makes the packing-optional heuristic prefer
/// packing (strided rows defeat the vector kernels otherwise).
template <typename T>
void smm_gemm(Trans trans_a, Trans trans_b, T alpha, ConstMatrixView<T> a,
              ConstMatrixView<T> b, T beta, MatrixView<T> c,
              int nthreads = 1, const SmmOptions& options = {});

/// Stable hash of every SmmOptions field. This is the PlanCache
/// fingerprint smm_gemm dispatches under: two option sets that would
/// build different plans must never share a cache entry.
std::uint64_t options_fingerprint(const SmmOptions& options);

/// The process-wide plan cache behind smm_gemm. Warm calls (same shape,
/// scalar, nthreads, options) look their plan up here and build nothing —
/// the libxsmm-style dispatch the paper recommends for small shapes,
/// where plan construction would otherwise dominate the call. Exposed so
/// tests and benches can read the hit/miss/build counters and clear().
PlanCache& smm_plan_cache();

/// Pack B once against the cached plan for C(m x b.cols()) = A * B, then
/// replay with handle.run(alpha, a, beta, c) — the batch/inference idiom
/// where one B meets a stream of As. The handle borrows `b`.
template <typename T>
plan::PrepackedB<T> smm_prepack_b(ConstMatrixView<T> b, index_t m,
                                  int nthreads = 1,
                                  const SmmOptions& options = {});

/// The plan smm_gemm would execute, resolved against an explicit cache
/// (get_or_build under the options fingerprint; kAuto thread scaling
/// resolves to kMeasured — runtime-entry semantics). Building block for
/// batched/coalesced dispatch over per-shard caches.
std::shared_ptr<const plan::GemmPlan> cached_smm_plan(
    PlanCache& cache, GemmShape shape, plan::ScalarType scalar,
    int nthreads, const SmmOptions& options);

/// Largest m, n and k of a tiny product (DESIGN.md §8): every shape of
/// perfbench's warm_tiny workload.
inline constexpr index_t kTinyMaxDim = 24;

/// Whether smm_gemm, and batched_smm_each under explicit options, compute
/// this product without a plan, through tiny_gemm: 1 <= m, n, k <=
/// kTinyMaxDim, every plan-shaping option at its runtime default (so no
/// kStatic scaling and no explicit pack or tile option), and a host that
/// registers the host kernel family (AVX-512F/VL with FMA). The thread
/// budget does not matter: such a product takes less time than one empty
/// fork-join. Every other call keeps its plan.
bool tiny_path_applies(GemmShape shape, const SmmOptions& options);

/// The tiny path: covers C with the host family's masked strips
/// (host_strip_fn), all m rows by 8 columns and one last strip of the n % 8
/// left, so ceil(n / 8) kernel calls, reading the views in place (any
/// layout, padded leading dimensions), with k as the only runtime loop. No
/// plan, no scratch, no pool and no heap allocation. Each C element gets
/// the host family's formula, so C is bit-identical to a one-thread
/// host-family plan's. The kKernelMiscompute fault site follows each
/// strip, as it follows each kernel op in the executor. Requires
/// tiny_path_applies and conforming shapes; checks neither.
template <typename T>
void tiny_gemm(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
               MatrixView<T> c);

/// The check_finite screen smm_gemm applies: one pass over A, B (and C
/// when beta != 0), throwing kNonFinite and bumping the health counter on
/// the first non-finite value. Exposed so batched dispatch can screen
/// per item — a poisoned coalesced neighbor must fail alone, not via an
/// aggregate throw.
template <typename T>
void screen_finite(ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
                   ConstMatrixView<T> c);

/// The packing decisions the auto heuristic would take (tests/benches).
struct PackingDecision {
  bool pack_a = false;
  bool pack_b = false;
  bool edge_pack_b = false;
};
PackingDecision decide_packing(GemmShape shape, index_t elem_bytes,
                               const SmmOptions& options);

}  // namespace smm::core
