// Batched SMM — the deployment shape of the paper's DNN motivation: many
// small multiplications of a few distinct shapes. Plans come from a
// PlanCache; parallelism goes *across* the batch (each item runs its
// single-thread plan on one worker) because within-GEMM parallelism has
// nothing to win on small matrices (Sections III-D / IV; quantified by
// bench/ablate_batch_parallel).
#pragma once

#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/common/error.h"
#include "src/core/plan_cache.h"
#include "src/matrix/view.h"

namespace smm::core {

struct SmmOptions;

template <typename T>
struct GemmBatchItem {
  ConstMatrixView<T> a;
  ConstMatrixView<T> b;
  MatrixView<T> c;
};

/// Per-item outcome of batched_smm_each. `ok` items ran to completion;
/// failed items carry the code and message of their own failure — a
/// neighbor's NaN, cancellation, or bad shape never shows up here.
struct BatchItemStatus {
  bool ok = false;
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
};

/// C_i = alpha * A_i * B_i + beta * C_i for every item, all or nothing
/// on caller bugs. Three steps:
///  1. Validation up front: dimension mismatches, zero dimensions, null
///     data (kBadShape) and C views aliasing across items (kAlias) reject
///     the whole batch, naming the item, before any plan lookup; a
///     `cancel` (may be null) already stopped at entry throws its stop
///     code.
///  2. One batched_smm_each call with `cancel` repeated per item and
///     `options` passed through (null = the cache's default-built plans;
///     non-null resolves plans as smm_gemm does and, with check_finite,
///     rejects a poisoned item with kNonFinite) — so
///     plans resolve once per distinct shape, `nworkers` > 1 spreads
///     items across threads, the pack-once fast path runs whether or not
///     the token is live, and the token stops each item at op boundaries
///     (a stop observed before an item's first op leaves its C
///     untouched).
///  3. One aggregate smm::Error naming every failed item, carrying the
///     code of the lowest-index failure. Runtime failures of individual
///     items never stop the rest of the batch.
template <typename T>
void batched_smm(T alpha, const std::vector<GemmBatchItem<T>>& items,
                 T beta, PlanCache& cache, int nworkers = 1,
                 const CancelToken* cancel = nullptr,
                 const SmmOptions* options = nullptr);

/// Per-item variant for coalesced dispatch (DESIGN.md §13): never throws
/// for item-level trouble — every item gets its own BatchItemStatus, so
/// a coalesced neighbor's failure or cancellation cannot poison its
/// siblings. Item i's validation failure (kBadShape), C aliasing an
/// earlier runnable item's C (kAlias), non-finite input when
/// `options->check_finite` (kNonFinite), per-item stop via `tokens`
/// (kCancelled/kDeadlineExceeded), and runtime faults all land in
/// statuses[i]; healthy items still run.
///
/// `options` selects the plan family (null = the cache's default-built
/// plans, the batched_smm keys); `tokens`, when non-null, must be
/// items.size() long (null entries = not cancellable) and each token is
/// consulted at its item's op boundaries, on the pack-once path too.
///
/// Plans are resolved once per distinct shape. Fast path: when every
/// runnable item shares one shape AND literally the same B view, B is
/// packed once into a PrepackedB handle replayed across the group
/// (health counter batched_prepack_reuse counts the items served this
/// way).
template <typename T>
std::vector<BatchItemStatus> batched_smm_each(
    T alpha, const std::vector<GemmBatchItem<T>>& items, T beta,
    PlanCache& cache, int nworkers = 1, const SmmOptions* options = nullptr,
    const std::vector<const CancelToken*>* tokens = nullptr);

/// Convenience: one shared PlanCache over the default reference SMM.
PlanCache& default_plan_cache();

}  // namespace smm::core
