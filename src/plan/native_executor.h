// Native plan execution: runs a GemmPlan against real matrices, producing
// C = alpha * A * B + beta * C. This is the correctness path — every
// strategy's plan is executed through here in the test suite, and the
// examples use it via the strategy convenience wrappers.
//
// Scratch comes from the calling thread's ExecScratch arena (zero heap
// allocations once warm); repeated-B callers can additionally hoist the
// B-packing work out of the call entirely with PrepackedB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/aligned_buffer.h"
#include "src/common/cancel.h"
#include "src/matrix/view.h"
#include "src/plan/plan.h"
#include "src/plan/plan_stats.h"

namespace smm::plan {

/// Execute `plan` (built for exactly these shapes/layouts). Spawns
/// plan.nthreads bodies on the persistent worker pool when the plan is
/// parallel. Throws smm::Error on shape mismatch.
///
/// Cancellation (DESIGN.md §11): `cancel` may be null, and a null or
/// default (invalid) token is inert, so callers pass whatever token they
/// hold without checking it. A live token is consulted by every thread
/// at op boundaries — the cancelled flag each op, the deadline clock on
/// a stride — and the call unwinds with kCancelled / kDeadlineExceeded.
/// A token observed before the first op leaves C untouched; a mid-plan
/// stop may leave C partially updated (serving callers that need
/// pristine-C semantics wrap the call in robust::GuardedExecutor, whose
/// snapshot restore already provides them). On parallel plans the
/// failure hook poisons the plan barriers, so peers blocked in a barrier
/// unwind instead of waiting for the cancelled body.
template <typename T>
void execute_plan(const GemmPlan& plan, T alpha, ConstMatrixView<T> a,
                  ConstMatrixView<T> b, T beta, MatrixView<T> c,
                  const CancelToken* cancel = nullptr);

/// execute_plan with a measured per-thread wall-clock breakdown in the
/// Table II categories (pack / kernel / barrier / other). `timings` is
/// resized to plan.nthreads and overwritten. Each op is bracketed by two
/// clock reads, so per-call overhead is higher than execute_plan — this
/// is the diagnosis path (table2_breakdown, ablate_parallel_v2), not the
/// production one. Note the tuner does NOT sample through this path —
/// per-op instrumentation inflates small-shape wall times (smm.cpp); its
/// samples bracket the plain executor instead. `cancel` behaves as in execute_plan; on a
/// cancel unwind `timings` holds the partial breakdown, which callers
/// must discard — a cancelled call is not a cost observation.
template <typename T>
void execute_plan_timed(const GemmPlan& plan, T alpha, ConstMatrixView<T> a,
                        ConstMatrixView<T> b, T beta, MatrixView<T> c,
                        std::vector<ThreadTiming>& timings,
                        const CancelToken* cancel = nullptr);

/// B packed once, replayed many times — the batch/inference idiom (and
/// IAAT's amortization argument): when one B multiplies a stream of As,
/// the per-call PackB cost that Table II shows dominating small-M GEMM
/// is paid once here and every run() skips it.
///
/// A plan buffer is materialized when it is written exclusively by
/// B-side ops (PackBOp / B ConvertOp) whose written regions are pairwise
/// disjoint — i.e. B is packed once per call, not re-packed per
/// (kk, jj) block. Plans that re-use a pack buffer across blocks (K or N
/// beyond one cache block) replay unchanged instead: run() is then
/// exactly execute_plan, never wrong, just not faster. materialized()
/// reports which case this handle is.
///
/// The handle borrows `b` (direct-B tiles and non-materialized packs
/// still read it): the caller keeps B's storage alive and unmodified for
/// the life of the handle.
///
/// Sealed storage (DESIGN.md §12): each materialized buffer carries a
/// content checksum computed at pack time. While the process integrity
/// mode is on, run() re-derives the checksums before executing; a
/// mismatch means the packed bytes rotted after they were blessed, and
/// the buffer is repacked from the borrowed B (and re-verified) instead
/// of being fed to the kernels. set_repair(false) turns auto-repack into
/// a kCacheCorrupted throw. Validation+repair+execution are serialized
/// per handle (a repack must not swap bytes under a concurrent
/// executor) — callers wanting uncontended concurrency use one handle
/// per stream, or SMMKIT_ABFT=off.
template <typename T>
class PrepackedB {
 public:
  /// Pack B's blocks for `plan` once. Throws kBadShape when b does not
  /// match the plan.
  PrepackedB(std::shared_ptr<const GemmPlan> plan, ConstMatrixView<T> b);

  /// C = alpha * A * B + beta * C, skipping the materialized B packs.
  /// `cancel` (may be null) stops the run at op boundaries exactly as in
  /// execute_plan.
  void run(T alpha, ConstMatrixView<T> a, T beta, MatrixView<T> c,
           const CancelToken* cancel = nullptr) const;

  /// True when at least one plan buffer is served from the handle (the
  /// fast case). False falls back to full per-call execution.
  [[nodiscard]] bool materialized() const { return materialized_; }
  [[nodiscard]] const GemmPlan& plan() const { return *plan_; }

  /// Seal-mismatch policy: true (default) repacks the rotted buffer from
  /// the borrowed B; false makes run() throw kCacheCorrupted instead.
  void set_repair(bool repair) { repair_ = repair; }

  /// Test hook: flip one storage element of the first materialized
  /// buffer (what a real bit flip in cached packed state looks like).
  /// Returns false when nothing is materialized.
  bool corrupt_storage_for_test();

  /// Executor plumbing: whether plan buffer `i` is served by this handle,
  /// and (if so) its packed contents.
  [[nodiscard]] bool serves_buffer(std::size_t i) const {
    return i < is_prepacked_.size() && is_prepacked_[i];
  }
  [[nodiscard]] const T* prepacked_data(std::size_t i) const {
    return storage_[i].data();
  }

 private:
  /// Allocation failure mid-materialization (injected or real memory
  /// pressure): drop to the non-materialized mode — correct, just the
  /// per-call packing cost comes back.
  void degrade_to_unmaterialized();

  /// Re-run the pack/convert ops that own buffer i into its storage.
  void repack_buffer(std::size_t i) const;
  /// Checksum every materialized buffer against its seal; repack (or
  /// throw) on mismatch. Caller holds integrity_mu_.
  void validate_storage_locked() const;

  std::shared_ptr<const GemmPlan> plan_;
  ConstMatrixView<T> b_;
  /// is_prepacked_[i] <=> storage_[i] holds buffer i's packed contents.
  std::vector<bool> is_prepacked_;
  /// mutable: validated (and possibly repacked in place) from const
  /// run(), under integrity_mu_.
  mutable std::vector<AlignedBuffer<T>> storage_;
  /// Content checksum of each materialized buffer, sealed at pack time.
  std::vector<std::uint64_t> seals_;
  /// unique_ptr keeps the handle movable (smm_prepack_b returns by
  /// value); run() is const, hence the pointer-to-mutex is enough.
  std::unique_ptr<std::mutex> integrity_mu_;
  bool materialized_ = false;
  bool repair_ = true;
};

}  // namespace smm::plan
