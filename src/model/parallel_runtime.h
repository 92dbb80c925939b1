// Run-time cost model of the parallel execution path.
//
// The paper's Table II decomposes multi-threaded SMM into Kernel / PackA /
// PackB / Sync and shows the fixed per-call costs dominating small shapes;
// equations.h models the arithmetic side (loads, FMAs, P2C). This module
// adds the runtime side: given four measured constants — ns per flop, ns
// per packed element, ns per barrier crossing, ns per fork-join dispatch —
// it predicts the wall clock of one SMM call under a candidate
// parallelization, mirroring exactly what build_smm_plan would emit
// (cooperative packing split across group participants, barrier crossings
// per kk/ii step, 1-participant groups elided, K-split slab reduction).
//
// choose_parallel feeds these predictions with host-calibrated constants
// (core/parallel_cost.h) so the thread count is picked from predicted
// wall-clock instead of a static tile heuristic; tests feed
// reference_cost_model() so decisions stay deterministic.
#pragma once

#include "src/common/types.h"
#include "src/threading/partition.h"

namespace smm::model {

/// Measured (or reference) runtime constants of one host.
struct ParallelCostModel {
  /// Sustained ns per useful flop of a warm single-thread SMM call
  /// (end-to-end: includes whatever packing the serial path does).
  double flop_ns = 0.03;
  /// ns per element copied by pack_a/pack_b.
  double pack_ns_per_elem = 0.5;
  /// ns one 2-participant barrier round costs (spin-resolved).
  double barrier_ns = 800.0;
  /// ns to launch + join one fork-join region on the worker pool.
  double dispatch_ns = 2000.0;
  /// Concurrency the host actually delivers; threads beyond this
  /// timeshare cores instead of adding speedup.
  int hw_threads = 64;
  /// True when calibrated on this host (false: reference constants).
  bool measured = false;
};

/// Deterministic constants shaped after the paper's FT-2000+ (64 cores,
/// 2.25 GHz, 16 sp flops/cycle/core): golden-decision tests and docs.
ParallelCostModel reference_cost_model();

/// Predicted wall-clock ns of one SMM call:
///  - nthreads == 1, k_parts == 1: serial (flops * flop_ns, nothing else);
///  - k_parts > 1: K-split — private slabs, one full barrier, reduction;
///  - otherwise: the multi-dimensional ways path — cooperative packing
///    (A~ packed once per jc group, B~ disjoint per jc group) plus the
///    barrier crossings build_ways_parallel emits (none for groups of 1).
/// Blocking (mr..nc) must match what the plan builder will use.
double predict_parallel_ns(const ParallelCostModel& m, GemmShape shape,
                           int nthreads, int k_parts, par::Ways ways,
                           index_t mr, index_t nr, index_t mc, index_t kc,
                           index_t nc);

/// ns one crossing of a `participants`-wide barrier costs under the
/// model: log2-depth propagation, inflated when the barrier is wider
/// than the host's concurrency (parked waiters context-switch per
/// round). 1-participant barriers are free — the builders elide them.
double barrier_crossing_ns(const ParallelCostModel& m, int participants);

}  // namespace smm::model
