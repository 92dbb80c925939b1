// Host calibration of the parallel runtime cost model.
//
// The static min_tiles_per_thread heuristic cannot see what a dispatch
// or a barrier actually costs on the machine it runs on — which is the
// whole reason the paper's Table II breakdown exists. This module
// measures the four ParallelCostModel constants once per process so
// choose_parallel can price candidates in predicted wall-clock on *this*
// host. Every constant follows one sampling rule: one untimed warm call,
// then N calls timed one at a time, keeping the fastest — 5 runs of a
// single-thread 48^3 plan for flop_ns, 5 pack_b calls for
// pack_ns_per_elem, 16 empty 2-thread regions for dispatch_ns, and 5
// samples of 64 two-thread barrier rounds, timed inside one region, for
// barrier_ns. That is 23 pool regions and 0.5-1 ms on a 4-vCPU x86-64
// VM, most of it the 48^3 runs.
#pragma once

#include "src/model/parallel_runtime.h"

namespace smm::core {

/// Measure this host's cost model now, uncached: what
/// calibrated_cost_model() below runs once. Any individual measurement that fails (e.g. an
/// injected fault fires mid-calibration) falls back to the corresponding
/// reference_cost_model() constant; hw_threads always reflects
/// native_threads_available() and `measured` is always true.
model::ParallelCostModel measure_cost_model();

/// This host's cost model, measured on first call and cached for the
/// process lifetime (thread-safe): measure_cost_model() runs at most
/// once, so a reading taken under load stays pinned.
const model::ParallelCostModel& calibrated_cost_model();

}  // namespace smm::core
