// Simulator-guided autotuning: search the reference SMM's plan space
// (tile, blocking, packing) for one shape using the machine model as the
// objective — the empirical complement to the paper's closed-form
// selection rules (Eqs. 4-5 bound the space; the pricer ranks inside it).
// The same loop on real hardware would time plans instead; everything
// else is identical, which is the point of the plan/price split.
#pragma once

#include <optional>
#include <vector>

#include "src/core/kernel_select.h"
#include "src/core/plan_builder.h"
#include "src/sim/machine.h"

namespace smm::core {

/// The search space. Defaults cover the register-feasible main tiles and
/// the cache-plausible blockings; all candidates are validated plans.
struct TuneSpace {
  std::vector<std::pair<index_t, index_t>> tiles = smm_main_tiles();
  std::vector<index_t> kc_values{128, 256, 512};
  /// Packing-B choices to try (A follows the footprint heuristic).
  std::vector<bool> pack_b_choices{false, true};
};

struct TuneResult {
  BuildSpec best;
  double best_cycles = 0.0;
  double default_cycles = 0.0;  ///< the un-tuned reference SMM plan
  int evaluated = 0;

  [[nodiscard]] double speedup() const {
    return best_cycles > 0.0 ? default_cycles / best_cycles : 1.0;
  }
};

/// The spec of one alternate-tile candidate: the reference blocking
/// (kSmmMc, kSmmNc) with the given tile, kc and packing, edge-packing B
/// exactly when B is not packed, and the static parallel choice for
/// `nthreads`. Empty when that choice is a cooperative multi-thread plan
/// without K parts and without packed B: such plans need shared packed
/// buffers, so the candidate is skipped rather than built. autotune and
/// the online tuner both draw their tile candidates from here.
std::optional<BuildSpec> tile_candidate(GemmShape shape, int nthreads,
                                        index_t mr, index_t nr, index_t kc,
                                        bool pack_a, bool pack_b);

/// Exhaustively price the space for one (shape, scalar, nthreads) and
/// return the best spec. Deterministic; cost is |space| plan builds +
/// pricings (memoized kernel timings keep repeats cheap).
TuneResult autotune(GemmShape shape, plan::ScalarType scalar, int nthreads,
                    const sim::MachineConfig& machine,
                    const TuneSpace& space = {});

/// Build + validate the plan for a tuned spec (convenience for executing
/// a TuneResult natively).
plan::GemmPlan build_tuned_plan(GemmShape shape, plan::ScalarType scalar,
                                const BuildSpec& spec);

}  // namespace smm::core
