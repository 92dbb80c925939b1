#include "src/core/autotune.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/core/parallel_select.h"
#include "src/core/smm.h"
#include "src/sim/exec/pricer.h"

namespace smm::core {

plan::GemmPlan build_tuned_plan(GemmShape shape, plan::ScalarType scalar,
                                const BuildSpec& spec) {
  plan::GemmPlan plan;
  plan.strategy = "smm-tuned";
  plan.shape = shape;
  plan.scalar = scalar;
  build_smm_plan(plan, spec);
  plan.validate();
  return plan;
}

std::optional<BuildSpec> tile_candidate(GemmShape shape, int nthreads,
                                        index_t mr, index_t nr, index_t kc,
                                        bool pack_a, bool pack_b) {
  BuildSpec spec;
  spec.mr = mr;
  spec.nr = nr;
  spec.kc = kc;
  spec.mc = kSmmMc;
  spec.nc = kSmmNc;
  spec.pack_a = pack_a;
  spec.pack_b = pack_b;
  spec.edge_pack_b = !pack_b;
  const ParallelChoice par_choice = choose_parallel(
      shape, std::max(1, nthreads), mr, nr, spec.mc, spec.nc);
  spec.nthreads = par_choice.nthreads;
  spec.ways = par_choice.ways;
  spec.k_parts = par_choice.k_parts;
  // Cooperative multi-thread plans require packing (shared buffers).
  if (spec.nthreads > 1 && spec.k_parts == 1 && !pack_b) return std::nullopt;
  return spec;
}

TuneResult autotune(GemmShape shape, plan::ScalarType scalar, int nthreads,
                    const sim::MachineConfig& machine,
                    const TuneSpace& space) {
  SMM_EXPECT_CODE(shape.valid() && shape.m > 0 && shape.n > 0 &&
                      shape.k > 0,
                  ErrorCode::kBadShape,
                  "autotune needs a non-degenerate shape");
  SMM_EXPECT(nthreads >= 1, "autotune needs at least one thread");
  SMM_EXPECT(!space.tiles.empty() && !space.kc_values.empty() &&
                 !space.pack_b_choices.empty(),
             "autotune space must not be empty");
  sim::PlanPricer pricer(machine);
  TuneResult result;

  // Baseline: whatever the heuristic reference SMM would do.
  result.default_cycles =
      pricer.price(reference_smm().make_plan(shape, scalar, nthreads))
          .makespan_cycles;

  result.best_cycles = -1.0;
  const bool pack_a =
      decide_packing(shape, plan::elem_bytes(scalar), {}).pack_a;
  for (const auto& [mr, nr] : space.tiles) {
    for (const index_t kc : space.kc_values) {
      for (const bool pack_b : space.pack_b_choices) {
        const std::optional<BuildSpec> spec =
            tile_candidate(shape, nthreads, mr, nr, kc, pack_a, pack_b);
        if (!spec) continue;
        const plan::GemmPlan plan = build_tuned_plan(shape, scalar, *spec);
        const double cycles = pricer.price(plan).makespan_cycles;
        ++result.evaluated;
        if (result.best_cycles < 0.0 || cycles < result.best_cycles) {
          result.best_cycles = cycles;
          result.best = *spec;
        }
      }
    }
  }
  SMM_EXPECT(result.evaluated > 0, "autotune space was empty");
  return result;
}

}  // namespace smm::core
