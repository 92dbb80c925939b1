// Golden-number regression tests: simulated efficiencies for a spread of
// representative configurations, pinned to the calibrated model within a
// relative tolerance. Any change to schedules, the pipeline model, the
// residency rules or the cost constants that moves a headline result
// shows up here first (the calibration tests check *orderings*; these
// check *values*).
//
// If a deliberate model improvement moves these numbers, re-run
// `bench/sim_explore` for the affected rows and update the table together
// with EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "src/core/smm.h"
#include "src/libs/blasfeo_like/gemm_blasfeo_like.h"
#include "src/libs/blis_like/gemm_blis_like.h"
#include "src/libs/eigen_like/gemm_eigen_like.h"
#include "src/libs/openblas_like/gemm_openblas_like.h"
#include "src/sim/exec/pricer.h"

namespace smm::sim {
namespace {

struct Golden {
  const char* strategy;
  index_t m, n, k;
  int threads;
  double efficiency;  // expected, +-5% relative
};

// Without this, gtest prints a Golden as a raw byte dump, and the bytes of
// `strategy` are an address that moves from run to run. The printed value
// ends up in the discovered CTest names, so it must be deterministic.
void PrintTo(const Golden& g, std::ostream* os) {
  *os << "efficiency " << g.efficiency;
}

// Captured from the calibrated model (see EXPERIMENTS.md for the paper
// values these reproduce in shape).
const Golden kGolden[] = {
    {"blasfeo", 100, 100, 100, 1, 0.946},
    {"blasfeo", 200, 200, 200, 1, 0.966},
    {"openblas", 100, 100, 100, 1, 0.878},
    {"openblas", 200, 200, 200, 1, 0.902},
    {"blis", 100, 100, 100, 1, 0.828},
    {"eigen", 200, 200, 200, 1, 0.481},
    {"smm-ref", 100, 100, 100, 1, 0.899},
    {"openblas", 8, 200, 200, 1, 0.499},
    {"smm-ref", 8, 200, 200, 1, 0.751},
    {"blis", 16, 2048, 2048, 64, 0.289},
    {"blis", 128, 2048, 2048, 64, 0.607},
    {"blis", 256, 2048, 2048, 64, 0.689},
    {"openblas", 128, 2048, 2048, 64, 0.056},
    {"eigen", 128, 2048, 2048, 64, 0.260},
};

const libs::GemmStrategy* by_name(const std::string& name) {
  if (name == "openblas") return &libs::openblas_like();
  if (name == "blis") return &libs::blis_like();
  if (name == "blasfeo") return &libs::blasfeo_like();
  if (name == "eigen") return &libs::eigen_like();
  return &core::reference_smm();
}

class GoldenEfficiency : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEfficiency, WithinTolerance) {
  const Golden& g = GetParam();
  static PlanPricer pricer(phytium2000p());
  const auto r = simulate_strategy(*by_name(g.strategy),
                                   {g.m, g.n, g.k}, plan::ScalarType::kF32,
                                   g.threads, pricer);
  const double eff = r.efficiency(pricer.machine());
  EXPECT_NEAR(eff, g.efficiency, 0.05 * g.efficiency + 0.005)
      << g.strategy << " " << g.m << "x" << g.n << "x" << g.k << " t"
      << g.threads;
}

INSTANTIATE_TEST_SUITE_P(
    Model, GoldenEfficiency, ::testing::ValuesIn(kGolden),
    [](const auto& info) {
      const Golden& g = info.param;
      std::string name = g.strategy;
      for (auto& ch : name)
        if (ch == '-') ch = '_';
      return name + "_" + std::to_string(g.m) + "x" + std::to_string(g.n) +
             "x" + std::to_string(g.k) + "_t" + std::to_string(g.threads);
    });

}  // namespace
}  // namespace smm::sim
