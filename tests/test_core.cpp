// Reference SMM (Section IV): packing heuristic, kernel/parallel
// selection, and numerical correctness of every option combination.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <utility>
#include <variant>

#include "src/core/kernel_select.h"
#include "src/core/parallel_cost.h"
#include "src/core/parallel_select.h"
#include "src/core/plan_builder.h"
#include "src/plan/native_executor.h"
#include "src/core/smm.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/registry.h"
#include "tests/test_helpers.h"

namespace smm::core {
namespace {

TEST(DecidePacking, AutoFollowsP2C) {
  SmmOptions opt;
  // Small M: packing B cannot amortize (Section III-A).
  const PackingDecision small_m = decide_packing({8, 2048, 2048}, 4, opt);
  EXPECT_FALSE(small_m.pack_b);
  EXPECT_TRUE(small_m.edge_pack_b);
  // Large M *and* a B that spills past L2: packing pays.
  const PackingDecision big_m = decide_packing({512, 2048, 256}, 4, opt);
  EXPECT_TRUE(big_m.pack_b);
  EXPECT_FALSE(big_m.edge_pack_b);
  // SMM-sized B (fits the L2 outright) is never worth copying, even with
  // plenty of reuse — the truly "small" regime.
  EXPECT_FALSE(decide_packing({512, 200, 200}, 4, opt).pack_b);
  // SMM-sized A never packs; very large A does.
  EXPECT_FALSE(big_m.pack_a);
  EXPECT_TRUE(decide_packing({2048, 64, 2048}, 4, opt).pack_a);
}

TEST(DecidePacking, OverridesRespected) {
  SmmOptions opt;
  opt.pack_b = SmmOptions::Packing::kAlways;
  EXPECT_TRUE(decide_packing({8, 200, 200}, 4, opt).pack_b);
  opt.pack_b = SmmOptions::Packing::kNever;
  EXPECT_FALSE(decide_packing({512, 2048, 2048}, 4, opt).pack_b);
  opt.edge_pack = false;
  EXPECT_FALSE(decide_packing({8, 201, 200}, 4, opt).edge_pack_b);
}

TEST(KernelSelect, MultiplesPreferHighCmrCoveringTile) {
  // M=64 N=64: both 16x4 and 8x8 cover exactly; 8x8 wins on CMR (Eq. 5).
  const KernelChoice c = choose_main_tile({64, 64, 64});
  EXPECT_EQ(c.mr, 8);
  EXPECT_EQ(c.nr, 8);
  // 16x4 must win when N is not a multiple of 8.
  const KernelChoice c2 = choose_main_tile({64, 4, 64});
  EXPECT_EQ(c2.nr, 4);
}

TEST(KernelSelect, TwelveRowsPick12x4) {
  const KernelChoice c = choose_main_tile({12, 48, 48});
  EXPECT_EQ(c.mr, 12);
}

TEST(KernelSelect, TinyMAvoidsTallTile) {
  const KernelChoice c = choose_main_tile({4, 64, 64});
  EXPECT_LE(c.mr, 8);
}

TEST(KernelSelect, ScoreDiscountsEdges) {
  EXPECT_GT(tile_score({64, 64, 64}, 16, 4),
            tile_score({65, 64, 64}, 16, 4));
}

TEST(ParallelSelect, CapsThreadsByTiles) {
  // 16x16: 1x4 tiles of 16x4 -> 4 tiles -> 1 thread at min 4 tiles each.
  const ParallelChoice c = choose_parallel({16, 16, 64}, 64, 16, 4, 240,
                                           480);
  EXPECT_EQ(c.nthreads, 1);
  // Big problem: full 64 threads.
  const ParallelChoice big =
      choose_parallel({1024, 1024, 256}, 64, 16, 4, 240, 480);
  EXPECT_EQ(big.nthreads, 64);
}

TEST(ParallelSelect, PowerOfTwo) {
  const ParallelChoice c =
      choose_parallel({256, 256, 64}, 48, 16, 4, 240, 480);
  EXPECT_EQ(c.nthreads & (c.nthreads - 1), 0);
  EXPECT_LE(c.nthreads, 48);
}

// Every packing-option combination must stay numerically correct.
class SmmOptionsCorrectness
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SmmOptionsCorrectness, MatchesNaive) {
  const auto [pa, pb, edge] = GetParam();
  SmmOptions opt;
  opt.pack_a = static_cast<SmmOptions::Packing>(pa);
  opt.pack_b = static_cast<SmmOptions::Packing>(pb);
  opt.edge_pack = edge;
  for (const auto& [m, n, k] :
       {std::tuple<index_t, index_t, index_t>{33, 45, 29},
        std::tuple<index_t, index_t, index_t>{64, 61, 64},
        std::tuple<index_t, index_t, index_t>{7, 130, 40}}) {
    test::GemmProblem<float> prob(m, n, k, /*seed=*/pa * 100 + pb * 10 + m);
    prob.reference(1.25f, -0.5f);
    smm_gemm(1.25f, prob.a.cview(), prob.b.cview(), -0.5f, prob.c.view(),
             /*nthreads=*/1, opt);
    EXPECT_TRUE(prob.check())
        << "pack_a=" << pa << " pack_b=" << pb << " edge=" << edge << " "
        << m << "x" << n << "x" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Options, SmmOptionsCorrectness,
    ::testing::Combine(::testing::Values(0, 1, 2), ::testing::Values(0, 1, 2),
                       ::testing::Bool()),
    [](const auto& info) {
      return "pa" + std::to_string(std::get<0>(info.param)) + "_pb" +
             std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_edge" : "_noedge");
    });

TEST(SmmGemm, AdaptiveVsPinnedKernelBothCorrect) {
  SmmOptions pinned;
  pinned.adaptive_kernel = false;
  test::GemmProblem<float> prob(50, 50, 50, /*seed=*/8);
  prob.reference(1.0f, 0.0f);
  smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 0.0f, prob.c.view(), 1,
           pinned);
  EXPECT_TRUE(prob.check());
}

TEST(SmmGemm, ParallelAutoCap) {
  // Requesting 64 threads on a small problem must not crash or spawn an
  // unbalanced plan; result stays correct.
  test::GemmProblem<float> prob(48, 48, 48, /*seed=*/21);
  prob.reference(1.0f, 1.0f);
  smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 1.0f, prob.c.view(),
           /*nthreads=*/64);
  EXPECT_TRUE(prob.check());
}

TEST(ParallelSelect, DeepKShapesSplitK) {
  // (8, 8, 4096): 4 tiles of 16x4 -> tile parallelism is dead, but K can
  // feed 16 slices of >= 256.
  const ParallelChoice c =
      choose_parallel({8, 8, 4096}, 64, 16, 4, 240, 480);
  EXPECT_GT(c.k_parts, 1);
  EXPECT_EQ(c.nthreads, c.k_parts);
  // Plenty of tiles: no K split.
  const ParallelChoice wide =
      choose_parallel({1024, 1024, 4096}, 64, 16, 4, 240, 480);
  EXPECT_EQ(wide.k_parts, 1);
  // Deep K but tiny budget: stays sequential.
  const ParallelChoice seq = choose_parallel({8, 8, 4096}, 1, 16, 4, 240,
                                             480);
  EXPECT_EQ(seq.nthreads, 1);
}

class KSplitCorrectness : public ::testing::TestWithParam<int> {};

TEST_P(KSplitCorrectness, MatchesNaive) {
  const int parts = GetParam();
  BuildSpec spec;
  spec.mr = 16;
  spec.nr = 4;
  spec.k_parts = parts;
  spec.nthreads = parts;
  for (const auto& [m, n, k] :
       {std::tuple<index_t, index_t, index_t>{8, 8, 777},
        std::tuple<index_t, index_t, index_t>{17, 5, 1024},
        std::tuple<index_t, index_t, index_t>{3, 33, 512}}) {
    plan::GemmPlan p;
    p.strategy = "k-split";
    p.shape = {m, n, k};
    p.scalar = plan::ScalarType::kF32;
    build_smm_plan(p, spec);
    p.validate();
    EXPECT_EQ(p.nthreads, parts);
    test::GemmProblem<float> prob(m, n, k, /*seed=*/parts * 17 + m);
    prob.reference(1.5f, -0.25f);
    plan::execute_plan(p, 1.5f, prob.a.cview(), prob.b.cview(), -0.25f,
                       prob.c.view());
    EXPECT_TRUE(prob.check()) << parts << " parts, " << m << "x" << n
                               << "x" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Parts, KSplitCorrectness,
                         ::testing::Values(2, 4, 8),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

TEST(KSplit, BetaZeroDoesNotReadC) {
  BuildSpec spec;
  spec.k_parts = 4;
  spec.nthreads = 4;
  plan::GemmPlan p;
  p.strategy = "k-split";
  p.shape = {8, 8, 512};
  p.scalar = plan::ScalarType::kF32;
  build_smm_plan(p, spec);
  test::GemmProblem<float> prob(8, 8, 512, /*seed=*/9);
  prob.c.fill(std::numeric_limits<float>::quiet_NaN());
  prob.c_expected.fill(0.0f);
  prob.reference(1.0f, 0.0f);
  plan::execute_plan(p, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                     prob.c.view());
  EXPECT_TRUE(prob.check());
}

TEST(KSplit, DeepKDefaultSpecSplitsK) {
  // The reference SMM's own spec for a deep-K shape at 8 threads is a K
  // split: an 8x8 output has too few tiles to feed 8 threads; K does.
  const BuildSpec spec = default_build_spec({8, 8, 4096},
                                            plan::ScalarType::kF32, 8, {});
  EXPECT_GT(spec.k_parts, 1);
  EXPECT_EQ(spec.nthreads, spec.k_parts);
}

TEST(KSplit, EndToEndThroughSmmGemm) {
  // The auto path must route (8, 8, 4096) x 8 threads through the K
  // split and stay correct.
  test::GemmProblem<float> prob(8, 8, 4096, /*seed=*/77);
  prob.reference(1.0f, 1.0f);
  smm_gemm(1.0f, prob.a.cview(), prob.b.cview(), 1.0f, prob.c.view(),
           /*nthreads=*/8);
  EXPECT_TRUE(prob.check());
}

// perfbench's warm_tiny and compute_mid shapes (perfbench/src/workloads.cpp).
constexpr GemmShape kPerfbenchShapes[] = {
    {2, 2, 2},       {4, 4, 4},       {5, 5, 5},      {8, 8, 8},
    {12, 12, 12},    {16, 16, 16},    {20, 20, 20},   {24, 24, 24},
    {7, 9, 11},      {13, 5, 17},     {23, 19, 21},   {9, 24, 6},
    {17, 3, 22},     {11, 14, 3},     {24, 24, 2},    {24, 2, 24},
    {2, 24, 24},     {20, 20, 4},     {4, 20, 20},    {20, 4, 20},
    {24, 3, 16},     {3, 24, 16},     {16, 16, 3},    {6, 18, 10},
    {48, 48, 48},    {64, 64, 64},    {96, 96, 96},   {128, 128, 128},
    {160, 160, 160}, {192, 192, 192}, {8, 256, 128},  {200, 8, 160},
    {4, 192, 256},   {128, 128, 8},   {256, 192, 12}, {160, 224, 16}};

TEST(DefaultBuildSpec, OneThreadPlanIgnoresScaling) {
  // A one-thread budget leaves only the serial choice, so the measured
  // path skips the cost model (and its one-time calibration). Guard the
  // skip: the model, had it been consulted, picks what the static
  // heuristic picks.
  SmmOptions measured, fixed;
  measured.thread_scaling = SmmOptions::ThreadScaling::kMeasured;
  fixed.thread_scaling = SmmOptions::ThreadScaling::kStatic;
  const model::ParallelCostModel& cost = calibrated_cost_model();
  for (const GemmShape& shape : kPerfbenchShapes) {
    for (const auto scalar : {plan::ScalarType::kF32, plan::ScalarType::kF64}) {
      SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n << "x"
                                      << shape.k);
      const BuildSpec s = default_build_spec(shape, scalar, 1, fixed);
      const auto expect_static = [&s](int nthreads, int k_parts,
                                      par::Ways ways) {
        EXPECT_EQ(nthreads, s.nthreads);
        EXPECT_EQ(k_parts, s.k_parts);
        EXPECT_EQ(ways.jc, s.ways.jc);
        EXPECT_EQ(ways.ic, s.ways.ic);
        EXPECT_EQ(ways.jr, s.ways.jr);
        EXPECT_EQ(ways.ir, s.ways.ir);
      };
      const BuildSpec m = default_build_spec(shape, scalar, 1, measured);
      expect_static(m.nthreads, m.k_parts, m.ways);
      const ParallelChoice priced = choose_parallel(
          shape, 1, s.mr, s.nr, s.mc, s.nc, 4, &cost, s.kc);
      expect_static(priced.nthreads, priced.k_parts, priced.ways);
    }
  }
}

// Op counts of the plan `spec` builds for `shape`.
struct PlanCensus {
  int packs = 0;
  int barriers = 0;
  int kernels = 0;
  int host_kernels = 0;
};

PlanCensus census(GemmShape shape, plan::ScalarType scalar,
                  const BuildSpec& spec) {
  plan::GemmPlan p;
  p.strategy = "census";
  p.shape = shape;
  p.scalar = scalar;
  build_smm_plan(p, spec);
  p.validate();
  PlanCensus out;
  const auto& reg = kern::KernelRegistry::instance();
  for (const auto& ops : p.thread_ops) {
    for (const auto& op : ops) {
      if (std::holds_alternative<plan::PackAOp>(op) ||
          std::holds_alternative<plan::PackBOp>(op))
        ++out.packs;
      if (std::holds_alternative<plan::BarrierOp>(op)) ++out.barriers;
      if (const auto* k = std::get_if<plan::KernelOp>(&op)) {
        ++out.kernels;
        if (reg.info(k->kernel).family == "host") ++out.host_kernels;
      }
    }
  }
  return out;
}

TEST(DefaultBuildSpec, StaticAndOneThreadSpecsKeepTheArmTile) {
  // Host-width scoring and the host kernel family touch only measured
  // multi-thread plans: over warm_tiny's and compute_mid's shapes and
  // every serve_shared_b class (m, n, k in 4..40 step 4), the simulator's
  // (kStatic) specs and one-thread specs keep choose_main_tile's tile,
  // blocking and the split it prices, and their plans run no host-family
  // kernel.
  std::vector<GemmShape> shapes(std::begin(kPerfbenchShapes),
                                std::end(kPerfbenchShapes));
  for (index_t m = 4; m <= 40; m += 4)
    for (index_t n = 4; n <= 40; n += 4)
      for (index_t k = 4; k <= 40; k += 4) shapes.push_back({m, n, k});
  SmmOptions measured, fixed;
  measured.thread_scaling = SmmOptions::ThreadScaling::kMeasured;
  fixed.thread_scaling = SmmOptions::ThreadScaling::kStatic;
  for (const GemmShape& shape : shapes) {
    for (const auto scalar : {plan::ScalarType::kF32, plan::ScalarType::kF64}) {
      SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n << "x"
                                      << shape.k);
      const KernelChoice arm = choose_main_tile(shape);
      const auto keeps_arm_plan = [&](const BuildSpec& s) {
        EXPECT_FALSE(s.host_tiles);
        EXPECT_EQ(s.mr, arm.mr);
        EXPECT_EQ(s.nr, arm.nr);
        EXPECT_EQ(s.mc, kSmmMc);
        EXPECT_EQ(census(shape, scalar, s).host_kernels, 0);
      };
      for (const int threads : {1, 2, 8}) {
        const BuildSpec s = default_build_spec(shape, scalar, threads, fixed);
        keeps_arm_plan(s);
        const ParallelChoice p = choose_parallel(shape, threads, arm.mr,
                                                 arm.nr, s.mc, s.nc, 4,
                                                 nullptr, s.kc);
        EXPECT_EQ(s.nthreads, p.nthreads);
        EXPECT_EQ(s.k_parts, p.k_parts);
      }
      const BuildSpec one = default_build_spec(shape, scalar, 1, measured);
      keeps_arm_plan(one);
      EXPECT_EQ(one.nthreads, 1);
    }
  }
}

TEST(DefaultBuildSpec, HostTileFillsTheHostVectorOnPackedCubes) {
  // Scored at 512 bits, every f32 cube picks the tile whose clone runs
  // 512 bits; f64 keeps 8x8, already a 512-bit clone. Host-independent.
  for (const index_t n : {48, 64, 96, 128, 160, 192}) {
    const GemmShape cube{n, n, n};
    const KernelChoice f32 = choose_host_tile(cube, 4, 512);
    EXPECT_EQ(kern::tile_vector_bits<float>(static_cast<int>(f32.mr), 512),
              512)
        << n << "^3 f32 took " << f32.mr << "x" << f32.nr;
    const KernelChoice f64 = choose_host_tile(cube, 8, 512);
    EXPECT_EQ(f64.mr, choose_main_tile(cube).mr);
    EXPECT_EQ(f64.nr, choose_main_tile(cube).nr);
  }
  // A tile taller than M is weighted by the edge tile that runs instead.
  const KernelChoice thin = choose_host_tile({4, 192, 256}, 4, 512);
  EXPECT_EQ(thin.mr, choose_main_tile({4, 192, 256}).mr);
}

TEST(DefaultBuildSpec, TwoThreadCubesRunTheHostWidthTileOnAvx512) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no 512-bit clone to score for";
  SmmOptions measured;
  measured.thread_scaling = SmmOptions::ThreadScaling::kMeasured;
  for (const GemmShape& shape : kPerfbenchShapes) {
    if (shape.m != shape.n || shape.n != shape.k) continue;
    const BuildSpec s =
        default_build_spec(shape, plan::ScalarType::kF32, 2, measured);
    // Only a spec that runs on two threads takes a host tile; the
    // calibrated cost model may keep a small cube serial.
    if (s.nthreads < 2 || s.k_parts != 1) continue;
    EXPECT_EQ(kern::tile_vector_bits<float>(static_cast<int>(s.mr), 512),
              kern::host_vector_bits())
        << shape.m << "^3 runs " << s.mr << "x" << s.nr;
  }
}

TEST(DefaultBuildSpec, TwoThreadSkinnyPlansReadOperandsDirectlyOnAvx512) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family plans";
  SmmOptions measured;
  measured.thread_scaling = SmmOptions::ThreadScaling::kMeasured;
  // compute_mid's "one dimension much smaller" shapes: B read by at most
  // 8 rows, or A by one column panel, and every operand L2-resident, so
  // nothing is packed and nothing needs a barrier.
  for (const GemmShape shape :
       {GemmShape{8, 256, 128}, GemmShape{200, 8, 160},
        GemmShape{4, 192, 256}}) {
    for (const auto scalar : {plan::ScalarType::kF32, plan::ScalarType::kF64}) {
      SCOPED_TRACE(testing::Message() << shape.m << "x" << shape.n << "x"
                                      << shape.k);
      const BuildSpec s = default_build_spec(shape, scalar, 2, measured);
      // The calibrated cost model may keep a shape serial on a slow host.
      if (s.nthreads < 2) continue;
      EXPECT_TRUE(s.host_tiles);
      EXPECT_FALSE(s.pack_a);
      EXPECT_FALSE(s.pack_b);
      const PlanCensus c = census(shape, scalar, s);
      EXPECT_EQ(c.packs, 0);
      EXPECT_EQ(c.barriers, 0);
      EXPECT_GT(c.kernels, 0);
      EXPECT_EQ(c.host_kernels, c.kernels);
    }
  }
}

// The tiles the default one-thread plan for `shape` runs; fails if one of
// them runs the runtime-bound scalar kernel or a masked update.
template <typename T>
void collect_tiles(GemmShape shape, std::set<std::pair<int, int>>& tiles) {
  const auto scalar = sizeof(T) == 4 ? plan::ScalarType::kF32
                                     : plan::ScalarType::kF64;
  const auto plan = cached_smm_plan(smm_plan_cache(), shape, scalar, 1, {});
  const auto& reg = kern::KernelRegistry::instance();
  for (const auto& ops : plan->thread_ops) {
    for (const auto& op : ops) {
      const auto* k = std::get_if<plan::KernelOp>(&op);
      if (k == nullptr) continue;
      const kern::KernelInfo& info = reg.info(k->kernel);
      EXPECT_EQ(k->useful_m, info.mr) << info.name;
      EXPECT_EQ(k->useful_n, info.nr) << info.name;
      EXPECT_NE(kern::kernel_fn<T>(k->kernel), &kern::generic_microkernel<T>)
          << info.name;
      tiles.insert({info.mr, info.nr});
    }
  }
}

// Default smm_gemm over the edge lattice m, n in 1..21 and k in
// {1, 2, 7, 24}, on operands whose leading dimensions exceed their row
// counts: every result is within the forward-error bound of a wider-type
// reference, beta == 0 never reads the NaN-filled C, and the padding past
// each view stays untouched. The plans run every chunk pair of
// {16, 12, 8, 4, 2, 1} x {4, 2, 1}, each through a compile-time kernel.
template <typename T>
void check_edge_lattice() {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const T alpha = T(0.75);
  const index_t pad = 3;
  std::set<std::pair<int, int>> tiles;
  for (index_t k : {1, 2, 7, 24}) {
    for (index_t m = 1; m <= 21; ++m) {
      for (index_t n = 1; n <= 21; ++n) {
        Rng rng(static_cast<std::uint64_t>(k * 10000 + m * 100 + n));
        Matrix<T> a(m + pad, k), b(k + pad, n), c_init(m + pad, n);
        a.fill_random(rng);
        b.fill_random(rng);
        c_init.fill_random(rng);
        const auto a_view = a.cview().block(0, 0, m, k);
        const auto b_view = b.cview().block(0, 0, k, n);
        for (T beta : {T(0), T(1), T(-0.5)}) {
          SCOPED_TRACE(::testing::Message()
                       << m << "x" << n << "x" << k << " f" << 8 * sizeof(T)
                       << " beta=" << beta);
          Matrix<T> c = c_init.clone();
          if (beta == T(0)) c.fill(nan);
          const Matrix<T> before = c.clone();
          smm_gemm(alpha, a_view, b_view, beta, c.view().block(0, 0, m, n));
          for (index_t j = 0; j < n; ++j) {
            for (index_t i = 0; i < m + pad; ++i) {
              if (i < m) {
                ASSERT_FALSE(std::isnan(c(i, j))) << i << ", " << j;
              } else {
                ASSERT_EQ(std::memcmp(&c(i, j), &before(i, j), sizeof(T)), 0)
                    << "padding at " << i << ", " << j;
              }
            }
          }
          ASSERT_TRUE(test::within_forward_error_bound(
              alpha, a_view, b_view, beta, before.cview().block(0, 0, m, n),
              c.cview().block(0, 0, m, n)));
        }
        collect_tiles<T>(GemmShape{m, n, k}, tiles);
      }
    }
  }
  for (int mr : {16, 12, 8, 4, 2, 1})
    for (int nr : {4, 2, 1})
      EXPECT_TRUE(tiles.count({mr, nr})) << mr << "x" << nr << " never ran";
}

TEST(SmmGemm, EdgeLatticeMatchesNaiveF32) { check_edge_lattice<float>(); }

TEST(SmmGemm, EdgeLatticeMatchesNaiveF64) { check_edge_lattice<double>(); }

}  // namespace
}  // namespace smm::core
