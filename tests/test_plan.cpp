// Plan structure: validation, stats, chunking helpers and the native
// executor on hand-crafted plans.
#include <gtest/gtest.h>

#include "src/libs/goto_common.h"
#include "src/libs/openblas_like/gemm_openblas_like.h"
#include "src/libs/blis_like/gemm_blis_like.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan.h"
#include "src/plan/plan_stats.h"
#include "tests/test_helpers.h"

namespace smm::plan {
namespace {

using libs::Chunk;
using libs::EdgeStrategy;

TEST(ChunkDim, EdgeKernelDecomposition) {
  const auto chunks = libs::chunk_dim(75, 16, EdgeStrategy::kEdgeKernels,
                                      {16, 8, 4, 2, 1});
  // 4 full 16s then 8 + 2 + 1 — the paper's Section III-B example.
  ASSERT_EQ(chunks.size(), 7u);
  EXPECT_EQ(chunks[3].tile, 16);
  EXPECT_EQ(chunks[4].tile, 8);
  EXPECT_EQ(chunks[5].tile, 2);
  EXPECT_EQ(chunks[6].tile, 1);
  EXPECT_EQ(chunks[6].offset, 74);
  for (const auto& c : chunks) EXPECT_EQ(c.tile, c.useful);
}

TEST(ChunkDim, PaddingKeepsFullTiles) {
  const auto chunks =
      libs::chunk_dim(75, 8, EdgeStrategy::kPadding, {});
  ASSERT_EQ(chunks.size(), 10u);
  EXPECT_EQ(chunks[9].tile, 8);
  EXPECT_EQ(chunks[9].useful, 3);
}

TEST(ChunkDim, ZeroExtent) {
  EXPECT_TRUE(
      libs::chunk_dim(0, 8, EdgeStrategy::kPadding, {}).empty());
}

TEST(ChunkDim, ElemOffsets) {
  const auto chunks = libs::chunk_dim(11, 8, EdgeStrategy::kEdgeKernels,
                                      {8, 4, 2, 1});
  const auto offsets = libs::chunk_elem_offsets(chunks, 10);
  ASSERT_EQ(offsets.size(), chunks.size());
  EXPECT_EQ(offsets[0], 0);
  EXPECT_EQ(offsets[1], 80);  // first chunk is 8 tall x kc 10
}

TEST(PlanValidate, CatchesBufferOverflow) {
  GemmPlan plan;
  plan.shape = {8, 8, 8};
  plan.nthreads = 1;
  plan.thread_ops.assign(1, {});
  const int buf = add_buffer(plan, 4);  // too small
  PackAOp op;
  op.buffer = buf;
  op.mc = 8;
  op.kc = 8;
  op.mr = 8;
  plan.thread_ops[0].push_back(op);
  EXPECT_THROW(plan.validate(), Error);
}

TEST(PlanValidate, CatchesBadBarrierArity) {
  GemmPlan plan;
  plan.shape = {4, 4, 4};
  plan.nthreads = 2;
  plan.thread_ops.assign(2, {});
  const int bar = add_barrier(plan, 2);
  plan.thread_ops[0].push_back(BarrierOp{bar});
  // Thread 1 never arrives: arity mismatch.
  EXPECT_THROW(plan.validate(), Error);
}

TEST(PlanValidate, CatchesKernelOutOfC) {
  GemmPlan plan;
  plan.shape = {4, 4, 4};
  plan.nthreads = 1;
  plan.thread_ops.assign(1, {});
  KernelOp op;
  op.kernel = kern::KernelRegistry::instance().find_tile("openblas", 4, 4);
  op.kc = 4;
  op.i0 = 2;  // 2 + 4 > 4
  op.useful_m = 4;
  op.useful_n = 4;
  op.a.kind = OperandRef::Kind::kDirectA;
  op.b.kind = OperandRef::Kind::kDirectB;
  plan.thread_ops[0].push_back(op);
  EXPECT_THROW(plan.validate(), Error);
}

TEST(PlanStats, CountsAndFlops) {
  const GemmShape shape{75, 60, 60};
  const GemmPlan plan = libs::openblas_like().make_plan(
      shape, ScalarType::kF32, 1);
  const PlanStats stats = analyze(plan);
  EXPECT_GT(stats.kernel_ops, 0);
  EXPECT_EQ(stats.pack_a_ops, 1);
  EXPECT_EQ(stats.pack_b_ops, 1);
  EXPECT_DOUBLE_EQ(stats.useful_flops, shape.flops());
  // Edge kernels (not padding): computed == useful.
  EXPECT_DOUBLE_EQ(stats.computed_flops, stats.useful_flops);
  // The 75-row edge uses the 8, 2 and 1 kernels (Section III-B example).
  EXPECT_TRUE(stats.kernel_mix.count("openblas/8x4"));
  EXPECT_TRUE(stats.kernel_mix.count("openblas/2x4"));
  EXPECT_TRUE(stats.kernel_mix.count("openblas/1x4"));
}

TEST(PlanStats, BlisPaddingOverhead) {
  // 9x13 with an 8x12 padded kernel: tiles 2x2, computed = 16*24*k.
  const GemmShape shape{9, 13, 32};
  const GemmPlan plan =
      libs::blis_like().make_plan(shape, ScalarType::kF32, 1);
  const PlanStats stats = analyze(plan);
  EXPECT_DOUBLE_EQ(stats.useful_flops, shape.flops());
  EXPECT_DOUBLE_EQ(stats.computed_flops, 2.0 * 16 * 24 * 32);
  EXPECT_GT(stats.padding_overhead(), 1.5);
}

TEST(NativeExecutor, HandBuiltDirectPlan) {
  // One kernel op reading A and B directly: C = A*B for 4x4x6.
  const GemmShape shape{4, 4, 6};
  GemmPlan plan;
  plan.strategy = "hand";
  plan.shape = shape;
  plan.scalar = ScalarType::kF32;
  plan.nthreads = 1;
  plan.thread_ops.assign(1, {});
  KernelOp op;
  op.kernel = kern::KernelRegistry::instance().find_tile("smm-direct", 4, 4);
  op.kc = 6;
  op.useful_m = 4;
  op.useful_n = 4;
  op.a.kind = OperandRef::Kind::kDirectA;
  op.b.kind = OperandRef::Kind::kDirectB;
  plan.thread_ops[0].push_back(op);
  plan.validate();

  test::GemmProblem<float> prob(4, 4, 6, /*seed=*/17);
  prob.reference(1.0f, 0.0f);
  execute_plan(plan, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
               prob.c.view());
  EXPECT_TRUE(prob.check());
}

TEST(NativeExecutor, ScalarTypeMismatchThrows) {
  const GemmPlan plan = libs::openblas_like().make_plan(
      {8, 8, 8}, ScalarType::kF32, 1);
  test::GemmProblem<double> prob(8, 8, 8, 3);
  EXPECT_THROW(execute_plan(plan, 1.0, prob.a.cview(), prob.b.cview(), 0.0,
                            prob.c.view()),
               Error);
}

TEST(NativeExecutor, ShapeMismatchThrows) {
  const GemmPlan plan = libs::openblas_like().make_plan(
      {8, 8, 8}, ScalarType::kF32, 1);
  test::GemmProblem<float> prob(8, 8, 9, 3);
  EXPECT_THROW(execute_plan(plan, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                            prob.c.view()),
               Error);
}

TEST(GridPlan, BarrierStructure) {
  const GemmPlan plan = libs::openblas_like().make_plan(
      {64, 64, 64}, ScalarType::kF32, 4);
  EXPECT_EQ(plan.nthreads, 4);
  // OpenBLAS splits M across all threads (Section III-D: workload
  // mc/threads x nc x kc): one column group, one barrier of everyone.
  EXPECT_EQ(plan.barriers.size(), 1u);
  EXPECT_EQ(plan.barriers[0].participants, 4);
  plan.validate();
}

TEST(WaysPlan, SharedBuffersPerGroup) {
  const GemmPlan plan =
      libs::blis_like().make_plan({128, 512, 64}, ScalarType::kF32, 8);
  plan.validate();
  const PlanStats stats = analyze(plan);
  EXPECT_GT(stats.barrier_ops, 0);
  EXPECT_DOUBLE_EQ(stats.useful_flops, (GemmShape{128, 512, 64}).flops());
}

}  // namespace
}  // namespace smm::plan
