// PlanCache and batched SMM.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "src/common/cancel.h"
#include "src/core/batched.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/plan/native_executor.h"
#include "src/robust/health.h"
#include "src/threading/thread_pool.h"
#include "tests/test_helpers.h"

namespace smm::core {
namespace {

TEST(PlanCache, HitsAfterFirstBuild) {
  PlanCache cache(reference_smm(), 8);
  const auto p1 = cache.get({16, 16, 16}, plan::ScalarType::kF32, 1);
  const auto p2 = cache.get({16, 16, 16}, plan::ScalarType::kF32, 1);
  EXPECT_EQ(p1.get(), p2.get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCache, DistinguishesShapeScalarThreads) {
  PlanCache cache(reference_smm(), 16);
  cache.get({16, 16, 16}, plan::ScalarType::kF32, 1);
  cache.get({16, 16, 17}, plan::ScalarType::kF32, 1);
  cache.get({16, 16, 16}, plan::ScalarType::kF64, 1);
  cache.get({16, 16, 16}, plan::ScalarType::kF32, 4);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(PlanCache, LruEviction) {
  PlanCache cache(reference_smm(), 2);
  cache.get({8, 8, 8}, plan::ScalarType::kF32, 1);
  cache.get({9, 9, 9}, plan::ScalarType::kF32, 1);
  cache.get({8, 8, 8}, plan::ScalarType::kF32, 1);   // bump 8^3
  cache.get({10, 10, 10}, plan::ScalarType::kF32, 1);  // evicts 9^3
  EXPECT_EQ(cache.size(), 2u);
  const auto before = cache.misses();
  cache.get({9, 9, 9}, plan::ScalarType::kF32, 1);  // rebuilt
  EXPECT_EQ(cache.misses(), before + 1);
  const auto hits_before = cache.hits();
  cache.get({8, 8, 8}, plan::ScalarType::kF32, 1);  // 8^3 survived? evicted by 9^3 rebuild
  // Either way the cache stays consistent and bounded.
  EXPECT_LE(cache.size(), 2u);
  EXPECT_GE(cache.hits() + cache.misses(), hits_before + 1);
}

TEST(PlanCache, EvictedPlanStaysUsable) {
  PlanCache cache(reference_smm(), 1);
  const auto plan = cache.get({12, 12, 12}, plan::ScalarType::kF32, 1);
  cache.get({13, 13, 13}, plan::ScalarType::kF32, 1);  // evicts 12^3
  // The shared_ptr keeps the evicted plan alive and runnable.
  test::GemmProblem<float> prob(12, 12, 12, /*seed=*/3);
  prob.reference(1.0f, 0.0f);
  plan::execute_plan(*plan, 1.0f, prob.a.cview(), prob.b.cview(), 0.0f,
                     prob.c.view());
  EXPECT_TRUE(prob.check());
}

TEST(PlanCache, ConcurrentGetIsSafe) {
  PlanCache cache(reference_smm(), 32);
  std::atomic<int> errors{0};
  par::run_parallel(8, [&](int t) {
    for (int i = 0; i < 20; ++i) {
      const index_t n = 8 + (t + i) % 4;
      const auto p = cache.get({n, n, n}, plan::ScalarType::kF32, 1);
      if (!p || p->shape.m != n) ++errors;
    }
  });
  EXPECT_EQ(errors.load(), 0);
  EXPECT_LE(cache.misses(), 8u);  // only 4 distinct shapes (racy builds ok)
}

TEST(PlanCache, ClearResets) {
  PlanCache cache(reference_smm());
  cache.get({8, 8, 8}, plan::ScalarType::kF32, 1);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(Batched, UniformShapesCorrect) {
  PlanCache cache(reference_smm());
  const index_t m = 16, n = 24, k = 20, batch = 12;
  std::vector<test::GemmProblem<float>> probs;
  probs.reserve(batch);
  for (index_t i = 0; i < batch; ++i) probs.emplace_back(m, n, k, 100 + i);
  std::vector<GemmBatchItem<float>> items;
  for (auto& p : probs) {
    p.reference(2.0f, 1.0f);
    items.push_back({p.a.cview(), p.b.cview(), p.c.view()});
  }
  batched_smm(2.0f, items, 1.0f, cache, /*nworkers=*/1);
  for (auto& p : probs) EXPECT_TRUE(p.check());
  EXPECT_EQ(cache.misses(), 1u);  // one shape, one plan
  EXPECT_EQ(cache.hits(), 0u);    // resolved once per shape, not per item
}

TEST(Batched, MixedShapesAndWorkers) {
  PlanCache cache(reference_smm());
  std::vector<test::GemmProblem<float>> probs;
  const index_t shapes[][3] = {{8, 8, 8}, {16, 12, 20}, {8, 8, 8},
                               {32, 8, 8}, {16, 12, 20}, {8, 8, 8}};
  for (const auto& s : shapes) probs.emplace_back(s[0], s[1], s[2], s[0]);
  std::vector<GemmBatchItem<float>> items;
  for (auto& p : probs) {
    p.reference(1.0f, 0.0f);
    items.push_back({p.a.cview(), p.b.cview(), p.c.view()});
  }
  batched_smm(1.0f, items, 0.0f, cache, /*nworkers=*/4);
  for (std::size_t i = 0; i < probs.size(); ++i)
    EXPECT_TRUE(probs[i].check()) << i;
  EXPECT_EQ(cache.misses(), 3u);  // three distinct shapes
}

TEST(Batched, EmptyBatchIsNoop) {
  PlanCache cache(reference_smm());
  std::vector<GemmBatchItem<float>> items;
  EXPECT_NO_THROW(batched_smm(1.0f, items, 0.0f, cache, 4));
}

TEST(Batched, MismatchedItemThrows) {
  PlanCache cache(reference_smm());
  test::GemmProblem<float> good(8, 8, 8, 1);
  Matrix<float> bad_c(9, 8);
  std::vector<GemmBatchItem<float>> items{
      {good.a.cview(), good.b.cview(), bad_c.view()}};
  EXPECT_THROW(batched_smm(1.0f, items, 0.0f, cache, 1), Error);
}

TEST(Batched, DefaultCacheSingleton) {
  PlanCache& a = default_plan_cache();
  PlanCache& b = default_plan_cache();
  EXPECT_EQ(&a, &b);
}

TEST(Batched, SharedBPacksOnceAcrossItems) {
  // 30 % nr != 0, so the default-built plan edge-packs B and the handle
  // materializes — the precondition for replaying one packed B across
  // the batch (DESIGN.md §13 satellite of the coalescer).
  PlanCache cache(reference_smm());
  const index_t m = 32, n = 30, k = 32;
  constexpr std::size_t kBatch = 8;
  std::vector<test::GemmProblem<double>> probs;
  probs.reserve(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i)
    probs.emplace_back(m, n, k, 200 + static_cast<unsigned>(i));
  // Every item must present *literally the same* B view (same pointer,
  // same leading dimension) for the pack-once path to engage; copy item
  // 0's B into the others so their c_expected stays truthful.
  for (std::size_t i = 1; i < kBatch; ++i)
    probs[i].b = probs[0].b.clone();
  std::vector<GemmBatchItem<double>> items;
  for (auto& p : probs) {
    p.reference(1.0, 0.0);
    items.push_back({p.a.cview(), probs[0].b.cview(), p.c.view()});
  }
  const std::size_t reuse_before =
      robust::health().snapshot().batched_prepack_reuse;
  batched_smm(1.0, items, 0.0, cache, /*nworkers=*/1);
  for (auto& p : probs) EXPECT_TRUE(p.check());
  EXPECT_EQ(cache.misses(), 1u);  // one shape, one plan build
  // The pack-once hit: all kBatch items were served off one packed B.
  EXPECT_EQ(robust::health().snapshot().batched_prepack_reuse,
            reuse_before + kBatch);
}

/// The SharedBPacksOnceAcrossItems batch: kBatch items of one shape that
/// all present literally the same B view (the pack-once precondition).
struct SharedBBatch {
  static constexpr index_t m = 32, n = 30, k = 32;
  static constexpr std::size_t kBatch = 8;
  std::vector<test::GemmProblem<double>> probs;
  std::vector<Matrix<double>> c_before;  // each C's seed values
  std::vector<GemmBatchItem<double>> items;

  SharedBBatch() {
    probs.reserve(kBatch);
    for (std::size_t i = 0; i < kBatch; ++i)
      probs.emplace_back(m, n, k, 500 + static_cast<unsigned>(i));
    for (std::size_t i = 1; i < kBatch; ++i)
      probs[i].b = probs[0].b.clone();
    for (auto& p : probs) {
      c_before.push_back(p.c.clone());
      p.reference(1.0, 0.0);
      items.push_back({p.a.cview(), probs[0].b.cview(), p.c.view()});
    }
  }
  [[nodiscard]] bool untouched() const {
    for (std::size_t i = 0; i < kBatch; ++i)
      if (max_abs_diff(probs[i].c.cview(), c_before[i].cview()) != 0.0)
        return false;
    return true;
  }
};

std::size_t prepack_reuse() {
  return robust::health().snapshot().batched_prepack_reuse;
}

TEST(Batched, SharedBPacksOnceWithLiveToken) {
  // A live token no longer forces the per-item path: the packed replay
  // takes the token too, so cancellation stays at op granularity.
  PlanCache cache(reference_smm());
  SharedBBatch batch;
  const CancelSource src(std::chrono::steady_clock::now() +
                         std::chrono::seconds(60));
  const CancelToken token = src.token();
  const std::size_t reuse_before = prepack_reuse();
  batched_smm(1.0, batch.items, 0.0, cache, /*nworkers=*/1, &token);
  for (auto& p : batch.probs) EXPECT_TRUE(p.check());
  EXPECT_EQ(prepack_reuse(), reuse_before + SharedBBatch::kBatch);
}

TEST(Batched, ExpiredTokenStopsPackedPathBeforeFirstOp) {
  // No explicit per-item pre-check remains: the packed replay's first
  // op-boundary check must reject a lapsed deadline with C untouched.
  PlanCache cache(reference_smm());
  SharedBBatch batch;
  const CancelSource src(std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1));
  const CancelToken token = src.token();
  const std::vector<const CancelToken*> tokens(SharedBBatch::kBatch,
                                               &token);
  const std::size_t reuse_before = prepack_reuse();
  const auto statuses = batched_smm_each(1.0, batch.items, 0.0, cache,
                                         /*nworkers=*/1,
                                         /*options=*/nullptr, &tokens);
  // The items were served by the packed handle, and every one stopped.
  EXPECT_EQ(prepack_reuse(), reuse_before + SharedBBatch::kBatch);
  for (const auto& s : statuses) {
    EXPECT_FALSE(s.ok);
    EXPECT_EQ(s.code, ErrorCode::kDeadlineExceeded) << s.message;
  }
  EXPECT_TRUE(batch.untouched());
  try {
    batched_smm(1.0, batch.items, 0.0, cache, /*nworkers=*/1, &token);
    FAIL() << "expected kDeadlineExceeded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(batch.untouched());
}

/// One C sub-view of the shared output buffer, as a flat element range
/// [offset, offset + (cols - 1) * ld + rows).
struct CSpan {
  index_t offset, rows, cols, ld;
  [[nodiscard]] index_t end() const { return offset + (cols - 1) * ld + rows; }
};

/// The alias rule, brute force: item i fails when its span overlaps the
/// span of an earlier item that did not fail itself.
std::vector<bool> reference_alias_failures(const std::vector<CSpan>& spans) {
  std::vector<bool> failed(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (std::size_t j = 0; j < i && !failed[i]; ++j)
      failed[i] = !failed[j] && spans[i].offset < spans[j].end() &&
                  spans[j].offset < spans[i].end();
  return failed;
}

/// Runs `spans` as C views of one buffer through both batched drivers
/// and compares the outcome with reference_alias_failures.
void expect_alias_rule(const std::vector<CSpan>& spans, PlanCache& cache) {
  constexpr index_t kK = 2;
  Matrix<double> a(16, kK), b(kK, 16);
  Rng rng(spans.size());
  a.fill_random(rng);
  b.fill_random(rng);
  std::vector<double> buffer(1024, 0.0);
  std::vector<GemmBatchItem<double>> items;
  for (const auto& s : spans)
    items.push_back({a.cview().block(0, 0, s.rows, kK),
                     b.cview().block(0, 0, kK, s.cols),
                     MatrixView<double>(buffer.data() + s.offset, s.rows,
                                        s.cols, s.ld)});
  const std::vector<bool> expected = reference_alias_failures(spans);
  const auto statuses = batched_smm_each(1.0, items, 0.0, cache,
                                         /*nworkers=*/2);
  bool any_alias = false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    any_alias = any_alias || expected[i];
    if (!expected[i]) {
      EXPECT_TRUE(statuses[i].ok) << "item " << i << ": "
                                  << statuses[i].message;
      continue;
    }
    ASSERT_FALSE(statuses[i].ok) << "item " << i;
    EXPECT_EQ(statuses[i].code, ErrorCode::kAlias);
    // The named culprit is an earlier surviving item that overlaps.
    const auto at = statuses[i].message.rfind("item ");
    ASSERT_NE(at, std::string::npos) << statuses[i].message;
    const std::size_t culprit = std::stoul(statuses[i].message.substr(at + 5));
    ASSERT_LT(culprit, i) << statuses[i].message;
    EXPECT_FALSE(expected[culprit]) << statuses[i].message;
    EXPECT_TRUE(spans[i].offset < spans[culprit].end() &&
                spans[culprit].offset < spans[i].end())
        << statuses[i].message;
  }
  try {
    batched_smm(1.0, items, 0.0, cache, /*nworkers=*/2);
    EXPECT_FALSE(any_alias) << "aliased batch was not rejected";
  } catch (const Error& e) {
    EXPECT_TRUE(any_alias) << e.what();
    EXPECT_EQ(e.code(), ErrorCode::kAlias) << e.what();
  }
}

TEST(Batched, AliasRuleMatchesBruteForce) {
  PlanCache cache(reference_smm());
  // Chain: 0 overlaps 1 and 1 overlaps 2, but 0 and 2 are disjoint —
  // only item 1 fails, because item 2's only overlap is with a loser.
  expect_alias_rule({{0, 4, 2, 4}, {6, 4, 2, 4}, {12, 4, 2, 4}}, cache);
  // Nested: a view inside another, in both index orders.
  expect_alias_rule({{0, 8, 4, 8}, {9, 2, 2, 8}}, cache);
  expect_alias_rule({{9, 2, 2, 8}, {0, 8, 4, 8}}, cache);
  // Touching but disjoint: one ends exactly where the next begins, in
  // descending address order.
  expect_alias_rule({{64, 4, 4, 4}, {48, 4, 4, 4}, {32, 4, 4, 4}}, cache);
  // Interleaved columns share no element but their storage ranges
  // overlap: the rule is range-based, so the later item fails.
  expect_alias_rule({{0, 2, 4, 4}, {2, 2, 4, 4}}, cache);

  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(2 + rng.next_index(14));
    std::vector<CSpan> spans;
    for (std::size_t i = 0; i < n; ++i) {
      CSpan s{};
      s.rows = 1 + rng.next_index(4);
      s.cols = 1 + rng.next_index(4);
      s.ld = s.rows + rng.next_index(3);
      // A 256-element window keeps overlaps common but not universal.
      s.offset = rng.next_index(256 - ((s.cols - 1) * s.ld + s.rows));
      spans.push_back(s);
    }
    expect_alias_rule(spans, cache);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing trial: " << trial;
      break;
    }
  }
}

TEST(Batched, EachIsolatesNeighborFailures) {
  // batched_smm_each is the coalescer's engine: one member's bad shape
  // or cancellation must land in its own status slot while the healthy
  // neighbors run to completion (and still share the packed B).
  PlanCache cache(reference_smm());
  const index_t m = 32, n = 30, k = 32;
  std::vector<test::GemmProblem<double>> probs;
  for (unsigned i = 0; i < 4; ++i) probs.emplace_back(m, n, k, 300 + i);
  for (std::size_t i = 1; i < probs.size(); ++i)
    probs[i].b = probs[0].b.clone();
  Matrix<double> bad_c(m + 1, n);  // dimension mismatch for item 2

  std::vector<GemmBatchItem<double>> items;
  for (std::size_t i = 0; i < 3; ++i) {
    probs[i].reference(1.0, 0.0);
    items.push_back(
        {probs[i].a.cview(), probs[0].b.cview(), probs[i].c.view()});
  }
  items.push_back({probs[3].a.cview(), probs[0].b.cview(), bad_c.view()});

  CancelSource cancelled;
  cancelled.request_cancel();
  const CancelToken stop = cancelled.token();
  std::vector<const CancelToken*> tokens{nullptr, &stop, nullptr, nullptr};
  const Matrix<double> c1_before = probs[1].c.clone();

  const std::size_t reuse_before =
      robust::health().snapshot().batched_prepack_reuse;
  const auto statuses =
      batched_smm_each(1.0, items, 0.0, cache, /*nworkers=*/1,
                       /*options=*/nullptr, &tokens);
  ASSERT_EQ(statuses.size(), items.size());
  EXPECT_TRUE(statuses[0].ok) << statuses[0].message;
  ASSERT_FALSE(statuses[1].ok);
  EXPECT_EQ(statuses[1].code, ErrorCode::kCancelled);
  EXPECT_TRUE(statuses[2].ok) << statuses[2].message;
  ASSERT_FALSE(statuses[3].ok);
  EXPECT_EQ(statuses[3].code, ErrorCode::kBadShape);
  // Healthy members produced the right numbers; the cancelled member's C
  // is untouched.
  EXPECT_TRUE(probs[0].check());
  EXPECT_TRUE(probs[2].check());
  EXPECT_EQ(max_abs_diff(probs[1].c.cview(), c1_before.cview()), 0.0);
  // The three runnable members still shared one packed B (the cancelled
  // one stopped at the packed replay's first op boundary).
  EXPECT_EQ(robust::health().snapshot().batched_prepack_reuse,
            reuse_before + 3);
}

}  // namespace
}  // namespace smm::core
