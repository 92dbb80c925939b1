#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/kernel_select.h"
#include "src/core/plan_builder.h"
#include "src/core/smm.h"
#include "src/matrix/matrix.h"
#include "src/pack/pack.h"
#include "src/plan/native_executor.h"
#include "src/robust/fault_injection.h"

namespace smm::pack {
namespace {

TEST(PackSizes, PaddedVersusTight) {
  EXPECT_EQ(packed_a_size(11, 10, 8, /*pad=*/true), 16 * 10);
  EXPECT_EQ(packed_a_size(11, 10, 8, /*pad=*/false), 110);
  EXPECT_EQ(packed_b_size(10, 13, 4, /*pad=*/true), 16 * 10);
  EXPECT_EQ(packed_b_size(10, 13, 4, /*pad=*/false), 130);
}

TEST(PackA, LayoutIsColumnOfPanels) {
  // A 5x3 block, mr = 4, tight: panel 0 (rows 0..3), panel 1 (row 4).
  Matrix<float> a(5, 3);
  a.fill_iota();
  std::vector<float> dst(15, -1.0f);
  pack_a(a.cview(), 4, /*pad=*/false, dst.data());
  // Panel 0, column k: elements a(0..3, k).
  for (index_t k = 0; k < 3; ++k)
    for (index_t i = 0; i < 4; ++i)
      EXPECT_EQ(dst[static_cast<std::size_t>(k * 4 + i)], a(i, k));
  // Panel 1 starts at 4*3 = 12; one row per column.
  for (index_t k = 0; k < 3; ++k)
    EXPECT_EQ(dst[static_cast<std::size_t>(12 + k)], a(4, k));
}

TEST(PackA, PaddingZeroFills) {
  Matrix<float> a(5, 2);
  a.fill(1.0f);
  std::vector<float> dst(static_cast<std::size_t>(packed_a_size(5, 2, 4, true)),
                         -1.0f);
  pack_a(a.cview(), 4, /*pad=*/true, dst.data());
  // Second panel columns: row 0 is a(4,k) = 1, rows 1..3 are zeros.
  for (index_t k = 0; k < 2; ++k) {
    EXPECT_EQ(dst[static_cast<std::size_t>(8 + k * 4 + 0)], 1.0f);
    for (index_t i = 1; i < 4; ++i)
      EXPECT_EQ(dst[static_cast<std::size_t>(8 + k * 4 + i)], 0.0f);
  }
}

TEST(PackB, LayoutIsRowOfPanels) {
  // B 3x5 block, nr = 4: panel 0 cols 0..3, panel 1 col 4.
  Matrix<float> b(3, 5);
  b.fill_iota();
  std::vector<float> dst(15, -1.0f);
  pack_b(b.cview(), 4, /*pad=*/false, dst.data());
  for (index_t k = 0; k < 3; ++k)
    for (index_t j = 0; j < 4; ++j)
      EXPECT_EQ(dst[static_cast<std::size_t>(k * 4 + j)], b(k, j));
  for (index_t k = 0; k < 3; ++k)
    EXPECT_EQ(dst[static_cast<std::size_t>(12 + k)], b(k, 4));
}

TEST(PackChunked, HeightsLayout) {
  // 11 rows as 8 + 2 + 1 (the OpenBLAS edge decomposition).
  Matrix<float> a(11, 4);
  a.fill_iota();
  std::vector<float> dst(44, -1.0f);
  pack_a(a.cview(), 0, false, std::vector<index_t>{8, 2, 1}, dst.data());
  // Chunk 0: 8-tall panels.
  EXPECT_EQ(dst[0], a(0, 0));
  EXPECT_EQ(dst[8 + 3], a(3, 1));
  // Chunk 1 starts at 8*4 = 32: rows 8..9.
  EXPECT_EQ(dst[32], a(8, 0));
  EXPECT_EQ(dst[33], a(9, 0));
  EXPECT_EQ(dst[34], a(8, 1));
  // Chunk 2 starts at 32 + 2*4 = 40: row 10.
  EXPECT_EQ(dst[40], a(10, 0));
  EXPECT_EQ(dst[43], a(10, 3));
}

TEST(PackChunked, WidthsLayout) {
  Matrix<float> b(3, 7);
  b.fill_iota();
  std::vector<float> dst(21, -1.0f);
  pack_b(b.cview(), 0, false, std::vector<index_t>{4, 2, 1}, dst.data());
  EXPECT_EQ(dst[0], b(0, 0));
  EXPECT_EQ(dst[4 * 1 + 2], b(1, 2));
  // Chunk 1 at 12: cols 4..5, rows interleaved per k.
  EXPECT_EQ(dst[12], b(0, 4));
  EXPECT_EQ(dst[13], b(0, 5));
  EXPECT_EQ(dst[14], b(1, 4));
  // Chunk 2 at 18.
  EXPECT_EQ(dst[18], b(0, 6));
}

TEST(PackChunked, BadCoverageThrows) {
  Matrix<float> a(10, 2);
  std::vector<float> dst(20);
  const std::vector<index_t> over{8, 4}, under{8, 1};
  EXPECT_THROW(pack_a(a.cview(), 0, false, over, dst.data()), Error);
  EXPECT_THROW(pack_a(a.cview(), 0, false, under, dst.data()), Error);
}

TEST(PackTraffic, CountsReadAndWrite) {
  EXPECT_EQ(pack_traffic_bytes<float>(10, 10), 800);
  EXPECT_EQ(pack_traffic_bytes<double>(10, 10), 1600);
}


// ---- Copy-speed packers against the element-wise reference -----------------

/// The element-wise reference packer: every element through the view's
/// layout-aware operator(). `lines_of_a` packs A row panels (line = row);
/// otherwise B column panels (line = column). Panels take `chunks` when
/// given, else uniform `step` panels, padded to `step` when `pad`.
template <typename T>
std::vector<T> reference_pack(ConstMatrixView<T> v, bool lines_of_a,
                              index_t step, bool pad,
                              const std::vector<index_t>& chunks) {
  const index_t lines = lines_of_a ? v.rows() : v.cols();
  const index_t depth = lines_of_a ? v.cols() : v.rows();
  std::vector<index_t> widths = chunks;
  if (widths.empty())
    for (index_t p = 0; p < lines; p += step)
      widths.push_back(std::min(step, lines - p));
  std::vector<T> out;
  index_t p0 = 0;
  for (const index_t w : widths) {
    const index_t stored = chunks.empty() && pad ? step : w;
    for (index_t k = 0; k < depth; ++k)
      for (index_t p = 0; p < stored; ++p)
        out.push_back(p >= w ? T(0)
                      : lines_of_a ? v(p0 + p, k)
                                   : v(k, p0 + p));
    p0 += w;
  }
  return out;
}

/// A rows x cols source in one of the layouts a packer meets: col-major,
/// row-major (a transposed operand), and either one with a padded ld.
/// Every element is distinct and exact, so a misplaced one shows.
template <typename T>
struct Source {
  std::vector<T> store;
  ConstMatrixView<T> view;
  Source(index_t rows, index_t cols, Layout layout, index_t ld_pad) {
    const index_t ld =
        (layout == Layout::kColMajor ? rows : cols) + ld_pad;
    const index_t outer = layout == Layout::kColMajor ? cols : rows;
    store.assign(static_cast<std::size_t>(std::max<index_t>(1, ld * outer)),
                 T(-7));
    MatrixView<T> m(store.data(), rows, cols, ld, layout);
    for (index_t j = 0; j < cols; ++j)
      for (index_t i = 0; i < rows; ++i)
        m(i, j) = static_cast<T>(i * 1024 + j) + T(0.5);
    view = m;
  }
};

struct SourceLayout {
  Layout layout;
  index_t ld_pad;
  const char* name;
};
constexpr SourceLayout kLayouts[] = {
    {Layout::kColMajor, 0, "col-major"},
    {Layout::kRowMajor, 0, "row-major"},
    {Layout::kColMajor, 5, "col-major ld+5"},
    {Layout::kRowMajor, 3, "row-major ld+3"},
};
constexpr index_t kDepths[] = {0, 1, 7, 512};

/// Pack with the library and with the reference; memcmp the buffers.
template <typename T>
::testing::AssertionResult packs_like_reference(
    ConstMatrixView<T> v, bool a_side, index_t step, bool pad,
    const std::vector<index_t>& chunks) {
  const std::vector<T> want = reference_pack(v, a_side, step, pad, chunks);
  // One guard element past the end catches an overrun.
  std::vector<T> got(want.size() + 1, T(-3));
  if (a_side)
    pack_a(v, step, pad, chunks, got.data());
  else
    pack_b(v, step, pad, chunks, got.data());
  if (got.back() != T(-3))
    return ::testing::AssertionFailure() << "wrote past the packed size";
  if (!want.empty() &&
      std::memcmp(got.data(), want.data(), want.size() * sizeof(T)) != 0)
    return ::testing::AssertionFailure() << "packed buffer differs";
  return ::testing::AssertionSuccess();
}

/// Every A and B chunk list the smm family emits over a sweep of extents:
/// one-thread fully packed plans and two-thread plans for each main tile.
std::set<std::vector<index_t>> smm_chunk_lists(bool a_side) {
  std::set<std::vector<index_t>> lists;
  std::vector<index_t> extents;
  for (index_t e = 1; e <= 40; ++e) extents.push_back(e);
  for (const index_t e : {75, 100, 239, 240, 241, 250})
    extents.push_back(e);
  for (const auto& [mr, nr] : core::smm_main_tiles()) {
    for (const index_t e : extents) {
      for (const int threads : {1, 2}) {
        core::BuildSpec spec;
        spec.mr = mr;
        spec.nr = nr;
        spec.mc = core::kSmmMc;
        spec.kc = core::kSmmKc;
        spec.nc = core::kSmmNc;
        spec.pack_a = spec.pack_b = true;
        spec.nthreads = threads;
        spec.ways.jr = threads;
        plan::GemmPlan plan;
        plan.strategy = "smm-ref";
        plan.shape = GemmShape{e, e, 8};
        plan.scalar = plan::ScalarType::kF32;
        core::build_smm_plan(plan, spec);
        plan.validate();
        for (const auto& ops : plan.thread_ops)
          for (const auto& op : ops) {
            if (const auto* pa = std::get_if<plan::PackAOp>(&op);
                pa != nullptr && a_side)
              lists.insert(pa->chunks);
            if (const auto* pb = std::get_if<plan::PackBOp>(&op);
                pb != nullptr && !a_side)
              lists.insert(pb->chunks);
          }
      }
    }
  }
  return lists;
}

template <typename T>
void check_smm_chunk_lists(bool a_side) {
  const auto lists = smm_chunk_lists(a_side);
  ASSERT_GT(lists.size(), 20u);
  for (const auto& chunks : lists) {
    ASSERT_FALSE(chunks.empty()) << "the smm family stores edges tight";
    index_t extent = 0;
    for (const index_t c : chunks) extent += c;
    for (const SourceLayout& l : kLayouts) {
      for (const index_t kc : kDepths) {
        const Source<T> src(a_side ? extent : kc, a_side ? kc : extent,
                            l.layout, l.ld_pad);
        ASSERT_TRUE(packs_like_reference(src.view, a_side, 0, false, chunks))
            << (a_side ? "pack_a " : "pack_b ") << l.name << " kc " << kc
            << " chunks of " << extent;
      }
    }
  }
}

TEST(PackReference, EverySmmChunkListOfA) {
  check_smm_chunk_lists<float>(true);
  check_smm_chunk_lists<double>(true);
}

TEST(PackReference, EverySmmChunkListOfB) {
  check_smm_chunk_lists<float>(false);
  check_smm_chunk_lists<double>(false);
}

template <typename T>
void check_uniform_panels(bool a_side) {
  for (const index_t step : {1, 2, 3, 4, 6, 8, 12, 16}) {
    for (const index_t extent : {1, 5, 8, 17, 33}) {
      for (const bool pad : {false, true}) {
        for (const SourceLayout& l : kLayouts) {
          for (const index_t kc : kDepths) {
            const Source<T> src(a_side ? extent : kc, a_side ? kc : extent,
                                l.layout, l.ld_pad);
            ASSERT_TRUE(packs_like_reference(src.view, a_side, step, pad, {}))
                << (a_side ? "pack_a " : "pack_b ") << l.name << " kc "
                << kc << " step " << step << " extent " << extent
                << " pad " << pad;
          }
        }
      }
    }
  }
}

TEST(PackReference, UniformPanelsPaddedAndTight) {
  check_uniform_panels<float>(true);
  check_uniform_panels<float>(false);
  check_uniform_panels<double>(true);
  check_uniform_panels<double>(false);
}

TEST(PackReference, ChunkedBlockOfALargerMatrix) {
  // Plans pack sub-blocks: the view's ld exceeds its extent.
  const Source<float> big(40, 30, Layout::kColMajor, 0);
  const auto block = big.view.block(3, 5, 27, 19);
  EXPECT_TRUE(packs_like_reference(block, true, 0, false, {16, 8, 2, 1}));
  EXPECT_TRUE(packs_like_reference(block, false, 0, false, {8, 8, 2, 1}));
  const auto t = transposed(big.view).block(2, 1, 21, 33);
  EXPECT_TRUE(packs_like_reference(t, true, 0, false, {16, 4, 1}));
  EXPECT_TRUE(packs_like_reference(t, false, 0, false, {16, 16, 1}));
}

// ---- Fault sites survive the rewrite ---------------------------------------

TEST(PackFaults, PackBitFlipStillFires) {
  using robust::FaultInjector;
  using robust::FaultSite;
  for (const bool a_side : {true, false}) {
    const Source<float> src(24, 24, Layout::kColMajor, 0);
    const std::vector<float> want =
        reference_pack(src.view, a_side, 8, false, {});
    std::vector<float> got(want.size());
    {
      robust::ScopedFault fault(FaultSite::kPackBitFlip, {0, 1, 0x77});
      if (a_side)
        pack_a(src.view, 8, false, got.data());
      else
        pack_b(src.view, 8, false, got.data());
      EXPECT_EQ(FaultInjector::instance().fired_count(FaultSite::kPackBitFlip),
                1u);
    }
    std::size_t differing = 0;
    for (std::size_t i = 0; i < want.size(); ++i)
      differing += std::memcmp(&got[i], &want[i], sizeof(float)) != 0;
    EXPECT_EQ(differing, 1u) << (a_side ? "pack_a" : "pack_b");
  }
}

TEST(PackFaults, ScratchSlabFlipStillFires) {
  using robust::FaultInjector;
  using robust::FaultSite;
  core::SmmOptions opts;
  opts.pack_a = opts.pack_b = core::SmmOptions::Packing::kAlways;
  const auto strategy = core::make_reference_smm(opts);
  const GemmShape shape{32, 32, 32};
  const plan::GemmPlan plan =
      strategy->make_plan(shape, plan::ScalarType::kF32, 1);
  Matrix<float> a(32, 32), b(32, 32), c(32, 32), c_clean(32, 32);
  Rng rng(5);
  a.fill_random(rng);
  b.fill_random(rng);
  plan::execute_plan(plan, 1.0f, a.cview(), b.cview(), 0.0f, c_clean.view());
  {
    robust::ScopedFault fault(FaultSite::kScratchSlabFlip, {0, 1, 0x99});
    plan::execute_plan(plan, 1.0f, a.cview(), b.cview(), 0.0f, c.view());
    EXPECT_EQ(
        FaultInjector::instance().fired_count(FaultSite::kScratchSlabFlip),
        1u);
  }
  EXPECT_NE(std::memcmp(c.data(), c_clean.data(), 32 * 32 * sizeof(float)),
            0)
      << "a flipped packed A element must reach C";
}

}  // namespace
}  // namespace smm::pack
