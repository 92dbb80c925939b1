#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.h"
#include "src/matrix/matrix.h"
#include "src/pack/pack.h"

namespace smm::pack {
namespace {

TEST(PackSizes, PaddedVersusTight) {
  EXPECT_EQ(packed_a_size(11, 10, 8, /*pad=*/true), 16 * 10);
  EXPECT_EQ(packed_a_size(11, 10, 8, /*pad=*/false), 110);
  EXPECT_EQ(packed_b_size(10, 13, 4, /*pad=*/true), 16 * 10);
  EXPECT_EQ(packed_b_size(10, 13, 4, /*pad=*/false), 130);
}

TEST(PackSizes, PanelOffsets) {
  EXPECT_EQ(packed_a_panel_offset(0, 20, 7, 8, false), 0);
  EXPECT_EQ(packed_a_panel_offset(2, 20, 7, 8, false), 2 * 8 * 7);
  EXPECT_EQ(packed_b_panel_offset(3, 7, 20, 4, true), 3 * 4 * 7);
  EXPECT_EQ(packed_a_panel_rows(1, 11, 8, false), 3);
  EXPECT_EQ(packed_a_panel_rows(1, 11, 8, true), 8);
  EXPECT_EQ(packed_b_panel_cols(2, 11, 4, false), 3);
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
  pack_a_chunked(a.cview(), {8, 2, 1}, dst.data());
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
  pack_b_chunked(b.cview(), {4, 2, 1}, dst.data());
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
  EXPECT_THROW(pack_a_chunked(a.cview(), {8, 4}, dst.data()), Error);
  EXPECT_THROW(pack_a_chunked(a.cview(), {8, 1}, dst.data()), Error);
}

TEST(PackTraffic, CountsReadAndWrite) {
  EXPECT_EQ(pack_traffic_bytes<float>(10, 10), 800);
  EXPECT_EQ(pack_traffic_bytes<double>(10, 10), 1600);
}

}  // namespace
}  // namespace smm::pack
