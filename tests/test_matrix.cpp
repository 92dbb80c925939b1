#include <gtest/gtest.h>

#include <limits>

#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"
#include "src/matrix/view.h"

namespace smm {
namespace {

TEST(MatrixView, ColMajorAddressing) {
  float data[12];
  for (int i = 0; i < 12; ++i) data[i] = static_cast<float>(i);
  MatrixView<float> v(data, 3, 4, 3, Layout::kColMajor);
  EXPECT_EQ(v(0, 0), 0.0f);
  EXPECT_EQ(v(2, 0), 2.0f);
  EXPECT_EQ(v(0, 1), 3.0f);
  EXPECT_EQ(v(2, 3), 11.0f);
  EXPECT_EQ(v.row_stride(), 1);
  EXPECT_EQ(v.col_stride(), 3);
}

TEST(MatrixView, RowMajorAddressing) {
  float data[12];
  for (int i = 0; i < 12; ++i) data[i] = static_cast<float>(i);
  MatrixView<float> v(data, 3, 4, 4, Layout::kRowMajor);
  EXPECT_EQ(v(0, 0), 0.0f);
  EXPECT_EQ(v(0, 3), 3.0f);
  EXPECT_EQ(v(1, 0), 4.0f);
  EXPECT_EQ(v.row_stride(), 4);
  EXPECT_EQ(v.col_stride(), 1);
}

TEST(MatrixView, BlockIsView) {
  Matrix<float> m(6, 6);
  m.fill_iota();
  auto blk = m.view().block(2, 3, 3, 2);
  EXPECT_EQ(blk(0, 0), m(2, 3));
  blk(1, 1) = -1.0f;
  EXPECT_EQ(m(3, 4), -1.0f);
}

TEST(MatrixView, BlockOutOfRangeThrows) {
  Matrix<float> m(4, 4);
  EXPECT_THROW((void)m.view().block(2, 2, 3, 1), Error);
  EXPECT_THROW((void)m.view().block(0, 0, 1, 5), Error);
}

TEST(MatrixView, TooSmallLeadingDimensionThrows) {
  float data[4];
  EXPECT_THROW(MatrixView<float>(data, 4, 1, 2, Layout::kColMajor), Error);
}

TEST(Matrix, RowMajorLd) {
  Matrix<double> m(3, 5, Layout::kRowMajor);
  EXPECT_EQ(m.ld(), 5);
  EXPECT_EQ(m.view().layout(), Layout::kRowMajor);
}

TEST(Matrix, CloneIsDeep) {
  Matrix<float> m(3, 3);
  m.fill_iota();
  Matrix<float> n = m.clone();
  n(0, 0) = 42.0f;
  EXPECT_EQ(m(0, 0), 0.0f);
}

TEST(Compare, MaxAbsDiff) {
  Matrix<float> a(2, 2), b(2, 2);
  a.fill(1.0f);
  b.fill(1.0f);
  b(1, 0) = 1.5f;
  EXPECT_FLOAT_EQ(static_cast<float>(max_abs_diff(a.cview(), b.cview())),
                  0.5f);
}

TEST(Compare, NanDifferenceIsInfinite) {
  // `d > worst` is false for NaN: a NaN element must not read as equal.
  Matrix<float> a(2, 2), b(2, 2);
  a.fill(1.0f);
  b.fill(1.0f);
  b(0, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(max_abs_diff(a.cview(), b.cview()),
            std::numeric_limits<double>::infinity());
  EXPECT_FALSE(gemm_allclose(a.cview(), b.cview(), 4));
  // An all-NaN result fails too, whichever side holds the NaNs.
  b.fill(std::numeric_limits<float>::quiet_NaN());
  EXPECT_FALSE(gemm_allclose(b.cview(), a.cview(), 4));
  EXPECT_FALSE(gemm_allclose(a.cview(), b.cview(), 4));
}

TEST(Compare, ShapeMismatchThrows) {
  Matrix<float> a(2, 2), b(2, 3);
  EXPECT_THROW(max_abs_diff(a.cview(), b.cview()), Error);
}

TEST(Compare, ToleranceGrowsWithK) {
  EXPECT_LT(gemm_tolerance<float>(8), gemm_tolerance<float>(800));
  EXPECT_LT(gemm_tolerance<double>(100), gemm_tolerance<float>(100));
}

TEST(Compare, AllcloseBoundary) {
  Matrix<float> a(1, 1), b(1, 1);
  a(0, 0) = 1.0f;
  b(0, 0) = 1.0f + 1e-3f;
  EXPECT_FALSE(gemm_allclose(a.cview(), b.cview(), 4));
  b(0, 0) = 1.0f + 1e-7f;
  EXPECT_TRUE(gemm_allclose(a.cview(), b.cview(), 4));
}

}  // namespace
}  // namespace smm
