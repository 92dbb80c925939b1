#include <gtest/gtest.h>

#include "src/simd/vec.h"

namespace smm::simd {
namespace {

TEST(Vec, BroadcastAndLanes) {
  const Vec4f v = Vec4f::broadcast(2.5f);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(v.lane(i), 2.5f);
  const Vec2d d = Vec2d::broadcast(-1.0);
  for (index_t i = 0; i < 2; ++i) EXPECT_EQ(d.lane(i), -1.0);
}

TEST(Vec, LoadStoreRoundTrip) {
  float src[4] = {1, 2, 3, 4};
  float dst[4] = {};
  Vec4f::load(src).store(dst);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(src[i], dst[i]);
}

TEST(Vec, UnalignedLoad) {
  float data[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  const Vec4f v = Vec4f::load(data + 1);  // deliberately unaligned
  EXPECT_EQ(v.lane(0), 1.0f);
  EXPECT_EQ(v.lane(3), 4.0f);
}

TEST(Vec, FmaMatchesScalar) {
  Vec4f acc = Vec4f::broadcast(1.0f);
  const float av[4] = {1, 2, 3, 4};
  const float bv[4] = {5, 6, 7, 8};
  const Vec4f a = Vec4f::load(av);
  const Vec4f b = Vec4f::load(bv);
  fma(acc, a, b);
  EXPECT_EQ(acc.lane(0), 6.0f);
  EXPECT_EQ(acc.lane(3), 33.0f);
}

TEST(Vec, FmaScalar) {
  Vec4f acc = Vec4f::broadcast(1.0f);
  fma_scalar(acc, Vec4f::broadcast(2.0f), 3.0f);
  for (index_t i = 0; i < 4; ++i) EXPECT_EQ(acc.lane(i), 7.0f);
}

TEST(Vec, ArithmeticOperators) {
  const Vec4f a = Vec4f::broadcast(4.0f);
  const Vec4f b = Vec4f::broadcast(2.0f);
  EXPECT_EQ((a + b).lane(0), 6.0f);
  EXPECT_EQ((a - b).lane(1), 2.0f);
  EXPECT_EQ((a * b).lane(2), 8.0f);
}

}  // namespace
}  // namespace smm::simd
