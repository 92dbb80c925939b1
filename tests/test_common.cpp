#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <set>
#include <stdexcept>

#include <cstdlib>

#include "src/common/aligned_buffer.h"
#include "src/common/env.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/common/types.h"

namespace smm {
namespace {

TEST(GemmShape, FlopsCountsMulAndAdd) {
  EXPECT_DOUBLE_EQ((GemmShape{2, 3, 4}).flops(), 48.0);
  EXPECT_DOUBLE_EQ((GemmShape{0, 3, 4}).flops(), 0.0);
}

TEST(AlignedBuffer, AlignmentAndZeroInit) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kBufferAlignment,
            0u);
  for (index_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf[i], 0.0f);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<double> a(16);
  a[3] = 7.0;
  const double* ptr = a.data();
  AlignedBuffer<double> b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(b[3], 7.0);
  EXPECT_EQ(a.size(), 0);  // NOLINT(bugprone-use-after-move)
}

TEST(AlignedBuffer, EmptyAndReset) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  buf.reset(8);
  EXPECT_EQ(buf.size(), 8);
  buf.reset(0);
  EXPECT_TRUE(buf.empty());
}

TEST(AlignedBuffer, NegativeSizeThrows) {
  EXPECT_THROW(AlignedBuffer<float>(-1), Error);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.uniform(-3.0, 5.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Rng, IndexBounds) {
  Rng rng(11);
  std::set<index_t> seen;
  for (int i = 0; i < 200; ++i) {
    const index_t v = rng.next_index(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit over 200 draws
  EXPECT_THROW(rng.next_index(0), Error);
}

TEST(Str, Printf) {
  EXPECT_EQ(strprintf("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(strprintf("%s", ""), "");
}

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ", "), "only");
}

TEST(ErrorMacro, ThrowsWithContext) {
  try {
    SMM_EXPECT(1 == 2, "should fail");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("should fail"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(ErrorCodeOf, MapsEveryCaughtExceptionKind) {
  const Error alias(ErrorCode::kAlias, "overlap");
  EXPECT_EQ(error_code_of(alias), ErrorCode::kAlias);
  // Memory pressure is an allocation failure wherever it is caught, so
  // the retry policy treats solo, batched and coalesced runs alike.
  const std::bad_alloc oom;
  EXPECT_EQ(error_code_of(oom), ErrorCode::kAlloc);
  const std::runtime_error other("boom");
  EXPECT_EQ(error_code_of(other), ErrorCode::kUnknown);
}

// ---- environment knobs (common/env.h) --------------------------------------
//
// Regression contract for the consolidated parser: a malformed knob is
// IGNORED (the fallback wins) — it must never throw or abort at startup.
// Before consolidation the service/shard/tune/failover layers each had a
// private strtol wrapper; these tests pin the one shared policy.

TEST(Env, ParseLongAcceptsWellFormedValues) {
  EXPECT_EQ(env::parse_long("42", 7, 0), 42);
  EXPECT_EQ(env::parse_long("0", 7, 0), 0);
  EXPECT_EQ(env::parse_long("  8", 7, 0), 8);  // strtol skips whitespace
  EXPECT_EQ(env::parse_long("1", 7, 1), 1);    // at the min bound
}

TEST(Env, ParseLongIgnoresMalformedValuesInsteadOfThrowing) {
  // Every malformed shape falls back; none may throw.
  EXPECT_EQ(env::parse_long(nullptr, 7, 0), 7);   // unset
  EXPECT_EQ(env::parse_long("", 7, 0), 7);        // empty
  EXPECT_EQ(env::parse_long("abc", 7, 0), 7);     // unparsable
  EXPECT_EQ(env::parse_long("12x", 7, 0), 7);     // trailing garbage
  EXPECT_EQ(env::parse_long("1.5", 7, 0), 7);     // not an integer
  EXPECT_EQ(env::parse_long("-3", 7, 0), 7);      // below min (0)
  EXPECT_EQ(env::parse_long("0", 7, 1), 7);       // below min (1)
  EXPECT_EQ(env::parse_long("99999999999999999999", 7, 0), 7);  // overflow
}

TEST(Env, ParseDoubleAcceptsAndRangeChecks) {
  EXPECT_DOUBLE_EQ(env::parse_double("0.25", 0.5, 0.0, 1.0), 0.25);
  EXPECT_DOUBLE_EQ(env::parse_double("0", 0.5, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(env::parse_double("1", 0.5, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(env::parse_double(nullptr, 0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(env::parse_double("", 0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(env::parse_double("half", 0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(env::parse_double("0.5x", 0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(env::parse_double("1.5", 0.5, 0.0, 1.0), 0.5);   // > max
  EXPECT_DOUBLE_EQ(env::parse_double("-0.1", 0.5, 0.0, 1.0), 0.5);  // < min
  EXPECT_DOUBLE_EQ(env::parse_double("nan", 0.5, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(env::parse_double("inf", 0.5, 0.0, 1.0), 0.5);
}

TEST(Env, ReadersConsultTheProcessEnvironment) {
  ::setenv("SMMKIT_TEST_ENV_KNOB", "12", 1);
  EXPECT_EQ(env::read_long("SMMKIT_TEST_ENV_KNOB", 3), 12);
  EXPECT_EQ(env::read_positive_long("SMMKIT_TEST_ENV_KNOB", 3), 12);
  ::setenv("SMMKIT_TEST_ENV_KNOB", "0", 1);
  EXPECT_EQ(env::read_long("SMMKIT_TEST_ENV_KNOB", 3), 0);
  EXPECT_EQ(env::read_positive_long("SMMKIT_TEST_ENV_KNOB", 3), 3);  // > 0
  ::setenv("SMMKIT_TEST_ENV_KNOB", "garbage", 1);
  EXPECT_EQ(env::read_long("SMMKIT_TEST_ENV_KNOB", 3), 3);
  ::setenv("SMMKIT_TEST_ENV_KNOB", "0.75", 1);
  EXPECT_DOUBLE_EQ(env::read_fraction("SMMKIT_TEST_ENV_KNOB", 0.1), 0.75);
  ::setenv("SMMKIT_TEST_ENV_KNOB", "2.5", 1);
  EXPECT_DOUBLE_EQ(env::read_fraction("SMMKIT_TEST_ENV_KNOB", 0.1), 0.1);
  ::setenv("SMMKIT_TEST_ENV_KNOB", "hello", 1);
  EXPECT_EQ(env::read_string("SMMKIT_TEST_ENV_KNOB", "fb"), "hello");
  ::setenv("SMMKIT_TEST_ENV_KNOB", "", 1);
  EXPECT_EQ(env::read_string("SMMKIT_TEST_ENV_KNOB", "fb"), "fb");
  ::unsetenv("SMMKIT_TEST_ENV_KNOB");
  EXPECT_EQ(env::read_long("SMMKIT_TEST_ENV_KNOB", 3), 3);
  EXPECT_EQ(env::read_string("SMMKIT_TEST_ENV_KNOB", "fb"), "fb");
}

}  // namespace
}  // namespace smm
