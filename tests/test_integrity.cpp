// smm::integrity under fire (DESIGN.md §12): row+column ABFT with
// localization and in-place repair, sealed cached state (PlanCache plan
// seals, PrepackedB content checksums), the SMMKIT_ABFT mode knob, and
// the exact accounting invariant detected == corrected + recomputed.
// Every corruption is deterministic (seeded injection or a direct flip),
// so a failing case reproduces exactly.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/matrix/compare.h"
#include "src/robust/abft.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "tests/test_helpers.h"

namespace smm {
namespace {

using integrity::AbftMode;
using robust::CChecksums;
using robust::FaultInjector;
using robust::FaultSite;
using robust::FaultSpec;
using robust::GuardedExecutor;
using robust::GuardOptions;
using robust::IntegrityReport;
using robust::Outcome;
using robust::Repair;
using robust::RunReport;
using robust::ScopedFault;

// Same evenly-tiled shape as test_robust: no flip can hide in padding.
constexpr index_t kM = 64, kN = 48, kK = 64;

core::SmmOptions always_pack() {
  core::SmmOptions o;
  o.pack_a = core::SmmOptions::Packing::kAlways;
  o.pack_b = core::SmmOptions::Packing::kAlways;
  return o;
}

/// Flip bit `bit` of c(i, j) in place.
void flip_bit(MatrixView<float> c, index_t i, index_t j, int bit) {
  std::uint32_t u;
  float v = c(i, j);
  std::memcpy(&u, &v, sizeof(u));
  u ^= std::uint32_t{1} << bit;
  std::memcpy(&v, &u, sizeof(v));
  c(i, j) = v;
}

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    integrity::set_mode_override(AbftMode::kCorrect);
    strategy_ = core::make_reference_smm(always_pack());
  }
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    integrity::set_mode_override(AbftMode::kAuto);
  }

  /// A problem with C already holding the true product (the state an
  /// executor leaves behind), plus the naive oracle.
  struct Truth {
    test::GemmProblem<float> prob;
    explicit Truth(std::uint64_t seed, float alpha = 1.0f,
                   float beta = 0.0f)
        : prob(kM, kN, kK, seed) {
      prob.reference(alpha, beta);
      prob.c = prob.c_expected.clone();
    }
  };

  IntegrityReport verify(Truth& t, AbftMode mode, float alpha = 1.0f) {
    return robust::verify_and_repair<float>(
        alpha, t.prob.a.cview(), t.prob.b.cview(), 0.0f,
        /*c0_sums=*/nullptr, /*c_before=*/nullptr, 0, t.prob.c.view(),
        mode);
  }

  std::unique_ptr<libs::GemmStrategy> strategy_;
};

// ---- Mode knob -------------------------------------------------------------

TEST_F(IntegrityTest, EnvKnobParsesEveryValue) {
  ASSERT_EQ(setenv("SMMKIT_ABFT", "off", 1), 0);
  EXPECT_EQ(integrity::mode_from_env(), AbftMode::kOff);
  ASSERT_EQ(setenv("SMMKIT_ABFT", "detect", 1), 0);
  EXPECT_EQ(integrity::mode_from_env(), AbftMode::kDetect);
  ASSERT_EQ(setenv("SMMKIT_ABFT", "correct", 1), 0);
  EXPECT_EQ(integrity::mode_from_env(), AbftMode::kCorrect);
  ASSERT_EQ(setenv("SMMKIT_ABFT", "bogus", 1), 0);
  EXPECT_EQ(integrity::mode_from_env(), AbftMode::kDetect);
  ASSERT_EQ(unsetenv("SMMKIT_ABFT"), 0);
  EXPECT_EQ(integrity::mode_from_env(), AbftMode::kDetect);
}

TEST_F(IntegrityTest, OverrideWinsAndResolveNeverReturnsAuto) {
  integrity::set_mode_override(AbftMode::kOff);
  EXPECT_EQ(integrity::mode(), AbftMode::kOff);
  EXPECT_EQ(integrity::resolve(AbftMode::kAuto), AbftMode::kOff);
  EXPECT_EQ(integrity::resolve(AbftMode::kCorrect), AbftMode::kCorrect);
  integrity::set_mode_override(AbftMode::kCorrect);
  EXPECT_EQ(integrity::mode(), AbftMode::kCorrect);
}

TEST_F(IntegrityTest, AbftOptionChangesPlanCacheFingerprint) {
  core::SmmOptions a, b;
  b.abft = AbftMode::kCorrect;
  EXPECT_NE(core::options_fingerprint(a), core::options_fingerprint(b));
}

// ---- Seal primitives -------------------------------------------------------

TEST_F(IntegrityTest, ContentChecksumSeesEveryBit) {
  std::uint8_t buf[37] = {};
  const std::uint64_t clean = integrity::content_checksum(buf, sizeof(buf));
  for (std::size_t byte : {std::size_t{0}, std::size_t{8},
                           std::size_t{36}}) {
    buf[byte] ^= 1;
    EXPECT_NE(integrity::content_checksum(buf, sizeof(buf)), clean)
        << "flip at byte " << byte << " was invisible";
    buf[byte] ^= 1;
  }
  EXPECT_EQ(integrity::content_checksum(buf, sizeof(buf)), clean);
  // Length participates: a zero tail must not extend silently.
  EXPECT_NE(integrity::content_checksum(buf, 36),
            integrity::content_checksum(buf, 37));
}

TEST_F(IntegrityTest, PlanSealCatchesStructuralRot) {
  const GemmShape shape{kM, kN, kK};
  plan::GemmPlan plan =
      strategy_->make_plan(shape, plan::ScalarType::kF32, 1);
  const std::uint64_t clean = integrity::plan_seal(plan);
  EXPECT_EQ(integrity::plan_seal(plan), clean) << "seal not deterministic";
  ASSERT_TRUE(integrity::corrupt_plan_for_test(plan));
  EXPECT_NE(integrity::plan_seal(plan), clean);
}

// ---- Lane seals: every sealed field is seen ---------------------------------

/// A plan holding one of every op kind, every field set to a distinct
/// nonzero value. It is never executed, only sealed.
plan::GemmPlan every_op_kind_plan() {
  using namespace smm::plan;
  GemmPlan p;
  p.strategy = "seal-probe";
  p.shape = {37, 41, 43};
  p.scalar = ScalarType::kF64;
  p.nthreads = 2;
  p.conversion_outside_timing = true;
  p.blocking = {240, 512, 480, 16, 4};
  p.buffers = {{1001}, {1002}, {1003}};
  p.barriers = {{2}, {3}};
  PackAOp pa;
  pa.buffer = 1;
  pa.dst_offset = 11;
  pa.i0 = 12;
  pa.k0 = 13;
  pa.mc = 14;
  pa.kc = 15;
  pa.mr = 16;
  pa.pad = true;
  pa.chunks = {8, 4, 2};
  PackBOp pb;
  pb.buffer = 2;
  pb.dst_offset = 21;
  pb.k0 = 22;
  pb.j0 = 23;
  pb.kc = 24;
  pb.nc = 25;
  pb.nr = 26;
  pb.pad = true;
  pb.chunks = {4, 2, 1, 1, 1};
  ConvertOp cv;
  cv.which = ConvertOp::Which::kB;
  cv.buffer = 1;
  cv.ps = 8;
  cv.transpose = true;
  KernelOp k;
  k.kernel = 5;
  k.kc = 31;
  k.i0 = 32;
  k.j0 = 33;
  k.useful_m = 34;
  k.useful_n = 35;
  k.a = {OperandRef::Kind::kBuffer, 1, 36, 37, 38, 39, 40, 41};
  k.b = {OperandRef::Kind::kDirectB, 2, 42, 43, 44, 45, 46, 47};
  k.first_k_block = true;
  k.c_buffer = 2;
  k.c_offset = 48;
  k.c_ld = 49;
  BarrierOp bar;
  bar.barrier = 1;
  ScaleCOp sc;
  sc.i0 = 51;
  sc.j0 = 52;
  sc.rows = 53;
  sc.cols = 54;
  ReduceCOp rd;
  rd.buffer = 2;
  rd.i0 = 61;
  rd.j0 = 62;
  rd.rows = 63;
  rd.cols = 64;
  rd.ld = 65;
  rd.offset = 66;
  rd.part_stride = 67;
  rd.parts = 3;
  p.thread_ops = {{pa, pb, cv, k, bar}, {sc, rd, k}};
  return p;
}

template <typename Op>
Op& op_at(plan::GemmPlan& p, std::size_t thread, std::size_t i) {
  return std::get<Op>(p.thread_ops[thread][i]);
}

/// Flip `bit` of an integer field in place.
template <typename Int>
void flip(Int& v, int bit) {
  using U = std::make_unsigned_t<Int>;
  v = static_cast<Int>(static_cast<U>(v) ^ (U{1} << bit));
}

TEST(SealLanes, EverySealedFieldChangesThePlanSeal) {
  using namespace smm::plan;
  using Mutation = std::function<void(GemmPlan&)>;
  std::vector<std::pair<std::string, Mutation>> cases;
  const auto add = [&cases](std::string name, Mutation m) {
    cases.emplace_back(std::move(name), std::move(m));
  };
  // 64-bit fields: low, middle and top bits; 32-bit fields: low and top.
  const auto index_field = [&add](const std::string& name,
                                  std::function<index_t&(GemmPlan&)> f) {
    for (const int bit : {0, 17, 40, 63})
      add(name + " bit " + std::to_string(bit),
          [f, bit](GemmPlan& p) { flip(f(p), bit); });
  };
  const auto int_field = [&add](const std::string& name,
                                std::function<int&(GemmPlan&)> f) {
    for (const int bit : {0, 17, 31})
      add(name + " bit " + std::to_string(bit),
          [f, bit](GemmPlan& p) { flip(f(p), bit); });
  };

  add("strategy", [](GemmPlan& p) { p.strategy[3] ^= 0x20; });
  index_field("shape.m", [](GemmPlan& p) -> index_t& { return p.shape.m; });
  index_field("shape.n", [](GemmPlan& p) -> index_t& { return p.shape.n; });
  index_field("shape.k", [](GemmPlan& p) -> index_t& { return p.shape.k; });
  add("scalar", [](GemmPlan& p) { p.scalar = ScalarType::kF32; });
  int_field("nthreads", [](GemmPlan& p) -> int& { return p.nthreads; });
  add("conversion_outside_timing",
      [](GemmPlan& p) { p.conversion_outside_timing = false; });
  index_field("blocking.mc",
              [](GemmPlan& p) -> index_t& { return p.blocking.mc; });
  index_field("blocking.kc",
              [](GemmPlan& p) -> index_t& { return p.blocking.kc; });
  index_field("blocking.nc",
              [](GemmPlan& p) -> index_t& { return p.blocking.nc; });
  index_field("blocking.mr",
              [](GemmPlan& p) -> index_t& { return p.blocking.mr; });
  index_field("blocking.nr",
              [](GemmPlan& p) -> index_t& { return p.blocking.nr; });
  for (std::size_t b = 0; b < 3; ++b)
    index_field("buffer decl " + std::to_string(b),
                [b](GemmPlan& p) -> index_t& { return p.buffers[b].elems; });
  add("buffer decl added", [](GemmPlan& p) { p.buffers.push_back({0}); });
  for (std::size_t b = 0; b < 2; ++b)
    int_field("barrier decl " + std::to_string(b), [b](GemmPlan& p) -> int& {
      return p.barriers[b].participants;
    });
  add("barrier decl added", [](GemmPlan& p) { p.barriers.push_back({0}); });

  // PackAOp (thread 0, op 0) and PackBOp (thread 0, op 1).
  int_field("PackAOp.buffer",
            [](GemmPlan& p) -> int& { return op_at<PackAOp>(p, 0, 0).buffer; });
  for (const auto& [name, get] :
       std::vector<std::pair<std::string, index_t PackAOp::*>>{
           {"dst_offset", &PackAOp::dst_offset}, {"i0", &PackAOp::i0},
           {"k0", &PackAOp::k0}, {"mc", &PackAOp::mc}, {"kc", &PackAOp::kc},
           {"mr", &PackAOp::mr}})
    index_field("PackAOp." + name, [get = get](GemmPlan& p) -> index_t& {
      return op_at<PackAOp>(p, 0, 0).*get;
    });
  add("PackAOp.pad", [](GemmPlan& p) { op_at<PackAOp>(p, 0, 0).pad = false; });
  for (std::size_t c = 0; c < 3; ++c)
    index_field("PackAOp.chunks[" + std::to_string(c) + "]",
                [c](GemmPlan& p) -> index_t& {
                  return op_at<PackAOp>(p, 0, 0).chunks[c];
                });
  add("PackAOp.chunks added",
      [](GemmPlan& p) { op_at<PackAOp>(p, 0, 0).chunks.push_back(0); });
  int_field("PackBOp.buffer",
            [](GemmPlan& p) -> int& { return op_at<PackBOp>(p, 0, 1).buffer; });
  for (const auto& [name, get] :
       std::vector<std::pair<std::string, index_t PackBOp::*>>{
           {"dst_offset", &PackBOp::dst_offset}, {"k0", &PackBOp::k0},
           {"j0", &PackBOp::j0}, {"kc", &PackBOp::kc}, {"nc", &PackBOp::nc},
           {"nr", &PackBOp::nr}})
    index_field("PackBOp." + name, [get = get](GemmPlan& p) -> index_t& {
      return op_at<PackBOp>(p, 0, 1).*get;
    });
  add("PackBOp.pad", [](GemmPlan& p) { op_at<PackBOp>(p, 0, 1).pad = false; });
  index_field("PackBOp.chunks[4]", [](GemmPlan& p) -> index_t& {
    return op_at<PackBOp>(p, 0, 1).chunks[4];
  });

  // ConvertOp (thread 0, op 2).
  add("ConvertOp.which", [](GemmPlan& p) {
    op_at<ConvertOp>(p, 0, 2).which = ConvertOp::Which::kA;
  });
  int_field("ConvertOp.buffer", [](GemmPlan& p) -> int& {
    return op_at<ConvertOp>(p, 0, 2).buffer;
  });
  index_field("ConvertOp.ps", [](GemmPlan& p) -> index_t& {
    return op_at<ConvertOp>(p, 0, 2).ps;
  });
  add("ConvertOp.transpose",
      [](GemmPlan& p) { op_at<ConvertOp>(p, 0, 2).transpose = false; });

  // KernelOp (thread 0, op 3) and both of its OperandRefs.
  int_field("KernelOp.kernel", [](GemmPlan& p) -> int& {
    return op_at<KernelOp>(p, 0, 3).kernel;
  });
  for (const auto& [name, get] :
       std::vector<std::pair<std::string, index_t KernelOp::*>>{
           {"kc", &KernelOp::kc}, {"i0", &KernelOp::i0},
           {"j0", &KernelOp::j0}, {"useful_m", &KernelOp::useful_m},
           {"useful_n", &KernelOp::useful_n},
           {"c_offset", &KernelOp::c_offset}, {"c_ld", &KernelOp::c_ld}})
    index_field("KernelOp." + name, [get = get](GemmPlan& p) -> index_t& {
      return op_at<KernelOp>(p, 0, 3).*get;
    });
  add("KernelOp.first_k_block", [](GemmPlan& p) {
    op_at<KernelOp>(p, 0, 3).first_k_block = false;
  });
  int_field("KernelOp.c_buffer", [](GemmPlan& p) -> int& {
    return op_at<KernelOp>(p, 0, 3).c_buffer;
  });
  for (const auto& [side, ref] :
       std::vector<std::pair<std::string, OperandRef KernelOp::*>>{
           {"a", &KernelOp::a}, {"b", &KernelOp::b}}) {
    const std::string pre = "KernelOp." + side + ".";
    add(pre + "kind", [ref = ref](GemmPlan& p) {
      OperandRef& r = op_at<KernelOp>(p, 0, 3).*ref;
      r.kind = r.kind == OperandRef::Kind::kDirectA
                   ? OperandRef::Kind::kBuffer
                   : OperandRef::Kind::kDirectA;
    });
    int_field(pre + "buffer", [ref = ref](GemmPlan& p) -> int& {
      return (op_at<KernelOp>(p, 0, 3).*ref).buffer;
    });
    for (const auto& [name, get] :
         std::vector<std::pair<std::string, index_t OperandRef::*>>{
             {"offset", &OperandRef::offset}, {"ps", &OperandRef::ps},
             {"pstride", &OperandRef::pstride},
             {"kstride", &OperandRef::kstride}, {"row0", &OperandRef::row0},
             {"col0", &OperandRef::col0}})
      index_field(pre + name,
                  [ref = ref, get = get](GemmPlan& p) -> index_t& {
                    return (op_at<KernelOp>(p, 0, 3).*ref).*get;
                  });
  }

  // BarrierOp (thread 0, op 4), ScaleCOp and ReduceCOp (thread 1).
  int_field("BarrierOp.barrier", [](GemmPlan& p) -> int& {
    return op_at<BarrierOp>(p, 0, 4).barrier;
  });
  for (const auto& [name, get] :
       std::vector<std::pair<std::string, index_t ScaleCOp::*>>{
           {"i0", &ScaleCOp::i0}, {"j0", &ScaleCOp::j0},
           {"rows", &ScaleCOp::rows}, {"cols", &ScaleCOp::cols}})
    index_field("ScaleCOp." + name, [get = get](GemmPlan& p) -> index_t& {
      return op_at<ScaleCOp>(p, 1, 0).*get;
    });
  int_field("ReduceCOp.buffer", [](GemmPlan& p) -> int& {
    return op_at<ReduceCOp>(p, 1, 1).buffer;
  });
  int_field("ReduceCOp.parts", [](GemmPlan& p) -> int& {
    return op_at<ReduceCOp>(p, 1, 1).parts;
  });
  for (const auto& [name, get] :
       std::vector<std::pair<std::string, index_t ReduceCOp::*>>{
           {"i0", &ReduceCOp::i0}, {"j0", &ReduceCOp::j0},
           {"rows", &ReduceCOp::rows}, {"cols", &ReduceCOp::cols},
           {"ld", &ReduceCOp::ld}, {"offset", &ReduceCOp::offset},
           {"part_stride", &ReduceCOp::part_stride}})
    index_field("ReduceCOp." + name, [get = get](GemmPlan& p) -> index_t& {
      return op_at<ReduceCOp>(p, 1, 1).*get;
    });

  // The op kind and the op lists themselves.
  add("op kind", [](GemmPlan& p) {
    const ScaleCOp sc = op_at<ScaleCOp>(p, 1, 0);
    ReduceCOp rd;
    rd.i0 = sc.i0;
    rd.j0 = sc.j0;
    rd.rows = sc.rows;
    rd.cols = sc.cols;
    p.thread_ops[1][0] = rd;
  });
  add("op dropped", [](GemmPlan& p) { p.thread_ops[1].pop_back(); });
  add("op moved between threads", [](GemmPlan& p) {
    p.thread_ops[0].push_back(p.thread_ops[1].back());
    p.thread_ops[1].pop_back();
  });

  const GemmPlan base = every_op_kind_plan();
  const std::uint64_t clean = integrity::plan_seal(base);
  ASSERT_EQ(integrity::plan_seal(every_op_kind_plan()), clean);
  for (const auto& [name, mutate] : cases) {
    GemmPlan rotted = base;
    mutate(rotted);
    EXPECT_NE(integrity::plan_seal(rotted), clean)
        << "a change to " << name << " left the seal unchanged";
  }
}

TEST(SealLanes, EveryByteOfContentChangesTheChecksum) {
  // Three whole four-word blocks plus a partial one: every lane, at every
  // byte offset modulo the lane count, and the zero-padded tail.
  std::vector<std::uint8_t> buf(3 * 32 + 13);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const std::uint64_t clean =
      integrity::content_checksum(buf.data(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    for (const std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      buf[i] ^= bit;
      EXPECT_NE(integrity::content_checksum(buf.data(), buf.size()), clean)
          << "flip of byte " << i << " (lane " << i / 8 % 4 << ")";
      buf[i] ^= bit;
    }
  }
  // A zero byte appended is not the same content.
  std::vector<std::uint8_t> longer = buf;
  longer.push_back(0);
  EXPECT_NE(integrity::content_checksum(longer.data(), longer.size()), clean);
}

// ---- verify_and_repair -----------------------------------------------------

TEST_F(IntegrityTest, CleanResultPassesWithoutDetection) {
  Truth t(0x11);
  const IntegrityReport r = verify(t, AbftMode::kCorrect);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.detected);
  EXPECT_EQ(r.repair, Repair::kNone);
}

TEST_F(IntegrityTest, DetectModeLocalizesButNeverWrites) {
  Truth t(0x22);
  flip_bit(t.prob.c.view(), 17, 11, 30);
  const Matrix<float> before = t.prob.c.clone();
  const IntegrityReport r = verify(t, AbftMode::kDetect);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.repair, Repair::kNone);
  EXPECT_EQ(r.bad_row, 17);
  EXPECT_EQ(r.bad_col, 11);
  // Detect mode reports; it must not touch C.
  EXPECT_EQ(max_abs_diff(t.prob.c.cview(), before.cview()), 0.0);
}

TEST_F(IntegrityTest, SingleFlipRepairedByElementRecompute) {
  Truth t(0x33);
  flip_bit(t.prob.c.view(), 40, 7, 30);
  const IntegrityReport r = verify(t, AbftMode::kCorrect);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.repair, Repair::kElement);
  EXPECT_EQ(r.bad_row, 40);
  EXPECT_EQ(r.bad_col, 7);
  EXPECT_LE(max_abs_diff(t.prob.c.cview(), t.prob.c_expected.cview()),
            gemm_tolerance<float>(kK) * 8.0);
}

TEST_F(IntegrityTest, NaNDamageRepairedInPlace) {
  Truth t(0x44);
  t.prob.c.view()(5, 5) = std::numeric_limits<float>::quiet_NaN();
  const IntegrityReport r = verify(t, AbftMode::kCorrect);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.repair, Repair::kElement);
  EXPECT_LE(max_abs_diff(t.prob.c.cview(), t.prob.c_expected.cview()),
            gemm_tolerance<float>(kK) * 8.0);
}

TEST_F(IntegrityTest, ColumnDamageRepairedByPanelRecompute) {
  Truth t(0x55);
  for (index_t i : {index_t{3}, index_t{20}, index_t{50}})
    flip_bit(t.prob.c.view(), i, 9, 30);
  const IntegrityReport r = verify(t, AbftMode::kCorrect);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.repair, Repair::kPanel);
  EXPECT_LE(max_abs_diff(t.prob.c.cview(), t.prob.c_expected.cview()),
            gemm_tolerance<float>(kK) * 8.0);
}

TEST_F(IntegrityTest, WholesaleDamageIsReportedNotPatched) {
  Truth t(0x66);
  for (index_t j = 0; j < kN; ++j)
    for (index_t i = 0; i < kM; ++i) t.prob.c.view()(i, j) += 100.0f;
  const IntegrityReport r = verify(t, AbftMode::kCorrect);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.detected);
  // A localized patch of near-total damage would cost more than the full
  // recompute the caller already owns — refuse and report.
  EXPECT_EQ(r.repair, Repair::kNone);
  EXPECT_GT(r.damaged_cols, static_cast<int>(kN) / 2);
}

TEST_F(IntegrityTest, BetaNonZeroVerifiesAgainstPrecomputedChecksums) {
  const float alpha = 1.0f, beta = 0.5f;
  test::GemmProblem<float> prob(kM, kN, kK, 0x77);
  const Matrix<float> c0 = prob.c.clone();
  const CChecksums c0sums = robust::checksum_c<float>(c0.cview());
  prob.reference(alpha, beta);
  prob.c = prob.c_expected.clone();
  flip_bit(prob.c.view(), 30, 30, 30);
  const IntegrityReport r = robust::verify_and_repair<float>(
      alpha, prob.a.cview(), prob.b.cview(), beta, &c0sums, c0.data(), kM,
      prob.c.view(), AbftMode::kCorrect);
  EXPECT_TRUE(r.ok);
  EXPECT_TRUE(r.detected);
  EXPECT_EQ(r.repair, Repair::kElement);
  EXPECT_LE(max_abs_diff(prob.c.cview(), prob.c_expected.cview()),
            gemm_tolerance<float>(kK) * 8.0);
}

TEST_F(IntegrityTest, FuzzSingleAndDoubleBitFlips) {
  Rng rng(0xF122);
  for (int iter = 0; iter < 60; ++iter) {
    Truth t(0x1000 + static_cast<std::uint64_t>(iter));
    const int flips = 1 + static_cast<int>(rng.next_index(2));
    for (int f = 0; f < flips; ++f)
      flip_bit(t.prob.c.view(), rng.next_index(kM), rng.next_index(kN),
               static_cast<int>(rng.next_index(32)));
    const IntegrityReport r = verify(t, AbftMode::kCorrect);
    // Correct mode either saw nothing (the flip drowned below the
    // rounding tolerance) or repaired it; localizable damage this small
    // must never be left to a full recompute.
    EXPECT_TRUE(r.ok) << "iter " << iter << " residual " << r.residual;
    if (r.detected) EXPECT_NE(r.repair, Repair::kNone) << "iter " << iter;
    const double diff =
        max_abs_diff(t.prob.c.cview(), t.prob.c_expected.cview());
    EXPECT_LE(diff, gemm_tolerance<float>(kK) * 8.0 + 2.0 * r.tolerance)
        << "iter " << iter;
  }
}

// ---- GuardedExecutor integration -------------------------------------------

TEST_F(IntegrityTest, KernelFlipServedAsCorrectedOnFirstAttempt) {
  GuardOptions opts;
  opts.abft = AbftMode::kCorrect;
  GuardedExecutor guard(*strategy_, opts);
  test::GemmProblem<float> prob(kM, kN, kK, 0x88);
  prob.reference(1.0f, 0.0f);
  ScopedFault fault(FaultSite::kKernelMiscompute, FaultSpec{0, 1});
  const RunReport report = guard.run(1.0f, prob.a.cview(), prob.b.cview(),
                                     0.0f, prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kCorrected);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_STREQ(report.repair, "element");
  EXPECT_TRUE(prob.check());
}

TEST_F(IntegrityTest, DetectModeStillRecoversByRetry) {
  GuardOptions opts;
  opts.abft = AbftMode::kDetect;
  GuardedExecutor guard(*strategy_, opts);
  test::GemmProblem<float> prob(kM, kN, kK, 0x99);
  prob.reference(1.0f, 0.0f);
  ScopedFault fault(FaultSite::kKernelMiscompute, FaultSpec{0, 1});
  const RunReport report = guard.run(1.0f, prob.a.cview(), prob.b.cview(),
                                     0.0f, prob.c.view());
  EXPECT_EQ(report.outcome, Outcome::kRecovered);
  EXPECT_EQ(report.first_error, ErrorCode::kChecksumMismatch);
  EXPECT_STREQ(report.repair, "none");
  EXPECT_TRUE(prob.check());
}

TEST_F(IntegrityTest, ScratchSlabFlipRepairedOrRecovered) {
  GuardOptions opts;
  opts.abft = AbftMode::kCorrect;
  GuardedExecutor guard(*strategy_, opts);
  test::GemmProblem<float> prob(kM, kN, kK, 0xAA);
  prob.reference(0.5f, 1.0f);
  ScopedFault fault(FaultSite::kScratchSlabFlip, FaultSpec{0, 1});
  const RunReport report = guard.run(0.5f, prob.a.cview(), prob.b.cview(),
                                     1.0f, prob.c.view());
  EXPECT_TRUE(report.ok());
  EXPECT_GE(FaultInjector::instance().fired_count(
                FaultSite::kScratchSlabFlip),
            1u);
  EXPECT_TRUE(prob.check());
}

TEST_F(IntegrityTest, AccountingDetectedEqualsCorrectedPlusRecomputed) {
  robust::health().reset();
  GuardOptions correct_opts;
  correct_opts.abft = AbftMode::kCorrect;
  GuardedExecutor correct_guard(*strategy_, correct_opts);
  GuardOptions detect_opts;
  detect_opts.abft = AbftMode::kDetect;
  GuardedExecutor detect_guard(*strategy_, detect_opts);

  test::GemmProblem<float> prob(kM, kN, kK, 0xBB);
  prob.reference(1.0f, 0.0f);
  // Clean run: no integrity traffic at all.
  Matrix<float> c = prob.c.clone();
  EXPECT_EQ(correct_guard
                .run(1.0f, prob.a.cview(), prob.b.cview(), 0.0f, c.view())
                .outcome,
            Outcome::kOk);
  {  // One flip repaired in place.
    c = prob.c.clone();
    ScopedFault fault(FaultSite::kKernelMiscompute, FaultSpec{0, 1});
    EXPECT_EQ(correct_guard
                  .run(1.0f, prob.a.cview(), prob.b.cview(), 0.0f, c.view())
                  .outcome,
              Outcome::kCorrected);
  }
  {  // One flip detected only — the retry is the recompute.
    c = prob.c.clone();
    ScopedFault fault(FaultSite::kKernelMiscompute, FaultSpec{0, 1});
    EXPECT_EQ(detect_guard
                  .run(1.0f, prob.a.cview(), prob.b.cview(), 0.0f, c.view())
                  .outcome,
              Outcome::kRecovered);
  }
  const robust::HealthSnapshot s = robust::health().snapshot();
  EXPECT_EQ(s.integrity_detected, 2u);
  EXPECT_EQ(s.integrity_corrected, 1u);
  EXPECT_EQ(s.integrity_recomputed, 1u);
  EXPECT_EQ(s.integrity_detected,
            s.integrity_corrected + s.integrity_recomputed);
  EXPECT_EQ(s.corrected_runs, 1u);
}

// ---- Sealed cached state ---------------------------------------------------

TEST_F(IntegrityTest, PlanCacheQuarantinesRottedEntryAndRebuilds) {
  robust::health().reset();
  core::PlanCache cache(*strategy_, 8);
  const GemmShape shape{kM, kN, kK};
  const auto p1 = cache.get(shape, plan::ScalarType::kF32, 1);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(cache.builds(), 1u);
  ASSERT_NE(cache.get(shape, plan::ScalarType::kF32, 1), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  {
    ScopedFault fault(FaultSite::kPlanCacheFlip, FaultSpec{0, 1});
    const auto p3 = cache.get(shape, plan::ScalarType::kF32, 1);
    ASSERT_NE(p3, nullptr);
  }
  EXPECT_EQ(cache.seal_rejections(), 1u);
  EXPECT_EQ(cache.builds(), 2u) << "quarantined entry must be rebuilt";
  const robust::HealthSnapshot s = robust::health().snapshot();
  EXPECT_EQ(s.integrity_quarantines, 1u);
  EXPECT_EQ(s.plan_seal_rebuilds, 1u);
  // The rebuilt entry serves hits again.
  ASSERT_NE(cache.get(shape, plan::ScalarType::kF32, 1), nullptr);
  EXPECT_EQ(cache.seal_rejections(), 1u);
}

TEST_F(IntegrityTest, PrepackedBRepacksRottedStorage) {
  robust::health().reset();
  test::GemmProblem<float> prob(kM, kN, kK, 0xCC);
  prob.reference(1.0f, 0.0f);
  auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), kM, 1, always_pack());
  ASSERT_TRUE(handle.materialized());
  handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
  EXPECT_TRUE(prob.check());

  ASSERT_TRUE(handle.corrupt_storage_for_test());
  prob.c.view()(0, 0) = 0.0f;  // make a stale pass impossible
  handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
  EXPECT_TRUE(prob.check()) << "rotted pack served to the kernels";
  const robust::HealthSnapshot s = robust::health().snapshot();
  EXPECT_EQ(s.integrity_quarantines, 1u);
  EXPECT_EQ(s.prepack_repacks, 1u);
}

TEST_F(IntegrityTest, PrepackedBThrowsWhenRepairDisabled) {
  test::GemmProblem<float> prob(kM, kN, kK, 0xDD);
  auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), kM, 1, always_pack());
  ASSERT_TRUE(handle.materialized());
  handle.set_repair(false);
  ASSERT_TRUE(handle.corrupt_storage_for_test());
  try {
    handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
    FAIL() << "rotted storage with repair disabled must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCacheCorrupted);
  }
}

TEST_F(IntegrityTest, PrepackedStoreFlipSiteIsCaughtBeforeExecution) {
  robust::health().reset();
  test::GemmProblem<float> prob(kM, kN, kK, 0xEE);
  prob.reference(2.0f, 0.0f);
  auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), kM, 1, always_pack());
  ASSERT_TRUE(handle.materialized());
  ScopedFault fault(FaultSite::kPrepackedStoreFlip, FaultSpec{0, 1});
  handle.run(2.0f, prob.a.cview(), 0.0f, prob.c.view());
  EXPECT_GE(FaultInjector::instance().fired_count(
                FaultSite::kPrepackedStoreFlip),
            1u);
  EXPECT_TRUE(prob.check());
  EXPECT_GE(robust::health().snapshot().prepack_repacks, 1u);
}

TEST_F(IntegrityTest, SealValidationIsFreeWhenModeOff) {
  integrity::set_mode_override(AbftMode::kOff);
  robust::health().reset();
  test::GemmProblem<float> prob(kM, kN, kK, 0xFF);
  auto handle =
      core::smm_prepack_b<float>(prob.b.cview(), kM, 1, always_pack());
  ASSERT_TRUE(handle.materialized());
  // With the mode off nothing validates (and the injection site is never
  // reached): rot is the caller's risk, as documented.
  ScopedFault fault(FaultSite::kPrepackedStoreFlip, FaultSpec{0, 1});
  handle.run(1.0f, prob.a.cview(), 0.0f, prob.c.view());
  EXPECT_EQ(FaultInjector::instance().fired_count(
                FaultSite::kPrepackedStoreFlip),
            0u);
  EXPECT_EQ(robust::health().snapshot().integrity_quarantines, 0u);
}

}  // namespace
}  // namespace smm
