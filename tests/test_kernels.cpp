// Micro-kernel numerical correctness (against a scalar oracle computed on
// the same packed operands) and registry / schedule structural checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/registry.h"
#include "src/kernels/schedule.h"
#include "src/kernels/schedules_armv8.h"
#include "src/matrix/matrix.h"
#include "src/pack/pack.h"
#include "src/simd/vec.h"

namespace smm::kern {
namespace {

// Oracle for one micro-kernel invocation on arbitrary operand addressing.
template <typename T>
void oracle(index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
            index_t mr, index_t nr, std::vector<T>& c_ref,
            index_t c_rs, index_t c_cs) {
  for (index_t j = 0; j < nr; ++j) {
    for (index_t i = 0; i < mr; ++i) {
      double acc = 0;
      for (index_t k = 0; k < kc; ++k)
        acc += static_cast<double>(ops.a[a_offset(ops, i, k)]) *
               static_cast<double>(ops.b[b_offset(ops, k, j)]);
      const auto idx = static_cast<std::size_t>(i * c_rs + j * c_cs);
      const double base = beta == T(0)
                              ? 0.0
                              : static_cast<double>(beta) *
                                    static_cast<double>(c_ref[idx]);
      c_ref[idx] =
          static_cast<T>(static_cast<double>(alpha) * acc + base);
    }
  }
}

template <typename T>
void run_tile_test(int mr, int nr, index_t kc, T alpha, T beta) {
  Rng rng(static_cast<std::uint64_t>(mr * 1000 + nr * 10 + kc));
  // Packed operands.
  std::vector<T> a(static_cast<std::size_t>(mr * kc));
  std::vector<T> b(static_cast<std::size_t>(nr * kc));
  for (auto& v : a) v = static_cast<T>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<T>(rng.uniform(-1, 1));
  std::vector<T> c(static_cast<std::size_t>(mr * nr));
  for (auto& v : c) v = static_cast<T>(rng.uniform(-1, 1));
  std::vector<T> c_ref = c;

  KernelOperands<T> ops;
  set_packed_a(ops, a.data(), mr);
  set_packed_b(ops, b.data(), nr);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = mr;

  oracle<T>(kc, alpha, beta, ops, mr, nr, c_ref, 1, mr);
  const MicroKernelFn<T> fn = native_tile_fn<T>(mr, nr);
  fn(kc, alpha, beta, ops, mr, nr);

  double worst = 0;
  for (std::size_t i = 0; i < c.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(c[i]) -
                                     static_cast<double>(c_ref[i])));
  EXPECT_LE(worst, 1e-4 * kc) << mr << "x" << nr << " kc=" << kc;
}

class TileKernel : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TileKernel, PackedOperandsF32) {
  const auto [mr, nr] = GetParam();
  for (index_t kc : {1, 2, 7, 64}) run_tile_test<float>(mr, nr, kc, 1.5f, 0.5f);
}

TEST_P(TileKernel, PackedOperandsF64) {
  const auto [mr, nr] = GetParam();
  for (index_t kc : {1, 3, 32}) run_tile_test<double>(mr, nr, kc, -2.0, 1.0);
}

// Runs `fn` on the given operands into a copy of `c0` and returns it.
template <typename T>
std::vector<T> run_into(MicroKernelFn<T> fn, index_t kc, T alpha, T beta,
                        KernelOperands<T> ops, const std::vector<T>& c0,
                        index_t mr, index_t nr) {
  std::vector<T> c = c0;
  ops.c = c.data();
  fn(kc, alpha, beta, ops, mr, nr);
  return c;
}

template <typename T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

// Clone widths this host runs: 128 always, then 256 and 512 up to
// host_vector_bits().
std::vector<int> host_clone_widths() {
  std::vector<int> widths;
  for (int bits : {128, 256, 512})
    if (bits <= host_vector_bits()) widths.push_back(bits);
  return widths;
}

// The packed-panel path of the clone tile_clone_fn names for `max_bits`
// must give the same bits as the runtime-stride path on the same values:
// A copied with a_kstride = mr + lanes and B with b_kstride = nr + 1 force
// the latter, which every clone shares. Also covers beta == 0 over a NaN
// C, row-major C and BLASFEO ps = 4 panels, which must take the fallback.
template <typename T>
void check_packed_path(int mr, int nr, int max_bits) {
  constexpr index_t kLanes = simd::kLanes<T>;
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const MicroKernelFn<T> fn = tile_clone_fn<T>(mr, nr, max_bits);
  const T alpha = T(-0.75);
  const index_t ldc = mr + 3;  // padded C column stride
  const index_t a_ks = mr + kLanes;
  const index_t b_ks = nr + 1;
  const bool blasfeo = mr > 4 && mr % 4 == 0;  // a_ps = 4 < mr applies
  for (index_t kc : {0, 1, 2, 7, 64, 513}) {
    Rng rng(static_cast<std::uint64_t>(mr * 100000 + nr * 1000 + kc));
    const auto sz = [](index_t n) { return static_cast<std::size_t>(n); };
    std::vector<T> a(sz(mr * kc)), b(sz(nr * kc)), c0(sz(ldc * nr));
    for (auto& v : a) v = static_cast<T>(rng.uniform(-1, 1));
    for (auto& v : b) v = static_cast<T>(rng.uniform(-1, 1));
    for (auto& v : c0) v = static_cast<T>(rng.uniform(-1, 1));
    // Strided copies; the padding is NaN so reading it would show.
    std::vector<T> a_strided(sz(a_ks * kc), nan), b_strided(sz(b_ks * kc), nan);
    std::vector<T> a_panel(sz(mr * kc), nan);  // BLASFEO ps = 4, mr / 4 panels
    for (index_t k = 0; k < kc; ++k) {
      for (index_t i = 0; i < mr; ++i) {
        const T v = a[sz(k * mr + i)];
        a_strided[sz(k * a_ks + i)] = v;
        if (blasfeo) a_panel[sz((i / 4) * 4 * kc + k * 4 + i % 4)] = v;
      }
      for (index_t j = 0; j < nr; ++j)
        b_strided[sz(k * b_ks + j)] = b[sz(k * nr + j)];
    }

    KernelOperands<T> packed;
    set_packed_a(packed, a.data(), mr);
    set_packed_b(packed, b.data(), nr);
    packed.c_rs = 1;
    packed.c_cs = ldc;
    KernelOperands<T> strided = packed;
    set_direct_a_colmajor(strided, a_strided.data(), a_ks, mr);
    set_direct_b_rowmajor(strided, b_strided.data(), b_ks, nr);
    KernelOperands<T> panel = packed;
    set_panel_a(panel, a_panel.data(), index_t{4}, kc);
    KernelOperands<T> row_major_c = packed;
    row_major_c.c_rs = nr + 2;
    row_major_c.c_cs = 1;
    ASSERT_TRUE(is_packed_panel(packed, mr, nr));
    ASSERT_FALSE(is_packed_panel(strided, mr, nr));
    ASSERT_FALSE(is_packed_panel(row_major_c, mr, nr));

    for (T beta : {T(0), T(1), T(-1), T(0.37)}) {
      SCOPED_TRACE(::testing::Message() << mr << "x" << nr << " kc=" << kc
                                        << " beta=" << beta << " clone="
                                        << max_bits << "-bit");
      const auto fast = run_into(fn, kc, alpha, beta, packed, c0, mr, nr);
      EXPECT_TRUE(same_bits(
          fast, run_into(fn, kc, alpha, beta, strided, c0, mr, nr)));
      if (blasfeo) {
        EXPECT_FALSE(is_packed_panel(panel, mr, nr));
        EXPECT_TRUE(same_bits(
            fast, run_into(fn, kc, alpha, beta, panel, c0, mr, nr)));
      }
      if (beta == T(0)) {
        // beta == 0 never reads C: a NaN-filled C must not leak through.
        const std::vector<T> c_nan(c0.size(), nan);
        const auto fast_nan =
            run_into(fn, kc, alpha, beta, packed, c_nan, mr, nr);
        const auto strided_nan =
            run_into(fn, kc, alpha, beta, strided, c_nan, mr, nr);
        EXPECT_TRUE(same_bits(fast_nan, strided_nan));
        for (index_t j = 0; j < nr; ++j)
          for (index_t i = 0; i < mr; ++i)
            EXPECT_FALSE(std::isnan(fast_nan[sz(i + j * ldc)]));
      }
      // Row-major C: the scalar epilogue skips the "+ beta * 0" of the
      // vector one when beta == 0, so only the sign of a zero may differ;
      // compare values, not bits.
      std::vector<T> c_rm(sz(mr * (nr + 2)), T(0.5));
      for (index_t j = 0; j < nr; ++j)
        for (index_t i = 0; i < mr; ++i)
          c_rm[sz(i * (nr + 2) + j)] = c0[sz(i + j * ldc)];
      const auto rm = run_into(fn, kc, alpha, beta, row_major_c, c_rm, mr, nr);
      for (index_t j = 0; j < nr; ++j)
        for (index_t i = 0; i < mr; ++i)
          ASSERT_EQ(rm[sz(i * (nr + 2) + j)], fast[sz(i + j * ldc)])
              << "row-major C at (" << i << ", " << j << ")";
    }
  }
}

TEST_P(TileKernel, PackedPathBitIdenticalF32) {
  const auto [mr, nr] = GetParam();
  for (int bits : host_clone_widths()) check_packed_path<float>(mr, nr, bits);
}

TEST_P(TileKernel, PackedPathBitIdenticalF64) {
  const auto [mr, nr] = GetParam();
  for (int bits : host_clone_widths()) check_packed_path<double>(mr, nr, bits);
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, TileKernel,
    ::testing::Values(std::pair{16, 4}, std::pair{16, 2}, std::pair{16, 1},
                      std::pair{12, 4}, std::pair{8, 12}, std::pair{8, 8},
                      std::pair{8, 4}, std::pair{8, 2}, std::pair{8, 1},
                      std::pair{4, 4}, std::pair{4, 2}, std::pair{4, 1},
                      std::pair{2, 4}, std::pair{1, 4}, std::pair{3, 5}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// ---- Width clones and their dispatch --------------------------------------

// Widest packed-path vector for an MR-row tile: lane count divides MR.
static_assert(tile_vector_bits<float>(16, 512) == 512);
static_assert(tile_vector_bits<float>(16, 256) == 256);
static_assert(tile_vector_bits<float>(12, 512) == 128);
static_assert(tile_vector_bits<float>(8, 512) == 256);
static_assert(tile_vector_bits<float>(4, 512) == 128);
static_assert(tile_vector_bits<double>(16, 512) == 512);
static_assert(tile_vector_bits<double>(12, 512) == 256);
static_assert(tile_vector_bits<double>(8, 512) == 512);
static_assert(tile_vector_bits<double>(4, 512) == 256);
static_assert(tile_vector_bits<double>(4, 128) == 128);

constexpr std::pair<int, int> kSpecializedTiles[] = {
    {16, 4}, {16, 2}, {16, 1}, {12, 4}, {8, 12}, {8, 8},
    {8, 4},  {8, 2},  {8, 1},  {4, 4},  {4, 2},  {4, 1}};

// Registered tiles with no tile_microkernel instantiation: each has a
// compile-time scalar_microkernel.
template <typename T>
struct ScalarTileFn {
  int mr, nr;
  MicroKernelFn<T> fn;
};

template <typename T>
constexpr ScalarTileFn<T> kScalarTileFns[] = {
    {12, 8, &scalar_microkernel<T, 12, 8>},
    {12, 2, &scalar_microkernel<T, 12, 2>},
    {12, 1, &scalar_microkernel<T, 12, 1>},
    {4, 8, &scalar_microkernel<T, 4, 8>},
    {2, 8, &scalar_microkernel<T, 2, 8>},
    {2, 4, &scalar_microkernel<T, 2, 4>},
    {2, 2, &scalar_microkernel<T, 2, 2>},
    {2, 1, &scalar_microkernel<T, 2, 1>},
    {1, 8, &scalar_microkernel<T, 1, 8>},
    {1, 4, &scalar_microkernel<T, 1, 4>},
    {1, 2, &scalar_microkernel<T, 1, 2>},
    {1, 1, &scalar_microkernel<T, 1, 1>}};

// The dispatch rule, restated: the widest clone the host runs whose lane
// count divides MR, else the 128-bit build.
template <typename T>
int rule_bits(int mr) {
  for (int bits : {512, 256}) {
    const int lanes = bits / 8 / static_cast<int>(sizeof(T));
    if (bits <= host_vector_bits() && mr % lanes == 0) return bits;
  }
  return 128;
}

template <typename T>
void check_dispatch() {
  const auto& reg = KernelRegistry::instance();
  for (const auto& [mr, nr] : kSpecializedTiles) {
    SCOPED_TRACE(::testing::Message() << mr << "x" << nr << " f"
                                      << 8 * sizeof(T));
    const MicroKernelFn<T> named = tile_clone_fn<T>(mr, nr, rule_bits<T>(mr));
    EXPECT_EQ(native_tile_fn<T>(mr, nr), named);
    // Each width the host runs is its own function, so `named` is the
    // clone of that width and no other.
    for (int bits : host_clone_widths())
      if (tile_vector_bits<T>(mr, bits) != rule_bits<T>(mr))
        EXPECT_NE(tile_clone_fn<T>(mr, nr, bits), named) << bits;
  }
  for (const auto& [mr, nr, fn] : kScalarTileFns<T>) {
    SCOPED_TRACE(::testing::Message() << mr << "x" << nr << " f"
                                      << 8 * sizeof(T));
    for (int bits : {128, 256, 512})
      EXPECT_EQ(tile_clone_fn<T>(mr, nr, bits), fn) << bits;
  }
  // No registered tile runs the runtime instance: every one in every
  // family, the smm and smm-direct lattices included, has a compile-time
  // kernel. The host family binds its own kernels at the host's width.
  for (KernelId id = 0; id < static_cast<KernelId>(reg.size()); ++id) {
    const KernelInfo& k = reg.info(id);
    const MicroKernelFn<T> rule = k.family == "host"
                                      ? host_tile_fn<T>(k.mr, k.nr)
                                      : native_tile_fn<T>(k.mr, k.nr);
    EXPECT_EQ(kernel_fn<T>(id), rule) << k.name;
    EXPECT_NE(kernel_fn<T>(id), &generic_microkernel<T>) << k.name;
  }
  EXPECT_EQ(native_tile_fn<T>(3, 5), &generic_microkernel<T>);
}

TEST(KernelDispatch, NativeFnIsTheCloneTheRuleNames) {
  check_dispatch<float>();
  check_dispatch<double>();
  // 128-bit fallbacks on every host: no wider f32 lane count divides 12 or 4.
  EXPECT_EQ(native_tile_fn<float>(12, 4), (&tile_microkernel<float, 12, 4>));
  EXPECT_EQ(native_tile_fn<float>(4, 4), (&tile_microkernel<float, 4, 4>));
  EXPECT_EQ(native_tile_fn<float>(4, 2), (&tile_microkernel<float, 4, 2>));
  EXPECT_EQ(native_tile_fn<float>(4, 1), (&tile_microkernel<float, 4, 1>));
  EXPECT_EQ(kernel_fn<float>(KernelRegistry::instance().find("eigen/12x4")),
            (&tile_microkernel<float, 12, 4>));
  EXPECT_EQ(native_tile_fn<float>(3, 5), &generic_microkernel<float>);
  // At 512 bits a tile only the host family builds names that family's
  // kernel; below, it has none.
  EXPECT_EQ(tile_clone_fn<float>(32, 8, 512), host_tile_fn<float>(32, 8));
  EXPECT_EQ(tile_clone_fn<double>(8, 16, 512), host_tile_fn<double>(8, 16));
  EXPECT_EQ(tile_clone_fn<float>(32, 8, 256), &generic_microkernel<float>);
  EXPECT_THROW((void)tile_clone_fn<float>(8, 12, 1024), Error);
  // A compile-time kernel takes only its full tile; masked updates run
  // generic_microkernel.
  EXPECT_THROW((scalar_microkernel<float, 4, 8>(0, 1.0f, 0.0f,
                                                KernelOperands<float>{}, 3, 5)),
               Error);
}

// Asserts nothing: it puts one line per width in the test log, so a CI
// run shows which clones PackedPathBitIdentical exercised, and skips by
// name each width the host cannot run.
class CloneWidth : public ::testing::TestWithParam<int> {};

TEST_P(CloneWidth, HostRunsIt) {
  const int bits = GetParam();
  if (bits > host_vector_bits())
    GTEST_SKIP() << "host lacks the " << bits << "-bit clone ("
                 << (bits == 512 ? "AVX-512F/VL/FMA" : "AVX2")
                 << "): PackedPathBitIdentical did not exercise it";
  std::printf("[  CLONE   ] %d-bit packed-panel clone exercised\n", bits);
}

INSTANTIATE_TEST_SUITE_P(Widths, CloneWidth, ::testing::Values(128, 256, 512),
                         [](const auto& info) {
                           return std::to_string(info.param) + "bit";
                         });

// ---- Scalar tile kernels -----------------------------------------------------

// The per-element formula every scalar kernel reproduces bit for bit: each
// C element sums the a_offset / b_offset products in k order, each step
// multiply-then-add, then applies the epilogue in two roundings (this file
// is built with -ffp-contract=off, as the kernels are). kFused is the host
// family's formula: each k step one std::fma, the same epilogue.
template <typename T, bool kFused = false>
void formula_tile(index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
                  index_t mr, index_t nr) {
  for (index_t j = 0; j < nr; ++j) {
    for (index_t i = 0; i < mr; ++i) {
      T acc = T(0);
      for (index_t k = 0; k < kc; ++k) {
        const T a = ops.a[a_offset(ops, i, k)], b = ops.b[b_offset(ops, k, j)];
        acc = kFused ? std::fma(a, b, acc) : acc + a * b;
      }
      T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
      *c = (beta == T(0)) ? alpha * acc : alpha * acc + beta * *c;
    }
  }
}

// One operand layout the executor binds: its storage and its descriptor
// (the c fields unused).
template <typename T>
struct BoundOperand {
  const char* name;
  std::vector<T> store;
  KernelOperands<T> ops;
};

// The mr x kc A values `a` (a[k * mr + i]) in every layout the executor
// binds for A: packed, direct col-major, direct row-major (strided rows,
// a_istride != 1) and a multi-panel BLASFEO layout with rows i >= a_ps.
// Padding is NaN, so a read past the view shows.
template <typename T>
std::vector<BoundOperand<T>> a_layouts(const std::vector<T>& a, index_t mr,
                                       index_t kc) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const auto sz = [](index_t n) { return static_cast<std::size_t>(n); };
  std::vector<BoundOperand<T>> out(4);
  const index_t lda_cm = mr + 3, lda_rm = kc + 2;
  const index_t ps = mr >= 8 ? 4 : std::max<index_t>(1, mr / 2);
  const index_t panels = (mr + ps - 1) / ps, cols = kc + 1;
  out[0] = {"packed A", a, {}};
  out[1] = {"direct col-major A", std::vector<T>(sz(lda_cm * kc + 1), nan), {}};
  out[2] = {"direct row-major A", std::vector<T>(sz(lda_rm * mr + 1), nan), {}};
  out[3] = {"panel A", std::vector<T>(sz(panels * ps * cols + 1), nan), {}};
  for (index_t k = 0; k < kc; ++k) {
    for (index_t i = 0; i < mr; ++i) {
      const T v = a[sz(k * mr + i)];
      out[1].store[sz(i + k * lda_cm)] = v;
      out[2].store[sz(i * lda_rm + k)] = v;
      out[3].store[sz((i / ps) * ps * cols + k * ps + i % ps)] = v;
    }
  }
  set_packed_a(out[0].ops, out[0].store.data(), mr);
  set_direct_a_colmajor(out[1].ops, out[1].store.data(), lda_cm, mr);
  set_direct_a_rowmajor(out[2].ops, out[2].store.data(), lda_rm, mr);
  set_panel_a(out[3].ops, out[3].store.data(), ps, cols);
  return out;
}

// The kc x nr B values `b` (b[k * nr + j]) packed, direct col-major and
// direct row-major.
template <typename T>
std::vector<BoundOperand<T>> b_layouts(const std::vector<T>& b, index_t nr,
                                       index_t kc) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const auto sz = [](index_t n) { return static_cast<std::size_t>(n); };
  std::vector<BoundOperand<T>> out(3);
  const index_t ldb_cm = kc + 2, ldb_rm = nr + 3;
  out[0] = {"packed B", b, {}};
  out[1] = {"direct col-major B", std::vector<T>(sz(ldb_cm * nr + 1), nan), {}};
  out[2] = {"direct row-major B", std::vector<T>(sz(ldb_rm * kc + 1), nan), {}};
  for (index_t k = 0; k < kc; ++k) {
    for (index_t j = 0; j < nr; ++j) {
      const T v = b[sz(k * nr + j)];
      out[1].store[sz(k + j * ldb_cm)] = v;
      out[2].store[sz(k * ldb_rm + j)] = v;
    }
  }
  set_packed_b(out[0].ops, out[0].store.data(), nr);
  set_direct_b_colmajor(out[1].ops, out[1].store.data(), ldb_cm);
  set_direct_b_rowmajor(out[2].ops, out[2].store.data(), ldb_rm, nr);
  return out;
}

// C layouts the executor binds: col-major with a padded column stride, a
// K-split slab (col-major, ld = mr) and row-major (c_rs = nr + 2).
struct CLayout {
  const char* name;
  index_t rs, cs, size;
};

std::vector<CLayout> c_layouts(index_t mr, index_t nr) {
  return {{"col-major C", 1, mr + 3, (mr + 3) * nr},
          {"K-split slab C", 1, mr, mr * nr},
          {"row-major C", nr + 2, 1, mr * (nr + 2)}};
}

// For an mr x nr tile: `fn` gives the bits of `formula` on every A x B x C
// layout, and generic_microkernel gives the bits of the unfused per-element
// formula. Every layout holds the same values, so all of them give the
// values of packed A and B into col-major C. beta == 0 runs on a NaN-filled
// C, which must never be read; C outside the tile stays untouched.
template <typename T>
void check_tile_bits(MicroKernelFn<T> fn, MicroKernelFn<T> formula, int mr,
                     int nr, std::initializer_list<index_t> kcs) {
  const T nan = std::numeric_limits<T>::quiet_NaN();
  const auto sz = [](index_t n) { return static_cast<std::size_t>(n); };
  const T alpha = T(-0.75);
  for (index_t kc : kcs) {
    Rng rng(static_cast<std::uint64_t>(mr * 100000 + nr * 1000 + kc));
    std::vector<T> a(sz(mr * kc)), b(sz(nr * kc));
    for (auto& v : a) v = static_cast<T>(rng.uniform(-1, 1));
    for (auto& v : b) v = static_cast<T>(rng.uniform(-1, 1));
    const auto as = a_layouts(a, mr, kc);
    const auto bs = b_layouts(b, nr, kc);
    // beta * C is exact at 1 and -0.5 but not at 0.3, so an epilogue
    // contracted into one fused rounding shows.
    for (T beta : {T(0), T(1), T(-0.5), T(0.3)}) {
      // The initial C tile, (i, j) at i + j * mr; all NaN when beta == 0.
      std::vector<T> c_tile(sz(mr * nr), nan);
      if (beta != T(0))
        for (auto& v : c_tile) v = static_cast<T>(rng.uniform(-1, 1));
      std::vector<T> expected;  // the result tile, laid out as c_tile
      for (const CLayout& cl : c_layouts(mr, nr)) {
        std::vector<T> c0(sz(cl.size), beta == T(0) ? nan : T(0.5));
        for (index_t j = 0; j < nr; ++j)
          for (index_t i = 0; i < mr; ++i)
            c0[sz(i * cl.rs + j * cl.cs)] = c_tile[sz(i + j * mr)];
        for (const auto& ab : as) {
          for (const auto& bb : bs) {
            SCOPED_TRACE(::testing::Message()
                         << mr << "x" << nr << " f" << 8 * sizeof(T)
                         << " kc=" << kc << " beta=" << beta << " " << ab.name
                         << ", " << bb.name << ", " << cl.name);
            KernelOperands<T> ops = ab.ops;
            ops.b = bb.ops.b;
            ops.b_ps = bb.ops.b_ps;
            ops.b_pstride = bb.ops.b_pstride;
            ops.b_kstride = bb.ops.b_kstride;
            ops.b_jstride = bb.ops.b_jstride;
            ops.c_rs = cl.rs;
            ops.c_cs = cl.cs;
            EXPECT_TRUE(same_bits(
                run_into(&generic_microkernel<T>, kc, alpha, beta, ops, c0, mr,
                         nr),
                run_into(&formula_tile<T>, kc, alpha, beta, ops, c0, mr, nr)));
            const auto runtime = run_into(fn, kc, alpha, beta, ops, c0, mr, nr);
            EXPECT_TRUE(same_bits(
                runtime, run_into(formula, kc, alpha, beta, ops, c0, mr, nr)));
            std::vector<bool> in_tile(c0.size(), false);
            std::vector<T> tile(sz(mr * nr));
            for (index_t j = 0; j < nr; ++j) {
              for (index_t i = 0; i < mr; ++i) {
                const auto at = sz(i * cl.rs + j * cl.cs);
                in_tile[at] = true;
                tile[sz(i + j * mr)] = runtime[at];
                ASSERT_FALSE(std::isnan(runtime[at])) << i << ", " << j;
              }
            }
            for (std::size_t e = 0; e < c0.size(); ++e)
              if (!in_tile[e])
                ASSERT_EQ(std::memcmp(&runtime[e], &c0[e], sizeof(T)), 0)
                    << "padding at " << e;
            if (expected.empty()) {
              expected = tile;
            } else {
              for (std::size_t e = 0; e < tile.size(); ++e)
                ASSERT_EQ(tile[e], expected[e]) << "tile element " << e;
            }
          }
        }
      }
    }
  }
}

class ScalarTile : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ScalarTile, BitIdenticalOnEveryLayoutF32) {
  const auto [mr, nr] = GetParam();
  check_tile_bits<float>(native_tile_fn<float>(mr, nr), &formula_tile<float>,
                         mr, nr, {0, 1, 2, 7, 24});
}

TEST_P(ScalarTile, BitIdenticalOnEveryLayoutF64) {
  const auto [mr, nr] = GetParam();
  check_tile_bits<double>(native_tile_fn<double>(mr, nr),
                          &formula_tile<double>, mr, nr, {0, 1, 2, 7, 24});
}

// Every tile with a compile-time scalar kernel, plus the unregistered 3x5,
// where native_tile_fn is generic_microkernel itself and only the formula
// check applies.
INSTANTIATE_TEST_SUITE_P(
    Tiles, ScalarTile,
    ::testing::Values(std::pair{12, 8}, std::pair{12, 2}, std::pair{12, 1},
                      std::pair{4, 8}, std::pair{2, 8}, std::pair{2, 4},
                      std::pair{2, 2}, std::pair{2, 1}, std::pair{1, 8},
                      std::pair{1, 4}, std::pair{1, 2}, std::pair{1, 1},
                      std::pair{3, 5}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

// Every host-family tile: bit-identity with the fused per-element formula
// on every layout, the ones that reach its scalar fallback included, with
// padded leading dimensions and kc up to 300. An unfused step anywhere, a
// fused epilogue, or a layout that falls back to generic_microkernel breaks
// it. The family is built only for AVX-512F/VL with FMA; other hosts skip
// by name.
std::vector<std::pair<int, int>> host_tile_params() {
  std::vector<std::pair<int, int>> out;
  for (int mr = 1; mr <= 32; ++mr)
    for (int nr = 1; nr <= 16; ++nr)
      if (host_tile_fn<float>(mr, nr) != nullptr) out.emplace_back(mr, nr);
  return out;
}

class HostTile : public ::testing::TestWithParam<std::pair<int, int>> {
 protected:
  template <typename T>
  void check() {
    if (host_vector_bits() < 512)
      GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family kernels";
    const auto [mr, nr] = GetParam();
    check_tile_bits<T>(host_tile_fn<T>(mr, nr), &formula_tile<T, true>, mr,
                       nr, {0, 1, 7, 24, 300});
  }
};

TEST_P(HostTile, BitIdenticalOnEveryLayoutF32) { check<float>(); }
TEST_P(HostTile, BitIdenticalOnEveryLayoutF64) { check<double>(); }

INSTANTIATE_TEST_SUITE_P(HostTiles, HostTile,
                         ::testing::ValuesIn(host_tile_params()),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });
// A build that is not x86-64 has no host family.
GTEST_ALLOW_UNINSTANTIATED_PARAMETERIZED_TEST(HostTile);

// Eq. 4 on the host for the precision the host family runs in f64 too:
// the register tile each main tile's clone holds at once — a column block
// of accumulators, one A sliver and one broadcast — fits 32 zmm, and f64
// 32x8 splits into two 32x4 blocks of 16 accumulators.
TEST(HostFamily, MainTilesFitThe512BitRegisterFile) {
  const auto& reg = KernelRegistry::instance();
  for (const KernelId id : reg.family("host")) {
    const KernelInfo& k = reg.info(id);
    if (k.edge) continue;
    for (const int elem : {4, 8}) {
      const int bits = elem == 4 ? tile_vector_bits<float>(k.mr, 512)
                                 : tile_vector_bits<double>(k.mr, 512);
      const int avec = k.mr / (bits / 8 / elem);
      int nb = k.nr;
      while (avec * nb + avec + 1 > 32) nb /= 2;
      EXPECT_GE(avec * nb, 16) << k.name << " f" << 8 * elem;
      EXPECT_LE(avec * nb + avec + 1, 32) << k.name << " f" << 8 * elem;
    }
  }
}

TEST(GenericKernel, StridedDirectB) {
  // Direct col-major B: b(k, j) = b[k + j*ldb].
  const index_t mr = 8, nr = 4, kc = 16, ldb = 32;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(mr * kc));
  std::vector<float> b(static_cast<std::size_t>(ldb * nr));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(static_cast<std::size_t>(mr * nr), 0.0f);
  std::vector<float> c_ref = c;

  KernelOperands<float> ops;
  set_packed_a(ops, a.data(), mr);
  set_direct_b_colmajor(ops, b.data(), ldb);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = mr;
  oracle<float>(kc, 1.0f, 0.0f, ops, mr, nr, c_ref, 1, mr);
  // The specialized tile kernel must agree on strided B too.
  tile_microkernel<float, 8, 4>(kc, 1.0f, 0.0f, ops, mr, nr);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], c_ref[i], 1e-4f);
}

TEST(GenericKernel, MaskedEdgeUpdate) {
  // useful 3x2 inside an 8x4 tile: untouched C elements must not change.
  const index_t kc = 8;
  std::vector<float> a(8 * kc, 1.0f);
  std::vector<float> b(4 * kc, 2.0f);
  std::vector<float> c(8 * 4, 7.0f);
  KernelOperands<float> ops;
  set_packed_a(ops, a.data(), 8);
  set_packed_b(ops, b.data(), 4);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = 8;
  generic_microkernel<float>(kc, 1.0f, 0.0f, ops, 3, 2);
  EXPECT_FLOAT_EQ(c[0], 16.0f);       // updated
  EXPECT_FLOAT_EQ(c[2], 16.0f);       // row 2, col 0
  EXPECT_FLOAT_EQ(c[3], 7.0f);        // row 3 untouched
  EXPECT_FLOAT_EQ(c[2 * 8 + 0], 7.0f);  // col 2 untouched
}

TEST(PanelAddressing, BlasfeoStyle) {
  // A panel-major sliver: ps=4, 8 rows across 2 panels.
  const index_t cols = 6, ps = 4;
  std::vector<float> panel(static_cast<std::size_t>(2 * ps * cols));
  for (std::size_t i = 0; i < panel.size(); ++i)
    panel[i] = static_cast<float>(i);
  KernelOperands<float> ops;
  set_panel_a(ops, panel.data(), ps, cols);
  // (i, k) = (i%4) + (i/4)*4*cols + k*4
  EXPECT_EQ(a_offset(ops, 0, 0), 0);
  EXPECT_EQ(a_offset(ops, 3, 2), 3 + 8);
  EXPECT_EQ(a_offset(ops, 5, 1), 1 + ps * cols + 4);
}

// ---- Registry --------------------------------------------------------------

TEST(Registry, FamiliesPresent) {
  const auto& reg = KernelRegistry::instance();
  for (const char* fam : {"openblas", "blis", "blasfeo", "eigen", "smm",
                          "smm-direct"}) {
    EXPECT_FALSE(reg.family(fam).empty()) << fam;
  }
}

TEST(Registry, TableOneTiles) {
  const auto& reg = KernelRegistry::instance();
  // Table I: OpenBLAS 16x4/8x8/4x4, BLIS 8x12, BLASFEO 16x4/8x8, Eigen 12x4.
  EXPECT_TRUE(reg.has_tile("openblas", 16, 4));
  EXPECT_TRUE(reg.has_tile("openblas", 8, 8));
  EXPECT_TRUE(reg.has_tile("openblas", 4, 4));
  EXPECT_TRUE(reg.has_tile("blis", 8, 12));
  EXPECT_TRUE(reg.has_tile("blasfeo", 16, 4));
  EXPECT_TRUE(reg.has_tile("blasfeo", 8, 8));
  EXPECT_TRUE(reg.has_tile("eigen", 12, 4));
}

TEST(Registry, OpenblasEdgeLattice) {
  const auto& reg = KernelRegistry::instance();
  for (int mr : {16, 8, 4, 2, 1})
    for (int nr : {4, 2, 1}) EXPECT_TRUE(reg.has_tile("openblas", mr, nr));
}

TEST(Registry, UnknownLookupsThrow) {
  const auto& reg = KernelRegistry::instance();
  EXPECT_THROW((void)reg.find("no/such"), Error);
  EXPECT_THROW((void)reg.find_tile("openblas", 7, 3), Error);
  EXPECT_THROW((void)reg.info(-1), Error);
}

TEST(Registry, FindByName) {
  const auto& reg = KernelRegistry::instance();
  const KernelId id = reg.find("blis/8x12");
  EXPECT_EQ(reg.info(id).mr, 8);
  EXPECT_EQ(reg.info(id).nr, 12);
  EXPECT_EQ(reg.info(id).family, "blis");
}

TEST(Registry, SpecLanesRescaleForF64) {
  const auto& reg = KernelRegistry::instance();
  const KernelId id = reg.find_tile("openblas", 16, 4);
  EXPECT_EQ(kernel_spec<float>(id).lanes, 4);
  EXPECT_EQ(kernel_spec<double>(id).lanes, 2);
}

TEST(Registry, DecomposeEdge) {
  const std::vector<index_t> sizes{16, 8, 4, 2, 1};
  EXPECT_EQ(decompose_edge(11, sizes), (std::vector<index_t>{8, 2, 1}));
  EXPECT_EQ(decompose_edge(16, sizes), (std::vector<index_t>{16}));
  EXPECT_EQ(decompose_edge(3, sizes), (std::vector<index_t>{2, 1}));
  EXPECT_TRUE(decompose_edge(0, sizes).empty());
}

// ---- Schedules --------------------------------------------------------------

TEST(Schedule, Fig7LayoutMatchesPaper) {
  const KernelSchedule s = fig7_openblas_8x4_schedule();
  EXPECT_EQ(s.mr, 8);
  EXPECT_EQ(s.nr, 4);
  EXPECT_EQ(s.unroll, 2);
  // Per k-iteration: 2 ldp (B), 2 ldr q (A), then 8 fmla — clustered.
  ASSERT_GE(s.body.size(), 12u);
  EXPECT_EQ(s.body[0].kind, UopKind::kLoadPair);
  EXPECT_EQ(s.body[1].kind, UopKind::kLoadPair);
  EXPECT_EQ(s.body[2].kind, UopKind::kLoadVec);
  EXPECT_EQ(s.body[3].kind, UopKind::kLoadVec);
  for (int i = 4; i < 12; ++i) EXPECT_EQ(s.body[i].kind, UopKind::kFma);
  // The first fmla depends on the A load two instructions earlier.
  EXPECT_EQ(s.body[4].src1, s.body[2].dst);
}

TEST(Schedule, FmaCountMatchesTile) {
  for (const auto& [mr, nr, unroll] :
       {std::tuple{16, 4, 8}, std::tuple{8, 12, 4}, std::tuple{12, 4, 1}}) {
    ScheduleSpec spec;
    spec.mr = mr;
    spec.nr = nr;
    spec.unroll = unroll;
    spec.style = unroll == 1 ? ScheduleStyle::kSimple
                             : ScheduleStyle::kPipelined;
    const KernelSchedule s = build_schedule(spec);
    const int avec = (mr + 3) / 4;
    EXPECT_EQ(s.fma_per_body, avec * nr * s.unroll) << spec.describe();
    int fma = 0;
    for (const auto& u : s.body)
      if (u.kind == UopKind::kFma) ++fma;
    EXPECT_EQ(fma, s.fma_per_body);
  }
}

TEST(Schedule, PipelinedPreloadsBankZero) {
  const KernelSchedule s = build_schedule(openblas_main_spec(16, 4));
  int prologue_loads = 0;
  for (const auto& u : s.prologue)
    if (u.kind == UopKind::kLoadVec) ++prologue_loads;
  EXPECT_EQ(prologue_loads, 4 + 1);  // 4 A vectors + 1 B vector
}

TEST(Schedule, SimpleStyleHasPerIterationOverhead) {
  const KernelSchedule s = build_schedule(eigen_spec(12, 4));
  EXPECT_EQ(s.unroll, 1);
  int branches = 0, dups = 0;
  for (const auto& u : s.body) {
    if (u.kind == UopKind::kBranch) ++branches;
    if (u.kind == UopKind::kDup) ++dups;
  }
  EXPECT_EQ(branches, 1);
  EXPECT_EQ(dups, 4);  // one per B element
}

TEST(Schedule, StridedBUsesScalarLoads) {
  const KernelSchedule s = build_schedule(smm_direct_b_spec(8, 4));
  int scalar_loads = 0;
  for (const auto& u : s.body)
    if (u.kind == UopKind::kLoadScalar && u.stream == Stream::kB)
      ++scalar_loads;
  EXPECT_EQ(scalar_loads, 4 * s.unroll);
}

TEST(Schedule, OddPipelinedUnrollRejected) {
  ScheduleSpec spec;
  spec.style = ScheduleStyle::kPipelined;
  spec.unroll = 3;
  EXPECT_THROW(build_schedule(spec), Error);
}

TEST(Schedule, EpilogueTouchesEveryAccumulator) {
  const KernelSchedule s = build_schedule(blis_spec(8, 12));
  int stores = 0;
  for (const auto& u : s.epilogue)
    if (u.kind == UopKind::kStoreVec) ++stores;
  EXPECT_EQ(stores, 2 * 12);  // (8/4 vectors) x 12 columns
}

}  // namespace
}  // namespace smm::kern
