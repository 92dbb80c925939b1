// End-to-end correctness of two-thread host-family plans (DESIGN.md
// section 6): the "one dimension much smaller" lattice run through
// hand-built host specs under every packing choice and through smm_gemm's
// default two-thread path, plus the prepacked-B and batched entry points
// on a skinny shape whose plan has no PackB buffer.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "src/core/batched.h"
#include "src/core/kernel_select.h"
#include "src/core/plan_builder.h"
#include "src/core/smm.h"
#include "src/kernels/registry.h"
#include "src/plan/native_executor.h"
#include "src/threading/partition.h"
#include "tests/test_helpers.h"

namespace smm::core {
namespace {

constexpr index_t kPad = 3;

// The two-thread host-family spec for `shape`, packing as asked.
BuildSpec host_spec(GemmShape shape, bool pack_a, bool pack_b) {
  const KernelChoice tile = choose_host_family_tile(shape);
  BuildSpec s;
  s.mr = tile.mr;
  s.nr = tile.nr;
  s.mc = kHostMc;
  s.kc = kSmmKc;
  s.nc = kSmmNc;
  s.host_tiles = true;
  s.pack_a = pack_a;
  s.pack_b = pack_b;
  s.nthreads = 2;
  s.ways = par::choose_ways(shape, 2, s.mr, s.nr, s.mc, s.nc);
  return s;
}

// Runs `gemm` on views with padded leading dimensions into a copy of
// c_init (NaN-filled when beta == 0) and checks it against a wider-type
// reference: within the componentwise forward-error bound, with no fudge
// factor (so no NaN in the result), padding rows untouched.
template <typename T, typename Gemm>
void check_run(const Matrix<T>& a, const Matrix<T>& b,
               const Matrix<T>& c_init, GemmShape shape, T beta,
               Gemm&& gemm) {
  const T alpha = T(0.75);
  const auto a_view = a.cview().block(0, 0, shape.m, shape.k);
  const auto b_view = b.cview().block(0, 0, shape.k, shape.n);
  Matrix<T> c = c_init.clone();
  if (beta == T(0)) c.fill(std::numeric_limits<T>::quiet_NaN());
  const Matrix<T> before = c.clone();
  gemm(alpha, a_view, b_view, beta,
       c.view().block(0, 0, shape.m, shape.n));
  for (index_t j = 0; j < shape.n; ++j)
    for (index_t i = shape.m; i < shape.m + kPad; ++i)
      ASSERT_EQ(std::memcmp(&c(i, j), &before(i, j), sizeof(T)), 0)
          << "padding at " << i << ", " << j;
  ASSERT_TRUE(test::within_forward_error_bound(
      alpha, a_view, b_view, beta,
      before.cview().block(0, 0, shape.m, shape.n),
      c.cview().block(0, 0, shape.m, shape.n)));
}

// m 1..9 x n {64, 96, 131, 256} and n 1..9 x m {64, 131, 200}, k in
// {1, 7, 128, 300}, beta 0 (NaN C), 1 and -0.5: every packing choice of
// the host spec, and smm_gemm's own two-thread plan.
template <typename T>
void check_skinny_lattice() {
  std::vector<GemmShape> shapes;
  for (index_t k : {1, 7, 128, 300}) {
    for (index_t thin = 1; thin <= 9; ++thin) {
      for (index_t n : {64, 96, 131, 256}) shapes.push_back({thin, n, k});
      for (index_t m : {64, 131, 200}) shapes.push_back({m, thin, k});
    }
  }
  const auto scalar =
      sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;
  for (const GemmShape& shape : shapes) {
    Rng rng(static_cast<std::uint64_t>(shape.m * 1000003 + shape.n * 1009 +
                                       shape.k));
    Matrix<T> a(shape.m + kPad, shape.k), b(shape.k + kPad, shape.n),
        c_init(shape.m + kPad, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    c_init.fill_random(rng);
    for (T beta : {T(0), T(1), T(-0.5)}) {
      for (int packs = 0; packs < 4; ++packs) {
        SCOPED_TRACE(::testing::Message()
                     << shape.m << "x" << shape.n << "x" << shape.k << " f"
                     << 8 * sizeof(T) << " beta=" << beta << " packs="
                     << packs);
        plan::GemmPlan p;
        p.strategy = "host-lattice";
        p.shape = shape;
        p.scalar = scalar;
        build_smm_plan(p, host_spec(shape, (packs & 1) != 0,
                                    (packs & 2) != 0));
        p.validate();
        check_run<T>(a, b, c_init, shape, beta,
                     [&](T al, auto av, auto bv, T be, auto cv) {
                       plan::execute_plan<T>(p, al, av, bv, be, cv);
                     });
      }
      SCOPED_TRACE(::testing::Message()
                   << shape.m << "x" << shape.n << "x" << shape.k << " f"
                   << 8 * sizeof(T) << " beta=" << beta << " smm_gemm");
      check_run<T>(a, b, c_init, shape, beta,
                   [](T al, auto av, auto bv, T be, auto cv) {
                     smm_gemm(al, av, bv, be, cv, /*nthreads=*/2);
                   });
    }
  }
}

// The host family is registered only on a host with AVX-512F/VL and FMA;
// other hosts skip, by name, the tests that build its plans by hand.
TEST(HostPlans, SkinnyLatticeMatchesNaiveF32) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family kernels";
  check_skinny_lattice<float>();
}

TEST(HostPlans, SkinnyLatticeMatchesNaiveF64) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family kernels";
  check_skinny_lattice<double>();
}

// The cross-family contract: a one-thread plan (smm family, two roundings
// per k step) and a two-thread host-family plan (one fused rounding per k
// step) differ in their low bits, and both stay within the forward-error
// bound of the same wider-type reference, on the same seeded problems.
template <typename T>
void check_fused_and_unfused_within_bound() {
  for (const GemmShape shape :
       {GemmShape{64, 64, 64}, GemmShape{96, 80, 131}, GemmShape{160, 160, 160},
        GemmShape{8, 256, 128}, GemmShape{200, 8, 160},
        GemmShape{128, 128, 8}}) {
    Rng rng(static_cast<std::uint64_t>(shape.m * 7919 + shape.n * 31 +
                                       shape.k));
    Matrix<T> a(shape.m + kPad, shape.k), b(shape.k + kPad, shape.n),
        c_init(shape.m + kPad, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    c_init.fill_random(rng);
    plan::GemmPlan p;
    p.strategy = "host";
    p.shape = shape;
    p.scalar = sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;
    build_smm_plan(p, host_spec(shape, shape.m > 8, shape.n > 8));
    p.validate();
    for (T beta : {T(0), T(1), T(-0.5)}) {
      SCOPED_TRACE(::testing::Message()
                   << shape.m << "x" << shape.n << "x" << shape.k << " f"
                   << 8 * sizeof(T) << " beta=" << beta);
      check_run<T>(a, b, c_init, shape, beta,
                   [](T al, auto av, auto bv, T be, auto cv) {
                     smm_gemm(al, av, bv, be, cv, /*nthreads=*/1);
                   });
      check_run<T>(a, b, c_init, shape, beta,
                   [&](T al, auto av, auto bv, T be, auto cv) {
                     plan::execute_plan<T>(p, al, av, bv, be, cv);
                   });
    }
  }
}

TEST(HostPlans, FusedAndUnfusedPlansWithinForwardErrorBound) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family kernels";
  check_fused_and_unfused_within_bound<float>();
  check_fused_and_unfused_within_bound<double>();
}

// A host-family plan gives the same bits under every packing choice and
// whatever the operands' storage order: direct row-major A has strided
// rows, so its tiles reach the host kernel's scalar fallback instead of
// the tile body, and both round each k step once.
template <typename T>
void check_layout_bits() {
  const auto scalar =
      sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;
  for (const GemmShape shape :
       {GemmShape{64, 48, 40}, GemmShape{8, 256, 128}, GemmShape{200, 8, 160},
        GemmShape{37, 29, 131}}) {
    Rng rng(static_cast<std::uint64_t>(shape.m * 1009 + shape.n * 101 +
                                       shape.k));
    Matrix<T> a_cm(shape.m, shape.k), b_cm(shape.k, shape.n),
        c_init(shape.m, shape.n);
    a_cm.fill_random(rng);
    b_cm.fill_random(rng);
    c_init.fill_random(rng);
    Matrix<T> a_rm(shape.m, shape.k, Layout::kRowMajor),
        b_rm(shape.k, shape.n, Layout::kRowMajor);
    for (index_t p = 0; p < shape.k; ++p) {
      for (index_t i = 0; i < shape.m; ++i) a_rm(i, p) = a_cm(i, p);
      for (index_t j = 0; j < shape.n; ++j) b_rm(p, j) = b_cm(p, j);
    }
    for (T beta : {T(0), T(1), T(-0.5)}) {
      std::vector<T> first;
      for (int packs = 0; packs < 4; ++packs) {
        plan::GemmPlan p;
        p.strategy = "host-layouts";
        p.shape = shape;
        p.scalar = scalar;
        build_smm_plan(p, host_spec(shape, (packs & 1) != 0,
                                    (packs & 2) != 0));
        p.validate();
        for (const Matrix<T>* a : {&a_cm, &a_rm}) {
          for (const Matrix<T>* b : {&b_cm, &b_rm}) {
            SCOPED_TRACE(::testing::Message()
                         << shape.m << "x" << shape.n << "x" << shape.k
                         << " f" << 8 * sizeof(T) << " beta=" << beta
                         << " packs=" << packs << " row-major A "
                         << (a == &a_rm) << " row-major B " << (b == &b_rm));
            Matrix<T> c = c_init.clone();
            plan::execute_plan<T>(p, T(0.75), a->cview(), b->cview(), beta,
                                  c.view());
            std::vector<T> bits(static_cast<std::size_t>(shape.m * shape.n));
            for (index_t j = 0; j < shape.n; ++j)
              for (index_t i = 0; i < shape.m; ++i)
                bits[static_cast<std::size_t>(i + j * shape.m)] = c(i, j);
            if (first.empty()) first = bits;
            ASSERT_EQ(std::memcmp(bits.data(), first.data(),
                                  bits.size() * sizeof(T)),
                      0);
          }
        }
      }
    }
  }
}

TEST(HostPlans, BitsIndependentOfPackingAndStorageOrder) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family kernels";
  check_layout_bits<float>();
  check_layout_bits<double>();
}

TEST(HostPlans, DirectPlansBuildNoPackOrBarrier) {
  if (kern::host_vector_bits() < 512)
    GTEST_SKIP() << "host lacks AVX-512F/VL/FMA: no host-family kernels";
  for (const GemmShape shape : {GemmShape{8, 256, 128}, GemmShape{200, 8, 160},
                                GemmShape{4, 192, 256}}) {
    plan::GemmPlan p;
    p.strategy = "host";
    p.shape = shape;
    p.scalar = plan::ScalarType::kF32;
    build_smm_plan(p, host_spec(shape, false, false));
    p.validate();
    EXPECT_EQ(p.nthreads, 2);
    EXPECT_TRUE(p.buffers.empty());
    EXPECT_TRUE(p.barriers.empty());
    for (const auto& ops : p.thread_ops) {
      EXPECT_FALSE(ops.empty());
      for (const auto& op : ops)
        EXPECT_TRUE(std::holds_alternative<plan::KernelOp>(op));
    }
  }
}

// A plan with no PackB buffer still runs through PrepackedB (nothing is
// materialized; run() is plain execution) and through batched_smm.
TEST(HostPlans, PrepackedAndBatchedSkinnyShapes) {
  for (const GemmShape shape :
       {GemmShape{4, 192, 256}, GemmShape{200, 8, 160}}) {
    SCOPED_TRACE(::testing::Message() << shape.m << "x" << shape.n << "x"
                                      << shape.k);
    test::GemmProblem<float> prob(shape.m, shape.n, shape.k, 77);
    const auto handle =
        smm_prepack_b(prob.b.cview(), shape.m, /*nthreads=*/2);
    for (float beta : {0.0f, 1.0f, -0.5f}) {
      prob.c_expected = prob.c.clone();
      prob.reference(1.25f, beta);
      handle.run(1.25f, prob.a.cview(), beta, prob.c.view());
      EXPECT_TRUE(prob.check()) << "beta " << beta;
      prob.c = prob.c_expected.clone();
    }

    std::vector<test::GemmProblem<double>> probs;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
      probs.emplace_back(shape.m, shape.n, shape.k, seed);
    std::vector<GemmBatchItem<double>> items;
    for (auto& p : probs) {
      p.reference(0.5, -0.5);
      items.push_back({p.a.cview(), p.b.cview(), p.c.view()});
    }
    PlanCache cache(reference_smm());
    batched_smm(0.5, items, -0.5, cache, /*nworkers=*/2);
    for (const auto& p : probs) EXPECT_TRUE(p.check());
  }
}

}  // namespace
}  // namespace smm::core
