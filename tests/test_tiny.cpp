// The plan-free tiny path (DESIGN.md §8): which calls take it, and that it
// computes the bits of a one-thread host-family plan on every layout,
// through smm_gemm, batched_smm_each and the service, under the
// componentwise forward-error bound with no factor, with its operands
// flush against a guard page, and under an injected kernel miscompute.
// Every test skips, by name, on a host without the host kernel family:
// there tiny shapes keep their plans.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/rng.h"
#include "src/core/batched.h"
#include "src/core/kernel_select.h"
#include "src/core/plan_builder.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/kernels/registry.h"
#include "src/plan/native_executor.h"
#include "src/robust/fault_injection.h"
#include "src/service/smm_service.h"
#include "tests/test_helpers.h"

namespace smm::core {
namespace {

#define SKIP_WITHOUT_HOST_FAMILY()                                    \
  if (kern::host_vector_bits() != 512)                                \
  GTEST_SKIP() << "no host kernel family (AVX-512F/VL with FMA): tiny " \
                  "shapes keep their plans"

// The one-thread host-family plan over direct operands: the plan whose
// bits the tiny path reproduces.
plan::GemmPlan host_plan(GemmShape shape, plan::ScalarType scalar) {
  const KernelChoice tile = choose_host_family_tile(shape);
  BuildSpec spec;
  spec.mr = tile.mr;
  spec.nr = tile.nr;
  spec.mc = kHostMc;
  spec.kc = kSmmKc;
  spec.nc = kSmmNc;
  spec.host_tiles = true;
  spec.pack_a = false;
  spec.pack_b = false;
  spec.nthreads = 1;
  plan::GemmPlan p;
  p.strategy = "host-one-thread";
  p.shape = shape;
  p.scalar = scalar;
  build_smm_plan(p, spec);
  p.validate();
  return p;
}

template <typename T>
constexpr plan::ScalarType scalar_of() {
  return sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;
}

// One tiny product: A, B and C carved from storage with `pad` spare rows
// and columns in the given layouts, so every leading dimension is padded.
// C's storage is NaN when beta == 0 (the product must not read it).
template <typename T>
struct Case {
  GemmShape shape;
  T alpha;
  T beta;
  Matrix<T> a, b, c0;

  Case(GemmShape s, T al, T be, std::uint64_t seed, index_t pad = 3,
       Layout la = Layout::kColMajor, Layout lb = Layout::kColMajor,
       Layout lc = Layout::kColMajor)
      : shape(s),
        alpha(al),
        beta(be),
        a(s.m + pad, s.k + pad, la),
        b(s.k + pad, s.n + pad, lb),
        c0(s.m + pad, s.n + pad, lc) {
    Rng rng(seed);
    a.fill_random(rng);
    b.fill_random(rng);
    c0.fill_random(rng);
    if (beta == T(0)) c0.fill(std::numeric_limits<T>::quiet_NaN());
  }

  [[nodiscard]] ConstMatrixView<T> av() const {
    return a.cview().block(0, 0, shape.m, shape.k);
  }
  [[nodiscard]] ConstMatrixView<T> bv() const {
    return b.cview().block(0, 0, shape.k, shape.n);
  }
  static MatrixView<T> cv(Matrix<T>& c, GemmShape s) {
    return c.view().block(0, 0, s.m, s.n);
  }

  // C after the one-thread host-family plan, on this case's B or `b`.
  [[nodiscard]] Matrix<T> planned() const { return planned(bv()); }
  [[nodiscard]] Matrix<T> planned(ConstMatrixView<T> b_view) const {
    Matrix<T> c = c0.clone();
    plan::execute_plan(host_plan(shape, scalar_of<T>()), alpha, av(), b_view,
                       beta, cv(c, shape));
    return c;
  }
  // C after smm_gemm under default options.
  [[nodiscard]] Matrix<T> gemm(int nthreads = 1) const {
    Matrix<T> c = c0.clone();
    smm_gemm(alpha, av(), bv(), beta, cv(c, shape), nthreads);
    return c;
  }
};

template <typename T>
bool same_bits(const Matrix<T>& x, const Matrix<T>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     sizeof(T) * static_cast<std::size_t>(x.rows() *
                                                          x.cols())) == 0;
}

// The tiny path's C equals the host plan's bit for bit, storage padding
// included, and lies within the forward-error bound.
template <typename T>
::testing::AssertionResult tiny_matches_plan(const Case<T>& t) {
  Matrix<T> got = t.gemm();
  const Matrix<T> want = t.planned();
  if (!same_bits(got, want))
    return ::testing::AssertionFailure() << "bits differ from the host plan";
  auto c0 = t.c0.cview().block(0, 0, t.shape.m, t.shape.n);
  return test::within_forward_error_bound(
      t.alpha, t.av(), t.bv(), t.beta, c0,
      ConstMatrixView<T>(Case<T>::cv(got, t.shape)));
}

std::string name(GemmShape s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k);
}

TEST(TinyPath, AppliesOnlyToDefaultPlansOfTinyShapes) {
  SKIP_WITHOUT_HOST_FAMILY();
  const SmmOptions defaults;
  EXPECT_TRUE(tiny_path_applies({1, 1, 1}, defaults));
  EXPECT_TRUE(tiny_path_applies({24, 24, 24}, defaults));
  EXPECT_TRUE(tiny_path_applies({24, 1, 13}, defaults));
  for (const GemmShape s : {GemmShape{25, 8, 8}, GemmShape{8, 25, 8},
                            GemmShape{8, 8, 25}, GemmShape{0, 8, 8},
                            GemmShape{8, 0, 8}, GemmShape{8, 8, 0}})
    EXPECT_FALSE(tiny_path_applies(s, defaults)) << name(s);
  // Options that never shape a plan ride along.
  SmmOptions rides = defaults;
  rides.check_finite = true;
  rides.abft = integrity::AbftMode::kCorrect;
  rides.thread_scaling = SmmOptions::ThreadScaling::kMeasured;
  EXPECT_TRUE(tiny_path_applies({8, 8, 8}, rides));
  // Every plan-shaping option keeps the plan.
  std::vector<SmmOptions> planned(6, defaults);
  planned[0].pack_a = SmmOptions::Packing::kAlways;
  planned[1].pack_b = SmmOptions::Packing::kNever;
  planned[2].edge_pack = false;
  planned[3].adaptive_kernel = false;
  planned[4].thread_scaling = SmmOptions::ThreadScaling::kStatic;
  planned[5].pack_a = SmmOptions::Packing::kNever;
  for (std::size_t i = 0; i < planned.size(); ++i)
    EXPECT_FALSE(tiny_path_applies({8, 8, 8}, planned[i])) << i;
}

// Every m, n, k in [1, 24] at one (alpha, beta), col-major with padded
// leading dimensions.
template <typename T>
void check_full_lattice() {
  for (index_t m = 1; m <= kTinyMaxDim; ++m)
    for (index_t n = 1; n <= kTinyMaxDim; ++n)
      for (index_t k = 1; k <= kTinyMaxDim; ++k) {
        const Case<T> t({m, n, k}, T(0.75), T(-0.5),
                        static_cast<std::uint64_t>(m * 10000 + n * 100 + k));
        ASSERT_TRUE(tiny_matches_plan(t)) << name(t.shape);
      }
}

TEST(TinyPath, FullLatticeMatchesHostPlanBitsF32) {
  SKIP_WITHOUT_HOST_FAMILY();
  check_full_lattice<float>();
}

TEST(TinyPath, FullLatticeMatchesHostPlanBitsF64) {
  SKIP_WITHOUT_HOST_FAMILY();
  check_full_lattice<double>();
}

// A seeded sample of the rest: alpha and beta from {0, 1, -1, random},
// each operand col- or row-major, pads 0 to 4.
template <typename T>
void check_sampled_layouts() {
  Rng rng(0x71a7);
  const auto pick_scalar = [&rng]() {
    switch (rng.next_index(4)) {
      case 0: return T(0);
      case 1: return T(1);
      case 2: return T(-1);
      default: return static_cast<T>(rng.uniform(-2.0, 2.0));
    }
  };
  const auto pick_layout = [&rng]() {
    return rng.next_index(2) == 0 ? Layout::kColMajor : Layout::kRowMajor;
  };
  for (int i = 0; i < 3000; ++i) {
    const GemmShape s{1 + rng.next_index(kTinyMaxDim),
                      1 + rng.next_index(kTinyMaxDim),
                      1 + rng.next_index(kTinyMaxDim)};
    const T alpha = pick_scalar();
    const T beta = pick_scalar();
    const index_t pad = rng.next_index(5);
    const Layout la = pick_layout(), lb = pick_layout(), lc = pick_layout();
    const Case<T> t(s, alpha, beta, 9000u + static_cast<unsigned>(i), pad,
                    la, lb, lc);
    ASSERT_TRUE(tiny_matches_plan(t))
        << name(s) << " alpha " << alpha << " beta " << beta << " pad "
        << pad << " layouts " << to_string(la) << "/" << to_string(lb)
        << "/" << to_string(lc);
  }
}

TEST(TinyPath, SampledScalarsAndLayoutsMatchHostPlanBitsF32) {
  SKIP_WITHOUT_HOST_FAMILY();
  check_sampled_layouts<float>();
}

TEST(TinyPath, SampledScalarsAndLayoutsMatchHostPlanBitsF64) {
  SKIP_WITHOUT_HOST_FAMILY();
  check_sampled_layouts<double>();
}

TEST(TinyPath, EveryThreadBudgetGivesTheSameBits) {
  SKIP_WITHOUT_HOST_FAMILY();
  const Case<float> t({23, 19, 21}, 1.0f, 1.0f, 77);
  const Matrix<float> one = t.gemm(1);
  for (const int nthreads : {2, 4})
    EXPECT_TRUE(same_bits(t.gemm(nthreads), one)) << nthreads;
}

TEST(TinyPath, BatchedItemsMatchHostPlanBitsWithoutPlans) {
  SKIP_WITHOUT_HOST_FAMILY();
  // Mixed tiny shapes, two items sharing one B view, and one planned
  // neighbour (25 rows) in the same call.
  const GemmShape shapes[] = {{8, 8, 8}, {8, 8, 8}, {13, 5, 17},
                              {24, 24, 2}, {25, 8, 8}};
  std::vector<Case<double>> cases;
  for (std::size_t i = 0; i < std::size(shapes); ++i)
    cases.emplace_back(shapes[i], 0.5, 1.0, 300u + i);
  std::vector<Matrix<double>> cs;
  for (const auto& t : cases) cs.push_back(t.c0.clone());
  std::vector<GemmBatchItem<double>> items;
  for (std::size_t i = 0; i < cases.size(); ++i)
    items.push_back({cases[i].av(), i == 1 ? cases[0].bv() : cases[i].bv(),
                     Case<double>::cv(cs[i], cases[i].shape)});
  PlanCache cache(reference_smm());
  const SmmOptions options;
  const auto statuses =
      batched_smm_each(0.5, items, 1.0, cache, /*nworkers=*/2, &options);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok) << i << ": " << statuses[i].message;
    // The planned neighbour runs the plan smm_gemm runs at one thread.
    const Matrix<double> want = tiny_path_applies(cases[i].shape, options)
                                    ? cases[i].planned(items[i].b)
                                    : cases[i].gemm();
    EXPECT_TRUE(same_bits(cs[i], want)) << i;
  }
  // Only the planned neighbour resolved a plan.
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(TinyPath, BatchedTokenStoppedBeforeStartLeavesCUntouched) {
  SKIP_WITHOUT_HOST_FAMILY();
  const Case<float> t({8, 8, 8}, 1.0f, 1.0f, 41);
  Matrix<float> c = t.c0.clone();
  std::vector<GemmBatchItem<float>> items{
      {t.av(), t.bv(), Case<float>::cv(c, t.shape)}};
  CancelSource stopped;
  stopped.request_cancel();
  const CancelToken token = stopped.token();
  const std::vector<const CancelToken*> tokens{&token};
  PlanCache cache(reference_smm());
  const SmmOptions options;
  const auto statuses =
      batched_smm_each(1.0f, items, 1.0f, cache, 1, &options, &tokens);
  ASSERT_FALSE(statuses[0].ok);
  EXPECT_EQ(statuses[0].code, ErrorCode::kCancelled);
  EXPECT_TRUE(same_bits(c, t.c0));
}

TEST(TinyPath, ServiceSoloAndCoalescedRequestsMatchHostPlanBits) {
  SKIP_WITHOUT_HOST_FAMILY();
  service::ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.coalesce_depth = 8;
  options.coalesce_window_us = 0;
  service::SmmService svc(options);

  // Solo: nothing queued behind or ahead of it.
  const Case<float> solo({23, 19, 21}, 1.0f, -1.0f, 51);
  Matrix<float> solo_c = solo.c0.clone();
  EXPECT_TRUE(svc.submit(solo.alpha, solo.av(), solo.bv(), solo.beta,
                         Case<float>::cv(solo_c, solo.shape))
                  .wait()
                  .ok);
  EXPECT_TRUE(same_bits(solo_c, solo.planned()));
  const auto groups_before = svc.stats().coalesced_groups;

  // Coalesced: hold the only lane with a blocker batch so four requests of
  // one tiny shape queue up and leave as one group.
  Matrix<float> ba(96, 96), bb(96, 96);
  Rng rng(52);
  ba.fill_random(rng);
  bb.fill_random(rng);
  std::vector<Matrix<float>> bcs;
  std::vector<service::BatchItem<float>> blocker;
  for (int i = 0; i < 60; ++i) {
    bcs.emplace_back(96, 96);
    blocker.push_back({ba.cview(), bb.cview(), bcs.back().view()});
  }
  service::Ticket busy = svc.submit_batch(1.0f, blocker, 0.0f);
  while (svc.stats().in_flight == 0 && !busy.done())
    std::this_thread::yield();
  constexpr std::size_t kGroup = 4;
  std::vector<Case<float>> cases;
  std::vector<Matrix<float>> cs;
  for (std::size_t i = 0; i < kGroup; ++i) {
    cases.emplace_back(GemmShape{13, 5, 17}, 0.75f, 1.0f, 60u + i);
    cs.push_back(cases.back().c0.clone());
  }
  std::vector<service::Ticket> tickets;
  for (std::size_t i = 0; i < kGroup; ++i)
    tickets.push_back(svc.submit(0.75f, cases[i].av(), cases[i].bv(), 1.0f,
                                 Case<float>::cv(cs[i], cases[i].shape)));
  for (auto& t : tickets) EXPECT_TRUE(t.wait().ok) << t.wait().message;
  EXPECT_TRUE(busy.wait().ok);
  for (std::size_t i = 0; i < kGroup; ++i)
    EXPECT_TRUE(same_bits(cs[i], cases[i].planned())) << i;
  const auto s = svc.stats();
  EXPECT_EQ(s.coalesced_groups, groups_before + 1);
  EXPECT_EQ(s.coalesced_items, kGroup);
  svc.shutdown();
}

// Storage for `count` elements of T whose last one ends at a PROT_NONE
// page this object maps: any access past the end faults.
template <typename T>
class GuardedStorage {
 public:
  explicit GuardedStorage(index_t count) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = sizeof(T) * static_cast<std::size_t>(count);
    const std::size_t data_bytes = (bytes + page - 1) / page * page;
    size_ = data_bytes + page;
    void* base = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<char*>(base);
    if (mprotect(base_ + data_bytes, page, PROT_NONE) != 0) {
      munmap(base_, size_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<T*>(base_ + data_bytes) - count;
  }
  ~GuardedStorage() { munmap(base_, size_); }
  GuardedStorage(const GuardedStorage&) = delete;
  GuardedStorage& operator=(const GuardedStorage&) = delete;

  [[nodiscard]] T* data() const { return data_; }

 private:
  char* base_ = nullptr;
  std::size_t size_ = 0;
  T* data_ = nullptr;
};

// A and C packed tight (ld == m) and flush against a guard page, so the
// masked tail of the last column's row vector is the last mapped element:
// a masked-off lane that touched memory would fault. Every m, beta 0 (C
// not read) and not, three strips (8 + 8 + 3 columns).
template <typename T>
void check_guard_page_flush() {
  for (index_t m = 1; m <= kTinyMaxDim; ++m)
    for (const T beta : {T(0), T(0.5)}) {
      const GemmShape s{m, 19, 5};
      const Case<T> t(s, T(0.75), beta, 500u + static_cast<unsigned>(m),
                      /*pad=*/0);
      GuardedStorage<T> a(s.m * s.k), c(s.m * s.n);
      std::memcpy(a.data(), t.a.data(), sizeof(T) * s.m * s.k);
      std::memcpy(c.data(), t.c0.data(), sizeof(T) * s.m * s.n);
      smm_gemm(t.alpha, ConstMatrixView<T>(a.data(), s.m, s.k, s.m), t.bv(),
               t.beta, MatrixView<T>(c.data(), s.m, s.n, s.m));
      const Matrix<T> want = t.planned();
      ASSERT_EQ(std::memcmp(c.data(), want.data(), sizeof(T) * s.m * s.n),
                0)
          << name(s) << " beta " << beta;
    }
}

TEST(TinyPath, MaskedTailsStopAtAGuardPageF32) {
  SKIP_WITHOUT_HOST_FAMILY();
  check_guard_page_flush<float>();
}

TEST(TinyPath, MaskedTailsStopAtAGuardPageF64) {
  SKIP_WITHOUT_HOST_FAMILY();
  check_guard_page_flush<double>();
}

// kKernelMiscompute after the first kernel call: the tiny path's first
// strip and the host plan's first tile share the anchor C(0, 0), so the
// tiny path corrupts C exactly as the host plan does.
template <typename T>
void check_miscompute_parity(GemmShape shape) {
  const Case<T> t(shape, T(1), T(0.5), 90);
  auto& injector = robust::FaultInjector::instance();
  const auto corrupted = [&](auto&& run) {
    injector.arm(robust::FaultSite::kKernelMiscompute,
                 {.fire_after = 0, .max_fires = 1});
    Matrix<T> c = run();
    const auto fired =
        injector.fired_count(robust::FaultSite::kKernelMiscompute);
    injector.disarm(robust::FaultSite::kKernelMiscompute);
    EXPECT_GE(fired, 1u);
    return c;
  };
  const Matrix<T> clean = t.gemm();
  const Matrix<T> tiny = corrupted([&] { return t.gemm(); });
  const Matrix<T> planned = corrupted([&] { return t.planned(); });
  EXPECT_FALSE(same_bits(tiny, clean)) << name(shape);
  EXPECT_TRUE(same_bits(tiny, planned)) << name(shape);
}

// kKernelMiscompute after every kernel call: one site fires per 8-column
// strip, and each flips the top exponent bit of its anchor C(0, j0) and
// nothing else. (The host plan's tiles have other anchors.)
template <typename T>
void check_miscompute_every_strip(GemmShape shape) {
  const Case<T> t(shape, T(1), T(0.5), 90);
  Matrix<T> want = t.gemm();
  for (index_t j0 = 0; j0 < shape.n; j0 += 8) {
    T& anchor = Case<T>::cv(want, shape)(0, j0);
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    Bits raw;
    std::memcpy(&raw, &anchor, sizeof(raw));
    raw ^= Bits{1} << (sizeof(Bits) * 8 - 2);
    std::memcpy(&anchor, &raw, sizeof(raw));
  }
  auto& injector = robust::FaultInjector::instance();
  injector.arm(robust::FaultSite::kKernelMiscompute,
               {.fire_after = 0, .max_fires = 1000});
  const Matrix<T> got = t.gemm();
  const auto fired =
      injector.fired_count(robust::FaultSite::kKernelMiscompute);
  injector.disarm(robust::FaultSite::kKernelMiscompute);
  EXPECT_EQ(fired, static_cast<std::uint64_t>((shape.n + 7) / 8))
      << name(shape);
  EXPECT_TRUE(same_bits(got, want)) << name(shape);
}

TEST(TinyPath, KernelMiscomputeCorruptsCAsThePlanPathDoes) {
  SKIP_WITHOUT_HOST_FAMILY();
  for (const GemmShape s : {GemmShape{8, 8, 8}, GemmShape{13, 5, 17},
                            GemmShape{24, 24, 24}, GemmShape{1, 1, 1}}) {
    check_miscompute_parity<float>(s);
    check_miscompute_parity<double>(s);
  }
  for (const GemmShape s : {GemmShape{24, 24, 24}, GemmShape{13, 19, 17}}) {
    check_miscompute_every_strip<float>(s);
    check_miscompute_every_strip<double>(s);
  }
}

}  // namespace
}  // namespace smm::core
