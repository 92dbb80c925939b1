// Heap allocations on the warm call path, counted by replacing the global
// operator new for this binary only. A warm call is one whose plan is
// cached and whose pool workers, scratch slab and tuner class exist: on
// SMM-sized shapes an allocation costs about as much as the dispatch it
// rides on, so every warm layer must allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/core/smm.h"
#include "src/matrix/matrix.h"
#include "src/plan/native_executor.h"
#include "src/threading/thread_pool.h"

namespace {

std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t bytes, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes == 0 ? 1 : bytes);
  } else if (posix_memalign(&p, align, bytes == 0 ? 1 : bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The replaceable forms the others (nothrow, array) forward to.
void* operator new(std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes, 0); }
void* operator new(std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t bytes, std::align_val_t align) {
  return counted_alloc(bytes, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace smm {
namespace {

constexpr int kWarmCalls = 500;
constexpr int kCountedCalls = 1000;

/// Heap allocations (on any thread) across kCountedCalls calls of `call`
/// after kWarmCalls untimed ones.
template <typename F>
long allocations_over_warm_calls(F&& call) {
  for (int i = 0; i < kWarmCalls; ++i) call();
  const long before = g_allocations.load();
  for (int i = 0; i < kCountedCalls; ++i) call();
  return g_allocations.load() - before;
}

/// perfbench's compute_mid shapes (m, n, k).
constexpr GemmShape kComputeMid[] = {
    {48, 48, 48},    {64, 64, 64},    {96, 96, 96},  {128, 128, 128},
    {160, 160, 160}, {192, 192, 192}, {8, 256, 128}, {200, 8, 160},
    {4, 192, 256},   {128, 128, 8},   {256, 192, 12}, {160, 224, 16},
};

template <typename T>
long warm_execute_allocations(GemmShape shape, int nthreads) {
  const auto scalar =
      sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;
  const auto plan = core::cached_smm_plan(core::smm_plan_cache(), shape,
                                          scalar, nthreads, {});
  Matrix<T> a(shape.m, shape.k), b(shape.k, shape.n), c(shape.m, shape.n);
  a.fill(T(1));
  b.fill(T(1));
  return allocations_over_warm_calls([&] {
    plan::execute_plan(*plan, T(1), a.cview(), b.cview(), T(0), c.view());
  });
}

/// perfbench's warm_tiny shapes (m, n, k): every one takes the tiny path
/// on a host with the host kernel family.
constexpr GemmShape kWarmTiny[] = {
    {2, 2, 2},    {4, 4, 4},    {5, 5, 5},    {8, 8, 8},   {12, 12, 12},
    {16, 16, 16}, {20, 20, 20}, {24, 24, 24}, {7, 9, 11},  {13, 5, 17},
    {23, 19, 21}, {9, 24, 6},   {17, 3, 22},  {11, 14, 3}, {24, 24, 2},
    {24, 2, 24},  {2, 24, 24},  {20, 20, 4},  {4, 20, 20}, {20, 4, 20},
    {24, 3, 16},  {3, 24, 16},  {16, 16, 3},  {6, 18, 10},
};

template <typename T>
long warm_smm_gemm_allocations(GemmShape shape, int nthreads) {
  Matrix<T> a(shape.m, shape.k), b(shape.k, shape.n), c(shape.m, shape.n);
  a.fill(T(1));
  b.fill(T(1));
  return allocations_over_warm_calls([&] {
    core::smm_gemm(T(1), a.cview(), b.cview(), T(0), c.view(), nthreads);
  });
}

template <typename T>
long warm_smm_gemm_allocations(index_t d, int nthreads) {
  return warm_smm_gemm_allocations<T>(GemmShape{d, d, d}, nthreads);
}

TEST(WarmAllocations, CountingOperatorNewSeesAllocations) {
  const long before = g_allocations.load();
  auto* p = new int(7);
  delete p;
  EXPECT_EQ(g_allocations.load() - before, 1);
}

TEST(WarmAllocations, EmptyTwoThreadRegionAllocatesNothing) {
  EXPECT_EQ(allocations_over_warm_calls([] {
              par::run_parallel(2, [](int) {});
            }),
            0);
}

TEST(WarmAllocations, TwoThreadComputeMidPlansExecuteWithoutAllocating) {
  for (const GemmShape& shape : kComputeMid) {
    EXPECT_EQ(warm_execute_allocations<float>(shape, 2), 0)
        << shape.m << "x" << shape.n << "x" << shape.k << " f32";
    EXPECT_EQ(warm_execute_allocations<double>(shape, 2), 0)
        << shape.m << "x" << shape.n << "x" << shape.k << " f64";
  }
}

TEST(WarmAllocations, OneThreadEightCubedPlanExecutesWithoutAllocating) {
  EXPECT_EQ(warm_execute_allocations<float>({8, 8, 8}, 1), 0);
  EXPECT_EQ(warm_execute_allocations<double>({8, 8, 8}, 1), 0);
}

TEST(WarmAllocations, PlanCacheHitAllocatesNothing) {
  EXPECT_EQ(allocations_over_warm_calls([] {
              (void)core::cached_smm_plan(core::smm_plan_cache(),
                                          {96, 96, 96},
                                          plan::ScalarType::kF32, 2, {});
            }),
            0);
}

TEST(WarmAllocations, WarmSmmGemmAllocatesNothing) {
  // Per-call counts of the whole warm entry point: plan lookup, tuner
  // gate and sampling, executor and pool handoff.
  const long f32_1 = warm_smm_gemm_allocations<float>(8, 1);
  const long f64_1 = warm_smm_gemm_allocations<double>(8, 1);
  const long f32_2 = warm_smm_gemm_allocations<float>(96, 2);
  const long f64_2 = warm_smm_gemm_allocations<double>(96, 2);
  std::printf("[  ALLOCS  ] warm smm_gemm per call: 8^3 f32 1t %.3f, "
              "f64 1t %.3f; 96^3 f32 2t %.3f, f64 2t %.3f\n",
              static_cast<double>(f32_1) / kCountedCalls,
              static_cast<double>(f64_1) / kCountedCalls,
              static_cast<double>(f32_2) / kCountedCalls,
              static_cast<double>(f64_2) / kCountedCalls);
  EXPECT_EQ(f32_1, 0);
  EXPECT_EQ(f64_1, 0);
  EXPECT_EQ(f32_2, 0);
  EXPECT_EQ(f64_2, 0);
}

TEST(WarmAllocations, TinySmmGemmAllocatesNothing) {
  // The tiny path (DESIGN.md §8), at one and two threads; without the
  // host kernel family the same calls run their cached plans.
  for (const GemmShape& shape : kWarmTiny) {
    for (const int nthreads : {1, 2}) {
      EXPECT_EQ(warm_smm_gemm_allocations<float>(shape, nthreads), 0)
          << shape.m << "x" << shape.n << "x" << shape.k << " f32 "
          << nthreads << "t";
      EXPECT_EQ(warm_smm_gemm_allocations<double>(shape, nthreads), 0)
          << shape.m << "x" << shape.n << "x" << shape.k << " f64 "
          << nthreads << "t";
    }
  }
}

TEST(WarmAllocations, OneThreadPlannedSmmGemmAllocatesNothing) {
  // Past kTinyMaxDim: the cached one-thread plan, through smm_gemm.
  EXPECT_EQ(warm_smm_gemm_allocations<float>(32, 1), 0);
  EXPECT_EQ(warm_smm_gemm_allocations<double>(32, 1), 0);
  EXPECT_EQ(warm_smm_gemm_allocations<float>(GemmShape{25, 8, 8}, 1), 0);
}

}  // namespace
}  // namespace smm
