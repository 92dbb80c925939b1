// Exhaustive sweep over every registered kernel: native correctness
// against the scalar oracle (full tile and masked edge, f32 and f64), and
// schedule-construction invariants for both precisions. Parameterized
// over the whole registry so newly registered kernels are covered
// automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/kernels/registry.h"
#include "src/kernels/schedule.h"

namespace smm::kern {
namespace {

std::vector<KernelId> all_kernel_ids() {
  std::vector<KernelId> out;
  const auto& reg = KernelRegistry::instance();
  for (KernelId id = 0; id < reg.size(); ++id) out.push_back(id);
  return out;
}

template <typename T>
void oracle(index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
            index_t mr, index_t nr, std::vector<T>& c_ref, index_t c_cs) {
  for (index_t j = 0; j < nr; ++j) {
    for (index_t i = 0; i < mr; ++i) {
      double acc = 0;
      for (index_t k = 0; k < kc; ++k)
        acc += static_cast<double>(ops.a[a_offset(ops, i, k)]) *
               static_cast<double>(ops.b[b_offset(ops, k, j)]);
      const auto idx = static_cast<std::size_t>(i + j * c_cs);
      const double base =
          beta == T(0) ? 0.0
                       : static_cast<double>(beta) *
                             static_cast<double>(c_ref[idx]);
      c_ref[idx] = static_cast<T>(static_cast<double>(alpha) * acc + base);
    }
  }
}

template <typename T>
void check_kernel(KernelId id, bool edge_invocation) {
  const auto& info = KernelRegistry::instance().info(id);
  const index_t mr = info.mr;
  const index_t nr = info.nr;
  const index_t kc = 13;
  Rng rng(static_cast<std::uint64_t>(id) * 7919 + (edge_invocation ? 1 : 0));
  std::vector<T> a(static_cast<std::size_t>(mr * kc));
  std::vector<T> b(static_cast<std::size_t>(nr * kc));
  std::vector<T> c(static_cast<std::size_t>(mr * nr));
  for (auto& v : a) v = static_cast<T>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<T>(rng.uniform(-1, 1));
  for (auto& v : c) v = static_cast<T>(rng.uniform(-1, 1));
  std::vector<T> c_ref = c;

  KernelOperands<T> ops;
  set_packed_a(ops, a.data(), mr);
  set_packed_b(ops, b.data(), nr);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = mr;

  const index_t um = edge_invocation ? std::max<index_t>(1, mr - 1) : mr;
  const index_t un = edge_invocation ? std::max<index_t>(1, nr - 1) : nr;
  oracle<T>(kc, T(1.5), T(-0.5), ops, um, un, c_ref, mr);
  // Edge invocations go through the generic kernel exactly like the
  // native executor routes them.
  if (um == mr && un == nr) {
    kernel_fn<T>(id)(kc, T(1.5), T(-0.5), ops, um, un);
  } else {
    generic_microkernel<T>(kc, T(1.5), T(-0.5), ops, um, un);
  }
  double worst = 0;
  for (std::size_t i = 0; i < c.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(c[i]) -
                                     static_cast<double>(c_ref[i])));
  EXPECT_LE(worst, 1e-4) << info.name << (edge_invocation ? " edge" : "");
}

// The host family runs only in native plans; the simulator never prices
// it, so its checks use the host's register file, not the ARMv8 core's.
bool native_only(const KernelInfo& info) { return info.family == "host"; }

class EveryKernel : public ::testing::TestWithParam<KernelId> {};

TEST_P(EveryKernel, FullTileF32) { check_kernel<float>(GetParam(), false); }
TEST_P(EveryKernel, FullTileF64) { check_kernel<double>(GetParam(), false); }
TEST_P(EveryKernel, MaskedEdgeF32) { check_kernel<float>(GetParam(), true); }

TEST_P(EveryKernel, SchedulesBuildForBothPrecisions) {
  const KernelId id = GetParam();
  const auto& info = KernelRegistry::instance().info(id);
  if (native_only(info)) {
    // Never priced, so no ARMv8 schedule: its "schedule" is the
    // AVX-512 clone built for each precision.
    EXPECT_NE(kernel_fn<float>(id), nullptr);
    EXPECT_EQ(kernel_fn<float>(id), host_tile_fn<float>(info.mr, info.nr));
    EXPECT_NE(kernel_fn<double>(id), nullptr);
    EXPECT_EQ(kernel_fn<double>(id), host_tile_fn<double>(info.mr, info.nr));
    return;
  }
  for (const bool f64 : {false, true}) {
    const ScheduleSpec spec =
        f64 ? kernel_spec<double>(id) : kernel_spec<float>(id);
    const KernelSchedule sched = build_schedule(spec);
    EXPECT_EQ(sched.mr, info.mr);
    EXPECT_EQ(sched.nr, info.nr);
    EXPECT_GT(sched.body.size(), 0u);
    EXPECT_GT(sched.epilogue.size(), 0u);
    // Useful-FMA accounting: ceil(mr/lanes) * nr per unrolled iteration.
    const int avec = (info.mr + spec.lanes - 1) / spec.lanes;
    EXPECT_EQ(sched.fma_per_body, avec * info.nr * sched.unroll)
        << info.name << (f64 ? " f64" : " f32");
    // Every register index must fit the renaming table.
    for (const auto& u : sched.body) {
      EXPECT_LT(u.dst, 160);
      EXPECT_LT(u.src1, 160);
      EXPECT_LT(u.src2, 160);
    }
  }
}

TEST_P(EveryKernel, InfoConsistent) {
  const auto& info = KernelRegistry::instance().info(GetParam());
  EXPECT_GT(info.mr, 0);
  EXPECT_GT(info.nr, 0);
  EXPECT_NE(info.f32, nullptr);
  EXPECT_NE(info.f64, nullptr);
  EXPECT_EQ(info.sched.mr, info.mr);
  EXPECT_EQ(info.sched.nr, info.nr);
  if (native_only(info)) {
    // Eq. 4 on the host: the f32 C tile, one A sliver and a broadcast fit
    // the 512-bit clone's 32 registers at the lanes it runs the tile at.
    const int lanes = tile_vector_bits<float>(info.mr, 512) / 32;
    const int avec = (info.mr + lanes - 1) / lanes;
    EXPECT_LE(avec * info.nr + avec + 1, 32) << info.name;
  } else {
    // Eq. 4 on the modelled ARMv8 core: every simulated kernel must fit
    // its register file (f32).
    EXPECT_LE(info.mr * info.nr, 30 * 4) << info.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, EveryKernel,
                         ::testing::ValuesIn(all_kernel_ids()),
                         [](const auto& info) {
                           std::string name =
                               KernelRegistry::instance()
                                   .info(info.param)
                                   .name;
                           for (auto& ch : name)
                             if (ch == '/' || ch == '-') ch = '_';
                           return name;
                         });

// The host family's zmm tiles need AVX-512F/VL and its xmm and ymm tiles
// issue VEX-encoded FMA3, which a VM may mask while exposing AVX-512F. So
// the 512-bit target, and with it the family, needs all of them (and the
// AVX2 every wider target builds on).
TEST(HostFamily, RegisteredOnlyWithAvx512AndFma) {
  bool rule = false;
#if defined(__x86_64__)
  __builtin_cpu_init();
  rule = __builtin_cpu_supports("avx2") && __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("fma");
#endif
  EXPECT_EQ(host_vector_bits() == 512, rule);
  EXPECT_EQ(!KernelRegistry::instance().family("host").empty(), rule);
}

}  // namespace
}  // namespace smm::kern
