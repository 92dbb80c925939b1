// The host kernel family (registry family "host"): tiles sized by Eq. 4-5
// for a host with AVX-512F/VL (32 vector registers) and FMA instead of the
// modelled ARMv8 core, reading packed or direct operands through the
// affine tile body (tile_body.h). Each k step is one fused multiply-add,
// as each of the paper's ARMv8 kernels issues one fmla. Native plans only;
// the simulator never prices them.
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/common/types.h"
#include "src/kernels/microkernel.h"
#include "src/simd/vec.h"

#if defined(__x86_64__)
#include <immintrin.h>

// The tile bodies are compiled here for the family's target, so the fused
// multiply-add intrinsics inline into them. Only templates are defined in
// this region, and each is instantiated here only with FusedMulAdd, whose
// internal linkage keeps every AVX-512 copy out of other translation
// units. Every header they use is included above, outside the region; were
// tile_body.h included earlier without the target, the intrinsics would
// fail to inline and the build would stop.
#pragma GCC push_options
#pragma GCC target("avx512f,avx512vl,fma")
#include "src/kernels/tile_body.h"

namespace smm::kern {
namespace {

// One k step of the host family, acc = fma(a, b, acc): a single rounding
// per lane, `b` broadcast over the register `a`.
struct FusedMulAdd {
  template <typename R, typename T>
  [[gnu::always_inline]] static void run(R& acc, const R& a, T b) {
    constexpr bool kF32 = std::is_same_v<T, float>;
    if constexpr (std::is_same_v<R, T>) {
      if constexpr (kF32) acc = __builtin_fmaf(a, b, acc);
      else acc = __builtin_fma(a, b, acc);
    } else if constexpr (sizeof(R) == 64) {
      if constexpr (kF32) acc = _mm512_fmadd_ps(a, _mm512_set1_ps(b), acc);
      else acc = _mm512_fmadd_pd(a, _mm512_set1_pd(b), acc);
    } else if constexpr (sizeof(R) == 32) {
      if constexpr (kF32) acc = _mm256_fmadd_ps(a, _mm256_set1_ps(b), acc);
      else acc = _mm256_fmadd_pd(a, _mm256_set1_pd(b), acc);
    } else {
      static_assert(sizeof(R) == 16, "no fused step for this register");
      if constexpr (kF32) acc = _mm_fmadd_ps(a, _mm_set1_ps(b), acc);
      else acc = _mm_fmadd_pd(a, _mm_set1_pd(b), acc);
    }
  }
};

// Register width, in bytes, of an MR-row tile of T: the widest vector up
// to 512 bits whose lane count divides MR, or one scalar when none does
// (f32 2xN and 1xN, f64 1xN).
template <typename T>
constexpr int host_reg_bytes(int mr) {
  const int bytes = tile_vector_bits<T>(mr, 512) / 8;
  return mr % (bytes / static_cast<int>(sizeof(T))) == 0
             ? bytes
             : static_cast<int>(sizeof(T));
}

// Full tiles with affine operands run the affine tile body: A with unit
// row stride inside one panel, B inside one panel (b_ps >= NR) or one
// column per panel (b_ps == 1), col-major C. Anything else — masked
// updates, strided-row A, multi-panel A, row-major C — runs the scalar
// tile body at runtime extents, with the same fused step, so every layout
// gives the same bits. AVX-512VL gives the narrower vectors of short tiles
// (f32 8xN in ymm, 4xN in xmm) the same 32 registers as zmm.
template <typename T, int MR, int NR>
void host_tile(index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
               index_t mr_eff, index_t nr_eff) {
  const bool affine = mr_eff == MR && nr_eff == NR && ops.a_istride == 1 &&
                      ops.a_ps >= MR && (ops.b_ps >= NR || ops.b_ps == 1) &&
                      ops.c_rs == 1;
  if (!affine) {
    detail::scalar_tile<T, 0, 0, FusedMulAdd>(kc, alpha, beta, ops, mr_eff,
                                              nr_eff);
    return;
  }
  const index_t bj = ops.b_ps == 1 ? ops.b_pstride : ops.b_jstride;
  detail::affine_tile<T, MR, NR, host_reg_bytes<T>(MR), 32, FusedMulAdd>(
      kc, alpha, beta, ops.a, ops.a_kstride, ops.b, bj, ops.b_kstride, ops.c,
      ops.c_cs);
}

}  // namespace
}  // namespace smm::kern

#pragma GCC pop_options
#endif

namespace smm::kern {

// The dispatcher is built for the baseline target: it runs on any x86-64.
template <typename T>
MicroKernelFn<T> host_tile_fn(int mr, int nr) {
#if defined(__x86_64__)
  switch (mr * 100 + nr) {
#define SMM_HOST_ROWS(MR)                         \
  case MR * 100 + 8: return &host_tile<T, MR, 8>; \
  case MR * 100 + 4: return &host_tile<T, MR, 4>; \
  case MR * 100 + 2: return &host_tile<T, MR, 2>; \
  case MR * 100 + 1: return &host_tile<T, MR, 1>;
    SMM_HOST_ROWS(32)
    SMM_HOST_ROWS(16)
    SMM_HOST_ROWS(8)
    SMM_HOST_ROWS(4)
    SMM_HOST_ROWS(2)
    SMM_HOST_ROWS(1)
#undef SMM_HOST_ROWS
    case 816: return &host_tile<T, 8, 16>;
    case 416: return &host_tile<T, 4, 16>;
    case 216: return &host_tile<T, 2, 16>;
    case 116: return &host_tile<T, 1, 16>;
    default: break;
  }
#endif
  (void)mr;
  (void)nr;
  return nullptr;
}

template MicroKernelFn<float> host_tile_fn<float>(int, int);
template MicroKernelFn<double> host_tile_fn<double>(int, int);

}  // namespace smm::kern
