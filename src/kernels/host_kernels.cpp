// The host kernel family (registry family "host"): tiles sized by Eq. 4-5
// for a host with AVX-512F/VL (32 vector registers) and FMA instead of the
// modelled ARMv8 core, reading packed or direct operands through the
// affine tile body (tile_body.h), and the masked strips of the tiny path
// (every row of a product up to 24 rows by up to 8 columns, its row edge
// under a mask register). Each k step is one fused multiply-add, as each
// of the paper's ARMv8 kernels issues one fmla. Native plans and the tiny
// path only; the simulator never prices them.
#include <array>
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

// The scalar tile body at runtime extents, out of line: one copy per T
// serves every tile and strip, and their vector bodies keep a small frame.
template <typename T>
[[gnu::noinline]] void host_any_layout(index_t kc, T alpha, T beta,
                                       const KernelOperands<T>& ops,
                                       index_t mr, index_t nr) {
  detail::scalar_tile<T, 0, 0, FusedMulAdd>(kc, alpha, beta, ops, mr, nr);
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
    host_any_layout(kc, alpha, beta, ops, mr_eff, nr_eff);
    return;
  }
  const index_t bj = ops.b_ps == 1 ? ops.b_pstride : ops.b_jstride;
  detail::affine_tile<T, MR, NR, host_reg_bytes<T>(MR), 32, FusedMulAdd>(
      kc, alpha, beta, ops.a, ops.a_kstride, ops.b, bj, ops.b_kstride, ops.c,
      ops.c_cs);
}

// A kBytes-wide register of T loaded from, or stored to, the lanes of p
// that `lanes` selects. Masked-off lanes are neither read (they load as
// zero) nor written, and cannot fault: the row tail may end at the last
// mapped byte.
template <typename R, typename T>
[[gnu::always_inline]] inline R masked_load(unsigned lanes, const T* p) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  if constexpr (sizeof(R) == 64) {
    if constexpr (kF32) return _mm512_maskz_loadu_ps(__mmask16(lanes), p);
    else return _mm512_maskz_loadu_pd(__mmask8(lanes), p);
  } else if constexpr (sizeof(R) == 32) {
    if constexpr (kF32) return _mm256_maskz_loadu_ps(__mmask8(lanes), p);
    else return _mm256_maskz_loadu_pd(__mmask8(lanes), p);
  } else {
    if constexpr (kF32) return _mm_maskz_loadu_ps(__mmask8(lanes), p);
    else return _mm_maskz_loadu_pd(__mmask8(lanes), p);
  }
}

template <typename R, typename T>
[[gnu::always_inline]] inline void masked_store(unsigned lanes, T* p, R v) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  if constexpr (sizeof(R) == 64) {
    if constexpr (kF32) _mm512_mask_storeu_ps(p, __mmask16(lanes), v);
    else _mm512_mask_storeu_pd(p, __mmask8(lanes), v);
  } else if constexpr (sizeof(R) == 32) {
    if constexpr (kF32) _mm256_mask_storeu_ps(p, __mmask8(lanes), v);
    else _mm256_mask_storeu_pd(p, __mmask8(lanes), v);
  } else {
    if constexpr (kF32) _mm_mask_storeu_ps(p, __mmask8(lanes), v);
    else _mm_mask_storeu_pd(p, __mmask8(lanes), v);
  }
}

// An m x NR strip, all m rows in kVecs kBytes-wide row vectors, the last
// loaded and stored under a row mask; k is the only loop. Same step and
// epilogue as host_tile, so the same bits. The vector body needs A rows
// at unit stride inside one panel, B one column per panel (direct B of
// either layout) and col-major C; anything else, such as strided-row A or
// row-major C, runs the scalar tile body at runtime extents.
template <typename T, int kBytes, int kVecs, int NR>
void host_strip(index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
                index_t m, index_t nr) {
  const bool affine = ops.a_istride == 1 && ops.a_ps >= m &&
                      ops.b_ps == 1 && ops.c_rs == 1;
  if (!affine) {
    host_any_layout(kc, alpha, beta, ops, m, nr);
    return;
  }
  using R = detail::TileReg<T, kBytes>;
  constexpr index_t kLanes = kBytes / static_cast<index_t>(sizeof(T));
  constexpr int kLast = kVecs - 1;
  const unsigned tail = (1u << (m - kLast * kLanes)) - 1;
  const index_t bj = ops.b_pstride;

  R acc[kVecs][NR] = {};
  const T* ap = ops.a;
  const T* bp = ops.b;
  for (index_t k = 0; k < kc; ++k, ap += ops.a_kstride, bp += ops.b_kstride) {
    R av[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kLast; ++v)
      std::memcpy(&av[v], ap + v * kLanes, sizeof(R));
    av[kLast] = masked_load<R>(tail, ap + kLast * kLanes);
#pragma GCC unroll 8
    for (int j = 0; j < NR; ++j) {
      const T bkj = bp[j * bj];
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) FusedMulAdd::run(acc[v][j], av[v], bkj);
    }
  }

  // beta == 0 must not read C (it may hold uninitialized data). C is
  // addressed from locals: a store through it may alias `ops`.
  T* const c = ops.c;
  const index_t ldc = ops.c_cs;
#pragma GCC unroll 8
  for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) {
      T* cp = c + v * kLanes + j * ldc;
      R out = alpha * acc[v][j];
      if (v < kLast) {
        if (beta != T(0)) {
          R old;
          std::memcpy(&old, cp, sizeof(R));
          out = out + beta * old;
        }
        std::memcpy(cp, &out, sizeof(R));
      } else {
        if (beta != T(0)) out = out + beta * masked_load<R>(tail, cp);
        masked_store(tail, cp, out);
      }
    }
  }
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

#if defined(__x86_64__)
namespace {

// The registers an m-row strip of T is held in: the narrowest of xmm, ymm
// and zmm that covers m rows, then as many zmm as m needs.
template <typename T>
consteval int strip_reg_bytes(int m) {
  const int bytes = m * static_cast<int>(sizeof(T));
  return bytes <= 16 ? 16 : bytes <= 32 ? 32 : 64;
}

template <typename T>
consteval int strip_vecs(int m) {
  const int lanes = strip_reg_bytes<T>(m) / static_cast<int>(sizeof(T));
  return (m + lanes - 1) / lanes;
}

// host_strip for m rows by nr columns at (m - 1) * 8 + nr - 1: the
// dispatcher is one load.
template <typename T, int... I>
consteval std::array<MicroKernelFn<T>, sizeof...(I)> strip_table(
    std::integer_sequence<int, I...>) {
  return {&host_strip<T, strip_reg_bytes<T>(I / 8 + 1),
                      strip_vecs<T>(I / 8 + 1), I % 8 + 1>...};
}

template <typename T>
constexpr auto kStrips = strip_table<T>(
    std::make_integer_sequence<int, kHostStripMaxRows * 8>{});

}  // namespace
#endif

// Built for the baseline target, as host_tile_fn is.
template <typename T>
MicroKernelFn<T> host_strip_fn(int m, int nr) {
#if defined(__x86_64__)
  if (m >= 1 && m <= kHostStripMaxRows && nr >= 1 && nr <= 8)
    return kStrips<T>[static_cast<std::size_t>((m - 1) * 8 + nr - 1)];
#endif
  (void)m;
  (void)nr;
  return nullptr;
}

template MicroKernelFn<float> host_strip_fn<float>(int, int);
template MicroKernelFn<double> host_strip_fn<double>(int, int);

}  // namespace smm::kern
