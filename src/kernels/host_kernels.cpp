// The host kernel family (registry family "host"): tiles sized by Eq. 4-5
// for a host with AVX-512F/VL (32 vector registers) instead of the
// modelled ARMv8 core, reading packed or direct operands through the
// affine tile body (tile_body.h). Native plans only; the simulator never
// prices them.
#include "src/kernels/microkernel.h"
#include "src/kernels/tile_body.h"

namespace smm::kern {

#if defined(__x86_64__)
namespace {

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

// Full tiles with affine operands run the tile body: A with unit row
// stride inside one panel, B inside one panel (b_ps >= NR) or one column
// per panel (b_ps == 1), col-major C. Anything else — masked updates,
// strided-row A, multi-panel A, row-major C — runs the generic kernel.
// AVX-512VL gives the narrower vectors of short tiles (f32 8xN in ymm,
// 4xN in xmm) the same 32 registers as zmm.
template <typename T, int MR, int NR>
__attribute__((target("avx512f,avx512vl"))) void host_tile(
    index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
    index_t mr_eff, index_t nr_eff) {
  const bool affine = mr_eff == MR && nr_eff == NR && ops.a_istride == 1 &&
                      ops.a_ps >= MR && (ops.b_ps >= NR || ops.b_ps == 1) &&
                      ops.c_rs == 1;
  if (!affine) {
    generic_microkernel<T>(kc, alpha, beta, ops, mr_eff, nr_eff);
    return;
  }
  const index_t bj = ops.b_ps == 1 ? ops.b_pstride : ops.b_jstride;
  detail::affine_tile<T, MR, NR, host_reg_bytes<T>(MR), 32>(
      kc, alpha, beta, ops.a, ops.a_kstride, ops.b, bj, ops.b_kstride, ops.c,
      ops.c_cs);
}

}  // namespace
#endif

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
