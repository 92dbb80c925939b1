// Micro-kernel ABI.
//
// A micro-kernel performs the Layer-6/7 GESS operation of the paper's
// Fig. 4: C(mr x nr) = alpha * A_sliver(mr x kc) * B_sliver(kc x nr)
//                      + beta * C(mr x nr)
// as kc rank-1 updates held entirely in vector registers.
//
// One ABI serves every storage scheme in the paper through generalized
// panel addressing:
//   A element (i, k) = a[(i % a_ps) * a_istride + (i / a_ps) * a_pstride
//                        + k * a_kstride]
//   B element (k, j) = b[(j % b_ps) * b_jstride + (j / b_ps) * b_pstride
//                        + k * b_kstride]
// which covers
//   - packed mr/nr panels (GotoBLAS Fig. 2): a_ps = mr, a_kstride = mr,
//                                            a_istride = 1
//   - BLASFEO panel-major ps=4 (Fig. 3):     a_ps = 4,  a_kstride = 4,
//                                            a_pstride = 4 * total_cols
//   - direct, unpacked col-major A:          a_ps = mr, a_kstride = lda
//   - direct, unpacked row-major A (= op(A) of a transposed input):
//                                            a_ps = mr, a_istride = lda,
//                                            a_kstride = 1
//   - direct, unpacked col-major B:          b_ps = 1,  b_pstride = ldb,
//                                            b_kstride = 1
// so the packing-optional reference SMM, transposition, and all four
// library models share kernels.
#pragma once

#include "src/common/types.h"

namespace smm::kern {

/// Operand descriptors for one micro-kernel invocation (see file comment
/// for the addressing formulas).
template <typename T>
struct KernelOperands {
  const T* a = nullptr;
  index_t a_ps = 0;       ///< panel height of the A sliver
  index_t a_pstride = 0;  ///< distance between consecutive A panels
  index_t a_kstride = 0;  ///< distance between k and k+1 within a panel
  index_t a_istride = 1;  ///< distance between rows within a panel

  const T* b = nullptr;
  index_t b_ps = 0;
  index_t b_pstride = 0;
  index_t b_kstride = 0;
  index_t b_jstride = 1;  ///< distance between columns within a panel

  T* c = nullptr;
  index_t c_rs = 0;  ///< C row stride
  index_t c_cs = 0;  ///< C column stride
};

/// Kernel entry point. `mr_eff`/`nr_eff` <= the kernel's native tile let a
/// kernel mask its C update for edge tiles (zero-padding strategies compute
/// the full tile but store only the useful part).
template <typename T>
using MicroKernelFn = void (*)(index_t kc, T alpha, T beta,
                               const KernelOperands<T>& ops, index_t mr_eff,
                               index_t nr_eff);

/// Offset of A element (i, k) under the generalized panel addressing.
template <typename T>
inline index_t a_offset(const KernelOperands<T>& ops, index_t i, index_t k) {
  return (i % ops.a_ps) * ops.a_istride + (i / ops.a_ps) * ops.a_pstride +
         k * ops.a_kstride;
}

/// Offset of B element (k, j).
template <typename T>
inline index_t b_offset(const KernelOperands<T>& ops, index_t k, index_t j) {
  return (j % ops.b_ps) * ops.b_jstride + (j / ops.b_ps) * ops.b_pstride +
         k * ops.b_kstride;
}

/// True when A and B are single packed panels of an mr x nr tile (the
/// PackA/PackB layout: a_ps == a_kstride == mr, b_ps == b_kstride == nr,
/// unit in-panel strides) and C columns are contiguous (c_rs == 1). The
/// panel strides are irrelevant because i < mr and j < nr.
template <typename T>
inline bool is_packed_panel(const KernelOperands<T>& ops, index_t mr,
                            index_t nr) {
  return ops.a_ps == mr && ops.a_kstride == mr && ops.a_istride == 1 &&
         ops.b_ps == nr && ops.b_kstride == nr && ops.b_jstride == 1 &&
         ops.c_rs == 1;
}

// ---- Operand factory helpers -------------------------------------------

/// A sliver packed in mr-panel format (contiguous kc columns of mr rows).
template <typename T>
void set_packed_a(KernelOperands<T>& ops, const T* a, index_t mr) {
  ops.a = a;
  ops.a_ps = mr;
  ops.a_pstride = 0;  // single panel: i < mr always
  ops.a_kstride = mr;
}

/// B sliver packed in nr-panel format (contiguous kc rows of nr columns).
template <typename T>
void set_packed_b(KernelOperands<T>& ops, const T* b, index_t nr) {
  ops.b = b;
  ops.b_ps = nr;
  ops.b_pstride = 0;
  ops.b_kstride = nr;
}

/// A sliver read directly from an unpacked col-major matrix.
template <typename T>
void set_direct_a_colmajor(KernelOperands<T>& ops, const T* a, index_t lda,
                           index_t mr) {
  ops.a = a;
  ops.a_ps = mr;
  ops.a_pstride = 0;
  ops.a_kstride = lda;
  ops.a_istride = 1;
}

/// A sliver read directly from an unpacked row-major matrix — the op(A)
/// of a transposed col-major input. Rows are strided; only the generic
/// kernel can consume this (the vector kernels need a_istride == 1), so
/// packing strategies are preferred for transposed A.
template <typename T>
void set_direct_a_rowmajor(KernelOperands<T>& ops, const T* a, index_t lda,
                           index_t mr) {
  ops.a = a;
  ops.a_ps = mr;
  ops.a_pstride = 0;
  ops.a_kstride = 1;
  ops.a_istride = lda;
}

/// B sliver read directly from an unpacked col-major matrix (the
/// discontiguous access of paper Fig. 8).
template <typename T>
void set_direct_b_colmajor(KernelOperands<T>& ops, const T* b, index_t ldb) {
  ops.b = b;
  ops.b_ps = 1;
  ops.b_pstride = ldb;
  ops.b_kstride = 1;
}

/// B sliver read directly from an unpacked row-major matrix (contiguous
/// nr elements per k; Eigen's natural layout).
template <typename T>
void set_direct_b_rowmajor(KernelOperands<T>& ops, const T* b, index_t ldb,
                           index_t nr) {
  ops.b = b;
  ops.b_ps = nr;
  ops.b_pstride = 0;
  ops.b_kstride = ldb;
}

/// A sliver inside a BLASFEO panel-major matrix with panel height ps.
/// `a` must point at element (i0, 0) of the sliver with i0 % ps == 0;
/// total_cols is the full matrix column count.
template <typename T>
void set_panel_a(KernelOperands<T>& ops, const T* a, index_t ps,
                 index_t total_cols) {
  ops.a = a;
  ops.a_ps = ps;
  ops.a_pstride = ps * total_cols;
  ops.a_kstride = ps;
}

/// B sliver inside a panel-major matrix storing B^T (BLASFEO "nt" kernels):
/// B(k, j) = Bt(j, k); `b` points at Bt element (j0, 0), j0 % ps == 0.
template <typename T>
void set_panel_bt(KernelOperands<T>& ops, const T* b, index_t ps,
                  index_t total_cols_bt) {
  ops.b = b;
  ops.b_ps = ps;
  ops.b_pstride = ps * total_cols_bt;
  ops.b_kstride = ps;
}

// ---- Kernels -------------------------------------------------------------

/// Fully general scalar micro-kernel: any tile, any addressing, masked C
/// update. The fallback for edge tiles and the numerical reference for
/// every specialized kernel.
template <typename T>
void generic_microkernel(index_t kc, T alpha, T beta,
                         const KernelOperands<T>& ops, index_t mr_eff,
                         index_t nr_eff);

/// Register-blocked vector kernel for a full MR x NR tile, with two
/// addressing paths that produce bit-identical C.
///
///  - Packed panels (is_packed_panel): A is read as a[k*MR + i] and B as
///    b[k*NR + j] with compile-time strides. The tile is split into column
///    blocks of NB columns, NB the largest divisor of NR whose
///    (MR/lanes)*NB accumulators, MR/lanes A vectors and one broadcast fit
///    the build's vector registers (Eq. 4 on the host, not the ARMv8 budget
///    the plans use). The loops are fully unrolled and the accumulators
///    stay in registers. Every PackA/PackB buffer has this layout.
///  - Any other layout (direct operands, BLASFEO panels, row-major C) uses
///    runtime strides through a_offset/b_offset.
///
/// This is the 128-bit build (SSE on x86-64, NEON on AArch64). On x86-64
/// the packed path is also built at 256 bits (AVX2, 16 registers) and 512
/// bits (AVX-512F/VL, 32 registers); see tile_clone_fn.
///
/// Requirements (checked with SMM_EXPECT):
///  - mr_eff == MR and nr_eff == NR,
///  - MR is a multiple of the vector width for T,
///  - the A addressing yields contiguous vectors: a_ps % lanes == 0 and
///    a panel never splits a 4-row group (a_ps is 4, 8, 12, 16 or MR).
/// B may be addressed arbitrarily (scalars are broadcast, which is exactly
/// how fmla-by-lane consumes packed B on ARMv8).
template <typename T, int MR, int NR>
void tile_microkernel(index_t kc, T alpha, T beta,
                      const KernelOperands<T>& ops, index_t mr_eff,
                      index_t nr_eff);

/// Packed-path vector width, in bits, of an MR-row tile of T on a host
/// whose widest usable vector is `max_bits` (128, 256 or 512): the widest
/// width <= max_bits whose lane count divides MR. So f32 12xN and f32
/// 4xN tiles stay at 128 bits on every host.
template <typename T>
constexpr int tile_vector_bits(int mr, int max_bits) {
  for (int bits = max_bits; bits > 128; bits /= 2)
    if (mr % (bits / 8 / static_cast<int>(sizeof(T))) == 0) return bits;
  return 128;
}

/// The native kernel for an mr x nr tile on a host whose widest usable
/// vector is `max_bits`: the tile_microkernel clone built at
/// tile_vector_bits<T>(mr, max_bits) (128 = tile_microkernel itself), or
/// generic_microkernel for a tile with no register-blocked instantiation.
/// A clone differs from the 128-bit build only in its packed path: wider
/// lanes batch more rows, while each C element keeps the same k order,
/// multiply-then-add and epilogue, so every clone is bit-identical to it.
/// native_tile_fn passes the host's width; tests pass each width the host
/// runs.
template <typename T>
MicroKernelFn<T> tile_clone_fn(int mr, int nr, int max_bits);

}  // namespace smm::kern
