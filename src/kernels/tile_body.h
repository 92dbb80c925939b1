// The register-blocked tile body of the vector micro-kernels (internal to
// src/kernels): C(MR x NR) = alpha * A * B + beta * C over operands with
// affine addressing,
//   A(i, k) = a[i + k * ak],  B(k, j) = b[j * bj + k * bk],
//   C(i, j) = c[i + j * ldc].
// Packed panels are the constant-stride case (ak = MR, bj = 1, bk = NR);
// direct col-major A (ak = lda), direct col-major B (bj = ldb, bk = 1) and
// direct row-major B (bj = 1, bk = ldb) take the same body with runtime
// strides, so no multiply-add pays the panel-addressing division.
//
// Every instance keeps, per C element, the k order, multiply-then-add and
// epilogue of the scalar per-element formula, so all widths and strides
// agree bit for bit with it. Built only in translation units compiled with
// -ffp-contract=off.
#pragma once

#include <cstring>
#include <type_traits>

#include "src/common/types.h"
#include "src/simd/vec.h"

namespace smm::kern::detail {

/// Register type of a kBytes-wide vector of T. kBytes == sizeof(T) is a
/// plain scalar: the body of a tile whose row count no vector width
/// divides.
template <typename T, int kBytes>
using TileReg = typename std::conditional_t<
    kBytes == static_cast<int>(sizeof(T)), std::type_identity<T>,
    simd::detail::RawVec<T, kBytes>>::type;

/// Width of the column blocks an MR x NR tile is split into: the largest
/// divisor of NR whose accumulators, plus one A sliver and one broadcast,
/// fit kRegs vector registers (Eq. 4 with the build's register count).
template <index_t kRowVecs, int NR, int kRegs>
constexpr int column_block() {
  for (int nb = NR; nb > 1; --nb)
    if (NR % nb == 0 && kRowVecs * nb + kRowVecs + 1 <= kRegs) return nb;
  return 1;
}

/// The tile at kBytes-wide registers, kRegs of them: one column block of C
/// is held in registers at a time, the loops fully unrolled. Always
/// inlined, so each target-attributed clone compiles it for its own ISA;
/// it works on raw vectors and takes only pointers and scalars.
template <typename T, int MR, int NR, int kBytes, int kRegs>
[[gnu::always_inline]] inline void affine_tile(index_t kc, T alpha, T beta,
                                               const T* a, index_t ak,
                                               const T* b, index_t bj,
                                               index_t bk, T* c,
                                               index_t ldc) {
  using R = TileReg<T, kBytes>;
  constexpr index_t kLanes = kBytes / static_cast<index_t>(sizeof(T));
  static_assert(MR % kLanes == 0, "MR must be a multiple of vector width");
  constexpr index_t kRowVecs = MR / kLanes;
  constexpr int kNB = column_block<kRowVecs, NR, kRegs>();

  for (int j0 = 0; j0 < NR; j0 += kNB) {
    R acc[kRowVecs][kNB] = {};
    const T* ap = a;
    const T* bp = b + j0 * bj;
    for (index_t k = 0; k < kc; ++k, ap += ak, bp += bk) {
      R av[kRowVecs];
#pragma GCC unroll 16
      for (index_t rv = 0; rv < kRowVecs; ++rv)
        std::memcpy(&av[rv], ap + rv * kLanes, sizeof(R));
#pragma GCC unroll 16
      for (int j = 0; j < kNB; ++j) {
        const T bkj = bp[j * bj];
#pragma GCC unroll 16
        for (index_t rv = 0; rv < kRowVecs; ++rv)
          acc[rv][j] += av[rv] * bkj;
      }
    }

    // beta == 0 must not read C (it may hold uninitialized data).
#pragma GCC unroll 16
    for (int j = 0; j < kNB; ++j) {
#pragma GCC unroll 16
      for (index_t rv = 0; rv < kRowVecs; ++rv) {
        T* cp = c + rv * kLanes + (j0 + j) * ldc;
        R out = alpha * acc[rv][j];
        if (beta != T(0)) {
          R old;
          std::memcpy(&old, cp, sizeof(R));
          out = out + beta * old;
        }
        std::memcpy(cp, &out, sizeof(R));
      }
    }
  }
}

}  // namespace smm::kern::detail
