// The tile bodies of the native micro-kernels (internal to src/kernels):
// C(MR x NR) = alpha * A * B + beta * C.
//
//  - affine_tile, the register-blocked vector body, over operands with
//    affine addressing,
//      A(i, k) = a[i + k * ak],  B(k, j) = b[j * bj + k * bk],
//      C(i, j) = c[i + j * ldc].
//    Packed panels are the constant-stride case (ak = MR, bj = 1,
//    bk = NR); direct col-major A (ak = lda), direct col-major B (bj = ldb,
//    bk = 1) and direct row-major B (bj = 1, bk = ldb) take the same body
//    with runtime strides, so no multiply-add pays the panel-addressing
//    division.
//  - scalar_tile, the per-element body, over any KernelOperands addressing.
//
// Each C element sums its k products in k order, then applies the
// epilogue alpha * acc, plus beta * C when beta != 0, in two roundings.
// The MulAdd policy is the one thing an instance chooses: how a k step
// updates an accumulator. UnfusedMulAdd (acc += a * b, two roundings) is
// the smm, smm-direct and scalar kernels' step; the host family
// (host_kernels.cpp) fuses it into one rounding. Every instance of one
// policy agrees bit for bit with that policy's scalar per-element formula
// at every width, stride and layout. Built only in translation units
// compiled with -ffp-contract=off, so no unfused step or epilogue is
// contracted.
#pragma once

#include <cstring>
#include <type_traits>
#include <utility>

#include "src/common/types.h"
#include "src/kernels/microkernel.h"
#include "src/simd/vec.h"

namespace smm::kern::detail {

/// One k step in two roundings, acc += a * b: `a` a register of A values,
/// `b` one B value broadcast over it.
struct UnfusedMulAdd {
  template <typename R, typename T>
  [[gnu::always_inline]] static void run(R& acc, const R& a, T b) {
    acc += a * b;
  }
};

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
/// consteval: no copy is ever emitted, so the AVX-512 region of
/// host_kernels.cpp cannot hand the linker one.
template <index_t kRowVecs, int NR, int kRegs>
consteval int column_block() {
  for (int nb = NR; nb > 1; --nb)
    if (NR % nb == 0 && kRowVecs * nb + kRowVecs + 1 <= kRegs) return nb;
  return 1;
}

/// The tile at kBytes-wide registers, kRegs of them: one column block of C
/// is held in registers at a time, the loops fully unrolled. Always
/// inlined, so each target-attributed clone compiles it for its own ISA;
/// it works on raw vectors and takes only pointers and scalars.
template <typename T, int MR, int NR, int kBytes, int kRegs,
          typename MulAdd = UnfusedMulAdd>
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
          MulAdd::run(acc[rv][j], av[rv], bkj);
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

/// Largest tile the runtime-bound scalar body takes.
inline constexpr index_t kMaxScalarTile = 32;

/// Calls f(i) for i in [0, n): fully unrolled when kN > 0 (then n == kN), a
/// plain loop when kN == 0. The lambdas use the GNU attribute spelling:
/// after a lambda's parameter list, [[gnu::always_inline]] applies to its
/// type, not to its call operator, and the calls would stay.
template <index_t kN, typename F>
[[gnu::always_inline]] inline void for_index(index_t n, F&& f) {
  if constexpr (kN > 0) {
    [&]<index_t... I>(std::integer_sequence<index_t, I...>)
        __attribute__((always_inline)) { (f(I), ...); }
    (std::make_integer_sequence<index_t, kN>{});
  } else {
    for (index_t i = 0; i < n; ++i) f(i);
  }
}

/// The scalar tile body, at compile-time extents MR x NR, or at runtime
/// extents mr x nr <= kMaxScalarTile when MR == NR == 0. Since
/// a_offset(i, k) == a_offset(i, 0) + k * a_kstride (and likewise for B),
/// the row and column offsets are computed once per call and k steps by
/// one add: no integer division per multiply-add. At compile-time extents
/// the loops unroll and the accumulators stay in registers.
template <typename T, int MR, int NR, typename MulAdd = UnfusedMulAdd>
[[gnu::always_inline]] inline void scalar_tile(index_t kc, T alpha, T beta,
                                               const KernelOperands<T>& ops,
                                               index_t mr, index_t nr) {
  constexpr index_t kRows = MR > 0 ? MR : kMaxScalarTile;
  constexpr index_t kCols = NR > 0 ? NR : kMaxScalarTile;
  index_t a_row[kRows];
  index_t b_col[kCols];
  for_index<MR>(mr, [&](index_t i) __attribute__((always_inline)) {
    a_row[i] = a_offset(ops, i, 0);
  });
  for_index<NR>(nr, [&](index_t j) __attribute__((always_inline)) {
    b_col[j] = b_offset(ops, 0, j);
  });

  // Accumulate in a local tile so C is read/written exactly once
  // (Algorithm 1, lines 3 and 11-13).
  T acc[kRows][kCols];
  for_index<MR>(mr, [&](index_t i) __attribute__((always_inline)) {
    for_index<NR>(nr, [&](index_t j) __attribute__((always_inline)) {
      acc[i][j] = T(0);
    });
  });

  const T* a = ops.a;
  const T* b = ops.b;
  const index_t a_ks = ops.a_kstride;
  const index_t b_ks = ops.b_kstride;
  for (index_t k = 0, ak = 0, bk = 0; k < kc; ++k, ak += a_ks, bk += b_ks) {
    for_index<NR>(nr, [&](index_t j) __attribute__((always_inline)) {
      const T bkj = b[bk + b_col[j]];
      for_index<MR>(mr, [&](index_t i) __attribute__((always_inline)) {
        MulAdd::run(acc[i][j], a[ak + a_row[i]], bkj);
      });
    });
  }

  for_index<NR>(nr, [&](index_t j) __attribute__((always_inline)) {
    for_index<MR>(mr, [&](index_t i) __attribute__((always_inline)) {
      T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
      // beta == 0 must not read C (it may hold uninitialized data).
      *c = (beta == T(0)) ? alpha * acc[i][j] : alpha * acc[i][j] + beta * *c;
    });
  });
}

}  // namespace smm::kern::detail
