#include "src/kernels/microkernel.h"

#include "src/common/error.h"
#include "src/simd/vec.h"

namespace smm::kern {

template <typename T>
void generic_microkernel(index_t kc, T alpha, T beta,
                         const KernelOperands<T>& ops, index_t mr_eff,
                         index_t nr_eff) {
  // Accumulate in a local tile so C is read/written exactly once
  // (Algorithm 1, lines 3 and 11-13).
  constexpr index_t kMaxTile = 32;
  SMM_EXPECT(mr_eff >= 0 && mr_eff <= kMaxTile && nr_eff >= 0 &&
                 nr_eff <= kMaxTile,
             "generic_microkernel: tile too large");
  T acc[kMaxTile][kMaxTile];
  for (index_t i = 0; i < mr_eff; ++i)
    for (index_t j = 0; j < nr_eff; ++j) acc[i][j] = T(0);

  for (index_t k = 0; k < kc; ++k) {
    for (index_t j = 0; j < nr_eff; ++j) {
      const T bkj = ops.b[b_offset(ops, k, j)];
      for (index_t i = 0; i < mr_eff; ++i) {
        acc[i][j] += ops.a[a_offset(ops, i, k)] * bkj;
      }
    }
  }

  for (index_t j = 0; j < nr_eff; ++j) {
    for (index_t i = 0; i < mr_eff; ++i) {
      T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
      // beta == 0 must not read C (it may hold uninitialized data).
      *c = (beta == T(0)) ? alpha * acc[i][j] : alpha * acc[i][j] + beta * *c;
    }
  }
}

namespace {

// A sliver pointer for the 4-wide row group starting at row r (r % lanes
// == 0), column k. Contiguity is guaranteed by the tile_microkernel
// addressing contract.
template <typename T>
const T* a_group_ptr(const KernelOperands<T>& ops, index_t r, index_t k) {
  return ops.a + a_offset(ops, r, k);
}

// Width of the column blocks the packed path splits an MR x NR tile into:
// the largest divisor of NR whose accumulators, plus one A sliver and one
// broadcast, fit the host's vector registers (Eq. 4 with the host count).
template <typename T, int MR, int NR>
constexpr int column_block() {
  constexpr index_t kRowVecs = MR / simd::kLanes<T>;
  for (int nb = NR; nb > 1; --nb)
    if (NR % nb == 0 && kRowVecs * nb + kRowVecs + 1 <= simd::kVecRegisters)
      return nb;
  return 1;
}

// The packed path: reads a[k*MR + i] and b[k*NR + j], holds one column
// block of C in registers at a time. Per element it performs the same k
// order, multiply-then-add and epilogue as the runtime-stride loop, so
// the two paths agree bit for bit.
template <typename T, int MR, int NR>
void packed_tile(index_t kc, T alpha, T beta, const T* a, const T* b, T* c,
                 index_t ldc) {
  using V = simd::Vec<T>;
  constexpr index_t kLanes = V::lanes;
  constexpr index_t kRowVecs = MR / kLanes;
  constexpr int kNB = column_block<T, MR, NR>();

  for (int j0 = 0; j0 < NR; j0 += kNB) {
    V acc[kRowVecs][kNB];
    for (index_t k = 0; k < kc; ++k) {
      V av[kRowVecs];
#pragma GCC unroll 16
      for (index_t rv = 0; rv < kRowVecs; ++rv)
        av[rv] = V::load(&a[k * MR + rv * kLanes]);
#pragma GCC unroll 16
      for (int j = 0; j < kNB; ++j) {
        const T bkj = b[k * NR + j0 + j];
#pragma GCC unroll 16
        for (index_t rv = 0; rv < kRowVecs; ++rv)
          acc[rv][j].v += av[rv].v * bkj;
      }
    }

#pragma GCC unroll 16
    for (int j = 0; j < kNB; ++j) {
#pragma GCC unroll 16
      for (index_t rv = 0; rv < kRowVecs; ++rv) {
        T* cp = c + rv * kLanes + (j0 + j) * ldc;
        V old = (beta == T(0)) ? V::zero() : V::load(cp);
        V out(alpha * acc[rv][j].v + beta * old.v);
        out.store(cp);
      }
    }
  }
}

}  // namespace

template <typename T, int MR, int NR>
void tile_microkernel(index_t kc, T alpha, T beta,
                      const KernelOperands<T>& ops, index_t mr_eff,
                      index_t nr_eff) {
  using V = simd::Vec<T>;
  constexpr index_t kLanes = V::lanes;
  static_assert(MR % kLanes == 0, "MR must be a multiple of vector width");
  constexpr index_t kRowVecs = MR / kLanes;
  SMM_EXPECT(mr_eff == MR && nr_eff == NR,
             "tile_microkernel handles only full tiles");
  SMM_EXPECT(ops.a_ps % kLanes == 0 && ops.a_istride == 1,
             "tile_microkernel requires contiguous vector-aligned A panels");
  if (is_packed_panel(ops, MR, NR)) {
    packed_tile<T, MR, NR>(kc, alpha, beta, ops.a, ops.b, ops.c, ops.c_cs);
    return;
  }

  // Runtime-stride path for every other layout. The register block:
  // kRowVecs x NR accumulators, mirroring how the ARMv8 kernels hold the
  // C tile in v-registers.
  V acc[kRowVecs][NR];
  for (index_t rv = 0; rv < kRowVecs; ++rv)
    for (index_t j = 0; j < NR; ++j) acc[rv][j] = V::zero();

  for (index_t k = 0; k < kc; ++k) {
    V av[kRowVecs];
    for (index_t rv = 0; rv < kRowVecs; ++rv)
      av[rv] = V::load(a_group_ptr(ops, rv * kLanes, k));
    for (index_t j = 0; j < NR; ++j) {
      const T bkj = ops.b[b_offset(ops, k, j)];
      for (index_t rv = 0; rv < kRowVecs; ++rv)
        simd::fma_scalar(acc[rv][j], av[rv], bkj);
    }
  }

  const bool c_col_contig = (ops.c_rs == 1);
  for (index_t j = 0; j < NR; ++j) {
    if (c_col_contig) {
      for (index_t rv = 0; rv < kRowVecs; ++rv) {
        T* c = ops.c + (rv * kLanes) * ops.c_rs + j * ops.c_cs;
        V old = (beta == T(0)) ? V::zero() : V::load(c);
        V out = V::broadcast(alpha) * acc[rv][j] + V::broadcast(beta) * old;
        out.store(c);
      }
    } else {
      for (index_t i = 0; i < MR; ++i) {
        T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
        const T val = alpha * acc[i / kLanes][j].lane(i % kLanes);
        *c = (beta == T(0)) ? val : val + beta * *c;
      }
    }
  }
}

// ---- Explicit instantiations ---------------------------------------------

template void generic_microkernel<float>(index_t, float, float,
                                         const KernelOperands<float>&,
                                         index_t, index_t);
template void generic_microkernel<double>(index_t, double, double,
                                          const KernelOperands<double>&,
                                          index_t, index_t);

#define SMM_INSTANTIATE_TILE(MR, NR)                                     \
  template void tile_microkernel<float, MR, NR>(                         \
      index_t, float, float, const KernelOperands<float>&, index_t,      \
      index_t);                                                          \
  template void tile_microkernel<double, MR, NR>(                        \
      index_t, double, double, const KernelOperands<double>&, index_t,   \
      index_t)

SMM_INSTANTIATE_TILE(16, 4);
SMM_INSTANTIATE_TILE(16, 2);
SMM_INSTANTIATE_TILE(16, 1);
SMM_INSTANTIATE_TILE(12, 4);
SMM_INSTANTIATE_TILE(8, 12);
SMM_INSTANTIATE_TILE(8, 8);
SMM_INSTANTIATE_TILE(8, 4);
SMM_INSTANTIATE_TILE(8, 2);
SMM_INSTANTIATE_TILE(8, 1);
SMM_INSTANTIATE_TILE(4, 4);
SMM_INSTANTIATE_TILE(4, 2);
SMM_INSTANTIATE_TILE(4, 1);

#undef SMM_INSTANTIATE_TILE

}  // namespace smm::kern
