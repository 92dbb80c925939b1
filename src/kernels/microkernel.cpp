#include "src/kernels/microkernel.h"

#include <cstring>

#include "src/common/error.h"
#include "src/kernels/tile_body.h"
#include "src/simd/vec.h"

namespace smm::kern {

template <typename T>
void generic_microkernel(index_t kc, T alpha, T beta,
                         const KernelOperands<T>& ops, index_t mr_eff,
                         index_t nr_eff) {
  SMM_EXPECT(mr_eff >= 0 && mr_eff <= detail::kMaxScalarTile &&
                 nr_eff >= 0 && nr_eff <= detail::kMaxScalarTile,
             "generic_microkernel: tile too large");
  detail::scalar_tile<T, 0, 0>(kc, alpha, beta, ops, mr_eff, nr_eff);
}

template <typename T, int MR, int NR>
void scalar_microkernel(index_t kc, T alpha, T beta,
                        const KernelOperands<T>& ops, index_t mr_eff,
                        index_t nr_eff) {
  SMM_EXPECT(mr_eff == MR && nr_eff == NR,
             "scalar_microkernel handles only full tiles");
  detail::scalar_tile<T, MR, NR>(kc, alpha, beta, ops, MR, NR);
}

namespace {

// A sliver pointer for the 4-wide row group starting at row r (r % lanes
// == 0), column k. Contiguity is guaranteed by the tile_microkernel
// addressing contract.
template <typename T>
const T* a_group_ptr(const KernelOperands<T>& ops, index_t r, index_t k) {
  return ops.a + a_offset(ops, r, k);
}

// The packed path at kBytes-wide vectors: reads a[k*MR + i] and
// b[k*NR + j], the constant-stride instance of the affine tile body. Per
// element it performs the same k order, multiply-then-add and epilogue as
// the runtime-stride loop, so the two paths agree bit for bit at every
// width.
template <typename T, int MR, int NR, int kBytes, int kRegs>
[[gnu::always_inline]] inline void packed_tile(index_t kc, T alpha, T beta,
                                               const T* a, const T* b, T* c,
                                               index_t ldc) {
  detail::affine_tile<T, MR, NR, kBytes, kRegs>(kc, alpha, beta, a, MR, b, 1,
                                                NR, c, ldc);
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
    packed_tile<T, MR, NR, 16, simd::kVecRegisters>(kc, alpha, beta, ops.a,
                                                    ops.b, ops.c, ops.c_cs);
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
        // beta == 0 neither reads C nor adds a +0 (which would turn a
        // -0 product into +0, off the per-element formula).
        V out = V::broadcast(alpha) * acc[rv][j];
        if (beta != T(0)) out = out + V::broadcast(beta) * V::load(c);
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

// ---- Width clones ---------------------------------------------------------

namespace {

#if defined(__x86_64__)
// AVX2 (16 ymm) and AVX-512F/VL (32 zmm) builds of tile_microkernel. Only
// the packed path is width-specific; any other layout, and a bad
// mr_eff/nr_eff, goes to the 128-bit build. The wide vectors live only
// inside these target-attributed functions, whose signatures are pointers
// and scalars, so no calling convention changes (-Wpsabi).
template <typename T, int MR, int NR, int kBytes, int kRegs>
[[gnu::always_inline]] inline void clone_entry(index_t kc, T alpha, T beta,
                                               const KernelOperands<T>& ops,
                                               index_t mr_eff,
                                               index_t nr_eff) {
  if (mr_eff == MR && nr_eff == NR && is_packed_panel(ops, MR, NR)) {
    packed_tile<T, MR, NR, kBytes, kRegs>(kc, alpha, beta, ops.a, ops.b,
                                          ops.c, ops.c_cs);
    return;
  }
  tile_microkernel<T, MR, NR>(kc, alpha, beta, ops, mr_eff, nr_eff);
}

template <typename T, int MR, int NR>
__attribute__((target("avx2"))) void tile_microkernel_avx2(
    index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
    index_t mr_eff, index_t nr_eff) {
  clone_entry<T, MR, NR, 32, 16>(kc, alpha, beta, ops, mr_eff, nr_eff);
}

template <typename T, int MR, int NR>
__attribute__((target("avx512f,avx512vl"))) void tile_microkernel_avx512(
    index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
    index_t mr_eff, index_t nr_eff) {
  clone_entry<T, MR, NR, 64, 32>(kc, alpha, beta, ops, mr_eff, nr_eff);
}
#endif

// The clone of the tile at tile_vector_bits; only widths whose lane count
// divides MR are instantiated.
template <typename T, int MR, int NR>
MicroKernelFn<T> tile_clone(int max_bits) {
  [[maybe_unused]] const int bits = tile_vector_bits<T>(MR, max_bits);
#if defined(__x86_64__)
  if constexpr (MR % simd::kLanes<T, 64> == 0)
    if (bits == 512) return &tile_microkernel_avx512<T, MR, NR>;
  if constexpr (MR % simd::kLanes<T, 32> == 0)
    if (bits == 256) return &tile_microkernel_avx2<T, MR, NR>;
#endif
  return &tile_microkernel<T, MR, NR>;
}

}  // namespace

template <typename T>
MicroKernelFn<T> tile_clone_fn(int mr, int nr, int max_bits) {
  SMM_EXPECT(max_bits == 128 || max_bits == 256 || max_bits == 512,
             "tile_clone_fn: max_bits must be 128, 256 or 512");
  switch (mr * 100 + nr) {
    case 1604: return tile_clone<T, 16, 4>(max_bits);
    case 1602: return tile_clone<T, 16, 2>(max_bits);
    case 1601: return tile_clone<T, 16, 1>(max_bits);
    case 1204: return tile_clone<T, 12, 4>(max_bits);
    case 812:  return tile_clone<T, 8, 12>(max_bits);
    case 808:  return tile_clone<T, 8, 8>(max_bits);
    case 804:  return tile_clone<T, 8, 4>(max_bits);
    case 802:  return tile_clone<T, 8, 2>(max_bits);
    case 801:  return tile_clone<T, 8, 1>(max_bits);
    case 404:  return tile_clone<T, 4, 4>(max_bits);
    case 402:  return tile_clone<T, 4, 2>(max_bits);
    case 401:  return tile_clone<T, 4, 1>(max_bits);
    case 1208: return &scalar_microkernel<T, 12, 8>;
    case 1202: return &scalar_microkernel<T, 12, 2>;
    case 1201: return &scalar_microkernel<T, 12, 1>;
    case 408:  return &scalar_microkernel<T, 4, 8>;
    case 208:  return &scalar_microkernel<T, 2, 8>;
    case 204:  return &scalar_microkernel<T, 2, 4>;
    case 202:  return &scalar_microkernel<T, 2, 2>;
    case 201:  return &scalar_microkernel<T, 2, 1>;
    case 108:  return &scalar_microkernel<T, 1, 8>;
    case 104:  return &scalar_microkernel<T, 1, 4>;
    case 102:  return &scalar_microkernel<T, 1, 2>;
    case 101:  return &scalar_microkernel<T, 1, 1>;
    default:
      if (max_bits == 512)
        if (const MicroKernelFn<T> host = host_tile_fn<T>(mr, nr)) return host;
      return &generic_microkernel<T>;
  }
}

// ---- Explicit instantiations ---------------------------------------------

template MicroKernelFn<float> tile_clone_fn<float>(int, int, int);
template MicroKernelFn<double> tile_clone_fn<double>(int, int, int);

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

#define SMM_INSTANTIATE_SCALAR_TILE(MR, NR)                              \
  template void scalar_microkernel<float, MR, NR>(                       \
      index_t, float, float, const KernelOperands<float>&, index_t,      \
      index_t);                                                          \
  template void scalar_microkernel<double, MR, NR>(                      \
      index_t, double, double, const KernelOperands<double>&, index_t,   \
      index_t)

SMM_INSTANTIATE_SCALAR_TILE(12, 8);
SMM_INSTANTIATE_SCALAR_TILE(12, 2);
SMM_INSTANTIATE_SCALAR_TILE(12, 1);
SMM_INSTANTIATE_SCALAR_TILE(4, 8);
SMM_INSTANTIATE_SCALAR_TILE(2, 8);
SMM_INSTANTIATE_SCALAR_TILE(2, 4);
SMM_INSTANTIATE_SCALAR_TILE(2, 2);
SMM_INSTANTIATE_SCALAR_TILE(2, 1);
SMM_INSTANTIATE_SCALAR_TILE(1, 8);
SMM_INSTANTIATE_SCALAR_TILE(1, 4);
SMM_INSTANTIATE_SCALAR_TILE(1, 2);
SMM_INSTANTIATE_SCALAR_TILE(1, 1);

#undef SMM_INSTANTIATE_SCALAR_TILE

}  // namespace smm::kern
