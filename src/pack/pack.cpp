#include "src/pack/pack.h"

#include <algorithm>
#include <cstring>

#include "src/common/error.h"
#include "src/robust/fault_injection.h"
#include "src/simd/vec.h"

namespace smm::pack {

namespace {
index_t ceil_div(index_t a, index_t b) { return (a + b - 1) / b; }
}  // namespace

index_t packed_a_size(index_t mc, index_t kc, index_t mr, bool pad) {
  SMM_EXPECT(mc >= 0 && kc >= 0 && mr > 0, "bad pack_a geometry");
  if (pad) return ceil_div(mc, mr) * mr * kc;
  return mc * kc;
}

index_t packed_b_size(index_t kc, index_t nc, index_t nr, bool pad) {
  SMM_EXPECT(kc >= 0 && nc >= 0 && nr > 0, "bad pack_b geometry");
  if (pad) return ceil_div(nc, nr) * nr * kc;
  return kc * nc;
}

namespace {

// Both operands pack the same way once a block is seen as `lines`: the
// rows of an A panel or the columns of a B panel. Line p at depth k sits
// at src[p * ls + k * ds], and the panel stores it at dst[k * stored + p],
// zero-filling lines [w, stored). Every view has a unit stride on one
// axis, so one of two copies applies:
//  - ls == 1 (col-major A, row-major B): each depth step is w contiguous
//    source elements, one memcpy;
//  - ds == 1 (row-major A, col-major B): each line is a contiguous stream
//    along k, so the panel is a transpose, done a 128-bit square of
//    lines x depth at a time in registers.

/// Transpose the 128-bit square of lines [g, g + lanes) by depth
/// [k, k + lanes) (4x4 f32, 2x2 f64) from the line streams into the panel.
template <typename T>
inline void transpose_square(const T* src, index_t ls, T* dst,
                             index_t stored) {
  using V = simd::Vec<T>;
  if constexpr (V::lanes == 4) {
    const auto r0 = V::load(src).v;
    const auto r1 = V::load(src + ls).v;
    const auto r2 = V::load(src + 2 * ls).v;
    const auto r3 = V::load(src + 3 * ls).v;
    const auto t0 = __builtin_shufflevector(r0, r1, 0, 4, 1, 5);
    const auto t1 = __builtin_shufflevector(r0, r1, 2, 6, 3, 7);
    const auto t2 = __builtin_shufflevector(r2, r3, 0, 4, 1, 5);
    const auto t3 = __builtin_shufflevector(r2, r3, 2, 6, 3, 7);
    V(__builtin_shufflevector(t0, t2, 0, 1, 4, 5)).store(dst);
    V(__builtin_shufflevector(t0, t2, 2, 3, 6, 7)).store(dst + stored);
    V(__builtin_shufflevector(t1, t3, 0, 1, 4, 5)).store(dst + 2 * stored);
    V(__builtin_shufflevector(t1, t3, 2, 3, 6, 7)).store(dst + 3 * stored);
  } else {
    const auto r0 = V::load(src).v;
    const auto r1 = V::load(src + ls).v;
    V(__builtin_shufflevector(r0, r1, 0, 2)).store(dst);
    V(__builtin_shufflevector(r0, r1, 1, 3)).store(dst + stored);
  }
}

/// One panel of `w` lines by `kc`. Always inlined, so each call site
/// below with a constant `w` gets a copy with fixed trip counts.
template <typename T>
__attribute__((always_inline)) inline void pack_panel(
    const T* src, index_t ls, index_t ds, index_t w, index_t kc,
    index_t stored, T* dst) {
  using V = simd::Vec<T>;
  constexpr index_t L = V::lanes;
  if (ls == 1 && ds == w && stored == w) {
    std::memcpy(dst, src, static_cast<std::size_t>(w * kc) * sizeof(T));
  } else if (ls == 1) {
    for (index_t k = 0; k < kc; ++k)
      std::memcpy(dst + k * stored, src + k * ds,
                  static_cast<std::size_t>(w) * sizeof(T));
  } else {
    index_t k = 0;
    if (w >= L) {
      const index_t whole = w / L * L;
      for (; k + L <= kc; k += L) {
        for (index_t g = 0; g < whole; g += L)
          transpose_square(src + g * ls + k, ls, dst + k * stored + g, stored);
        for (index_t p = whole; p < w; ++p)
          for (index_t i = 0; i < L; ++i)
            dst[(k + i) * stored + p] = src[p * ls + k + i];
      }
    }
    for (; k < kc; ++k)
      for (index_t p = 0; p < w; ++p) dst[k * stored + p] = src[p * ls + k];
  }
  if (stored > w)
    for (index_t k = 0; k < kc; ++k)
      std::fill(dst + k * stored + w, dst + (k + 1) * stored, T(0));
}

/// pack_panel with the panel widths the kernel families use made
/// compile-time constants.
template <typename T>
void pack_panel_any(const T* src, index_t ls, index_t ds, index_t w,
                    index_t kc, index_t stored, T* dst) {
  switch (w) {
    case 16: return pack_panel(src, ls, ds, 16, kc, stored, dst);
    case 12: return pack_panel(src, ls, ds, 12, kc, stored, dst);
    case 8:  return pack_panel(src, ls, ds, 8, kc, stored, dst);
    case 4:  return pack_panel(src, ls, ds, 4, kc, stored, dst);
    case 2:  return pack_panel(src, ls, ds, 2, kc, stored, dst);
    case 1:  return pack_panel(src, ls, ds, 1, kc, stored, dst);
    default: return pack_panel(src, ls, ds, w, kc, stored, dst);
  }
}

/// Pack `extent` lines by `kc` into consecutive panels (the chunk widths,
/// or uniform `step` panels padded to `step` when `pad`). Returns the
/// number of elements written.
template <typename T>
index_t pack_lines(const T* src, index_t ls, index_t ds, index_t extent,
                   index_t kc, index_t step, bool pad,
                   std::span<const index_t> chunks, T* dst,
                   const char* what) {
  T* out = dst;
  index_t p0 = 0;
  if (chunks.empty()) {
    SMM_EXPECT(step > 0, what);
    for (; p0 < extent; p0 += step) {
      const index_t w = std::min(step, extent - p0);
      const index_t stored = pad ? step : w;
      if (kc > 0) pack_panel_any(src + p0 * ls, ls, ds, w, kc, stored, out);
      out += stored * kc;
    }
    return out - dst;
  }
  for (const index_t w : chunks) {
    SMM_EXPECT(w > 0 && p0 + w <= extent, what);
    if (kc > 0) pack_panel_any(src + p0 * ls, ls, ds, w, kc, w, out);
    p0 += w;
    out += w * kc;
  }
  SMM_EXPECT(p0 == extent, what);
  return out - dst;
}

}  // namespace

template <typename T>
void pack_a(ConstMatrixView<T> a_block, index_t mr, bool pad,
            std::span<const index_t> chunks, T* dst) {
  const index_t written = pack_lines(
      a_block.data(), a_block.row_stride(), a_block.col_stride(),
      a_block.rows(), a_block.cols(), mr, pad, chunks, dst,
      "pack_a: panel heights must cover the block");
  robust::maybe_corrupt(robust::FaultSite::kPackBitFlip, dst, written);
}

template <typename T>
void pack_b(ConstMatrixView<T> b_block, index_t nr, bool pad,
            std::span<const index_t> chunks, T* dst) {
  const index_t written = pack_lines(
      b_block.data(), b_block.col_stride(), b_block.row_stride(),
      b_block.cols(), b_block.rows(), nr, pad, chunks, dst,
      "pack_b: panel widths must cover the block");
  robust::maybe_corrupt(robust::FaultSite::kPackBitFlip, dst, written);
}

template void pack_a(ConstMatrixView<float>, index_t, bool,
                     std::span<const index_t>, float*);
template void pack_a(ConstMatrixView<double>, index_t, bool,
                     std::span<const index_t>, double*);
template void pack_b(ConstMatrixView<float>, index_t, bool,
                     std::span<const index_t>, float*);
template void pack_b(ConstMatrixView<double>, index_t, bool,
                     std::span<const index_t>, double*);

}  // namespace smm::pack
