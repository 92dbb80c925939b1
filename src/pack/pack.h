// Data packing (paper Fig. 2): copying blocks of A and B into contiguous
// panel buffers so micro-kernels stream them with unit stride. For SMM the
// cost of this step is the paper's first impact factor (Section III-A).
//
// Packed A layout (mr-panels): the mc x kc block is cut into row panels;
// panel p occupies a contiguous region, column-by-column, each column
// exactly as tall as the panel is stored.
// Packed B layout (nr-panels): the kc x nc block is cut into column panels;
// panel q stores row-by-row, one stored panel width per row.
//
// Panel extents come either from an explicit chunk list (the OpenBLAS edge
// layout: full mr panels followed by mini-panels matching its edge-kernel
// sizes, e.g. 75 -> 16,16,16,16,8,2,1, each stored tight so every edge
// kernel still reads a contiguous sliver) or, with no chunk list, from
// uniform mr panels whose short tail is zero-filled to mr when `pad` is
// set (BLIS/BLASFEO: kernels always compute a full tile) and stored tight
// otherwise. One packer per operand serves both.
#pragma once

#include <span>

#include "src/common/types.h"
#include "src/matrix/view.h"

namespace smm::pack {

/// Elements required for a packed mc x kc A block.
/// With `pad` every panel is mr tall (zero-filled), matching kernels that
/// always compute a full tile (BLIS/BLASFEO strategy); without it the last
/// panel stores only the remaining rows (OpenBLAS edge-kernel strategy).
index_t packed_a_size(index_t mc, index_t kc, index_t mr, bool pad);

/// Elements required for a packed kc x nc B block (same padding rule on
/// the nc dimension).
index_t packed_b_size(index_t kc, index_t nc, index_t nr, bool pad);

/// Pack an mc x kc block of A into row panels at `dst` (layout above):
/// panels of the heights in `chunks` when it is non-empty (they must sum
/// to mc; `mr` and `pad` are then unused), else uniform mr panels. `dst`
/// must hold packed_a_size() elements, or mc * kc with a chunk list.
template <typename T>
void pack_a(ConstMatrixView<T> a_block, index_t mr, bool pad,
            std::span<const index_t> chunks, T* dst);

/// Pack a kc x nc block of B into column panels at `dst`: the widths in
/// `chunks` when it is non-empty, else uniform nr panels.
template <typename T>
void pack_b(ConstMatrixView<T> b_block, index_t nr, bool pad,
            std::span<const index_t> chunks, T* dst);

/// Uniform mr panels (no chunk list).
template <typename T>
void pack_a(ConstMatrixView<T> a_block, index_t mr, bool pad, T* dst) {
  pack_a(a_block, mr, pad, {}, dst);
}

/// Uniform nr panels (no chunk list).
template <typename T>
void pack_b(ConstMatrixView<T> b_block, index_t nr, bool pad, T* dst) {
  pack_b(b_block, nr, pad, {}, dst);
}

/// Bytes moved by a pack of `rows x cols` elements of T (read + write),
/// used by the plan pricer.
template <typename T>
index_t pack_traffic_bytes(index_t rows, index_t cols) {
  return 2 * rows * cols * static_cast<index_t>(sizeof(T));
}

}  // namespace smm::pack
