// Shared plan-construction machinery for Goto-style blocked GEMM
// (paper Fig. 4). The four library models and the reference SMM all build
// their plans from these pieces; what differs between them is the
// TileConfig (kernel family, edge strategy), the blocking sizes, whether
// they pack, the loop order, and the parallelization driver.
#pragma once

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/libs/gemm_interface.h"
#include "src/plan/plan.h"
#include "src/threading/partition.h"

namespace smm::libs {

/// Kernel-tile configuration of one strategy.
struct TileConfig {
  std::string family;  ///< kernel registry family
  index_t mr = 8;      ///< main kernel tile
  index_t nr = 4;
  /// Chunk heights available for M edges (descending, ending in 1);
  /// only used with EdgeStrategy::kEdgeKernels.
  std::vector<index_t> m_chunks{8, 4, 2, 1};
  std::vector<index_t> n_chunks{4, 2, 1};
  EdgeStrategy edge = EdgeStrategy::kEdgeKernels;
};

/// One tile slot along a dimension after chunking.
struct Chunk {
  index_t offset = 0;  ///< start within the blocked extent
  index_t tile = 0;    ///< kernel extent == stored extent in the buffer
  index_t useful = 0;  ///< useful extent (< tile only when padding)
};

/// Cut `extent` into kernel-sized chunks.
///  - kEdgeKernels: full `tile`s, remainder decomposed greedily over
///    `sizes` (e.g. 75 with tile 16 -> 16,16,16,16,8,2,1), useful == tile.
///  - kPadding: ceil(extent/tile) chunks of `tile`, last useful short.
std::vector<Chunk> chunk_dim(index_t extent, index_t tile,
                             EdgeStrategy edge,
                             const std::vector<index_t>& sizes);

/// Element offset of each chunk in a packed buffer with kc columns/rows.
std::vector<index_t> chunk_elem_offsets(const std::vector<Chunk>& chunks,
                                        index_t kc);

/// A packed block in a buffer: per-chunk element offsets aligned with the
/// chunk list used to emit kernels.
struct PackedBlockRef {
  int buffer = -1;
  std::vector<index_t> chunk_offsets;
};

/// Strategy-level configuration for the generic drivers.
struct GotoConfig {
  TileConfig tiles;
  index_t mc = 128;
  index_t kc = 256;
  index_t nc = 512;
  bool pack_a = true;
  bool pack_b = true;
  /// Eigen: row-major mindset, outermost blocking over M.
  bool block_from_m = false;
};

/// Emit kernel ops for the GEBP tile loops (Algorithm 1: j outer, i inner)
/// over chunk index ranges [j_begin, j_end) x [i_begin, i_end).
/// a_ref/b_ref null means the operand is read directly from the unpacked
/// matrix (packing-optional path); kk anchors direct references.
void emit_gebp_tiles(std::vector<plan::Op>& ops, const TileConfig& tiles,
                     index_t kc_eff, bool first_k,
                     const PackedBlockRef* a_ref,
                     const PackedBlockRef* b_ref, index_t ii, index_t jj,
                     index_t kk, const std::vector<Chunk>& m_list,
                     const std::vector<Chunk>& n_list, std::size_t j_begin,
                     std::size_t j_end, std::size_t i_begin,
                     std::size_t i_end);

/// PackAOp for chunk subrange [c0, c1) of a blocked A region.
plan::PackAOp make_pack_a_op(const TileConfig& tiles,
                             const std::vector<Chunk>& m_list,
                             const std::vector<index_t>& offsets,
                             std::size_t c0, std::size_t c1, int buffer,
                             index_t ii, index_t kk, index_t kc_eff);

/// PackBOp for chunk subrange [c0, c1) of a blocked B region.
plan::PackBOp make_pack_b_op(const TileConfig& tiles,
                             const std::vector<Chunk>& n_list,
                             const std::vector<index_t>& offsets,
                             std::size_t c0, std::size_t c1, int buffer,
                             index_t kk, index_t jj, index_t kc_eff);

/// Single-thread Goto driver (Fig. 4's six loops).
void build_singlethread(plan::GemmPlan& plan, const GotoConfig& cfg);

/// 2-D grid parallel driver (Marker / OpenBLAS, Section III-D): C split
/// into a pr x pc thread grid; column groups share a cooperatively packed
/// B buffer with barriers after PackB and at the end of each kk step
/// (elided when pr == 1 — each column thread then owns its B~ outright
/// and the plan is barrier-free).
/// `grid` with pr == 0 means "choose automatically" (most-square split);
/// OpenBLAS passes {nthreads, 1} — the paper: its per-thread workload is
/// mc/64 x nc x kc, i.e. all threads split M.
void build_grid_parallel(plan::GemmPlan& plan, const GotoConfig& cfg,
                         int nthreads, par::Grid2D grid = {0, 0});

/// Multi-dimensional (BLIS-style) parallel driver: explicit ways per loop.
/// jc groups share a B buffer; (jc, ic) subgroups share an A buffer; jr/ir
/// split the micro-tile grid. Barriers follow the paper's Section III-D
/// description (pack A, pack B, end of the kk loop), each involving only
/// the threads that share the buffer; 1-thread groups are provably
/// race-free and emit no barrier at all, so a pure-jc decomposition
/// (disjoint C columns, no K split) synchronizes only at the fork-join
/// edges. An operand with pack_a / pack_b off is read directly by every
/// kernel: it has no buffer and no barrier, so a plan that packs neither
/// is barrier-free whatever its ways.
void build_ways_parallel(plan::GemmPlan& plan, const GotoConfig& cfg,
                         par::Ways ways);

/// Scale/zero C split across threads (the k == 0 degenerate GEMM).
void emit_scale_c(plan::GemmPlan& plan);

}  // namespace smm::libs
