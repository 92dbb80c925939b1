#include "src/core/plan_builder.h"

#include <algorithm>
#include <initializer_list>

#include "src/common/error.h"
#include "src/libs/goto_common.h"

namespace smm::core {

namespace {

using libs::Chunk;
using libs::EdgeStrategy;
using libs::GotoConfig;
using libs::PackedBlockRef;
using libs::TileConfig;

std::vector<index_t> sizes_up_to(std::initializer_list<index_t> sizes,
                                 index_t tile) {
  std::vector<index_t> out;
  for (const index_t s : sizes)
    if (s <= tile) out.push_back(s);
  return out;
}

TileConfig smm_tiles(const BuildSpec& spec, bool packed_b) {
  TileConfig tiles;
  tiles.mr = spec.mr;
  tiles.nr = spec.nr;
  tiles.edge = EdgeStrategy::kEdgeKernels;
  if (spec.host_tiles) {
    // Host kernels take any operand layout, so one family serves packed
    // and direct B; edges come from its registered lattice.
    tiles.family = "host";
    tiles.m_chunks = sizes_up_to({16, 8, 4, 2, 1}, spec.mr);
    tiles.n_chunks = sizes_up_to({8, 4, 2, 1}, spec.nr);
    return tiles;
  }
  tiles.family = packed_b ? "smm" : "smm-direct";
  tiles.m_chunks = sizes_up_to({16, 12, 8, 4, 2, 1}, spec.mr);
  tiles.n_chunks = sizes_up_to({16, 12, 8, 4, 2, 1},
                               std::min<index_t>(spec.nr, 4));
  return tiles;
}

// Packing-optional single-thread path. B (and A) stay in place; with
// edge_pack_b the sub-nr tail columns of each nc block are packed into a
// small buffer so their kernels keep contiguous access (Fig. 8).
void build_packing_optional(plan::GemmPlan& plan, const BuildSpec& spec) {
  const GemmShape shape = plan.shape;
  plan.nthreads = 1;
  plan.thread_ops.assign(1, {});
  plan.blocking = {spec.mc, spec.kc, spec.nc, spec.mr, spec.nr};
  if (shape.m == 0 || shape.n == 0) return;
  if (shape.k == 0) {
    libs::emit_scale_c(plan);
    return;
  }
  auto& ops = plan.thread_ops[0];
  const index_t kc_max = std::min(spec.kc, shape.k);

  const TileConfig direct_tiles = smm_tiles(spec, /*packed_b=*/false);
  const TileConfig packed_tiles = smm_tiles(spec, /*packed_b=*/true);

  int buf_a = -1;
  if (spec.pack_a) {
    const index_t height = std::min(spec.mc, shape.m);
    buf_a = plan::add_buffer(
        plan, (height + spec.mr - 1) / spec.mr * spec.mr * kc_max);
  }
  int buf_b = -1;
  if (spec.pack_b) {
    const index_t width = std::min(spec.nc, shape.n);
    buf_b = plan::add_buffer(
        plan, (width + spec.nr - 1) / spec.nr * spec.nr * kc_max);
  }
  int buf_edge = -1;
  if (!spec.pack_b && spec.edge_pack_b) {
    // Worst case: the full edge tail of one nc block (< nr columns).
    buf_edge = plan::add_buffer(plan, spec.nr * kc_max);
  }

  for (index_t jj = 0; jj < shape.n; jj += spec.nc) {
    const index_t nc_eff = std::min(spec.nc, shape.n - jj);
    const auto n_list = chunk_dim(nc_eff, spec.nr, EdgeStrategy::kEdgeKernels,
                                  direct_tiles.n_chunks);
    // Index of the first sub-nr chunk (the Fig. 8 edge region).
    std::size_t edge_begin = n_list.size();
    while (edge_begin > 0 && n_list[edge_begin - 1].tile < spec.nr)
      --edge_begin;

    for (index_t kk = 0; kk < shape.k; kk += spec.kc) {
      const index_t kc_eff = std::min(spec.kc, shape.k - kk);
      const bool first_k = kk == 0;

      PackedBlockRef b_blk;
      const PackedBlockRef* b_ref = nullptr;
      if (spec.pack_b) {
        b_blk.buffer = buf_b;
        b_blk.chunk_offsets = libs::chunk_elem_offsets(n_list, kc_eff);
        ops.push_back(libs::make_pack_b_op(packed_tiles, n_list,
                                           b_blk.chunk_offsets, 0,
                                           n_list.size(), buf_b, kk, jj,
                                           kc_eff));
        b_ref = &b_blk;
      }
      PackedBlockRef edge_blk;
      const bool have_edge_pack = !spec.pack_b && spec.edge_pack_b &&
                                  edge_begin < n_list.size();
      if (have_edge_pack) {
        edge_blk.buffer = buf_edge;
        edge_blk.chunk_offsets.assign(n_list.size(), 0);
        index_t off = 0;
        for (std::size_t c = edge_begin; c < n_list.size(); ++c) {
          edge_blk.chunk_offsets[c] = off;
          off += n_list[c].tile * kc_eff;
        }
        ops.push_back(libs::make_pack_b_op(packed_tiles, n_list,
                                           edge_blk.chunk_offsets,
                                           edge_begin, n_list.size(),
                                           buf_edge, kk, jj, kc_eff));
      }

      for (index_t ii = 0; ii < shape.m; ii += spec.mc) {
        const index_t mc_eff = std::min(spec.mc, shape.m - ii);
        const auto m_list = chunk_dim(mc_eff, spec.mr,
                                      EdgeStrategy::kEdgeKernels,
                                      direct_tiles.m_chunks);
        PackedBlockRef a_blk;
        const PackedBlockRef* a_ref = nullptr;
        if (spec.pack_a) {
          a_blk.buffer = buf_a;
          a_blk.chunk_offsets = libs::chunk_elem_offsets(m_list, kc_eff);
          ops.push_back(libs::make_pack_a_op(direct_tiles, m_list,
                                             a_blk.chunk_offsets, 0,
                                             m_list.size(), buf_a, ii, kk,
                                             kc_eff));
          a_ref = &a_blk;
        }
        if (spec.pack_b) {
          libs::emit_gebp_tiles(ops, packed_tiles, kc_eff, first_k, a_ref,
                                b_ref, ii, jj, kk, m_list, n_list, 0,
                                n_list.size(), 0, m_list.size());
          continue;
        }
        // Bulk tiles: direct B.
        const std::size_t bulk_end =
            have_edge_pack ? edge_begin : n_list.size();
        libs::emit_gebp_tiles(ops, direct_tiles, kc_eff, first_k, a_ref,
                              nullptr, ii, jj, kk, m_list, n_list, 0,
                              bulk_end, 0, m_list.size());
        // Edge tiles: packed edge buffer, contiguous access.
        if (have_edge_pack) {
          libs::emit_gebp_tiles(ops, packed_tiles, kc_eff, first_k, a_ref,
                                &edge_blk, ii, jj, kk, m_list, n_list,
                                edge_begin, n_list.size(), 0,
                                m_list.size());
        }
      }
    }
  }
}

// K-split parallelism: k_parts threads each compute alpha * A(:, K_t) *
// B(K_t, :) into a private M x N slab (direct operands — these shapes are
// tiny in M/N), then the slabs are reduced into C row-block-parallel.
void build_k_split(plan::GemmPlan& plan, const BuildSpec& spec) {
  const GemmShape shape = plan.shape;
  const int parts = spec.k_parts;
  plan.nthreads = parts;
  plan.thread_ops.assign(static_cast<std::size_t>(parts), {});
  plan.blocking = {shape.m, spec.kc, shape.n, spec.mr, spec.nr};
  if (shape.m == 0 || shape.n == 0) return;
  if (shape.k == 0) {
    libs::emit_scale_c(plan);
    return;
  }
  const index_t slab = shape.m * shape.n;
  const int buf = plan::add_buffer(plan, slab * parts);
  const int bar = plan::add_barrier(plan, parts);
  const TileConfig tiles = smm_tiles(spec, /*packed_b=*/false);
  const auto m_list = chunk_dim(shape.m, spec.mr,
                                EdgeStrategy::kEdgeKernels, tiles.m_chunks);
  const auto n_list = chunk_dim(shape.n, spec.nr,
                                EdgeStrategy::kEdgeKernels, tiles.n_chunks);

  for (int t = 0; t < parts; ++t) {
    auto& ops = plan.thread_ops[static_cast<std::size_t>(t)];
    const par::Range krange = par::split_range(shape.k, parts, t);
    const index_t slab_off = static_cast<index_t>(t) * slab;
    for (index_t kk = krange.begin; kk < krange.end; kk += spec.kc) {
      const index_t kc_eff = std::min(spec.kc, krange.end - kk);
      const std::size_t before = ops.size();
      libs::emit_gebp_tiles(ops, tiles, kc_eff,
                            /*first_k=*/kk == krange.begin, nullptr,
                            nullptr, 0, 0, kk, m_list, n_list, 0,
                            n_list.size(), 0, m_list.size());
      // Redirect the C updates into this thread's slab.
      for (std::size_t o = before; o < ops.size(); ++o) {
        auto& k = std::get<plan::KernelOp>(ops[o]);
        k.c_buffer = buf;
        k.c_ld = shape.m;
        k.c_offset = slab_off + k.i0 + k.j0 * shape.m;
      }
    }
    ops.push_back(plan::BarrierOp{bar});
    const par::Range rows = par::split_range(shape.m, parts, t);
    if (rows.size() > 0) {
      plan::ReduceCOp red;
      red.buffer = buf;
      red.i0 = rows.begin;
      red.j0 = 0;
      red.rows = rows.size();
      red.cols = shape.n;
      red.ld = shape.m;
      red.offset = rows.begin;
      red.part_stride = slab;
      red.parts = parts;
      ops.push_back(red);
    }
  }
}

}  // namespace

void build_smm_plan(plan::GemmPlan& plan, const BuildSpec& spec) {
  SMM_EXPECT(spec.nthreads >= 1, "bad thread count");
  if (spec.k_parts > 1) {
    build_k_split(plan, spec);
    return;
  }
  if (spec.nthreads > 1) {
    // The cooperative multi-thread path packs both operands (shared
    // buffers are the point of the barriers); the thread cap has already
    // trimmed cases where packing would not amortize. A host-family plan
    // packs only what its spec names (P2C): an operand read directly
    // needs no buffer and no barrier.
    GotoConfig cfg;
    cfg.tiles = smm_tiles(spec, /*packed_b=*/true);
    cfg.mc = spec.mc;
    cfg.kc = spec.kc;
    cfg.nc = spec.nc;
    cfg.pack_a = !spec.host_tiles || spec.pack_a;
    cfg.pack_b = !spec.host_tiles || spec.pack_b;
    libs::build_ways_parallel(plan, cfg, spec.ways);
    return;
  }
  if (spec.pack_a && spec.pack_b) {
    GotoConfig cfg;
    cfg.tiles = smm_tiles(spec, /*packed_b=*/true);
    cfg.mc = spec.mc;
    cfg.kc = spec.kc;
    cfg.nc = spec.nc;
    libs::build_singlethread(plan, cfg);
    return;
  }
  build_packing_optional(plan, spec);
}

}  // namespace smm::core
