#include "src/libs/goto_common.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/kernels/registry.h"
#include "src/threading/partition.h"

namespace smm::libs {

using plan::GemmPlan;
using plan::KernelOp;
using plan::Op;
using plan::OperandRef;
using plan::PackAOp;
using plan::PackBOp;
using plan::ScaleCOp;

std::vector<Chunk> chunk_dim(index_t extent, index_t tile,
                             EdgeStrategy edge,
                             const std::vector<index_t>& sizes) {
  SMM_EXPECT(extent >= 0 && tile > 0, "bad chunk_dim arguments");
  std::vector<Chunk> out;
  if (extent == 0) return out;
  if (edge == EdgeStrategy::kPadding) {
    for (index_t off = 0; off < extent; off += tile)
      out.push_back({off, tile, std::min(tile, extent - off)});
    return out;
  }
  index_t off = 0;
  while (off + tile <= extent) {
    out.push_back({off, tile, tile});
    off += tile;
  }
  if (off < extent) {
    for (const index_t c : kern::decompose_edge(extent - off, sizes)) {
      out.push_back({off, c, c});
      off += c;
    }
  }
  return out;
}

std::vector<index_t> chunk_elem_offsets(const std::vector<Chunk>& chunks,
                                        index_t kc) {
  std::vector<index_t> out(chunks.size());
  index_t acc = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    out[i] = acc;
    acc += chunks[i].tile * kc;
  }
  return out;
}

namespace {

OperandRef packed_ref(const PackedBlockRef& block, std::size_t chunk,
                      index_t tile) {
  OperandRef ref;
  ref.kind = OperandRef::Kind::kBuffer;
  ref.buffer = block.buffer;
  ref.offset = block.chunk_offsets[chunk];
  ref.ps = tile;
  ref.pstride = 0;
  ref.kstride = tile;
  return ref;
}

}  // namespace

void emit_gebp_tiles(std::vector<Op>& ops, const TileConfig& tiles,
                     index_t kc_eff, bool first_k,
                     const PackedBlockRef* a_ref,
                     const PackedBlockRef* b_ref, index_t ii, index_t jj,
                     index_t kk, const std::vector<Chunk>& m_list,
                     const std::vector<Chunk>& n_list, std::size_t j_begin,
                     std::size_t j_end, std::size_t i_begin,
                     std::size_t i_end) {
  const auto& registry = kern::KernelRegistry::instance();
  for (std::size_t jc = j_begin; jc < j_end; ++jc) {
    const Chunk& nch = n_list[jc];
    for (std::size_t ic = i_begin; ic < i_end; ++ic) {
      const Chunk& mch = m_list[ic];
      KernelOp op;
      op.kernel = registry.find_tile(tiles.family, static_cast<int>(mch.tile),
                                     static_cast<int>(nch.tile));
      op.kc = kc_eff;
      op.i0 = ii + mch.offset;
      op.j0 = jj + nch.offset;
      op.useful_m = mch.useful;
      op.useful_n = nch.useful;
      op.first_k_block = first_k;
      if (a_ref != nullptr) {
        op.a = packed_ref(*a_ref, ic, mch.tile);
      } else {
        op.a.kind = OperandRef::Kind::kDirectA;
        op.a.row0 = op.i0;
        op.a.col0 = kk;
      }
      if (b_ref != nullptr) {
        op.b = packed_ref(*b_ref, jc, nch.tile);
      } else {
        op.b.kind = OperandRef::Kind::kDirectB;
        op.b.row0 = kk;
        op.b.col0 = op.j0;
      }
      ops.push_back(op);
    }
  }
}

plan::PackAOp make_pack_a_op(const TileConfig& tiles,
                             const std::vector<Chunk>& m_list,
                             const std::vector<index_t>& offsets,
                             std::size_t c0, std::size_t c1, int buffer,
                             index_t ii, index_t kk, index_t kc_eff) {
  SMM_EXPECT(c0 < c1 && c1 <= m_list.size(), "bad pack A chunk range");
  PackAOp op;
  op.buffer = buffer;
  op.dst_offset = offsets[c0];
  op.i0 = ii + m_list[c0].offset;
  op.k0 = kk;
  op.kc = kc_eff;
  op.mr = tiles.mr;
  if (tiles.edge == EdgeStrategy::kPadding) {
    op.pad = true;
    // Padding mode: uniform mr panels; the covered extent is the useful
    // rows only (the packer zero-fills the rest of the last panel).
    const Chunk& last = m_list[c1 - 1];
    op.mc = last.offset + last.useful - m_list[c0].offset;
  } else {
    op.pad = false;
    op.mc = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      op.chunks.push_back(m_list[c].tile);
      op.mc += m_list[c].tile;
    }
  }
  return op;
}

plan::PackBOp make_pack_b_op(const TileConfig& tiles,
                             const std::vector<Chunk>& n_list,
                             const std::vector<index_t>& offsets,
                             std::size_t c0, std::size_t c1, int buffer,
                             index_t kk, index_t jj, index_t kc_eff) {
  SMM_EXPECT(c0 < c1 && c1 <= n_list.size(), "bad pack B chunk range");
  PackBOp op;
  op.buffer = buffer;
  op.dst_offset = offsets[c0];
  op.k0 = kk;
  op.j0 = jj + n_list[c0].offset;
  op.kc = kc_eff;
  op.nr = tiles.nr;
  if (tiles.edge == EdgeStrategy::kPadding) {
    op.pad = true;
    const Chunk& last = n_list[c1 - 1];
    op.nc = last.offset + last.useful - n_list[c0].offset;
  } else {
    op.pad = false;
    op.nc = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      op.chunks.push_back(n_list[c].tile);
      op.nc += n_list[c].tile;
    }
  }
  return op;
}

void emit_scale_c(plan::GemmPlan& plan) {
  // k == 0: C = beta * C, rows split across the plan's threads.
  for (int t = 0; t < plan.nthreads; ++t) {
    const par::Range rows = par::split_range(plan.shape.m, plan.nthreads, t);
    if (rows.size() == 0) continue;
    ScaleCOp op;
    op.i0 = rows.begin;
    op.j0 = 0;
    op.rows = rows.size();
    op.cols = plan.shape.n;
    plan.thread_ops[static_cast<std::size_t>(t)].push_back(op);
  }
}

namespace {

index_t padded_extent(index_t extent, index_t tile) {
  return (extent + tile - 1) / tile * tile;
}

}  // namespace

void build_singlethread(GemmPlan& plan, const GotoConfig& cfg) {
  const GemmShape shape = plan.shape;
  plan.nthreads = 1;
  plan.thread_ops.assign(1, {});
  plan.blocking = {cfg.mc, cfg.kc, cfg.nc, cfg.tiles.mr, cfg.tiles.nr};
  if (shape.m == 0 || shape.n == 0) return;
  if (shape.k == 0) {
    emit_scale_c(plan);
    return;
  }

  const int buf_a = cfg.pack_a
                        ? plan::add_buffer(
                              plan, padded_extent(std::min(cfg.mc, shape.m),
                                                  cfg.tiles.mr) *
                                        std::min(cfg.kc, shape.k))
                        : -1;
  const int buf_b = cfg.pack_b
                        ? plan::add_buffer(
                              plan, padded_extent(std::min(cfg.nc, shape.n),
                                                  cfg.tiles.nr) *
                                        std::min(cfg.kc, shape.k))
                        : -1;
  auto& ops = plan.thread_ops[0];

  auto pack_b_block = [&](PackedBlockRef& b_blk,
                          const std::vector<Chunk>& n_list, index_t jj,
                          index_t kk, index_t kc_eff) {
    b_blk.buffer = buf_b;
    b_blk.chunk_offsets = chunk_elem_offsets(n_list, kc_eff);
    ops.push_back(make_pack_b_op(cfg.tiles, n_list, b_blk.chunk_offsets, 0,
                                 n_list.size(), buf_b, kk, jj, kc_eff));
  };
  auto pack_a_block = [&](PackedBlockRef& a_blk,
                          const std::vector<Chunk>& m_list, index_t ii,
                          index_t kk, index_t kc_eff) {
    a_blk.buffer = buf_a;
    a_blk.chunk_offsets = chunk_elem_offsets(m_list, kc_eff);
    ops.push_back(make_pack_a_op(cfg.tiles, m_list, a_blk.chunk_offsets, 0,
                                 m_list.size(), buf_a, ii, kk, kc_eff));
  };

  if (!cfg.block_from_m) {
    // Col-major order (OpenBLAS/BLIS): jj -> kk -> ii (Fig. 4 Layers 1-3).
    // B~ is packed once per (jj, kk); A~ once per ii inside it.
    for (index_t jj = 0; jj < shape.n; jj += cfg.nc) {
      const index_t nc_eff = std::min(cfg.nc, shape.n - jj);
      const auto n_list = chunk_dim(nc_eff, cfg.tiles.nr, cfg.tiles.edge,
                                    cfg.tiles.n_chunks);
      for (index_t kk = 0; kk < shape.k; kk += cfg.kc) {
        const index_t kc_eff = std::min(cfg.kc, shape.k - kk);
        PackedBlockRef b_blk;
        if (cfg.pack_b) pack_b_block(b_blk, n_list, jj, kk, kc_eff);
        for (index_t ii = 0; ii < shape.m; ii += cfg.mc) {
          const index_t mc_eff = std::min(cfg.mc, shape.m - ii);
          const auto m_list = chunk_dim(mc_eff, cfg.tiles.mr,
                                        cfg.tiles.edge, cfg.tiles.m_chunks);
          PackedBlockRef a_blk;
          if (cfg.pack_a) pack_a_block(a_blk, m_list, ii, kk, kc_eff);
          emit_gebp_tiles(ops, cfg.tiles, kc_eff, kk == 0,
                          cfg.pack_a ? &a_blk : nullptr,
                          cfg.pack_b ? &b_blk : nullptr, ii, jj, kk, m_list,
                          n_list, 0, n_list.size(), 0, m_list.size());
        }
      }
    }
  } else {
    // Row-major mindset (Eigen): ii -> kk -> jj. A~ is packed once per
    // (ii, kk); B~ once per jj inside it.
    for (index_t ii = 0; ii < shape.m; ii += cfg.mc) {
      const index_t mc_eff = std::min(cfg.mc, shape.m - ii);
      const auto m_list = chunk_dim(mc_eff, cfg.tiles.mr, cfg.tiles.edge,
                                    cfg.tiles.m_chunks);
      for (index_t kk = 0; kk < shape.k; kk += cfg.kc) {
        const index_t kc_eff = std::min(cfg.kc, shape.k - kk);
        PackedBlockRef a_blk;
        if (cfg.pack_a) pack_a_block(a_blk, m_list, ii, kk, kc_eff);
        for (index_t jj = 0; jj < shape.n; jj += cfg.nc) {
          const index_t nc_eff = std::min(cfg.nc, shape.n - jj);
          const auto n_list = chunk_dim(nc_eff, cfg.tiles.nr,
                                        cfg.tiles.edge, cfg.tiles.n_chunks);
          PackedBlockRef b_blk;
          if (cfg.pack_b) pack_b_block(b_blk, n_list, jj, kk, kc_eff);
          emit_gebp_tiles(ops, cfg.tiles, kc_eff, kk == 0,
                          cfg.pack_a ? &a_blk : nullptr,
                          cfg.pack_b ? &b_blk : nullptr, ii, jj, kk, m_list,
                          n_list, 0, n_list.size(), 0, m_list.size());
        }
      }
    }
  }
}

void build_grid_parallel(GemmPlan& plan, const GotoConfig& cfg,
                         int nthreads, par::Grid2D grid) {
  if (nthreads <= 1) {
    build_singlethread(plan, cfg);
    return;
  }
  if (grid.pr <= 0) grid = par::choose_grid(nthreads);
  SMM_EXPECT(grid.pr * grid.pc == nthreads, "grid must cover the threads");
  const GemmShape shape = plan.shape;
  plan.nthreads = nthreads;
  plan.thread_ops.assign(static_cast<std::size_t>(nthreads), {});
  plan.blocking = {cfg.mc, cfg.kc, cfg.nc, cfg.tiles.mr, cfg.tiles.nr};
  if (shape.m == 0 || shape.n == 0) return;
  if (shape.k == 0) {
    emit_scale_c(plan);
    return;
  }

  const index_t kc_max = std::min(cfg.kc, shape.k);

  // One shared, cooperatively packed B buffer and one barrier per column
  // group; a private A buffer per thread. A 1-row grid has nothing to
  // synchronize: each column thread packs and consumes its own B~, so no
  // barrier is declared or crossed (barrier-free disjoint-C plan).
  const bool sync_b = grid.pr > 1;
  std::vector<int> buf_b(static_cast<std::size_t>(grid.pc), -1);
  std::vector<int> group_barrier(static_cast<std::size_t>(grid.pc), -1);
  for (int c = 0; c < grid.pc; ++c) {
    const par::Range cols =
        par::split_range_aligned(shape.n, grid.pc, c, cfg.tiles.nr);
    const index_t width = std::min(cfg.nc, std::max<index_t>(cols.size(), 1));
    buf_b[static_cast<std::size_t>(c)] = plan::add_buffer(
        plan, padded_extent(width, cfg.tiles.nr) * kc_max);
    if (sync_b)
      group_barrier[static_cast<std::size_t>(c)] =
          plan::add_barrier(plan, grid.pr);
  }
  std::vector<int> buf_a(static_cast<std::size_t>(nthreads), -1);
  for (int t = 0; t < nthreads; ++t) {
    const int r = t / grid.pc;
    const par::Range rows =
        par::split_range_aligned(shape.m, grid.pr, r, cfg.tiles.mr);
    const index_t height =
        std::min(cfg.mc, std::max<index_t>(rows.size(), 1));
    buf_a[static_cast<std::size_t>(t)] = plan::add_buffer(
        plan, padded_extent(height, cfg.tiles.mr) * kc_max);
  }

  for (int t = 0; t < nthreads; ++t) {
    const int r = t / grid.pc;
    const int c = t % grid.pc;
    auto& ops = plan.thread_ops[static_cast<std::size_t>(t)];
    const par::Range rows =
        par::split_range_aligned(shape.m, grid.pr, r, cfg.tiles.mr);
    const par::Range cols =
        par::split_range_aligned(shape.n, grid.pc, c, cfg.tiles.nr);
    const int bb = buf_b[static_cast<std::size_t>(c)];
    const int bar = group_barrier[static_cast<std::size_t>(c)];

    for (index_t jj = cols.begin; jj < cols.end; jj += cfg.nc) {
      const index_t nc_eff = std::min(cfg.nc, cols.end - jj);
      const auto n_list = chunk_dim(nc_eff, cfg.tiles.nr, cfg.tiles.edge,
                                    cfg.tiles.n_chunks);
      for (index_t kk = 0; kk < shape.k; kk += cfg.kc) {
        const index_t kc_eff = std::min(cfg.kc, shape.k - kk);
        const bool first_k = kk == 0;
        PackedBlockRef b_blk;
        b_blk.buffer = bb;
        b_blk.chunk_offsets = chunk_elem_offsets(n_list, kc_eff);
        // Cooperative B pack: the pr threads of this column group split
        // the chunk list.
        const par::Range my_chunks = par::split_range(
            static_cast<index_t>(n_list.size()), grid.pr, r);
        if (my_chunks.size() > 0) {
          ops.push_back(make_pack_b_op(
              cfg.tiles, n_list, b_blk.chunk_offsets,
              static_cast<std::size_t>(my_chunks.begin),
              static_cast<std::size_t>(my_chunks.end), bb, kk, jj, kc_eff));
        }
        if (sync_b) ops.push_back(plan::BarrierOp{bar});

        for (index_t ii = rows.begin; ii < rows.end; ii += cfg.mc) {
          const index_t mc_eff = std::min(cfg.mc, rows.end - ii);
          const auto m_list = chunk_dim(mc_eff, cfg.tiles.mr, cfg.tiles.edge,
                                        cfg.tiles.m_chunks);
          PackedBlockRef a_blk;
          a_blk.buffer = buf_a[static_cast<std::size_t>(t)];
          a_blk.chunk_offsets = chunk_elem_offsets(m_list, kc_eff);
          ops.push_back(make_pack_a_op(cfg.tiles, m_list,
                                       a_blk.chunk_offsets, 0, m_list.size(),
                                       a_blk.buffer, ii, kk, kc_eff));
          emit_gebp_tiles(ops, cfg.tiles, kc_eff, first_k, &a_blk, &b_blk,
                          ii, jj, kk, m_list, n_list, 0, n_list.size(), 0,
                          m_list.size());
        }
        // B buffer is reused next kk step: everyone must be done reading.
        if (sync_b) ops.push_back(plan::BarrierOp{bar});
      }
    }
  }
}

void build_ways_parallel(GemmPlan& plan, const GotoConfig& cfg,
                         par::Ways ways) {
  const GemmShape shape = plan.shape;
  const int nthreads = ways.total();
  plan.nthreads = nthreads;
  plan.thread_ops.assign(static_cast<std::size_t>(nthreads), {});
  plan.blocking = {cfg.mc, cfg.kc, cfg.nc, cfg.tiles.mr, cfg.tiles.nr};
  if (shape.m == 0 || shape.n == 0) return;
  if (shape.k == 0) {
    emit_scale_c(plan);
    return;
  }

  const index_t kc_max = std::min(cfg.kc, shape.k);
  const int group_b_threads = ways.ic * ways.jr * ways.ir;  // share B~
  const int group_a_threads = ways.jr * ways.ir;            // share A~
  // A 1-thread packing group owns its buffer outright: nobody else ever
  // reads or overwrites it, so its barriers are elided entirely (a pure
  // jc decomposition synchronizes only at the fork-join edges). Table II
  // charges every crossing to Sync, so the builder emits none it can
  // prove unnecessary. An operand read directly has no buffer to guard.
  const bool sync_b = cfg.pack_b && group_b_threads > 1;
  const bool sync_a = cfg.pack_a && group_a_threads > 1;

  // Buffers/barriers: one B per jc group, one A per (jc, ic) subgroup.
  std::vector<int> buf_b(static_cast<std::size_t>(ways.jc), -1);
  std::vector<int> bar_b(static_cast<std::size_t>(ways.jc), -1);
  for (int jc = 0; cfg.pack_b && jc < ways.jc; ++jc) {
    const par::Range cols =
        par::split_range_aligned(shape.n, ways.jc, jc, cfg.tiles.nr);
    const index_t width =
        std::min(cfg.nc, std::max<index_t>(cols.size(), 1));
    buf_b[static_cast<std::size_t>(jc)] = plan::add_buffer(
        plan, padded_extent(width, cfg.tiles.nr) * kc_max);
    if (sync_b)
      bar_b[static_cast<std::size_t>(jc)] =
          plan::add_barrier(plan, group_b_threads);
  }
  std::vector<int> buf_a(static_cast<std::size_t>(ways.jc * ways.ic), -1);
  std::vector<int> bar_a(static_cast<std::size_t>(ways.jc * ways.ic), -1);
  for (int jc = 0; cfg.pack_a && jc < ways.jc; ++jc) {
    for (int ic = 0; ic < ways.ic; ++ic) {
      const par::Range rows =
          par::split_range_aligned(shape.m, ways.ic, ic, cfg.tiles.mr);
      const index_t height =
          std::min(cfg.mc, std::max<index_t>(rows.size(), 1));
      const auto slot = static_cast<std::size_t>(jc * ways.ic + ic);
      buf_a[slot] = plan::add_buffer(
          plan, padded_extent(height, cfg.tiles.mr) * kc_max);
      if (sync_a) bar_a[slot] = plan::add_barrier(plan, group_a_threads);
    }
  }

  for (int t = 0; t < nthreads; ++t) {
    // Thread decomposition: t = ((wjc*ic + wic) * jr + wjr) * ir + wir.
    int rest = t;
    const int wir = rest % ways.ir;
    rest /= ways.ir;
    const int wjr = rest % ways.jr;
    rest /= ways.jr;
    const int wic = rest % ways.ic;
    rest /= ways.ic;
    const int wjc = rest;

    auto& ops = plan.thread_ops[static_cast<std::size_t>(t)];
    const par::Range cols =
        par::split_range_aligned(shape.n, ways.jc, wjc, cfg.tiles.nr);
    const par::Range rows =
        par::split_range_aligned(shape.m, ways.ic, wic, cfg.tiles.mr);
    const auto a_slot = static_cast<std::size_t>(wjc * ways.ic + wic);
    const int my_buf_b = buf_b[static_cast<std::size_t>(wjc)];
    const int my_bar_b = bar_b[static_cast<std::size_t>(wjc)];
    const int my_buf_a = buf_a[a_slot];
    const int my_bar_a = bar_a[a_slot];
    // Rank within the packing groups.
    const int rank_in_b = (wic * ways.jr + wjr) * ways.ir + wir;
    const int rank_in_a = wjr * ways.ir + wir;

    for (index_t jj = cols.begin; jj < cols.end; jj += cfg.nc) {
      const index_t nc_eff = std::min(cfg.nc, cols.end - jj);
      const auto n_list = chunk_dim(nc_eff, cfg.tiles.nr, cfg.tiles.edge,
                                    cfg.tiles.n_chunks);
      for (index_t kk = 0; kk < shape.k; kk += cfg.kc) {
        const index_t kc_eff = std::min(cfg.kc, shape.k - kk);
        const bool first_k = kk == 0;
        PackedBlockRef b_blk;
        if (cfg.pack_b) {
          b_blk.buffer = my_buf_b;
          b_blk.chunk_offsets = chunk_elem_offsets(n_list, kc_eff);
          const par::Range bchunks =
              par::split_range(static_cast<index_t>(n_list.size()),
                               group_b_threads, rank_in_b);
          if (bchunks.size() > 0) {
            ops.push_back(make_pack_b_op(
                cfg.tiles, n_list, b_blk.chunk_offsets,
                static_cast<std::size_t>(bchunks.begin),
                static_cast<std::size_t>(bchunks.end), my_buf_b, kk, jj,
                kc_eff));
          }
        }
        if (sync_b) ops.push_back(plan::BarrierOp{my_bar_b});

        for (index_t ii = rows.begin; ii < rows.end; ii += cfg.mc) {
          const index_t mc_eff = std::min(cfg.mc, rows.end - ii);
          const auto m_list = chunk_dim(mc_eff, cfg.tiles.mr,
                                        cfg.tiles.edge, cfg.tiles.m_chunks);
          PackedBlockRef a_blk;
          if (cfg.pack_a) {
            a_blk.buffer = my_buf_a;
            a_blk.chunk_offsets = chunk_elem_offsets(m_list, kc_eff);
            const par::Range achunks =
                par::split_range(static_cast<index_t>(m_list.size()),
                                 group_a_threads, rank_in_a);
            if (achunks.size() > 0) {
              ops.push_back(make_pack_a_op(
                  cfg.tiles, m_list, a_blk.chunk_offsets,
                  static_cast<std::size_t>(achunks.begin),
                  static_cast<std::size_t>(achunks.end), my_buf_a, ii, kk,
                  kc_eff));
            }
          }
          if (sync_a) ops.push_back(plan::BarrierOp{my_bar_a});

          // jr/ir ways split the micro-tile grid of this block.
          const par::Range jtiles = par::split_range(
              static_cast<index_t>(n_list.size()), ways.jr, wjr);
          const par::Range itiles = par::split_range(
              static_cast<index_t>(m_list.size()), ways.ir, wir);
          emit_gebp_tiles(ops, cfg.tiles, kc_eff, first_k,
                          cfg.pack_a ? &a_blk : nullptr,
                          cfg.pack_b ? &b_blk : nullptr, ii, jj, kk, m_list,
                          n_list, static_cast<std::size_t>(jtiles.begin),
                          static_cast<std::size_t>(jtiles.end),
                          static_cast<std::size_t>(itiles.begin),
                          static_cast<std::size_t>(itiles.end));
          // A~ is overwritten next ii step; everyone must be done with it.
          if (sync_a) ops.push_back(plan::BarrierOp{my_bar_a});
        }
        // End of the kk step (B~ about to be overwritten).
        if (sync_b) ops.push_back(plan::BarrierOp{my_bar_b});
      }
    }
  }
}

}  // namespace smm::libs
