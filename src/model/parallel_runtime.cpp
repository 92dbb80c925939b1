#include "src/model/parallel_runtime.h"

#include <algorithm>
#include <cmath>

namespace smm::model {

namespace {

/// ceil(a / b) for positive extents, saturated at >= 1 so degenerate
/// shapes still price one loop step.
double ceil_steps(double extent, double block) {
  if (extent <= 0.0 || block <= 0.0) return 1.0;
  return std::max(1.0, std::ceil(extent / block));
}

int ceil_log2(int v) {
  int depth = 0;
  for (int span = 1; span < v; span <<= 1) ++depth;
  return depth;
}

}  // namespace

ParallelCostModel reference_cost_model() {
  // FT-2000+ flavoured: 64 cores, 2.25 GHz, 16 sp flops/cycle/core gives
  // ~0.028 ns/flop at 100% — a warm small-matrix call sustains roughly a
  // third of that, and a packed element is a couple of memory ops.
  ParallelCostModel m;
  m.flop_ns = 0.03;
  m.pack_ns_per_elem = 0.5;
  m.barrier_ns = 800.0;
  m.dispatch_ns = 2000.0;
  m.hw_threads = 64;
  m.measured = false;
  return m;
}

double barrier_crossing_ns(const ParallelCostModel& m, int participants) {
  if (participants <= 1) return 0.0;
  double ns = m.barrier_ns * ceil_log2(participants);
  if (participants > m.hw_threads && m.hw_threads > 0) {
    // Oversubscribed rounds cannot resolve until the scheduler has run
    // every participant; each crossing eats context switches, not spins.
    ns *= static_cast<double>(participants) / m.hw_threads;
  }
  return ns;
}

double predict_parallel_ns(const ParallelCostModel& m, GemmShape shape,
                           int nthreads, int k_parts, par::Ways ways,
                           index_t mr, index_t nr, index_t mc, index_t kc,
                           index_t nc) {
  (void)mr;
  (void)nr;
  const double flops = 2.0 * static_cast<double>(shape.m) *
                       static_cast<double>(shape.n) *
                       static_cast<double>(shape.k);
  if (nthreads <= 1 && k_parts <= 1) return flops * m.flop_ns;

  const int width = std::max(nthreads, k_parts);
  const double concurrency =
      static_cast<double>(std::min(width, std::max(1, m.hw_threads)));
  double ns = m.dispatch_ns;

  if (k_parts > 1) {
    // K-split: each part runs a private serial GEMM into its slab, one
    // full-width barrier, then the slabs are folded into C row-wise.
    ns += flops * m.flop_ns / concurrency;
    ns += 2.0 * barrier_crossing_ns(m, k_parts);
    const double slab_elems = static_cast<double>(shape.m) *
                              static_cast<double>(shape.n) * k_parts;
    ns += slab_elems * m.pack_ns_per_elem / concurrency;
    return ns;
  }

  // Ways path. Kernel work is evenly tiled across all participants.
  ns += flops * m.flop_ns / concurrency;

  // Cooperative packing: B~ is packed exactly once in total (disjoint
  // per-jc-group column strips), A~ once per jc group — the jc groups
  // cover the same rows, so the A traffic is duplicated ways.jc times.
  // Both packs are split across the region, so they scale with width.
  const double a_elems = static_cast<double>(shape.m) *
                         static_cast<double>(shape.k) * ways.jc;
  const double b_elems =
      static_cast<double>(shape.k) * static_cast<double>(shape.n);
  ns += (a_elems + b_elems) * m.pack_ns_per_elem / concurrency;

  // Barrier crossings mirror build_ways_parallel: the B barrier (per jc
  // group, ic*jr*ir participants) is crossed twice per (jj, kk) step,
  // the A barrier (per (jc, ic) group, jr*ir participants) twice per
  // (jj, kk, ii) step. 1-participant groups emit no barrier at all.
  const double cols = static_cast<double>(shape.n) / std::max(1, ways.jc);
  const double rows = static_cast<double>(shape.m) / std::max(1, ways.ic);
  const double jj_steps = ceil_steps(cols, static_cast<double>(nc));
  const double kk_steps = ceil_steps(static_cast<double>(shape.k),
                                     static_cast<double>(kc));
  const double ii_steps = ceil_steps(rows, static_cast<double>(mc));
  const int group_b = ways.ic * ways.jr * ways.ir;
  const int group_a = ways.jr * ways.ir;
  ns += 2.0 * jj_steps * kk_steps * barrier_crossing_ns(m, group_b);
  ns += 2.0 * jj_steps * kk_steps * ii_steps * barrier_crossing_ns(m, group_a);
  return ns;
}

}  // namespace smm::model
