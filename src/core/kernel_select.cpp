#include "src/core/kernel_select.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/common/str.h"
#include "src/kernels/microkernel.h"
#include "src/model/equations.h"

namespace smm::core {

const std::vector<std::pair<index_t, index_t>>& smm_main_tiles() {
  static const std::vector<std::pair<index_t, index_t>> tiles{
      {16, 4}, {12, 4}, {8, 8}, {8, 4}, {4, 4}};
  return tiles;
}

double tile_score(GemmShape shape, index_t mr, index_t nr) {
  SMM_EXPECT(mr > 0 && nr > 0, "bad tile");
  if (shape.m == 0 || shape.n == 0) return 0.0;
  // CMR has diminishing returns once the tile hides the load latency; a
  // saturating transform keeps edge coverage the deciding factor between
  // two already-good tiles (raw CMR would pick 8x8 even for M = 12).
  const double c = model::cmr(mr, nr);
  const double base = c / (c + 2.0);
  // Under-filled tiles: a tile taller/wider than the matrix wastes its CMR.
  const double fill_m =
      std::min(1.0, static_cast<double>(shape.m) / static_cast<double>(mr));
  const double fill_n =
      std::min(1.0, static_cast<double>(shape.n) / static_cast<double>(nr));
  // Edge fraction: the share of rows/cols handled by smaller edge kernels,
  // each roughly `edge_penalty` as efficient as the main kernel (small
  // tiles waste vector lanes and are load-port bound, Section III-B).
  constexpr double kEdgePenalty = 0.45;
  const double em = shape.m >= mr
                        ? static_cast<double>(shape.m % mr) /
                              static_cast<double>(shape.m)
                        : 0.0;
  const double en = shape.n >= nr
                        ? static_cast<double>(shape.n % nr) /
                              static_cast<double>(shape.n)
                        : 0.0;
  const double edge_factor =
      (1.0 - em * (1.0 - kEdgePenalty)) * (1.0 - en * (1.0 - kEdgePenalty));
  return base * fill_m * fill_n * edge_factor;
}

namespace {

/// The best smm main tile by tile_score times `weight(mr)`; ties keep
/// the earlier tile.
template <typename Weight>
KernelChoice best_tile(GemmShape shape, Weight weight) {
  KernelChoice best;
  best.score = -1.0;
  for (const auto& [mr, nr] : smm_main_tiles()) {
    const double s = tile_score(shape, mr, nr) * weight(mr);
    if (s > best.score) {
      best = {mr, nr, s, ""};
    }
  }
  return best;
}

std::string describe(const KernelChoice& c, GemmShape shape) {
  return strprintf("%ldx%ld: score %.2f (CMR %.2f) for %ldx%ldx%ld",
                   static_cast<long>(c.mr), static_cast<long>(c.nr),
                   c.score, model::cmr(c.mr, c.nr),
                   static_cast<long>(shape.m), static_cast<long>(shape.n),
                   static_cast<long>(shape.k));
}

}  // namespace

KernelChoice choose_main_tile(GemmShape shape) {
  KernelChoice best = best_tile(shape, [](index_t) { return 1.0; });
  best.reason = describe(best, shape);
  return best;
}

KernelChoice choose_host_tile(GemmShape shape, index_t elem_bytes,
                              int host_bits) {
  SMM_EXPECT(elem_bytes == 4 || elem_bytes == 8, "bad element size");
  KernelChoice best = best_tile(shape, [&](index_t mr) {
    // A tile taller than the matrix never runs: its rows go to an edge
    // tile about m rows tall, so that tile's clone width counts.
    const int m = static_cast<int>(std::min(mr, shape.m));
    const int bits = elem_bytes == 4
                         ? kern::tile_vector_bits<float>(m, host_bits)
                         : kern::tile_vector_bits<double>(m, host_bits);
    return static_cast<double>(bits) / static_cast<double>(host_bits);
  });
  best.reason = describe(best, shape) +
                strprintf(" at %d-bit host vectors", host_bits);
  return best;
}

KernelChoice choose_host_family_tile(GemmShape shape) {
  KernelChoice c;
  c.mr = shape.m <= 8 ? 8 : 32;
  c.nr = shape.m <= 8 ? 16 : 8;
  c.reason = describe(c, shape) + " from the host family";
  return c;
}

}  // namespace smm::core
