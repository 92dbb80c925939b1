// Adaptive main-tile selection for the reference SMM (Section IV,
// "having a set of optimal micro-kernels" + "adaptive code generation").
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/common/types.h"

namespace smm::core {

struct KernelChoice {
  index_t mr = 16;
  index_t nr = 4;
  double score = 0.0;
  std::string reason;
};

/// Main tiles the smm family provides.
const std::vector<std::pair<index_t, index_t>>& smm_main_tiles();

/// Score a candidate tile for a shape: CMR (Eq. 5) discounted by edge
/// coverage losses on M and N.
double tile_score(GemmShape shape, index_t mr, index_t nr);

/// Pick the best main tile for the shape.
KernelChoice choose_main_tile(GemmShape shape);

/// Pick the main tile for a native plan that runs packed panels, on a
/// host whose widest vector is `host_bits`: each tile_score is weighted
/// by the share of that width its packed-kernel clone runs at
/// (kern::tile_vector_bits / host_bits, Eq. 4-5 with the host's lanes;
/// a tile taller than M is weighted by the M-row edge tile that runs in
/// its place), so on a 512-bit host f32 16x4 (512-bit clone) beats 8x8
/// (256-bit).
/// `elem_bytes` is 4 (f32) or 8 (f64).
KernelChoice choose_host_tile(GemmShape shape, index_t elem_bytes,
                              int host_bits);

/// The host-family main tile of a multi-thread native plan on a host with
/// 32 512-bit registers (Eq. 4 with the host's register file): 32x8 —
/// two zmm of f32 by 8 columns, 16 accumulators; f64 runs it as two 32x4
/// column blocks of 16 — or 8x16 for m <= 8, whose rows fit one vector
/// (16 accumulators), so a skinny M does not leave a tall tile empty.
/// Fewer, fatter tiles cut the kernel ops of a plan 2-4x against the smm
/// tiles; on the 4-vCPU AVX-512 host every compute_mid shape ran faster
/// this way, cubes included (DESIGN.md section 6).
KernelChoice choose_host_family_tile(GemmShape shape);

}  // namespace smm::core
