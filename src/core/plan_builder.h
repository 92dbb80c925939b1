// Plan assembly for the reference SMM: the packing-optional single-thread
// path (with Fig. 8 edge packing) and the multi-dimensional parallel path.
#pragma once

#include "src/core/smm.h"
#include "src/plan/plan.h"
#include "src/threading/partition.h"

namespace smm::core {

/// Blocking of the reference SMM: mc/nc divisible by every main tile,
/// kc large enough that SMM-sized K never splits.
inline constexpr index_t kSmmMc = 240;
inline constexpr index_t kSmmKc = 512;
inline constexpr index_t kSmmNc = 480;
/// mc of a host-family plan: 32 does not divide kSmmMc, so the largest
/// multiple of both host main tile heights (32, 8) below it; kSmmNc
/// already divides by both widths (8, 16).
inline constexpr index_t kHostMc = 224;

struct BuildSpec {
  index_t mr = 16;
  index_t nr = 4;
  index_t mc = 256;
  index_t kc = 512;
  index_t nc = 512;
  bool pack_a = false;
  bool pack_b = true;
  bool edge_pack_b = false;  ///< only meaningful when !pack_b
  int nthreads = 1;
  par::Ways ways;
  /// K-split parallelism (> 1): the K range is divided among k_parts
  /// threads computing partial products into private slabs, folded into C
  /// by a reduction — the only way to use many cores on deep-K SMM shapes
  /// (M, N small, K large) where the tile grid cannot feed them.
  int k_parts = 1;
  /// Native plans only: the tiles come from the "host" kernel family
  /// (tiles sized for an AVX-512 host's 32 registers, reading packed or
  /// direct operands alike). A multi-thread host plan then packs only the
  /// operands pack_a / pack_b name; every other multi-thread plan packs
  /// both, whatever they say.
  bool host_tiles = false;
};

/// Build the plan (thread_ops, buffers, barriers) into `plan`, whose
/// shape/scalar/strategy must already be set.
void build_smm_plan(plan::GemmPlan& plan, const BuildSpec& spec);

/// The spec ReferenceSmm::make_plan would build for this call — the
/// default plan as a value. Deterministic for a fixed options set except
/// through the kMeasured thread-scaling path, exactly like make_plan.
BuildSpec default_build_spec(GemmShape shape, plan::ScalarType scalar,
                             int nthreads, const SmmOptions& options);

}  // namespace smm::core
