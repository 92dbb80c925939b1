// smm::shard — shape-and-cost-aware placement of SMM requests across
// execution domains (DESIGN.md §13).
//
// The simulated Phytium 2000+ has eight panels, each with its own memory
// controller (sim/memory/numa.h); a runtime that funnels every request
// through one WorkerPool, one PlanCache, and one service queue turns
// those panels into a single contended domain. The shard router is the
// placement half of the fix: each request is assigned a shard by a hash
// of its *shape class* (m, n, k, scalar) folded with a bucketized
// predicted cost, so
//   - one hot shape always lands on one shard (its plan stays
//     cache-local, its packed buffers stay in one panel's LLC slice),
//   - shapes of similar cost spread across shards instead of piling the
//     expensive tail onto whichever shard hashes unlucky.
// Placement is a pure function — no state, no RNG — so tests can assert
// determinism and the router can run on the submit path in O(ns).
//
// Skew tolerance is the service's job (bounded work stealing between
// shards, smm_service.h); the router only has to be deterministic and
// roughly uniform.
#pragma once

#include <cstdint>

#include "src/common/types.h"

namespace smm::shard {

/// Shards a service resolves when ServiceOptions::shards == 0 (auto):
/// SMMKIT_SHARDS when set to a positive integer, else 8 — the sim's
/// panel count. Clamped to [1, kMaxShards].
int default_shard_count();

/// Hard cap on shard domains (each owns lanes, a pool, a plan cache).
inline constexpr int kMaxShards = 64;

/// What the router keys on: two requests with equal shape class are the
/// same traffic class and must land on the same shard (coalescing and
/// plan-cache locality both depend on it).
struct ShapeClass {
  index_t m = 0;
  index_t n = 0;
  index_t k = 0;
  /// plan::ScalarType as an int (f32 and f64 plans never coalesce).
  int scalar = 0;
};

/// Stable FNV-1a hash of a shape class. Pure function of the fields.
std::uint64_t shape_class_hash(const ShapeClass& sc);

/// Shard for (shape-class hash, predicted cost) among `nshards`.
/// `est_cost_ns` is bucketized on a log2 scale in units of the reference
/// cost model's dispatch quantum (model::ParallelCostModel::dispatch_ns)
/// before being folded into the hash: same shape class => same bucket =>
/// same shard, while shapes an order of magnitude apart in predicted
/// cost get re-mixed instead of riding the raw hash alone. Deterministic
/// and in [0, nshards).
///
/// Stability contract (DESIGN.md §14): callers must feed a cost estimate
/// that is constant for a shape's lifetime — the service passes its
/// *static* model estimate, never the tuner's observed one. An
/// observed cost that crossed a log2 bucket boundary would silently re-home the
/// shape, abandoning its shard-local plan cache and warm pool.
int route(std::uint64_t shape_hash, double est_cost_ns, int nshards);

}  // namespace smm::shard
