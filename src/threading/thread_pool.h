// Fork-join execution of per-thread programs.
//
// Plans may contain inter-thread barriers, so all `nthreads` bodies must
// run concurrently. Regions are served by the persistent WorkerPool
// (worker_pool.h): workers spin, then park, between regions, so the
// steady-state per-call cost is a dispatch handshake instead of
// nthreads thread clones — the paper's Table II point that fixed
// per-call costs dominate small-matrix work applies to thread spawns
// more than to anything else on this path. Nested regions and callers
// that find the pool busy fall back to spawn-per-call, which keeps the
// old semantics available under arbitrary composition; nthreads == 1
// bypasses both paths and runs the body in place.
#pragma once

#include "src/common/function_ref.h"
#include "src/common/types.h"

namespace smm::par {

/// Run body(tid) for tid in [0, nthreads) on concurrent threads and join.
/// body must be thread-safe across tids. Exceptions in bodies are
/// captured; after the join a single failure is rethrown as-is, while
/// multiple failures are aggregated into one smm::Error whose message
/// names every failing thread — the aggregate keeps the failures' common
/// ErrorCode when they all share one (pool timeout, spawn failure), and
/// is kWorkerPanic otherwise. Never hangs: pool regions are bounded by
/// the WorkerPool watchdog, and a thread-spawn failure on the fallback
/// path fails the unspawned tids instead of leaking joinable threads.
///
/// on_worker_failure, if set, is invoked on the failing worker's thread
/// the moment its exception is captured — before the join, while peers
/// are still running. Bodies that synchronize through blocking primitives
/// (plan barriers) use it to cancel those primitives so surviving peers
/// fail instead of waiting forever for a worker that will never arrive.
/// It must be thread-safe and idempotent, and must not throw.
///
/// Both callables are taken by reference (FunctionRef) and must outlive
/// the call, which a lambda argument does. A warm pool region of up to
/// 16 threads performs no heap allocation.
void run_parallel(int nthreads, FunctionRef<void(int)> body,
                  FunctionRef<void()> on_worker_failure = {});

/// Threads worth offering to callers: hardware concurrency clamped to
/// [1, 256], further capped by the SMMKIT_MAX_THREADS environment
/// variable when set (container deployments that cgroup-limit a process
/// below what hardware_concurrency() reports). Computed once on first
/// call and cached — this sits on the per-call dispatch path.
int native_threads_available();

namespace detail {
/// The uncached policy behind native_threads_available(), exposed so
/// tests can probe env handling without mutating process-wide state:
/// clamp hw to [1, 256], then apply `env` (SMMKIT_MAX_THREADS value;
/// null/empty/garbage/non-positive values are ignored).
int compute_threads_available(unsigned hw, const char* env);
}  // namespace detail

}  // namespace smm::par
