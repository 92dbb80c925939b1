#include "src/threading/thread_pool.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/str.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/threading/worker_pool.h"

namespace smm::par {

namespace {

/// Widest region whose per-thread error slots run_parallel keeps on the
/// stack; wider ones allocate them.
constexpr int kInlineErrorSlots = 16;

[[noreturn]] void throw_injected_worker_fault(int tid) {
  throw Error(ErrorCode::kWorkerPanic,
              strprintf("smmkit: injected worker fault on thread %d", tid));
}

/// Aggregate every worker failure: one failing worker rethrows its
/// original exception (type preserved); several failing workers are
/// combined into one error naming each thread, so no failure is
/// silently dropped behind the first. When every failure is an
/// smm::Error with the same code (e.g. all workers timed out or all
/// spawns failed), the aggregate keeps that code so callers like the
/// guarded executor can still classify the fault; mixed failures
/// aggregate as kWorkerPanic.
void rethrow_failures(std::span<const std::exception_ptr> errors,
                      int nthreads) {
  std::vector<std::pair<int, std::exception_ptr>> failed;
  for (int t = 0; t < nthreads; ++t)
    if (errors[static_cast<std::size_t>(t)])
      failed.emplace_back(t, errors[static_cast<std::size_t>(t)]);
  if (failed.empty()) return;
  if (failed.size() == 1) std::rethrow_exception(failed.front().second);
  std::string combined =
      strprintf("smmkit: %zu of %d workers failed:", failed.size(),
                nthreads);
  bool first = true;
  bool same_code = true;
  ErrorCode common = ErrorCode::kWorkerPanic;
  for (const auto& [tid, err] : failed) {
    combined += strprintf(" [thread %d: ", tid);
    try {
      std::rethrow_exception(err);
    } catch (const Error& e) {
      combined += e.what();
      if (first) common = e.code();
      else if (e.code() != common) same_code = false;
    } catch (const std::exception& e) {
      combined += e.what();
      same_code = false;
    } catch (...) {
      combined += "non-standard exception";
      same_code = false;
    }
    combined += "]";
    first = false;
  }
  throw Error(same_code ? common : ErrorCode::kWorkerPanic, combined);
}

/// Spawn-per-call fallback: used when the pool is busy with another
/// region, when the caller is itself a pool worker (nested region), or
/// when the region is wider than the pool's cap.
void run_spawned(int nthreads, FunctionRef<void(int)> body,
                 FunctionRef<void()> on_worker_failure,
                 std::span<std::exception_ptr> errors) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    bool spawn_failed = false;
    std::string why;
    try {
      if (robust::should_fire(robust::FaultSite::kPoolSpawnFail))
        throw Error(ErrorCode::kPoolSpawnFail,
                    strprintf("smmkit: injected thread-spawn failure "
                              "(thread %d)",
                              t));
      threads.emplace_back([&, t] {
        try {
          if (robust::should_fire(robust::FaultSite::kWorkerThrow))
            throw_injected_worker_fault(t);
          body(t);
        } catch (...) {
          errors[static_cast<std::size_t>(t)] = std::current_exception();
          // Unblock peers before the join: a dead worker can never reach
          // the synchronization points the surviving bodies wait on.
          if (on_worker_failure) on_worker_failure();
        }
      });
    } catch (const Error& e) {
      spawn_failed = true;
      why = e.what();
    } catch (const std::system_error& e) {
      // Thread creation itself failed (resource exhaustion). Before this
      // path existed, destroying the vector of still-joinable threads
      // here called std::terminate.
      spawn_failed = true;
      why = e.what();
    }
    if (spawn_failed) {
      // The remaining bodies can never run: mark every unspawned tid
      // failed and poison the region so the already-running bodies fail
      // out of their barriers instead of waiting for peers that do not
      // exist.
      for (int miss = t; miss < nthreads; ++miss)
        errors[static_cast<std::size_t>(miss)] =
            std::make_exception_ptr(Error(
                ErrorCode::kPoolSpawnFail,
                strprintf("smmkit: could not spawn worker thread %d: %s",
                          miss, why.c_str())));
      robust::health().pool_spawn_failures.fetch_add(
          1, std::memory_order_relaxed);
      if (on_worker_failure) on_worker_failure();
      break;
    }
  }
  for (auto& th : threads) th.join();
}

}  // namespace

void run_parallel(int nthreads, FunctionRef<void(int)> body,
                  FunctionRef<void()> on_worker_failure) {
  SMM_EXPECT(nthreads > 0, "run_parallel needs at least one thread");
  if (nthreads == 1) {
    // Single-thread bypass: no pool handshake, no spawn, no error vector.
    if (robust::should_fire(robust::FaultSite::kWorkerThrow))
      throw_injected_worker_fault(0);
    body(0);
    return;
  }
  std::array<std::exception_ptr, kInlineErrorSlots> inline_errors;
  std::unique_ptr<std::exception_ptr[]> wide_errors;
  if (nthreads > kInlineErrorSlots)
    wide_errors = std::make_unique<std::exception_ptr[]>(
        static_cast<std::size_t>(nthreads));
  const std::span<std::exception_ptr> errors(
      wide_errors ? wide_errors.get() : inline_errors.data(),
      static_cast<std::size_t>(nthreads));
  // current(): the thread's bound pool (a shard lane binds its own) or
  // the process-wide instance.
  if (!WorkerPool::current().try_run(nthreads, body, on_worker_failure,
                                     errors)) {
    robust::health().pool_spawn_fallbacks.fetch_add(
        1, std::memory_order_relaxed);
    run_spawned(nthreads, body, on_worker_failure, errors);
  }
  rethrow_failures(errors, nthreads);
}

namespace detail {

int compute_threads_available(unsigned hw, const char* env) {
  int threads = static_cast<int>(std::clamp(hw, 1u, 256u));
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long cap = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && cap > 0)
      threads = std::min<long>(threads, cap);
  }
  return threads;
}

}  // namespace detail

int native_threads_available() {
  // Cached: hardware_concurrency() is a syscall on some libstdc++
  // configurations and this query sits on the per-call dispatch path
  // (parallel selection, barrier construction).
  static const int cached = detail::compute_threads_available(
      std::thread::hardware_concurrency(), std::getenv("SMMKIT_MAX_THREADS"));
  return cached;
}

}  // namespace smm::par
