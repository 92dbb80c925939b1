#include "src/core/batched.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "src/common/error.h"
#include "src/common/str.h"
#include "src/core/smm.h"
#include "src/plan/native_executor.h"
#include "src/robust/health.h"
#include "src/robust/integrity.h"
#include "src/threading/partition.h"
#include "src/threading/thread_pool.h"

namespace smm::core {

namespace {

/// The per-item shape/data checks batched entry points agree on. Empty
/// string = well-formed; otherwise the kBadShape message (with the item
/// index, so a million-item batch is debuggable).
template <typename T>
std::string item_shape_error(const GemmBatchItem<T>& item, std::size_t i) {
  if (!(item.a.rows() == item.c.rows() && item.b.cols() == item.c.cols() &&
        item.a.cols() == item.b.rows()))
    return strprintf("batched_smm: item %zu dimension mismatch "
                     "(A %ldx%ld, B %ldx%ld, C %ldx%ld)",
                     i, static_cast<long>(item.a.rows()),
                     static_cast<long>(item.a.cols()),
                     static_cast<long>(item.b.rows()),
                     static_cast<long>(item.b.cols()),
                     static_cast<long>(item.c.rows()),
                     static_cast<long>(item.c.cols()));
  if (!(item.c.rows() > 0 && item.c.cols() > 0 && item.a.cols() > 0))
    return strprintf("batched_smm: item %zu has a zero dimension", i);
  if (item.a.data() == nullptr || item.b.data() == nullptr ||
      item.c.data() == nullptr)
    return strprintf("batched_smm: item %zu has null data", i);
  return {};
}

/// Literally the same view — one B object, not merely equal contents.
template <typename T>
bool identical_view(ConstMatrixView<T> x, ConstMatrixView<T> y) {
  return x.data() == y.data() && x.rows() == y.rows() &&
         x.cols() == y.cols() && x.ld() == y.ld();
}

/// Pack-once gate: the per-handle integrity lock serializes run() while
/// ABFT is on, so replaying one handle from several workers would
/// serialize the batch — worse than per-item packing, not better.
bool prepack_reuse_allowed(int nworkers) {
  return nworkers == 1 || integrity::mode() == integrity::AbftMode::kOff;
}

/// Output aliasing among the runnable items (workers write C
/// concurrently): calls on_alias(i, message) for every runnable item i
/// whose C storage overlaps the C of an earlier runnable item — the later
/// index of an overlapping pair loses. The surviving items are pairwise
/// disjoint, so ordered by start they are ordered by end too, and a new
/// extent can only overlap its two neighbours: O(n log n) for any batch
/// size and any address order.
template <typename T, typename Runnable, typename OnAlias>
void for_each_alias(const std::vector<GemmBatchItem<T>>& items,
                    Runnable runnable, OnAlias on_alias) {
  // A single-item batch has nothing to alias against: skip the set
  // entirely (this path is hit per-call by adapters that funnel single
  // GEMMs through the batch API, where the allocation would be pure
  // overhead).
  if (items.size() < 2) return;
  struct Extent {
    const void* begin;
    const void* end;
    std::size_t item;
    bool operator<(const Extent& o) const { return begin < o.begin; }
  };
  std::set<Extent> survivors;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!runnable(i)) continue;
    const auto r = storage_range(ConstMatrixView<T>(items[i].c));
    const Extent e{r.first, r.second, i};
    const auto next = survivors.lower_bound(e);
    std::size_t hit = i;
    if (next != survivors.begin() && std::prev(next)->end > e.begin)
      hit = std::prev(next)->item;
    else if (next != survivors.end() && next->begin < e.end)
      hit = next->item;
    if (hit == i)
      survivors.insert(next, e);
    else
      on_alias(i, strprintf("batched_smm: C of item %zu aliases C of "
                            "item %zu",
                            i, hit));
  }
}

}  // namespace

template <typename T>
void batched_smm(T alpha, const std::vector<GemmBatchItem<T>>& items,
                 T beta, PlanCache& cache, int nworkers,
                 const CancelToken* cancel, const SmmOptions* options) {
  SMM_EXPECT(nworkers >= 1, "batched_smm needs at least one worker");
  // Up-front validation: bad items are caller bugs and reject the whole
  // batch before any plan lookup or any work starts.
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::string err = item_shape_error(items[i], i);
    SMM_EXPECT_CODE(err.empty(), ErrorCode::kBadShape, err);
  }
  for_each_alias(
      items, [](std::size_t) { return true; },
      [](std::size_t, const std::string& message) {
        throw Error(ErrorCode::kAlias, message);
      });
  // A token already stopped at entry fails the whole batch before any
  // plan is resolved or any C is written.
  if (cancel != nullptr) cancel->throw_if_stopped();

  // Per-item failures are collected (with the item index) instead of
  // tearing down the whole batch at the first worker exception: every
  // healthy item still completes, then one aggregate error reports all
  // the casualties, carrying the code of the lowest-index failure.
  const std::vector<const CancelToken*> tokens(items.size(), cancel);
  const auto statuses = batched_smm_each(alpha, items, beta, cache,
                                         nworkers, options, &tokens);
  std::size_t failed = 0;
  ErrorCode first_code = ErrorCode::kUnknown;
  std::string detail;
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok) continue;
    if (failed++ == 0) first_code = statuses[i].code;
    detail += strprintf(" [item %zu: %s]", i, statuses[i].message.c_str());
  }
  if (failed > 0)
    throw Error(first_code,
                strprintf("batched_smm: %zu of %zu items failed:", failed,
                          items.size()) +
                    detail);
}

template void batched_smm(float, const std::vector<GemmBatchItem<float>>&,
                          float, PlanCache&, int, const CancelToken*,
                          const SmmOptions*);
template void batched_smm(double, const std::vector<GemmBatchItem<double>>&,
                          double, PlanCache&, int, const CancelToken*,
                          const SmmOptions*);

template <typename T>
std::vector<BatchItemStatus> batched_smm_each(
    T alpha, const std::vector<GemmBatchItem<T>>& items, T beta,
    PlanCache& cache, int nworkers, const SmmOptions* options,
    const std::vector<const CancelToken*>* tokens) {
  SMM_EXPECT(nworkers >= 1, "batched_smm_each needs at least one worker");
  SMM_EXPECT(tokens == nullptr || tokens->size() == items.size(),
             "batched_smm_each: tokens must be one per item");
  std::vector<BatchItemStatus> statuses(items.size());
  if (items.empty()) return statuses;
  robust::health().batched_items.fetch_add(items.size(),
                                           std::memory_order_relaxed);
  const auto scalar =
      sizeof(T) == 4 ? plan::ScalarType::kF32 : plan::ScalarType::kF64;

  // Statuses are written at disjoint indices (including from workers),
  // so no lock is needed anywhere below.
  const auto fail = [&statuses](std::size_t i, ErrorCode code,
                                std::string message) {
    statuses[i].ok = false;
    statuses[i].code = code;
    statuses[i].message = std::move(message);
  };

  // Item-local validation: a malformed item fails alone; its siblings
  // are unaffected (the whole point of the per-item API).
  std::vector<unsigned char> runnable(items.size(), 1);
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::string err = item_shape_error(items[i], i);
    if (!err.empty()) {
      runnable[i] = 0;
      fail(i, ErrorCode::kBadShape, std::move(err));
    }
  }
  for_each_alias(
      items, [&runnable](std::size_t i) { return runnable[i] != 0; },
      [&](std::size_t i, std::string message) {
        runnable[i] = 0;
        fail(i, ErrorCode::kAlias, std::move(message));
      });

  // Input hygiene per item (DESIGN.md §11): a poisoned neighbor is
  // rejected alone instead of poisoning the group.
  if (options != nullptr && options->check_finite) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (!runnable[i]) continue;
      try {
        screen_finite(items[i].a, items[i].b, beta,
                      ConstMatrixView<T>(items[i].c));
      } catch (const Error& e) {
        runnable[i] = 0;
        fail(i, e.code(), e.what());
      }
    }
  }

  // One plan per distinct shape — a coalesced group is normally a single
  // shape, so this is one cache lookup for the whole call. A tiny item
  // (tiny_path_applies) needs none: its plan stays null and it runs
  // tiny_gemm, as smm_gemm would.
  std::vector<std::shared_ptr<const plan::GemmPlan>> plans(items.size());
  struct Resolved {
    GemmShape shape;
    std::shared_ptr<const plan::GemmPlan> plan;
  };
  std::vector<Resolved> resolved;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!runnable[i]) continue;
    const GemmShape shape{items[i].c.rows(), items[i].c.cols(),
                          items[i].a.cols()};
    if (options != nullptr && tiny_path_applies(shape, *options)) continue;
    const auto it = std::find_if(
        resolved.begin(), resolved.end(), [&](const Resolved& r) {
          return r.shape.m == shape.m && r.shape.n == shape.n &&
                 r.shape.k == shape.k;
        });
    if (it != resolved.end()) {
      plans[i] = it->plan;
      continue;
    }
    try {
      // Null options = the cache's default-built plans (the keys
      // batched_smm uses); explicit options go through the same
      // fingerprinted resolution smm_gemm uses.
      auto plan = options != nullptr
                      ? cached_smm_plan(cache, shape, scalar,
                                        /*nthreads=*/1, *options)
                      : cache.get(shape, scalar, /*nthreads=*/1);
      plans[i] = plan;
      resolved.push_back({shape, std::move(plan)});
    } catch (const std::exception& e) {
      runnable[i] = 0;
      fail(i, error_code_of(e), e.what());
    }
  }

  // Pack-once fast path: every runnable item replaying one plan against
  // literally the same B view shares one PrepackedB handle.
  std::shared_ptr<plan::PrepackedB<T>> packed;
  if (prepack_reuse_allowed(nworkers)) {
    std::size_t first = items.size();
    std::size_t nrun = 0;
    bool uniform = true;
    for (std::size_t i = 0; i < items.size() && uniform; ++i) {
      if (!runnable[i]) continue;
      ++nrun;
      if (first == items.size()) {
        first = i;
        continue;
      }
      uniform = plans[i] == plans[first] &&
                identical_view(items[i].b, items[first].b);
    }
    if (uniform && nrun >= 2 && plans[first] != nullptr) {
      try {
        auto candidate = std::make_shared<plan::PrepackedB<T>>(
            plans[first], items[first].b);
        if (candidate->materialized()) {
          packed = std::move(candidate);
          robust::health().batched_prepack_reuse.fetch_add(
              nrun, std::memory_order_relaxed);
        }
      } catch (...) {
        // Pack-once is an optimization; execute_plan is always correct.
      }
    }
  }

  // run_parallel dispatches on the shared persistent WorkerPool: batch
  // after batch reuses the same parked workers (and a one-item batch
  // takes the single-thread bypass, touching no pool state at all).
  const int workers =
      std::min<int>(nworkers, std::max<std::size_t>(items.size(), 1));
  par::run_parallel(workers, [&](int w) {
    const par::Range range =
        par::split_range(static_cast<index_t>(items.size()), workers, w);
    for (index_t ii = range.begin; ii < range.end; ++ii) {
      const auto i = static_cast<std::size_t>(ii);
      if (!runnable[i]) continue;
      const auto& item = items[i];
      // Both paths consult the item's token at op boundaries; a token
      // already stopped fails only its own item, C untouched.
      const CancelToken* token = tokens != nullptr ? (*tokens)[i] : nullptr;
      try {
        if (plans[i] == nullptr) {  // runnable and planless: tiny
          if (token != nullptr) token->throw_if_stopped();
          tiny_gemm(alpha, item.a, item.b, beta, item.c);
        } else if (packed) {
          packed->run(alpha, item.a, beta, item.c, token);
        } else {
          plan::execute_plan(*plans[i], alpha, item.a, item.b, beta,
                             item.c, token);
        }
        statuses[i].ok = true;
      } catch (const std::exception& e) {
        fail(i, error_code_of(e), e.what());
      }
    }
  });

  std::size_t failures = 0;
  for (const auto& s : statuses)
    if (!s.ok) ++failures;
  if (failures > 0)
    robust::health().batched_item_failures.fetch_add(
        failures, std::memory_order_relaxed);
  return statuses;
}

template std::vector<BatchItemStatus> batched_smm_each(
    float, const std::vector<GemmBatchItem<float>>&, float, PlanCache&,
    int, const SmmOptions*, const std::vector<const CancelToken*>*);
template std::vector<BatchItemStatus> batched_smm_each(
    double, const std::vector<GemmBatchItem<double>>&, double, PlanCache&,
    int, const SmmOptions*, const std::vector<const CancelToken*>*);

PlanCache& default_plan_cache() {
  // Immortal (leaked): protect_across_fork registers atfork handlers
  // capturing the cache that can never be unregistered, so the cache
  // must survive static destruction (fork_guard.h).
  static PlanCache* cache = new PlanCache(reference_smm());
  static const bool fork_guarded = (cache->protect_across_fork(), true);
  (void)fork_guarded;
  return *cache;
}

}  // namespace smm::core
