#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <type_traits>

#include "serve.h"
#include "src/core/batched.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/registry.h"
#include "src/pack/pack.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan_stats.h"
#include "src/robust/health.h"
#include "src/shard/shard.h"
#include "src/threading/thread_pool.h"
#include "src/tune/tune.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using smm::robust::HealthSnapshot;

template <typename T>
Mat<T>& mat_a(CallSite& s) {
  if constexpr (std::is_same_v<T, float>) return s.af; else return s.ad;
}
template <typename T>
Mat<T>& mat_b(CallSite& s) {
  if constexpr (std::is_same_v<T, float>) return s.bf; else return s.bd;
}
template <typename T>
Mat<T>& mat_c(CallSite& s) {
  if constexpr (std::is_same_v<T, float>) return s.cf; else return s.cd;
}

/// Cost of one steady_clock read pair, subtracted from single-call spans.
std::int64_t clock_cost_ns() {
  std::vector<double> v;
  for (int i = 0; i < 2001; ++i) {
    const std::int64_t a = now_ns();
    v.push_back(static_cast<double>(now_ns() - a));
  }
  return static_cast<std::int64_t>(median(std::move(v)));
}

/// Everything the probes collect across a workload's sites.
struct LayerAcc {
  std::vector<double> gemm, lookup, fingerprint, execute, entry_self, build,
      batched_item, route;
  double pack_ns = 0, kernel_ns = 0, barrier_ns = 0, total_ns = 0;
  double threads_used = 0;
  std::size_t plans = 0;
  double tile_flops = 0, tile_ns = 0;
  double pack_probe_ns = 0, pack_elems = 0;
  double flops = 0, bytes = 0;  // computed operand traffic
};

/// Per-site samples of the three spans the reconciliation adds up.
struct SiteSamples {
  std::vector<double> gemm, lookup, execute;
};

volatile std::uint64_t g_sink = 0;

/// One interleaved round of the warm-call decomposition on one site:
/// smm_gemm, cached_smm_plan on a hit, execute_plan, options_fingerprint
/// and the shard router, each timed from here.
template <typename T>
void probe_round(CallSite& s, int nthreads, std::int64_t clock,
                 SiteSamples& out, LayerAcc& acc, TraceSink* trace) {
  const smm::GemmShape shape{s.shape.m, s.shape.n, s.shape.k};
  const auto scalar = std::is_same_v<T, float> ? smm::plan::ScalarType::kF32
                                               : smm::plan::ScalarType::kF64;
  const smm::core::SmmOptions opts{};
  auto& cache = smm::core::smm_plan_cache();
  const auto a = mat_a<T>(s).cview();
  const auto b = mat_b<T>(s).cview();
  const auto c = mat_c<T>(s).view();
  const T beta = static_cast<T>(s.beta);

  // One untimed call first, so all three spans below are taken warm on
  // this shape (the previous round left another shape in the caches).
  smm::core::smm_gemm(T(1), a, b, beta, c, nthreads);
  std::int64_t t0 = now_ns();
  smm::core::smm_gemm(T(1), a, b, beta, c, nthreads);
  std::int64_t t1 = now_ns();
  out.gemm.push_back(static_cast<double>(t1 - t0 - clock));
  if (trace) trace->span(s.label.c_str(), "core", 0, t0, t1);

  constexpr int kLookups = 16;
  t0 = now_ns();
  for (int i = 0; i < kLookups; ++i) {
    auto p = smm::core::cached_smm_plan(cache, shape, scalar, nthreads, opts);
    g_sink = g_sink + reinterpret_cast<std::uintptr_t>(p.get());
  }
  t1 = now_ns();
  out.lookup.push_back(static_cast<double>(t1 - t0 - clock) / kLookups);
  if (trace) trace->span("cached_smm_plan x16", "core.plan_cache", 0, t0, t1);

  const auto plan = smm::core::cached_smm_plan(cache, shape, scalar, nthreads, opts);
  t0 = now_ns();
  smm::plan::execute_plan(*plan, T(1), a, b, beta, c);
  t1 = now_ns();
  out.execute.push_back(static_cast<double>(t1 - t0 - clock));
  if (trace) trace->span("execute_plan", "plan", 0, t0, t1);

  constexpr int kBatch = 64;
  t0 = now_ns();
  for (int i = 0; i < kBatch; ++i)
    g_sink = g_sink + smm::core::options_fingerprint(opts);
  t1 = now_ns();
  acc.fingerprint.push_back(static_cast<double>(t1 - t0 - clock) / kBatch);

  const smm::shard::ShapeClass sc{s.shape.m, s.shape.n, s.shape.k,
                                  static_cast<int>(scalar)};
  t0 = now_ns();
  for (int i = 0; i < kBatch; ++i)
    g_sink = g_sink + static_cast<std::uint64_t>(smm::shard::route(
                          smm::shard::shape_class_hash(sc), s.shape.flops(), 4));
  t1 = now_ns();
  acc.route.push_back(static_cast<double>(t1 - t0 - clock) / kBatch);
}

/// The once-per-site probes: Table II split, threads used, the bare
/// micro-kernel at the plan's main tile, packing, a same-B batched
/// group, and cold plan builds.
template <typename T>
void probe_site_once(CallSite& s, int nthreads, std::int64_t clock,
                     LayerAcc& acc, TraceSink* trace, Rng& rng) {
  const smm::GemmShape shape{s.shape.m, s.shape.n, s.shape.k};
  const auto scalar = std::is_same_v<T, float> ? smm::plan::ScalarType::kF32
                                               : smm::plan::ScalarType::kF64;
  const smm::core::SmmOptions opts{};
  const auto plan = smm::core::cached_smm_plan(smm::core::smm_plan_cache(),
                                               shape, scalar, nthreads, opts);
  const auto a = mat_a<T>(s).cview();
  const auto b = mat_b<T>(s).cview();
  const auto c = mat_c<T>(s).view();
  const T beta = static_cast<T>(s.beta);
  const double elem = sizeof(T);

  // plan: measured Table II split (pack / kernel / barrier / other).
  std::vector<smm::plan::ThreadTiming> timings;
  const std::int64_t x0 = now_ns();
  smm::plan::execute_plan_timed(*plan, T(1), a, b, beta, c, timings);
  for (std::size_t t = 0; t < timings.size(); ++t) {
    const auto& tt = timings[t];
    acc.pack_ns += tt.pack_ns;
    acc.kernel_ns += tt.kernel_ns;
    acc.barrier_ns += tt.barrier_ns;
    acc.total_ns += tt.total_ns;
    if (trace) {
      // Aggregated per category, laid end to end from the call's start.
      std::int64_t at = x0;
      const int tid = 10 + static_cast<int>(t);
      for (const auto& [name, ns] :
           {std::pair{"pack", tt.pack_ns}, std::pair{"kernel", tt.kernel_ns},
            std::pair{"barrier", tt.barrier_ns}, std::pair{"other", tt.other_ns}}) {
        const auto d = static_cast<std::int64_t>(ns);
        if (d > 0) trace->span(name, "plan.table2", tid, at, at + d);
        at += d;
      }
    }
  }
  int used = 0;
  for (const auto& ts : smm::plan::analyze_threads(*plan))
    if (ts.kernel_ops > 0) ++used;
  acc.threads_used += used;
  ++acc.plans;

  // kernels: the bare native micro-kernel at the plan's main tile.
  const index_t mr = plan->blocking.mr, nr = plan->blocking.nr, kc = s.shape.k;
  if (mr > 0 && nr > 0) {
    smm::AlignedBuffer<T> pa(mr * kc), pb(kc * nr), pc(mr * nr);
    for (index_t i = 0; i < mr * kc; ++i) pa.data()[i] = static_cast<T>(rng.unit());
    for (index_t i = 0; i < kc * nr; ++i) pb.data()[i] = static_cast<T>(rng.unit());
    smm::kern::KernelOperands<T> ops;
    smm::kern::set_packed_a(ops, pa.data(), mr);
    smm::kern::set_packed_b(ops, pb.data(), nr);
    ops.c = pc.data();
    ops.c_rs = 1;
    ops.c_cs = mr;
    const auto fn = smm::kern::native_tile_fn<T>(static_cast<int>(mr),
                                                 static_cast<int>(nr));
    const double tile_flops = 2.0 * static_cast<double>(mr * nr * kc);
    const int iters = static_cast<int>(std::clamp(2e6 / tile_flops, 16.0, 20000.0));
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) fn(kc, T(1), T(0), ops, mr, nr);
    acc.tile_ns += static_cast<double>(now_ns() - t0 - clock);
    acc.tile_flops += tile_flops * iters;
  }
  // Computed, not measured: operand bytes read plus C written once.
  acc.flops += s.shape.flops();
  acc.bytes += elem * static_cast<double>(s.shape.m * s.shape.k + s.shape.k * s.shape.n +
                                          2 * s.shape.m * s.shape.n);

  // pack: pack_a and pack_b of the whole operands at the plan's tile.
  if (mr > 0 && nr > 0) {
    smm::AlignedBuffer<T> da(smm::pack::packed_a_size(s.shape.m, kc, mr, false));
    smm::AlignedBuffer<T> db(smm::pack::packed_b_size(kc, s.shape.n, nr, false));
    const int reps = static_cast<int>(std::clamp(
        2e5 / static_cast<double>(s.shape.m * kc + kc * s.shape.n), 4.0, 2000.0));
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < reps; ++i) {
      smm::pack::pack_a(a, mr, false, da.data());
      smm::pack::pack_b(b, nr, false, db.data());
    }
    acc.pack_probe_ns += static_cast<double>(now_ns() - t0 - clock);
    acc.pack_elems += static_cast<double>(reps) *
                      static_cast<double>(s.shape.m * kc + kc * s.shape.n);
  }

  // batched: one same-B group of 8 through batched_smm_each, per item.
  {
    constexpr int kItems = 8;
    std::vector<Mat<T>> as, cs;
    std::vector<smm::core::GemmBatchItem<T>> items;
    for (int i = 0; i < kItems; ++i) {
      as.emplace_back(s.shape.m, s.shape.k);
      as.back().fill(rng);
      cs.emplace_back(s.shape.m, s.shape.n);
    }
    for (int i = 0; i < kItems; ++i) items.push_back({as[i].cview(), b, cs[i].view()});
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      smm::core::batched_smm_each(T(1), items, T(0), smm::core::smm_plan_cache(), 1,
                                  &opts);
      const std::int64_t t1 = now_ns();
      if (rep > 0) acc.batched_item.push_back(static_cast<double>(t1 - t0 - clock) / kItems);
      if (trace && rep == 1) trace->span("batched_smm_each x8", "batched", 0, t0, t1);
    }
  }

  // core.plan_cache: cold builds through a private cache.
  smm::core::PlanCache cold(smm::core::reference_smm());
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    const auto p = smm::core::cached_smm_plan(cold, shape, scalar, nthreads, opts);
    const std::int64_t t1 = now_ns();
    acc.build.push_back(static_cast<double>(t1 - t0 - clock));
    if (trace && rep == 0) trace->span("plan build (cold lookup)", "core.plan_cache", 0, t0, t1);
    cold.clear();
  }
}

/// Rounds of probe_round over every site until `budget_s` is spent, then
/// the once-per-site probes. Returns each site's samples.
std::vector<SiteSamples> probe_sites(std::vector<CallSite>& sites, int nthreads,
                                     double budget_s, std::int64_t clock,
                                     LayerAcc& acc, TraceSink* trace,
                                     std::uint64_t seed) {
  std::vector<SiteSamples> out(sites.size());
  for (CallSite& s : sites) s.call(nthreads);  // warm every plan first
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (int round = 0; round < 400; ++round) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      TraceSink* t = round == 0 ? trace : nullptr;
      if (sites[i].shape.f64)
        probe_round<double>(sites[i], nthreads, clock, out[i], acc, t);
      else
        probe_round<float>(sites[i], nthreads, clock, out[i], acc, t);
    }
    if (round >= 4 && now_ns() > stop) break;
  }
  Rng rng(seed, 50);
  for (CallSite& s : sites) {
    if (s.shape.f64) probe_site_once<double>(s, nthreads, clock, acc, trace, rng);
    else probe_site_once<float>(s, nthreads, clock, acc, trace, rng);
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteSamples& ss = out[i];
    acc.gemm.insert(acc.gemm.end(), ss.gemm.begin(), ss.gemm.end());
    acc.lookup.insert(acc.lookup.end(), ss.lookup.begin(), ss.lookup.end());
    acc.execute.insert(acc.execute.end(), ss.execute.begin(), ss.execute.end());
    acc.entry_self.push_back(median(ss.gemm) - median(ss.lookup) - median(ss.execute));
  }
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Health-counter metrics over one measured phase of `ops` calls or
/// requests.
void report_counters(const HealthSnapshot& h0, const HealthSnapshot& h1,
                     std::size_t ops, Report& r) {
  const double per_1k = ops ? 1000.0 / static_cast<double>(ops) : 0.0;
  const double hits = static_cast<double>(h1.plan_cache_hits - h0.plan_cache_hits);
  const double misses = static_cast<double>(h1.plan_cache_misses - h0.plan_cache_misses);
  r.put("core.plan_cache.hit_ratio", ratio(hits, hits + misses), "ratio", ops);
  r.put("core.plan_cache.misses_per_1k", misses * per_1k, "count", ops);
  r.put("threading.pool_regions_per_1k",
        static_cast<double>(h1.pool_regions - h0.pool_regions) * per_1k, "count", ops);
  r.put("tune.samples_per_1k",
        static_cast<double>(h1.tune_samples - h0.tune_samples) * per_1k, "count", ops);
  const std::size_t replans = h1.tune_replans - h0.tune_replans;
  r.put("tune.replans", static_cast<double>(replans), "count", ops);
  if (smm::tune::mode() == smm::tune::Mode::kObserve && replans != 0)
    r.violate("tune_replans moved in observe mode");
  r.put("batched.prepack_reuse_per_1k",
        static_cast<double>(h1.batched_prepack_reuse - h0.batched_prepack_reuse) * per_1k,
        "count", ops);
}

void report_layers(const LayerAcc& acc, std::int64_t clock, Report& r) {
  const std::size_t n = acc.gemm.size();
  r.put("core.smm_gemm_ns_p50", median(acc.gemm), "ns", n);
  r.put("core.plan_lookup_ns_p50", median(acc.lookup), "ns", acc.lookup.size());
  r.put("core.options_fingerprint_ns_p50", median(acc.fingerprint), "ns",
        acc.fingerprint.size());
  r.put("core.entry_self_ns_p50", median(acc.entry_self), "ns", acc.entry_self.size());
  r.put("core.plan_build_ns_p50", median(acc.build), "ns", acc.build.size());
  r.put("plan.execute_ns_p50", median(acc.execute), "ns", acc.execute.size());
  r.put("plan.pack_share", ratio(acc.pack_ns, acc.total_ns), "ratio", acc.plans);
  r.put("plan.kernel_share", ratio(acc.kernel_ns, acc.total_ns), "ratio", acc.plans);
  r.put("plan.barrier_share", ratio(acc.barrier_ns, acc.total_ns), "ratio", acc.plans);
  r.put("plan.threads_used_mean", ratio(acc.threads_used, static_cast<double>(acc.plans)),
        "threads", acc.plans);
  r.put("kernels.tile_gflops", ratio(acc.tile_flops, acc.tile_ns), "GFLOP/s", acc.plans);
  r.put("kernels.flop_per_byte", ratio(acc.flops, acc.bytes), "flop/B", acc.plans);
  r.put("pack.ns_per_elem", ratio(acc.pack_probe_ns, acc.pack_elems), "ns", acc.plans);
  r.put("batched.item_ns_p50", median(acc.batched_item), "ns", acc.batched_item.size());
  r.put("shard.route_ns_p50", median(acc.route), "ns", acc.route.size());
  // An empty 2-thread fork-join region on the process-wide pool.
  std::vector<double> region;
  for (int i = 0; i < 600; ++i) {
    const std::int64_t t0 = now_ns();
    smm::par::run_parallel(2, [](int) {});
    region.push_back(static_cast<double>(now_ns() - t0 - clock));
  }
  r.put("threading.region_ns_p50", median(region), "ns", region.size());
  r.notes.push_back("kernels.flop_per_byte is computed from operand sizes, not measured");
}

/// Layer self-times of warm calls at 8^3..128^3 against the untraced
/// call: lookup + execute should cover smm_gemm; the rest is entry self
/// time (validation, option resolve, tuner gate).
void reconcile(const RunConfig& cfg, std::int64_t clock, Report& r) {
  std::vector<CallSite> sites;
  Rng data(cfg.seed, 40);
  for (index_t d : {8, 32, 64, 128})
    for (bool f64 : {false, true}) {
      CallSite s;
      s.shape = Shape{d, d, d, f64};
      s.label = "smm_gemm " + s.shape.name();
      s.init(data);
      sites.push_back(std::move(s));
    }
  LayerAcc scratch;
  const auto samples = probe_sites(sites, 1, 0.04 * cfg.seconds, clock, scratch,
                                   nullptr, cfg.seed);
  std::printf("reconciliation (warm nthreads=1; layers = cached_smm_plan + "
              "execute_plan; residual = entry self time):\n");
  std::printf("  %-16s %12s %12s %12s %12s %9s\n", "shape", "smm_gemm", "lookup",
              "execute", "layer sum", "residual");
  double worst[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const double g = median(samples[i].gemm), l = median(samples[i].lookup),
                 e = median(samples[i].execute);
    const double res = ratio(g - l - e, g);
    std::printf("  %-16s %12.1f %12.1f %12.1f %12.1f %8.1f%%%s\n",
                sites[i].shape.name().c_str(), g, l, e, l + e, 100 * res,
                std::abs(res) > 0.10 ? "  (over 10%)" : "");
    double& w = worst[i / 2];
    if (std::abs(res) > std::abs(w)) w = res;
  }
  const char* names[4] = {"recon.residual_share_8", "recon.residual_share_32",
                          "recon.residual_share_64", "recon.residual_share_128"};
  for (int i = 0; i < 4; ++i) r.put(names[i], worst[i], "ratio", 2);
}

void write_trace(const TraceSink& sink, const RunConfig& cfg, Report& r) {
  if (cfg.out_dir.empty()) return;
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + "_" +
                           std::to_string(cfg.seed) + ".json";
  const long written = sink.write(path, "perfbench " + cfg.workload);
  if (written >= 0)
    r.notes.push_back("chrome trace: " + path + " (" + std::to_string(written) + " of " +
                      std::to_string(sink.size()) + " recorded spans)");
  else
    r.notes.push_back("could not write chrome trace " + path);
}

void zero_service_layers(Report& r) {
  for (const auto& [name, unit] :
       {std::pair{"service.submit_ns_p50", "ns"}, {"service.submit_ns_p99", "ns"},
        {"service.overhead_ns_p50", "ns"}, {"service.overhead_ns_p99", "ns"},
        {"service.coalesced_share", "ratio"}, {"service.group_size_mean", "count"},
        {"service.rejected_share", "ratio"}, {"service.steals_per_1k", "count"},
        {"shard.imbalance", "ratio"}, {"failover.hedged_per_1k", "count"},
        {"failover.hedge_win_share", "ratio"}, {"gen.lag_p99_ns", "ns"},
        {"gen.collect_lag_p99_ns", "ns"}})
    r.put(name, 0.0, unit, 0);
  r.notes.push_back("not exercised without a service (read 0): service.*, shard.imbalance, "
                    "failover.*, gen.*");
}

void traced_gemm(const RunConfig& cfg, std::int64_t clock, Report& r) {
  GemmWorkload w = make_gemm_workload(cfg.workload, cfg.seed);
  gemm_setup(w, r);
  const HealthSnapshot h0 = smm::robust::health().snapshot();
  const GemmResult plain = gemm_measure(w, cfg, 0.3 * cfg.seconds, nullptr, r);
  const HealthSnapshot h1 = smm::robust::health().snapshot();
  TraceSink sink;
  const GemmResult traced = gemm_measure(w, cfg, 0.3 * cfg.seconds, &sink, r);
  report_counters(h0, h1, plain.calls, r);
  r.put("trace.overhead_ratio",
        ratio(traced.wall_s / static_cast<double>(traced.calls),
              plain.wall_s / static_cast<double>(plain.calls)),
        "ratio", traced.calls);
  LayerAcc acc;
  probe_sites(w.sites, w.nthreads, 0.15 * cfg.seconds, clock, acc, &sink, cfg.seed);
  report_layers(acc, clock, r);
  zero_service_layers(r);
  reconcile(cfg, clock, r);
  write_trace(sink, cfg, r);
}

void traced_serve(const RunConfig& cfg, std::int64_t clock, Report& r) {
  ServeBench bench(cfg);
  bench.setup(r);
  const Load closed{0.0, bench.spec().traced_clients};
  const HealthSnapshot h0 = smm::robust::health().snapshot();
  const PhaseResult plain = bench.run_phase(closed, 0.25 * cfg.seconds, 1, nullptr, r);
  const HealthSnapshot h1 = smm::robust::health().snapshot();
  bench.check_invariants(plain, "untraced phase", r);
  bench.measure_warm_medians();
  TraceSink sink;
  // Same stream as the untraced phase: the same requests in the same order.
  const PhaseResult traced = bench.run_phase(closed, 0.25 * cfg.seconds, 1, &sink, r);
  bench.check_invariants(traced, "traced phase", r);
  // The generator's own health, from a seeded Poisson open loop.
  const PhaseResult open =
      bench.run_phase(Load{bench.spec().open_rate, 0}, 0.15 * cfg.seconds, 2, nullptr, r);
  bench.check_invariants(open, "open-loop phase", r);
  r.notes.push_back("open loop at " + std::to_string(static_cast<long>(bench.spec().open_rate)) +
                    " req/s: backlog " + (open.backlog_grew ? "grew" : "steady") +
                    ", p99 " + std::to_string(static_cast<long>(open.p(0.99))) + " ns");
  for (const PhaseResult* p : {&plain, &traced, &open}) {
    r.attempted += p->sent;
    r.failed += p->failed + p->refused;
  }
  report_counters(h0, h1, plain.sent, r);

  const auto& a = traced.after;
  const auto& b = traced.before;
  const double sent = static_cast<double>(traced.sent);
  const double groups = static_cast<double>(a.coalesced_groups - b.coalesced_groups);
  const double items = static_cast<double>(a.coalesced_items - b.coalesced_items);
  const double hedged = static_cast<double>(a.hedged - b.hedged);
  r.put("service.submit_ns_p50", quantile(traced.submit_ns, 0.50), "ns", traced.sent);
  r.put("service.submit_ns_p99", quantile(traced.submit_ns, 0.99), "ns", traced.sent);
  r.put("service.overhead_ns_p50", quantile(traced.overhead_ns, 0.50), "ns",
        traced.overhead_ns.size());
  r.put("service.overhead_ns_p99", quantile(traced.overhead_ns, 0.99), "ns",
        traced.overhead_ns.size());
  r.put("service.coalesced_share", ratio(items, sent), "ratio", traced.sent);
  r.put("service.group_size_mean", ratio(items, groups), "count",
        static_cast<std::size_t>(groups));
  r.put("service.rejected_share",
        ratio(static_cast<double>(a.rejected - b.rejected),
              static_cast<double>(a.submitted - b.submitted)),
        "ratio", traced.sent);
  r.put("service.steals_per_1k",
        ratio(1000.0 * static_cast<double>(a.steals - b.steals), sent), "count",
        traced.sent);
  double max_admit = 0, sum_admit = 0;
  for (std::size_t i = 0; i < a.admitted_per_shard.size(); ++i) {
    const double d = static_cast<double>(a.admitted_per_shard[i] - b.admitted_per_shard[i]);
    max_admit = std::max(max_admit, d);
    sum_admit += d;
  }
  r.put("shard.imbalance",
        ratio(max_admit, sum_admit / static_cast<double>(a.admitted_per_shard.size())),
        "ratio", a.admitted_per_shard.size());
  r.put("failover.hedged_per_1k", ratio(1000.0 * hedged, sent), "count", traced.sent);
  r.put("failover.hedge_win_share",
        ratio(static_cast<double>(a.hedge_wins - b.hedge_wins), hedged), "ratio",
        static_cast<std::size_t>(hedged));
  r.put("gen.lag_p99_ns", quantile(open.gen_lag, 0.99), "ns", open.gen_lag.size());
  r.put("gen.collect_lag_p99_ns", quantile(open.collect_lag, 0.99), "ns",
        open.collect_lag.size());
  // Wall time per request, traced over untraced, at the same client count.
  r.put("trace.overhead_ratio",
        ratio(static_cast<double>(traced.wall_ns) / static_cast<double>(traced.sent),
              static_cast<double>(plain.wall_ns) / static_cast<double>(plain.sent)),
        "ratio", traced.sent);

  // Layer probes on the 24 hottest classes, as a lane would run them.
  std::vector<CallSite> sites;
  Rng data(cfg.seed, 41);
  for (std::size_t rank = 0; rank < 24 && rank < bench.num_classes(); ++rank) {
    CallSite s;
    s.shape = bench.class_shape(bench.class_of_rank(rank));
    s.label = "smm_gemm " + s.shape.name();
    s.init(data);
    sites.push_back(std::move(s));
  }
  LayerAcc acc;
  probe_sites(sites, 1, 0.1 * cfg.seconds, clock, acc, &sink, cfg.seed);
  report_layers(acc, clock, r);
  reconcile(cfg, clock, r);
  write_trace(sink, cfg, r);
}

}  // namespace

void run_traced(const RunConfig& cfg, Report& report) {
  const std::int64_t clock = clock_cost_ns();
  report.notes.push_back("clock read pair costs " + std::to_string(clock) +
                         " ns; subtracted from every single-call span");
  if (is_gemm_workload(cfg.workload))
    traced_gemm(cfg, clock, report);
  else
    traced_serve(cfg, clock, report);
}

}  // namespace perfbench
