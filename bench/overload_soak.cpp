// Overload soak (DESIGN.md §11/§13, acceptance harness). Two modes:
//
// 1. Legacy overload soak (default): sustained traffic at a multiple of
//    the service's measured capacity, verifying the admission layer
//    degrades the way it promises:
//   - zero deadlocks: a monitor thread aborts the process (exit 2) if the
//     soak misses its global deadline;
//   - zero unexpected exceptions: every terminal code must be ok,
//     kOverloaded (refused), kCancelled / kDeadlineExceeded (stopped), or
//     kWorkerPanic inside the induced fault window;
//   - goodput: completed requests per second stays >= --goodput-frac
//     (default 0.9) of the measured single-lane capacity — shedding load
//     must not destroy the work the lane does accept;
//   - bounded latency: every admitted request reaches a terminal state
//     within 2x its deadline plus a fixed scheduling slack;
//   - O(us) rejection: the mean submit() latency of refused requests
//     stays under --reject-us (generous default for sanitizer builds);
//   - observable degradation: shed, rejection, deadline-miss,
//     cancellation, breaker-trip, and breaker-rejection counters are all
//     nonzero by the end — a failure class that never fired was not
//     soaked. The breaker leg is induced by a brief kWorkerThrow window
//     mid-soak.
//
//   overload_soak [--seconds 10] [--overload 4] [--deadline-ms 100]
//                 [--goodput-frac 0.9] [--reject-us 2000] [--slack-ms 300]
//                 [--shards 1] [--coalesce-depth 1] [--coalesce-window-us 0]
//
// 2. Shard/coalesce A-B bench (--shard-bench): a Zipfian small-shape mix
//    offered at the same rate to an uncoalesced service (trial A:
//    coalesce depth 1) and a coalescing one (trial B: --coalesce-depth /
//    --coalesce-window-us), gating
//      (a) goodput(B) >= --coalesce-gain x goodput(A)   (default 1.3),
//      (b) zero late terminals in both trials (the PR 5 per-request
//          terminal-latency guarantee holds under coalescing),
//    and writing the numbers — plus warm single-request core latencies
//    comparable to BENCH_dispatch.json's "warm" rows — to --json
//    (default BENCH_shard.json).
//
//   overload_soak --shard-bench [--seconds 6] [--overload 16]
//                 [--deadline-ms 100] [--zipf 2.0] [--shards 4]
//                 [--coalesce-depth 128] [--coalesce-window-us 0]
//                 [--threads-per-request 1] [--coalesce-gain 1.3]
//                 [--slack-ms 300] [--json BENCH_shard.json]
//
// Exit 0 on a clean soak, 1 on a violated invariant, 2 on the global
// deadline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/soak.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/core/smm.h"
#include "src/matrix/matrix.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/service/smm_service.h"

namespace {

using namespace smm;
namespace soak = bench::soak;
using Clock = std::chrono::steady_clock;
using service::Priority;
using service::ServiceOptions;
using service::SmmService;
using service::Ticket;

/// Submit latencies of requests refused at the door.
struct RejectSamples {
  std::atomic<std::size_t> count{0};
  std::atomic<long long> us_sum{0};
  std::atomic<long long> us_max{0};
};

/// One producer lane-pair: a submitter paced at its share of the offered
/// rate and a collector that waits each ticket in order and classifies
/// its terminal state.
struct Producer {
  std::mutex mu;
  std::deque<soak::Pending> pending;
  std::condition_variable cv;
  bool done_submitting = false;
};

void collect(Producer& p, soak::Totals& totals, long latency_slack_ms,
             const std::atomic<bool>& fault_window) {
  for (;;) {
    soak::Pending item;
    {
      std::unique_lock<std::mutex> lock(p.mu);
      p.cv.wait(lock,
                [&] { return !p.pending.empty() || p.done_submitting; });
      if (p.pending.empty()) return;
      item = p.pending.front();
      p.pending.pop_front();
    }
    soak::settle(item, totals, latency_slack_ms, &fault_window);
  }
}

// ---- legacy overload soak --------------------------------------------------

int run_legacy(int argc, char** argv) {
  const int seconds =
      std::stoi(bench::arg_value(argc, argv, "--seconds", "10"));
  const double overload =
      std::stod(bench::arg_value(argc, argv, "--overload", "4"));
  const long deadline_ms =
      std::stol(bench::arg_value(argc, argv, "--deadline-ms", "100"));
  const double goodput_frac =
      std::stod(bench::arg_value(argc, argv, "--goodput-frac", "0.9"));
  const long reject_us_cap =
      std::stol(bench::arg_value(argc, argv, "--reject-us", "2000"));
  const long slack_ms =
      std::stol(bench::arg_value(argc, argv, "--slack-ms", "300"));

  ServiceOptions options;
  // Legacy defaults: one shard, no coalescing — the PR 5 soak semantics.
  options.shards =
      std::stoi(bench::arg_value(argc, argv, "--shards", "1"));
  options.coalesce_depth = static_cast<std::size_t>(
      std::stoul(bench::arg_value(argc, argv, "--coalesce-depth", "1")));
  options.coalesce_window_us = std::stol(
      bench::arg_value(argc, argv, "--coalesce-window-us", "0"));
  options.lanes = 1;
  options.threads_per_request = 2;  // requests cross the worker pool
  options.queue_depth = 32;
  options.shed_low_watermark = 0.25;
  options.shed_high_watermark = 0.75;
  options.breaker.failure_threshold = 3;
  options.breaker.open_for = std::chrono::milliseconds(50);
  SmmService service(options);

  // Measure single-lane capacity with a synchronous submit/wait loop
  // (warm cache, same binary, same sanitizers as the soak itself).
  soak::Cube cube;
  const auto round_trip = [&] {
    service.submit(1.0, cube.a.cview(), cube.b.cview(), 0.0, cube.c.view())
        .wait();
  };
  for (int i = 0; i < 10; ++i) round_trip();
  const double unit_s = soak::sync_unit_s(3, 100, round_trip);
  const double capacity = 1.0 / unit_s;
  std::printf("calibration: %.1f us/request, capacity %.0f req/s\n",
              unit_s * 1e6, capacity);

  // Zero-deadlock gate: the whole soak (including drain) must finish well
  // before this global deadline or the monitor kills the process.
  const soak::DeadlineMonitor monitor(std::chrono::seconds(3 * seconds + 60),
                                      "soak");

  soak::Totals totals;
  RejectSamples rejects;
  std::atomic<bool> fault_window{false};
  constexpr int kProducers = 2;
  Producer producers[kProducers];
  std::vector<std::thread> threads;
  const auto t_end = Clock::now() + std::chrono::seconds(seconds);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kProducers / (overload * capacity)));

  for (int w = 0; w < kProducers; ++w) {
    Producer& p = producers[w];
    threads.emplace_back(
        [&] { collect(p, totals, slack_ms, fault_window); });
    threads.emplace_back([&] {
      // Each submitter owns a ring of C buffers; slot reuse waits on the
      // ticket that last wrote it, which also bounds outstanding work.
      constexpr int kRing = 64;
      std::vector<Matrix<double>> cs;
      Ticket ring[kRing];
      for (int i = 0; i < kRing; ++i)
        cs.emplace_back(soak::kCubeDim, soak::kCubeDim);
      std::uint64_t n = 0;
      auto next = Clock::now();
      while (Clock::now() < t_end) {
        const int slot = static_cast<int>(n % kRing);
        if (ring[slot].valid()) ring[slot].wait();
        // Priority mix: mostly normal, some low (shed fodder), some high.
        const Priority priority = (n % 8 == 0)   ? Priority::kLow
                                  : (n % 8 == 1) ? Priority::kHigh
                                                 : Priority::kNormal;
        // Every 64th request carries a 1 ms deadline: under a saturated
        // queue it expires while queued (the deadline-miss leg).
        const long dl = (n % 64 == 63) ? 1 : deadline_ms;
        const auto t0 = Clock::now();
        Ticket t = service.submit(1.0, cube.a.cview(), cube.b.cview(), 0.0,
                                  cs[slot].view(), priority, dl);
        const auto submit_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count();
        if (t.done() && !t.wait().ok &&
            t.wait().code == ErrorCode::kOverloaded) {
          rejects.count.fetch_add(1);
          rejects.us_sum.fetch_add(submit_us);
          long long seen = rejects.us_max.load();
          while (submit_us > seen &&
                 !rejects.us_max.compare_exchange_weak(seen, submit_us)) {
          }
        }
        if (n % 128 == 5) t.cancel();  // the cancellation leg
        ring[slot] = t;
        {
          std::lock_guard<std::mutex> lock(p.mu);
          p.pending.push_back({t, t0, dl, 0});
        }
        p.cv.notify_one();
        ++n;
        next += period;
        std::this_thread::sleep_until(next);
      }
      for (auto& t : ring)
        if (t.valid()) t.wait();
      {
        std::lock_guard<std::mutex> lock(p.mu);
        p.done_submitting = true;
      }
      p.cv.notify_one();
    });
  }

  // Mid-soak fault window: repeated worker throws trip the breaker; the
  // disarm lets the half-open probe recover it.
  std::this_thread::sleep_for(std::chrono::seconds(seconds / 2));
  fault_window.store(true);
  // Unbounded fires for a fixed 300 ms: every pop fails, so the shard's
  // breaker trips and STAYS open (a single success would re-close it
  // instantly) and its ledger quarantines the shard, evicting the
  // backlog. Arrivals then meet an empty queue — below every shed
  // watermark — and hit the open breaker directly, making the
  // breaker-rejection leg deterministic instead of a race against the
  // next success.
  robust::FaultInjector::instance().arm(
      robust::FaultSite::kWorkerThrow,
      robust::FaultSpec{/*fire_after=*/0, /*max_fires=*/1u << 20});
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  robust::FaultInjector::instance().disarm_all();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  fault_window.store(false);

  for (auto& t : threads) t.join();
  // The induced outage (300 ms of forced failures + 200 ms recovery) is
  // not capacity the service could have spent on goodput; exclude it.
  const double elapsed = seconds - 0.5;
  service.drain();
  const auto stats = service.stats();
  service.shutdown();

  const double goodput = static_cast<double>(totals.ok.load()) / elapsed;
  const double reject_us_mean =
      rejects.count.load() == 0
          ? 0.0
          : static_cast<double>(rejects.us_sum.load()) /
                static_cast<double>(rejects.count.load());
  const auto health = robust::health().snapshot();

  std::printf(
      "ok %zu refused %zu stopped %zu infra %zu unexpected %zu late %zu\n",
      totals.ok.load(), totals.refused.load(), totals.stopped.load(),
      totals.infra.load(), totals.unexpected.load(), totals.late.load());
  std::printf("goodput %.0f req/s (capacity %.0f, frac %.2f)\n", goodput,
              capacity, goodput / capacity);
  std::printf("reject latency: mean %.1f us, max %lld us (%zu samples)\n",
              reject_us_mean, rejects.us_max.load(), rejects.count.load());
  std::printf(
      "counters: shed %zu evicted %zu rejected %zu deadline_misses %zu "
      "cancellations %zu breaker_trips %zu breaker_rejections %zu\n",
      stats.shed, stats.evicted, stats.rejected, stats.deadline_misses,
      stats.cancellations, health.service_breaker_trips,
      stats.breaker_rejections);

  soak::Gates gates;
  gates.check(totals.unexpected.load() != 0, "unexpected exceptions");
  gates.check(totals.late.load() != 0,
              "admitted request terminal past 2x deadline");
  gates.check(goodput < goodput_frac * capacity, "goodput below threshold");
  gates.check(rejects.count.load() == 0, "no O(us) rejections sampled");
  gates.check(reject_us_mean > static_cast<double>(reject_us_cap),
              "rejection latency above cap");
  gates.check(stats.shed == 0, "shed counter stayed zero");
  gates.check(stats.rejected == 0, "rejected counter stayed zero");
  gates.check(stats.deadline_misses == 0,
              "deadline_misses counter stayed zero");
  gates.check(stats.cancellations == 0, "cancellations counter stayed zero");
  gates.check(health.service_breaker_trips == 0, "breaker never tripped");
  gates.check(stats.breaker_rejections == 0, "breaker never rejected");
  return gates.verdict("overload_soak");
}

// ---- shard/coalesce A-B bench ----------------------------------------------

struct TrialConfig {
  int shards = 4;
  std::size_t coalesce_depth = 1;
  long coalesce_window_us = 0;
  int threads_per_request = 1;
  long deadline_ms = 100;
  long slack_ms = 300;
  int seconds = 6;
  double offered = 0.0;  // requests/s across all producers
  double zipf_s = 1.1;
};

struct TrialResult {
  soak::Totals totals;
  SmmService::Stats stats;
  double goodput = 0.0;
};

ServiceOptions trial_options(const TrialConfig& cfg) {
  ServiceOptions options;
  options.shards = cfg.shards;
  options.lanes = 1;
  options.threads_per_request = cfg.threads_per_request;
  options.queue_depth = 128;
  options.coalesce_depth = cfg.coalesce_depth;
  options.coalesce_window_us = cfg.coalesce_window_us;
  return options;
}

void run_trial(const TrialConfig& cfg, const soak::ShapePool& pool,
               TrialResult& out) {
  SmmService service(trial_options(cfg));

  // Warm every shape's plan (and the coalescer's packed-B path) through
  // the service before the timed window.
  for (std::size_t s = 0; s < pool.size(); ++s) {
    Matrix<float> c(pool.dim(s), pool.dim(s));
    for (int i = 0; i < 3; ++i)
      service.submit(1.0f, pool.a(s), pool.b(s), 0.0f, c.view()).wait();
  }

  const auto t_end = Clock::now() + std::chrono::seconds(cfg.seconds);
  soak::Producers(service, pool, cfg.offered, cfg.deadline_ms, cfg.slack_ms,
                  out.totals,
                  {.stop = [t_end] { return Clock::now() >= t_end; }})
      .join();
  service.drain();
  out.stats = service.stats();
  service.shutdown();
  out.goodput = static_cast<double>(out.totals.ok.load()) /
                static_cast<double>(cfg.seconds);
}

/// Warm single-request core latency, the same metric as
/// BENCH_dispatch.json's "warm" rows (f32, cached plan, best-of-reps).
/// Mirrors ablate_dispatch's measurement, including a generous unmeasured
/// pre-warm: the dispatch bench runs a whole rebuild regime before its
/// warm loop, so without one the first measured reps here would also be
/// paying clock-up and predictor warmup the baseline never pays.
double warm_core_ns(index_t d, int iters, int reps) {
  Rng rng(42);
  Matrix<float> a(d, d), b(d, d), c(d, d);
  a.fill_random(rng);
  b.fill_random(rng);
  c.fill_random(rng);
  core::SmmOptions options;
  for (int i = 0; i < 200; ++i)
    core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view(), 1, options);
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i)
      core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view(), 1,
                     options);
    const double per =
        std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count() /
        iters;
    if (r == 0 || per < best) best = per;
  }
  return best;
}

int run_shard_bench(int argc, char** argv) {
  TrialConfig cfg;
  cfg.seconds = std::stoi(bench::arg_value(argc, argv, "--seconds", "6"));
  // Default overload 16x: the sync-round-trip calibration underestimates
  // pipelined service capacity by a machine-dependent factor, and the
  // A/B gain is only a capacity ratio when BOTH trials are offered more
  // than they can absorb. 16x pushes the pacing period below the submit
  // cost, so the producers run effectively open-throttle and the per-shape
  // rings (not the pacing clock) bound the load identically for A and B.
  const double overload =
      std::stod(bench::arg_value(argc, argv, "--overload", "16"));
  cfg.deadline_ms =
      std::stol(bench::arg_value(argc, argv, "--deadline-ms", "100"));
  // Zipf s=2: a few hot shapes dominate — the DNN-inference traffic
  // pattern the coalescer exists for (and the regime where Table II's
  // per-call overhead is worth amortizing).
  cfg.zipf_s = std::stod(bench::arg_value(argc, argv, "--zipf", "2.0"));
  cfg.shards = std::stoi(bench::arg_value(argc, argv, "--shards", "4"));
  cfg.threads_per_request = std::stoi(
      bench::arg_value(argc, argv, "--threads-per-request", "1"));
  cfg.slack_ms =
      std::stol(bench::arg_value(argc, argv, "--slack-ms", "300"));
  const std::size_t depth = static_cast<std::size_t>(
      std::stoul(bench::arg_value(argc, argv, "--coalesce-depth", "128")));
  const long window_us = std::stol(
      bench::arg_value(argc, argv, "--coalesce-window-us", "0"));
  const double gain =
      std::stod(bench::arg_value(argc, argv, "--coalesce-gain", "1.3"));
  const std::string json_path =
      bench::arg_value(argc, argv, "--json", "BENCH_shard.json");

  // The small-shape pool the Zipf distribution ranks over: f32 cubes in
  // the dispatch-dominated regime (Table II — per-call overhead rivals or
  // exceeds the arithmetic below ~32^3).
  const soak::ShapePool pool({8, 12, 16, 24, 32}, 4242, cfg.zipf_s);

  // Calibrate uncoalesced capacity: synchronous Zipf-mix submit/wait
  // round-trips against a trial-A-configured service.
  double capacity;
  {
    TrialConfig cal = cfg;
    cal.coalesce_depth = 1;
    cal.coalesce_window_us = 0;
    SmmService service(trial_options(cal));
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<Matrix<float>> cs = pool.outputs();
    for (int i = 0; i < 50; ++i)  // warm
      service.submit(1.0f, pool.a(0), pool.b(0), 0.0f, cs[0].view()).wait();
    const double unit_s = soak::sync_unit_s(1, 400, [&] {
      const std::size_t s = pool.pick(uni(rng));
      service.submit(1.0f, pool.a(s), pool.b(s), 0.0f, cs[s].view()).wait();
    });
    capacity = 1.0 / unit_s;
    service.shutdown();
    std::printf(
        "shard-bench calibration: %.1f us/request, capacity %.0f req/s\n",
        unit_s * 1e6, capacity);
  }
  cfg.offered = overload * capacity;

  // Zero-deadlock monitor across both trials.
  const soak::DeadlineMonitor monitor(
      std::chrono::seconds(6 * cfg.seconds + 120), "shard bench");

  // Interleaved A/B pairs, best-of-2 per config: the gain is a ratio of
  // two 6-second throughput measurements on a shared host, and a single
  // pair is exposed to frequency and load drift large enough to swamp
  // the effect. Interleaving decorrelates the drift; best-of picks each
  // config's undisturbed run (the same idiom as ns_per_call's
  // best-of-reps). The correctness gates (late, unexpected) apply to
  // EVERY run — a latency violation is never averaged away.
  TrialConfig cfg_a = cfg;
  cfg_a.coalesce_depth = 1;
  cfg_a.coalesce_window_us = 0;
  TrialConfig cfg_b = cfg;
  cfg_b.coalesce_depth = depth;
  cfg_b.coalesce_window_us = window_us;
  constexpr int kTrialReps = 2;
  TrialResult ra[kTrialReps], rb[kTrialReps];
  for (int r = 0; r < kTrialReps; ++r) {
    run_trial(cfg_a, pool, ra[r]);
    std::printf("trial A#%d (uncoalesced): ok %zu refused %zu stopped %zu "
                "late %zu goodput %.0f req/s steals %zu\n",
                r, ra[r].totals.ok.load(), ra[r].totals.refused.load(),
                ra[r].totals.stopped.load(), ra[r].totals.late.load(),
                ra[r].goodput, ra[r].stats.steals);
    run_trial(cfg_b, pool, rb[r]);
    std::printf("trial B#%d (coalesced d=%zu w=%ldus): ok %zu refused %zu "
                "stopped %zu late %zu goodput %.0f req/s groups %zu "
                "items %zu steals %zu\n",
                r, depth, window_us, rb[r].totals.ok.load(),
                rb[r].totals.refused.load(), rb[r].totals.stopped.load(),
                rb[r].totals.late.load(), rb[r].goodput,
                rb[r].stats.coalesced_groups, rb[r].stats.coalesced_items,
                rb[r].stats.steals);
  }
  const TrialResult& a = ra[ra[1].goodput > ra[0].goodput ? 1 : 0];
  const TrialResult& b = rb[rb[1].goodput > rb[0].goodput ? 1 : 0];

  // Warm single-request core latencies (BENCH_dispatch comparison rows).
  const index_t warm_dims[] = {8, 16, 32, 64};
  std::vector<double> warm_ns;
  for (const index_t d : warm_dims)
    warm_ns.push_back(warm_core_ns(d, /*iters=*/800, /*reps=*/5));

  const double measured_gain =
      a.goodput > 0.0 ? b.goodput / a.goodput : 0.0;
  {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"shard_soak\",\n";
    json << strprintf("  \"seconds\": %d, \"overload\": %.1f, "
                      "\"zipf\": %.2f, \"shards\": %d,\n",
                      cfg.seconds, overload, cfg.zipf_s, cfg.shards);
    json << strprintf("  \"coalesce_depth\": %zu, "
                      "\"coalesce_window_us\": %ld,\n",
                      depth, window_us);
    json << strprintf("  \"offered_per_s\": %.0f,\n", cfg.offered);
    json << strprintf("  \"goodput_runs\": {\"uncoalesced\": [%.1f, %.1f], "
                      "\"coalesced\": [%.1f, %.1f]},\n",
                      ra[0].goodput, ra[1].goodput, rb[0].goodput,
                      rb[1].goodput);
    json << strprintf(
        "  \"uncoalesced\": {\"ok\": %zu, \"refused\": %zu, "
        "\"stopped\": %zu, \"late\": %zu, \"goodput_per_s\": %.1f, "
        "\"steals\": %zu},\n",
        a.totals.ok.load(), a.totals.refused.load(),
        a.totals.stopped.load(), a.totals.late.load(), a.goodput,
        a.stats.steals);
    json << strprintf(
        "  \"coalesced\": {\"ok\": %zu, \"refused\": %zu, "
        "\"stopped\": %zu, \"late\": %zu, \"goodput_per_s\": %.1f, "
        "\"steals\": %zu, \"groups\": %zu, \"items\": %zu},\n",
        b.totals.ok.load(), b.totals.refused.load(),
        b.totals.stopped.load(), b.totals.late.load(), b.goodput,
        b.stats.steals, b.stats.coalesced_groups,
        b.stats.coalesced_items);
    json << strprintf("  \"coalesced_gain\": %.3f, \"gain_gate\": %.2f,\n",
                      measured_gain, gain);
    json << "  \"warm_single_ns\": [\n";
    for (std::size_t i = 0; i < warm_ns.size(); ++i)
      json << strprintf(
          "    {\"m\": %ld, \"n\": %ld, \"k\": %ld, \"threads\": 1, "
          "\"mode\": \"warm\", \"ns_per_call\": %.1f}%s\n",
          static_cast<long>(warm_dims[i]), static_cast<long>(warm_dims[i]),
          static_cast<long>(warm_dims[i]), warm_ns[i],
          i + 1 < warm_ns.size() ? "," : "");
    json << "  ]\n}\n";
  }
  std::printf("coalesced gain: %.2fx (gate %.2fx); BENCH written to %s\n",
              measured_gain, gain, json_path.c_str());

  soak::Gates gates;
  for (int r = 0; r < kTrialReps; ++r) {
    gates.check(ra[r].totals.unexpected.load() != 0,
                "trial A unexpected exceptions");
    gates.check(rb[r].totals.unexpected.load() != 0,
                "trial B unexpected exceptions");
    gates.check(ra[r].totals.late.load() != 0,
         "trial A terminal past 2x deadline (PR 5 guarantee)");
    gates.check(rb[r].totals.late.load() != 0,
         "trial B terminal past 2x deadline (PR 5 guarantee)");
    gates.check(rb[r].stats.coalesced_groups == 0,
                "trial B never coalesced a group");
  }
  gates.check(measured_gain < gain,
              "coalesced goodput below gain gate at equal offered load");
  return gates.verdict("shard_bench");
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::has_flag(argc, argv, "--shard-bench"))
    return run_shard_bench(argc, argv);
  return run_legacy(argc, argv);
}
