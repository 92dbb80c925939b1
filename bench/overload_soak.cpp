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
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/core/smm.h"
#include "src/matrix/matrix.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/service/smm_service.h"
#include "src/shard/shard.h"

namespace {

using namespace smm;
using Clock = std::chrono::steady_clock;
using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;
using service::Ticket;

constexpr index_t kDim = 64;  // one legacy request = 64^3 double GEMM

struct Totals {
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> refused{0};
  std::atomic<std::size_t> stopped{0};
  std::atomic<std::size_t> infra{0};       // kWorkerPanic in fault window
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> late{0};        // terminal past the latency cap
  std::atomic<std::size_t> reject_samples{0};
  std::atomic<long long> reject_us_sum{0};
  std::atomic<long long> reject_us_max{0};
  std::atomic<bool> fault_window{false};
};

struct Pending {
  Ticket ticket;
  Clock::time_point submitted;
  long deadline_ms = 0;
};

/// One producer lane-pair: a submitter paced at its share of the offered
/// rate and a collector that waits each ticket in order and classifies
/// its terminal state.
struct Producer {
  std::mutex mu;
  std::deque<Pending> pending;
  std::condition_variable cv;
  bool done_submitting = false;
};

void collect(Producer& p, Totals& totals, long latency_slack_ms) {
  for (;;) {
    Pending item;
    {
      std::unique_lock<std::mutex> lock(p.mu);
      p.cv.wait(lock,
                [&] { return !p.pending.empty() || p.done_submitting; });
      if (p.pending.empty()) return;
      item = p.pending.front();
      p.pending.pop_front();
    }
    const Result& r = item.ticket.wait();
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - item.submitted)
            .count();
    if (r.ok) {
      totals.ok.fetch_add(1);
    } else if (r.code == ErrorCode::kOverloaded ||
               r.code == ErrorCode::kShuttingDown) {
      totals.refused.fetch_add(1);
    } else if (r.code == ErrorCode::kCancelled ||
               r.code == ErrorCode::kDeadlineExceeded) {
      totals.stopped.fetch_add(1);
    } else if (r.code == ErrorCode::kWorkerPanic &&
               totals.fault_window.load(std::memory_order_relaxed)) {
      totals.infra.fetch_add(1);
    } else {
      totals.unexpected.fetch_add(1);
      std::fprintf(stderr, "unexpected terminal state: %s\n",
                   r.message.c_str());
    }
    // Refusals are terminal at submit; the latency cap applies to
    // admitted requests only.
    if (r.code != ErrorCode::kOverloaded &&
        r.code != ErrorCode::kShuttingDown &&
        waited_ms > 2 * item.deadline_ms + latency_slack_ms) {
      totals.late.fetch_add(1);
      std::fprintf(stderr, "late terminal: %lld ms (deadline %ld ms)\n",
                   static_cast<long long>(waited_ms), item.deadline_ms);
    }
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

  Rng rng(42);
  Matrix<double> a(kDim, kDim), b(kDim, kDim);
  a.fill_random(rng);
  b.fill_random(rng);

  // Measure single-lane capacity with a synchronous submit/wait loop
  // (warm cache, same binary, same sanitizers as the soak itself).
  Matrix<double> c0(kDim, kDim);
  for (int i = 0; i < 10; ++i)
    service.submit(1.0, a.cview(), b.cview(), 0.0, c0.view()).wait();
  // Median of three batches: a single batch is exposed to frequency and
  // cache jitter large enough (~±30%) to flip the goodput gate.
  constexpr int kCalRequests = 100;
  double units[3];
  for (double& unit : units) {
    const auto cal0 = Clock::now();
    for (int i = 0; i < kCalRequests; ++i)
      service.submit(1.0, a.cview(), b.cview(), 0.0, c0.view()).wait();
    unit = std::chrono::duration<double>(Clock::now() - cal0).count() /
           kCalRequests;
  }
  std::sort(std::begin(units), std::end(units));
  const double unit_s = units[1];
  const double capacity = 1.0 / unit_s;
  std::printf("calibration: %.1f us/request, capacity %.0f req/s\n",
              unit_s * 1e6, capacity);

  // Zero-deadlock gate: the whole soak (including drain) must finish well
  // before this global deadline or the monitor kills the process.
  std::atomic<bool> finished{false};
  std::thread monitor([&] {
    const auto deadline =
        Clock::now() + std::chrono::seconds(3 * seconds + 60);
    while (Clock::now() < deadline) {
      if (finished.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "GLOBAL DEADLINE: soak did not finish\n");
    std::_Exit(2);
  });

  Totals totals;
  constexpr int kProducers = 2;
  Producer producers[kProducers];
  std::vector<std::thread> threads;
  const auto t_end = Clock::now() + std::chrono::seconds(seconds);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kProducers / (overload * capacity)));

  for (int w = 0; w < kProducers; ++w) {
    Producer& p = producers[w];
    threads.emplace_back([&, w] { collect(p, totals, slack_ms); });
    threads.emplace_back([&, w] {
      // Each submitter owns a ring of C buffers; slot reuse waits on the
      // ticket that last wrote it, which also bounds outstanding work.
      constexpr int kRing = 64;
      std::vector<Matrix<double>> cs;
      Ticket ring[kRing];
      for (int i = 0; i < kRing; ++i) cs.emplace_back(kDim, kDim);
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
        Ticket t = service.submit(1.0, a.cview(), b.cview(), 0.0,
                                  cs[slot].view(), priority, dl);
        const auto submit_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count();
        if (t.done() && !t.wait().ok &&
            t.wait().code == ErrorCode::kOverloaded) {
          totals.reject_samples.fetch_add(1);
          totals.reject_us_sum.fetch_add(submit_us);
          long long seen = totals.reject_us_max.load();
          while (submit_us > seen &&
                 !totals.reject_us_max.compare_exchange_weak(seen,
                                                             submit_us)) {
          }
        }
        if (n % 128 == 5) t.cancel();  // the cancellation leg
        ring[slot] = t;
        {
          std::lock_guard<std::mutex> lock(p.mu);
          p.pending.push_back({t, t0, dl});
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
  totals.fault_window.store(true);
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
  totals.fault_window.store(false);

  for (auto& t : threads) t.join();
  // The induced outage (300 ms of forced failures + 200 ms recovery) is
  // not capacity the service could have spent on goodput; exclude it.
  const double elapsed = seconds - 0.5;
  service.drain();
  const auto stats = service.stats();
  service.shutdown();
  finished.store(true);
  monitor.join();

  const double goodput = static_cast<double>(totals.ok.load()) / elapsed;
  const double reject_us_mean =
      totals.reject_samples.load() == 0
          ? 0.0
          : static_cast<double>(totals.reject_us_sum.load()) /
                static_cast<double>(totals.reject_samples.load());
  const auto health = robust::health().snapshot();

  std::printf(
      "ok %zu refused %zu stopped %zu infra %zu unexpected %zu late %zu\n",
      totals.ok.load(), totals.refused.load(), totals.stopped.load(),
      totals.infra.load(), totals.unexpected.load(), totals.late.load());
  std::printf("goodput %.0f req/s (capacity %.0f, frac %.2f)\n", goodput,
              capacity, goodput / capacity);
  std::printf("reject latency: mean %.1f us, max %lld us (%zu samples)\n",
              reject_us_mean, totals.reject_us_max.load(),
              totals.reject_samples.load());
  std::printf(
      "counters: shed %zu evicted %zu rejected %zu deadline_misses %zu "
      "cancellations %zu breaker_trips %zu breaker_rejections %zu\n",
      stats.shed, stats.evicted, stats.rejected, stats.deadline_misses,
      stats.cancellations, health.service_breaker_trips,
      stats.breaker_rejections);

  bool failed = false;
  const auto gate = [&](bool bad, const char* what) {
    if (!bad) return;
    std::fprintf(stderr, "GATE FAILED: %s\n", what);
    failed = true;
  };
  gate(totals.unexpected.load() != 0, "unexpected exceptions");
  gate(totals.late.load() != 0, "admitted request terminal past 2x deadline");
  gate(goodput < goodput_frac * capacity, "goodput below threshold");
  gate(totals.reject_samples.load() == 0, "no O(us) rejections sampled");
  gate(reject_us_mean > static_cast<double>(reject_us_cap),
       "rejection latency above cap");
  gate(stats.shed == 0, "shed counter stayed zero");
  gate(stats.rejected == 0, "rejected counter stayed zero");
  gate(stats.deadline_misses == 0, "deadline_misses counter stayed zero");
  gate(stats.cancellations == 0, "cancellations counter stayed zero");
  gate(health.service_breaker_trips == 0, "breaker never tripped");
  gate(stats.breaker_rejections == 0, "breaker never rejected");
  std::printf("overload_soak: %s\n", failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

// ---- shard/coalesce A-B bench ----------------------------------------------

/// The small-shape pool the Zipf distribution ranks over: f32 cubes in
/// the dispatch-dominated regime (Table II — per-call overhead rivals or
/// exceeds the arithmetic below ~32^3).
constexpr index_t kPoolDims[] = {8, 12, 16, 24, 32};
constexpr std::size_t kPoolSize = sizeof(kPoolDims) / sizeof(kPoolDims[0]);

struct ShapeSet {
  // One shared A and B per shape: every request for a shape presents
  // literally the same B view, so coalesced groups hit the pack-once
  // fast path exactly as a DNN inference batch would.
  std::vector<Matrix<float>> as;
  std::vector<Matrix<float>> bs;
  ShapeSet() {
    Rng rng(4242);
    for (const index_t d : kPoolDims) {
      as.emplace_back(d, d);
      bs.emplace_back(d, d);
      as.back().fill_random(rng);
      bs.back().fill_random(rng);
    }
  }
};

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
  Totals totals;
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

/// Zipf CDF over shape ranks: weight(rank i, 1-based) = 1 / i^s.
std::vector<double> zipf_cdf(double s) {
  std::vector<double> cdf(kPoolSize);
  double total = 0.0;
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf[i] = total;
  }
  for (auto& v : cdf) v /= total;
  return cdf;
}

/// Wait a ticket and classify its terminal state into the totals.
/// `waited_ms` is measured at classification time, an upper bound on the
/// per-request terminal latency (done tickets are classified promptly by
/// the producer's poll sweep, so the bound stays tight).
void classify(const Pending& item, Totals& totals, long slack_ms) {
  const Result& r = item.ticket.wait();
  const auto waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            item.submitted)
          .count();
  if (r.ok) {
    totals.ok.fetch_add(1);
  } else if (r.code == ErrorCode::kOverloaded ||
             r.code == ErrorCode::kShuttingDown) {
    totals.refused.fetch_add(1);
  } else if (r.code == ErrorCode::kCancelled ||
             r.code == ErrorCode::kDeadlineExceeded) {
    totals.stopped.fetch_add(1);
  } else {
    totals.unexpected.fetch_add(1);
    std::fprintf(stderr, "unexpected terminal state: %s\n",
                 r.message.c_str());
  }
  if (r.code != ErrorCode::kOverloaded &&
      r.code != ErrorCode::kShuttingDown &&
      waited_ms > 2 * item.deadline_ms + slack_ms) {
    totals.late.fetch_add(1);
    std::fprintf(stderr, "late terminal: %lld ms (deadline %ld ms)\n",
                 static_cast<long long>(waited_ms), item.deadline_ms);
  }
}

void run_trial(const TrialConfig& cfg, ShapeSet& shapes,
               TrialResult& out) {
  SmmService service(trial_options(cfg));
  const std::vector<double> cdf = zipf_cdf(cfg.zipf_s);

  // Warm every shape's plan (and the coalescer's packed-B path) through
  // the service before the timed window.
  for (std::size_t s = 0; s < kPoolSize; ++s) {
    Matrix<float> c(kPoolDims[s], kPoolDims[s]);
    for (int i = 0; i < 3; ++i)
      service
          .submit(1.0f, shapes.as[s].cview(), shapes.bs[s].cview(), 0.0f,
                  c.view())
          .wait();
  }

  // Producers classify their own tickets with a nonblocking poll sweep
  // each iteration instead of handing them to a blocking collector
  // thread: a per-ticket futex ping-pong would dominate the request cost
  // on a saturated machine and mask the dispatch overhead this bench
  // exists to measure.
  constexpr int kProducers = 2;
  std::vector<std::thread> threads;
  const auto t_end = Clock::now() + std::chrono::seconds(cfg.seconds);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kProducers / cfg.offered));

  for (int w = 0; w < kProducers; ++w) {
    threads.emplace_back([&, w] {
      // Per-shape C rings: slot reuse waits on the ticket that last
      // wrote the slot, bounding outstanding work without ever letting
      // two in-flight requests share an output (which the coalescer's
      // conflict sweep would refuse to group anyway).
      constexpr int kRing = 32;
      std::vector<std::vector<Matrix<float>>> cs(kPoolSize);
      std::vector<std::vector<Ticket>> rings(kPoolSize);
      std::vector<std::size_t> nshape(kPoolSize, 0);
      for (std::size_t s = 0; s < kPoolSize; ++s) {
        rings[s].resize(kRing);
        for (int i = 0; i < kRing; ++i)
          cs[s].emplace_back(kPoolDims[s], kPoolDims[s]);
      }
      std::deque<Pending> pending;
      std::mt19937 rng(1000u + static_cast<unsigned>(w));
      std::uniform_real_distribution<double> uni(0.0, 1.0);
      auto next = Clock::now();
      while (Clock::now() < t_end) {
        const double u = uni(rng);
        std::size_t s = 0;
        while (s + 1 < kPoolSize && u > cdf[s]) ++s;
        const std::size_t slot = nshape[s] % kRing;
        if (rings[s][slot].valid()) rings[s][slot].wait();
        const auto t0 = Clock::now();
        Ticket t = service.submit(1.0f, shapes.as[s].cview(),
                                  shapes.bs[s].cview(), 0.0f,
                                  cs[s][slot].view(), Priority::kNormal,
                                  cfg.deadline_ms);
        rings[s][slot] = t;
        ++nshape[s];
        pending.push_back({t, t0, cfg.deadline_ms});
        while (!pending.empty() && pending.front().ticket.done()) {
          classify(pending.front(), out.totals, cfg.slack_ms);
          pending.pop_front();
        }
        next += period;
        // Pacing: only sleep when ahead of schedule — sleep_until on a
        // past deadline still costs a syscall, which at these request
        // rates would itself become the bottleneck.
        if (Clock::now() < next) std::this_thread::sleep_until(next);
      }
      // Drain in submit order: the front is the oldest outstanding
      // ticket, so each wait() below measures a latency close to the
      // actual terminal time.
      while (!pending.empty()) {
        classify(pending.front(), out.totals, cfg.slack_ms);
        pending.pop_front();
      }
    });
  }
  for (auto& t : threads) t.join();
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

  ShapeSet shapes;

  // Calibrate uncoalesced capacity: synchronous Zipf-mix submit/wait
  // round-trips against a trial-A-configured service.
  double capacity;
  {
    TrialConfig cal = cfg;
    cal.coalesce_depth = 1;
    cal.coalesce_window_us = 0;
    SmmService service(trial_options(cal));
    const std::vector<double> cdf = zipf_cdf(cfg.zipf_s);
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::vector<Matrix<float>> cs;
    for (const index_t d : kPoolDims) cs.emplace_back(d, d);
    for (int i = 0; i < 50; ++i)  // warm
      service
          .submit(1.0f, shapes.as[0].cview(), shapes.bs[0].cview(), 0.0f,
                  cs[0].view())
          .wait();
    constexpr int kCal = 400;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCal; ++i) {
      const double u = uni(rng);
      std::size_t s = 0;
      while (s + 1 < kPoolSize && u > cdf[s]) ++s;
      service
          .submit(1.0f, shapes.as[s].cview(), shapes.bs[s].cview(), 0.0f,
                  cs[s].view())
          .wait();
    }
    const double unit_s =
        std::chrono::duration<double>(Clock::now() - t0).count() / kCal;
    capacity = 1.0 / unit_s;
    service.shutdown();
    std::printf(
        "shard-bench calibration: %.1f us/request, capacity %.0f req/s\n",
        unit_s * 1e6, capacity);
  }
  cfg.offered = overload * capacity;

  // Zero-deadlock monitor across both trials.
  std::atomic<bool> finished{false};
  std::thread monitor([&] {
    const auto deadline =
        Clock::now() + std::chrono::seconds(6 * cfg.seconds + 120);
    while (Clock::now() < deadline) {
      if (finished.load()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "GLOBAL DEADLINE: shard bench did not finish\n");
    std::_Exit(2);
  });

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
    run_trial(cfg_a, shapes, ra[r]);
    std::printf("trial A#%d (uncoalesced): ok %zu refused %zu stopped %zu "
                "late %zu goodput %.0f req/s steals %zu\n",
                r, ra[r].totals.ok.load(), ra[r].totals.refused.load(),
                ra[r].totals.stopped.load(), ra[r].totals.late.load(),
                ra[r].goodput, ra[r].stats.steals);
    run_trial(cfg_b, shapes, rb[r]);
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

  finished.store(true);
  monitor.join();

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

  bool failed = false;
  const auto gate = [&](bool bad, const char* what) {
    if (!bad) return;
    std::fprintf(stderr, "GATE FAILED: %s\n", what);
    failed = true;
  };
  for (int r = 0; r < kTrialReps; ++r) {
    gate(ra[r].totals.unexpected.load() != 0,
         "trial A unexpected exceptions");
    gate(rb[r].totals.unexpected.load() != 0,
         "trial B unexpected exceptions");
    gate(ra[r].totals.late.load() != 0,
         "trial A terminal past 2x deadline (PR 5 guarantee)");
    gate(rb[r].totals.late.load() != 0,
         "trial B terminal past 2x deadline (PR 5 guarantee)");
    gate(rb[r].stats.coalesced_groups == 0,
         "trial B never coalesced a group");
  }
  gate(measured_gain < gain,
       "coalesced goodput below gain gate at equal offered load");
  std::printf("shard_bench: %s\n", failed ? "FAIL" : "PASS");
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::has_flag(argc, argv, "--shard-bench"))
    return run_shard_bench(argc, argv);
  return run_legacy(argc, argv);
}
