// Retry-storm soak (DESIGN.md §16, acceptance harness). Two modes:
//
// 1. A/B storm soak (default): the same open-loop traffic schedule is
//    played twice against fresh two-shard services — once through a
//    NAIVE retry loop (immediate resubmission on any failure, the full
//    deadline restarted every attempt, no budget, no backoff), once
//    through smm::resilient::ResilientClient (classified retries,
//    decorrelated-jitter backoff, deadline pricing, a 10% token-bucket
//    retry budget, and the AIMD concurrency limiter). The schedule is
//    warm | steady (clean baseline) | a 30 ms quarantine blip (absorbed
//    by backoff retries; uncounted settle window) | the fault window —
//    one of two shards quarantined AND a ~20% injected worker-panic
//    rate on the survivor, halving capacity under load that needs more
//    than half while feeding the kRetryable (no-backoff) retry path |
//    recover (the gated window).
//
//    Traffic is open-loop on purpose: a paced generator deposits
//    arrivals into a bounded buffer and a fixed caller pool drains it.
//    Goodput is TIMELY completions — calls that return ok within their
//    original deadline of the ARRIVAL instant (late success is not
//    goodput; that is the metastability metric from the retry-storm
//    literature). Gates:
//      - budgeted recovery: post-fault goodput >= --goodput-frac
//        (default 0.9) x the steady-state phase. The budget bounds
//        amplification to (1 + fraction) x fresh load, below capacity,
//        so the storm cannot sustain itself once the fault clears;
//      - naive non-recovery: the SAME schedule through the naive loop
//        must stay BELOW that bar post-fault — deadline-restarting
//        retries keep callers pinned to doomed work and the backlog
//        serves late long after the fault cleared. A naive client that
//        recovered would mean the harness proved nothing;
//      - amplification: budgeted attempts/call <= 1 + budget + 0.05
//        over the whole run; naive attempts/call >= 1.5 — the storm
//        actually formed, and the budget actually bounded it;
//      - zero lost calls (every arrival is classified or counted as
//        client-shed), zero unexpected terminal codes, and zero
//        overlong budgeted calls: every ResilientClient::execute
//        returns within deadline + slack, success or failure — the
//        "never finish late" contract;
//      - every §16 health counter nonzero on the budgeted run:
//        retry_attempts, retry_successes, retry_budget_exhausted,
//        limiter_dips — a mechanism that never fired was not soaked.
//
//   retry_storm_soak [--seconds 8] [--load-frac 0.60]
//                    [--fault-load-frac 0.90] [--deadline-ms 3]
//                    [--goodput-frac 0.9] [--naive-attempts 64]
//                    [--budget-frac 0.1] [--callers 64] [--buffer 32768]
//                    [--slack-ms 500] [--min-rescues 1]
//                    [--json BENCH_retry.json]
//
// 2. Perf smoke (--perf-check): the resilience layer must be free when
//    nothing fails. Interleaved best-of-3 synchronous throughput on a
//    fault-free shards=1 service, ResilientClient::execute (A) vs raw
//    submit+wait (B), gating A >= --perf-ratio (default 0.95) x B.
//
//   retry_storm_soak --perf-check [--perf-reps 3] [--perf-requests 400]
//                    [--perf-ratio 0.95] [--json BENCH_retry.json]
//
// Exit 0 on a clean soak, 1 on a violated gate, 2 on the global
// deadline (the zero-deadlock monitor).
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
#include "src/common/str.h"
#include "src/matrix/matrix.h"
#include "src/resilient/resilient.h"
#include "src/robust/fault_injection.h"
#include "src/robust/health.h"
#include "src/service/smm_service.h"

namespace {

using namespace smm;
namespace soak = bench::soak;
using Clock = std::chrono::steady_clock;
using service::Priority;
using service::Result;
using service::ServiceOptions;
using service::SmmService;

// ---- phases ----------------------------------------------------------------

enum Phase : int {
  kWarm = 0,     // uncounted ramp
  kSteady = 1,   // no faults: the goodput baseline
  kBlip = 2,     // 30 ms quarantine blip + settle (uncounted: a naive
                 // caller can already be storming here, and the baseline
                 // must be measured before any fault at all)
  kFault = 3,    // shard 0 quarantined + injected worker panics
  kRecover = 4,  // fault cleared: the gated window
  kDrain = 5,    // uncounted tail
  kNumPhases = 6,
};

// ---- per-mode accounting ---------------------------------------------------

struct ModeTotals {
  std::atomic<std::size_t> arrivals{0};
  std::atomic<std::size_t> shed{0};       // buffer full: client-side shed
  std::atomic<std::size_t> calls{0};      // calls actually executed
  std::atomic<std::size_t> attempts{0};   // submissions incl. retries
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> ok_late{0};    // ok past arrival+deadline+slack
  std::atomic<std::size_t> failed{0};
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> overlong{0};   // call ran past deadline+slack
  std::atomic<std::size_t> timely_by_phase[kNumPhases] = {};
  std::atomic<std::size_t> arrivals_by_phase[kNumPhases] = {};
  std::atomic<std::size_t> ok_by_phase[kNumPhases] = {};
  std::atomic<std::size_t> failed_by_phase[kNumPhases] = {};
};

struct ModeResult {
  std::string name;
  double goodput_steady = 0.0;
  double goodput_recover = 0.0;
  double ratio = 0.0;
  double amplification = 0.0;
  std::size_t arrivals = 0, shed = 0, calls = 0, attempts = 0;
  std::size_t ok = 0, ok_late = 0, failed = 0, unexpected = 0, overlong = 0;
  std::size_t lost = 0;
};

// ---- open-loop arrival buffer ----------------------------------------------

struct Arrival {
  Clock::time_point at;
  int phase = kWarm;
  std::size_t shape = 0;
};

/// Bounded FIFO between the paced generator and the caller pool. A full
/// buffer sheds the arrival (counted) — the open-loop world does not
/// stop offering work just because the client is drowning.
class ArrivalBuffer {
 public:
  explicit ArrivalBuffer(std::size_t cap) : cap_(cap) {}

  bool push(const Arrival& a) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || q_.size() >= cap_) return false;
    q_.push_back(a);
    cv_.notify_one();
    return true;
  }
  bool pop(Arrival& out) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !q_.empty(); });
    if (q_.empty()) return false;
    out = q_.front();
    q_.pop_front();
    return true;
  }
  void close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    cv_.notify_all();
  }
  std::size_t drop_all() {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = q_.size();
    q_.clear();
    return n;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Arrival> q_;
  std::size_t cap_;
  bool closed_ = false;
};

// ---- the two clients under test --------------------------------------------

struct CallOutcome {
  Result result;
  std::size_t attempts = 0;
};

/// The anti-pattern under indictment: resubmit on ANY failure, restart
/// the FULL deadline every time, no budget, no backoff, no
/// classification. Each attempt is priced as if the call just arrived.
CallOutcome naive_call(SmmService& svc, ConstMatrixView<float> a,
                       ConstMatrixView<float> b, MatrixView<float> c,
                       long deadline_ms, int max_attempts) {
  CallOutcome out;
  for (int i = 0; i < max_attempts; ++i) {
    ++out.attempts;
    out.result = svc.submit(1.0f, a, b, 0.0f, c, Priority::kNormal,
                            deadline_ms)
                     .wait();
    if (out.result.ok) return out;
  }
  return out;
}

bool expected_code(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOverloaded:
    case ErrorCode::kDeadlineExceeded:
    case ErrorCode::kCancelled:
    case ErrorCode::kShuttingDown:
    case ErrorCode::kRetryBudgetExhausted:
    case ErrorCode::kWorkerPanic:  // injected during the fault phase; a
                                   // call can exhaust its attempts on one
      return true;
    default:
      return false;
  }
}

// ---- one mode run ----------------------------------------------------------

struct SoakConfig {
  int seconds = 8;
  // Baseline demand, comfortably under measured capacity: the steady
  // window must be clean even when the closed-loop probe overestimates
  // what the open loop can sustain (a naive retrier amplifies even
  // transient steady overload into a spontaneous storm).
  double load_frac = 0.60;
  // Demand from fault onset onward (fault + recover). Deliberately
  // higher: ~1.5x the surviving shard's capacity, so doomed in-queue
  // work pins naive callers and builds a backlog too deep to burn off
  // inside the recover window — while still below TOTAL capacity, so a
  // bounded-amplification client provably recovers under the very same
  // elevated demand.
  double fault_load_frac = 0.90;
  long deadline_ms = 3;
  double goodput_frac = 0.9;
  int naive_attempts = 64;
  double budget_frac = 0.1;
  int callers = 64;
  std::size_t buffer_cap = 32768;
  long slack_ms = 500;
  long timely_slack_ms = 50;
  double offered_per_s = 0.0;
  double offered_fault_per_s = 0.0;
  // Tuned against the caller count and deadline so the fault produces
  // BOTH failure flavours: depth < callers means the pile-up on the
  // surviving shard overflows the queue (kOverloaded refusals feed the
  // retry/budget/limiter machinery), while depth x unit cost > deadline
  // means accepted work dies slowly in-queue — the failure mode a
  // deadline-restarting naive retrier amplifies into caller pinning.
  std::size_t queue_depth = 40;
  double phase_secs[kNumPhases] = {};
};

/// The storm topology, shared by the capacity probe and both mode runs.
ServiceOptions storm_options(const SoakConfig& cfg) {
  ServiceOptions options;
  options.shards = 2;
  options.lanes = 1;
  options.threads_per_request = 1;
  options.queue_depth = cfg.queue_depth;
  options.coalesce_depth = 1;  // coalescing would mask the capacity dip
  options.coalesce_window_us = 0;
  return options;
}

ModeResult run_mode(bool budgeted, const SoakConfig& cfg,
                    const soak::ShapePool& pool) {
  SmmService service(storm_options(cfg));

  resilient::RetryBudget budget(8.0);
  resilient::ResilientOptions ropts;
  ropts.retry_budget_fraction = cfg.budget_frac;
  // A small cap keeps the reserve shallow: the refusal burst at fault
  // onset must provably drain it (kRetryBudgetExhausted fires) instead
  // of coasting on tokens banked during the long healthy phase.
  ropts.retry_budget_cap = 8.0;
  ropts.max_attempts = 4;
  ropts.backoff_base_us = 200;
  ropts.backoff_cap_us = 20000;
  // Start the AIMD window above the service queue depth so overload is
  // discovered from kOverloaded refusals (exercising retry + backoff +
  // budget) rather than silently absorbed by a tiny client-side cap.
  ropts.max_concurrency = 2 * cfg.callers;
  resilient::ResilientClient client(service, ropts, &budget);

  ModeTotals totals;
  ArrivalBuffer buffer(cfg.buffer_cap);
  std::atomic<int> phase{kWarm};

  // Caller pool: each worker owns one C per shape (calls are
  // synchronous, so a worker never has two requests sharing an output).
  std::vector<std::thread> callers;
  for (int w = 0; w < cfg.callers; ++w) {
    callers.emplace_back([&, w] {
      (void)w;
      std::vector<Matrix<float>> cs = pool.outputs();
      Arrival item;
      while (buffer.pop(item)) {
        totals.calls.fetch_add(1);
        const auto started = Clock::now();
        CallOutcome out;
        if (budgeted) {
          out.result = client.execute(
              1.0f, pool.a(item.shape), pool.b(item.shape), 0.0f,
              cs[item.shape].view(), Priority::kNormal, cfg.deadline_ms);
          out.attempts = 1;  // retries are accounted from client.stats()
        } else {
          out = naive_call(service, pool.a(item.shape), pool.b(item.shape),
                           cs[item.shape].view(), cfg.deadline_ms,
                           cfg.naive_attempts);
          totals.attempts.fetch_add(out.attempts);
        }
        const auto now = Clock::now();
        const auto call_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                  started)
                .count();
        const auto since_arrival_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                  item.at)
                .count();
        if (call_ms > cfg.deadline_ms + cfg.slack_ms)
          totals.overlong.fetch_add(1);
        if (out.result.ok) {
          totals.ok.fetch_add(1);
          totals.ok_by_phase[item.phase].fetch_add(1);
          if (since_arrival_ms <= cfg.deadline_ms + cfg.timely_slack_ms)
            totals.timely_by_phase[item.phase].fetch_add(1);
          else
            totals.ok_late.fetch_add(1);
        } else {
          totals.failed.fetch_add(1);
          totals.failed_by_phase[item.phase].fetch_add(1);
          if (!expected_code(out.result.code)) {
            totals.unexpected.fetch_add(1);
            std::fprintf(stderr, "[%s] unexpected terminal: %s\n",
                         budgeted ? "budgeted" : "naive",
                         out.result.message.c_str());
          }
        }
      }
    });
  }

  // Paced open-loop generator: ticks every 2 ms, deposits the arrivals
  // the schedule owes. A full buffer sheds (the drowning-client signal).
  std::atomic<bool> stop_traffic{false};
  std::thread generator([&] {
    std::mt19937 rng(budgeted ? 11u : 22u);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    const auto start = Clock::now();
    double owed = 0.0;
    auto last = start;
    while (!stop_traffic.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      const auto now = Clock::now();
      const int p = phase.load(std::memory_order_relaxed);
      // Demand steps UP at fault onset and stays up through recover:
      // the A/B question is precisely whether a client survives a
      // capacity dip coinciding with a demand spike without melting.
      owed += (p >= kFault ? cfg.offered_fault_per_s : cfg.offered_per_s) *
              std::chrono::duration<double>(now - last).count();
      last = now;
      while (owed >= 1.0) {
        owed -= 1.0;
        const std::size_t s = pool.pick(uni(rng));
        totals.arrivals.fetch_add(1);
        totals.arrivals_by_phase[p].fetch_add(1);
        if (!buffer.push({now, p, s})) totals.shed.fetch_add(1);
      }
    }
  });

  // During the fault phase the surviving shard also develops a worker
  // fault: re-arming {fire_after, max_fires} every ~2 ms turns the
  // deterministic one-shot injector into an approximately steady ~20%
  // kWorkerPanic rate. Panics are the kRetryable flavour — retried
  // immediately, without backoff and without dipping the AIMD window —
  // so sustained panic traffic above the 10% mint rate provably drains
  // the retry bucket (kRetryBudgetExhausted must fire on the budgeted
  // run; a naive caller just resubmits panics with a fresh deadline).
  std::atomic<bool> stop_panics{false};
  std::thread panic_injector([&] {
    bool armed = false;
    while (!stop_panics.load(std::memory_order_relaxed)) {
      if (phase.load(std::memory_order_relaxed) == kFault) {
        robust::FaultInjector::instance().arm(
            robust::FaultSite::kWorkerThrow, {12, 8});
        armed = true;
      } else if (armed) {
        robust::FaultInjector::instance().disarm_all();
        armed = false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    robust::FaultInjector::instance().disarm_all();
  });

  // ---- schedule: warm | steady | blip | fault (shard 0 out) | recover ----
  const auto sleep_phase = [&](int p, double secs) {
    phase.store(p, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double>(secs));
  };
  sleep_phase(kWarm, cfg.phase_secs[kWarm]);
  // The clean baseline window: no fault has ever happened yet.
  sleep_phase(kSteady, cfg.phase_secs[kSteady]);
  // One 30 ms quarantine blip, then a settle window, all labeled kBlip
  // (uncounted): a transient the retry layer must absorb — refusals
  // during the blip are rescued by a backoff retry, so retry_successes
  // provably fires on the budgeted run — but a naive caller may already
  // be storming from here on, so none of it pollutes the baseline.
  phase.store(kBlip, std::memory_order_relaxed);
  service.quarantine_shard(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  service.revive_shard(0);
  std::this_thread::sleep_for(std::chrono::duration<double>(
      std::max(0.0, cfg.phase_secs[kBlip] - 0.030)));
  phase.store(kFault, std::memory_order_relaxed);
  service.quarantine_shard(0);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(cfg.phase_secs[kFault]));
  service.revive_shard(0);
  sleep_phase(kRecover, cfg.phase_secs[kRecover]);
  phase.store(kDrain, std::memory_order_relaxed);

  stop_traffic.store(true);
  generator.join();
  stop_panics.store(true);
  panic_injector.join();
  // Unserved arrivals at close are shed like any buffer-full arrival.
  totals.shed.fetch_add(buffer.drop_all());
  buffer.close();
  for (auto& t : callers) t.join();
  service.drain();
  service.shutdown();

  ModeResult r;
  r.name = budgeted ? "budgeted" : "naive";
  r.arrivals = totals.arrivals.load();
  r.shed = totals.shed.load();
  r.calls = totals.calls.load();
  r.attempts = budgeted ? totals.calls.load() + client.stats().retries
                        : totals.attempts.load();
  r.ok = totals.ok.load();
  r.ok_late = totals.ok_late.load();
  r.failed = totals.failed.load();
  r.unexpected = totals.unexpected.load();
  r.overlong = totals.overlong.load();
  r.lost = r.arrivals - r.shed - r.calls;
  r.goodput_steady =
      static_cast<double>(totals.timely_by_phase[kSteady].load()) /
      cfg.phase_secs[kSteady];
  r.goodput_recover =
      static_cast<double>(totals.timely_by_phase[kRecover].load()) /
      cfg.phase_secs[kRecover];
  r.ratio = r.goodput_steady > 0.0 ? r.goodput_recover / r.goodput_steady
                                   : 0.0;
  r.amplification =
      r.calls > 0 ? static_cast<double>(r.attempts) /
                        static_cast<double>(r.calls)
                  : 0.0;
  std::printf(
      "%s: steady %.0f/s recover %.0f/s ratio %.3f | amplification %.2f "
      "(%zu attempts / %zu calls) | ok %zu ok_late %zu failed %zu shed "
      "%zu lost %zu unexpected %zu overlong %zu\n",
      r.name.c_str(), r.goodput_steady, r.goodput_recover, r.ratio,
      r.amplification, r.attempts, r.calls, r.ok, r.ok_late, r.failed,
      r.shed, r.lost, r.unexpected, r.overlong);
  {
    static const char* kPhaseNames[kNumPhases] = {"warm",  "steady", "blip",
                                                  "fault", "recover", "drain"};
    std::printf("  per-phase arrivals/ok/timely/failed:");
    for (int p = 0; p < kNumPhases; ++p)
      std::printf(" %s %zu/%zu/%zu/%zu", kPhaseNames[p],
                  totals.arrivals_by_phase[p].load(),
                  totals.ok_by_phase[p].load(),
                  totals.timely_by_phase[p].load(),
                  totals.failed_by_phase[p].load());
    std::printf("\n");
  }
  if (budgeted) {
    const auto s = client.stats();
    std::printf("  budgeted client: retries %zu rescued %zu "
                "budget_exhausted %zu deadline_gated %zu "
                "limiter_timeouts %zu limit_now %d\n",
                s.retries, s.retry_successes, s.budget_exhausted,
                s.deadline_gated, s.limiter_timeouts,
                client.limiter().limit());
  }
  return r;
}

// ---- A/B storm soak --------------------------------------------------------

int run_soak(int argc, char** argv) {
  SoakConfig cfg;
  cfg.seconds = std::stoi(bench::arg_value(argc, argv, "--seconds", "8"));
  cfg.load_frac =
      std::stod(bench::arg_value(argc, argv, "--load-frac", "0.60"));
  cfg.fault_load_frac =
      std::stod(bench::arg_value(argc, argv, "--fault-load-frac", "0.90"));
  cfg.deadline_ms =
      std::stol(bench::arg_value(argc, argv, "--deadline-ms", "3"));
  cfg.goodput_frac =
      std::stod(bench::arg_value(argc, argv, "--goodput-frac", "0.9"));
  cfg.naive_attempts =
      std::stoi(bench::arg_value(argc, argv, "--naive-attempts", "64"));
  cfg.budget_frac =
      std::stod(bench::arg_value(argc, argv, "--budget-frac", "0.1"));
  cfg.callers = std::stoi(bench::arg_value(argc, argv, "--callers", "64"));
  cfg.buffer_cap = static_cast<std::size_t>(
      std::stoul(bench::arg_value(argc, argv, "--buffer", "32768")));
  cfg.slack_ms =
      std::stol(bench::arg_value(argc, argv, "--slack-ms", "500"));
  // Rescue floor for the retry_successes gate. A rescue needs a retry to
  // land INSIDE the original deadline; sanitizer builds inflate per-call
  // cost ~10x, so CI's ASan leg runs --min-rescues 0 (attempts, budget
  // drains, and dips are still required nonzero there) while the
  // uninstrumented leg keeps the default 1.
  const std::size_t min_rescues = static_cast<std::size_t>(
      std::stoul(bench::arg_value(argc, argv, "--min-rescues", "1")));
  const std::string json_path =
      bench::arg_value(argc, argv, "--json", "BENCH_retry.json");

  const soak::ShapePool pool({24, 32, 40, 48, 64}, 2424, 1.3);

  // Probe CONCURRENT capacity with the same topology and caller count
  // the soak uses (a synchronous per-request calibration overestimates
  // it badly — submit-path contention is real), then offer load_frac of
  // it: above one lane's share (the fault dip bites) and below the
  // whole (healthy headroom exceeds the 10% retry budget, the recovery
  // precondition).
  double capacity_per_s = 0.0;
  {
    SmmService cal(storm_options(cfg));
    std::atomic<std::size_t> done{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> workers;
    for (int w = 0; w < cfg.callers; ++w) {
      workers.emplace_back([&, w] {
        std::mt19937 rng(100u + static_cast<unsigned>(w));
        std::uniform_real_distribution<double> uni(0.0, 1.0);
        std::vector<Matrix<float>> cs = pool.outputs();
        while (!stop.load(std::memory_order_relaxed)) {
          const std::size_t s = pool.pick(uni(rng));
          if (cal.submit(1.0f, pool.a(s), pool.b(s), 0.0f, cs[s].view())
                  .wait()
                  .ok)
            done.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));  // warm
    const std::size_t base = done.load();
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const std::size_t probed = done.load() - base;
    const double secs =
        std::chrono::duration<double>(Clock::now() - t0).count();
    stop.store(true);
    for (auto& w : workers) w.join();
    cal.shutdown();
    capacity_per_s = static_cast<double>(probed) / secs;
  }
  cfg.offered_per_s = cfg.load_frac * capacity_per_s;
  cfg.offered_fault_per_s = cfg.fault_load_frac * capacity_per_s;
  const double t = static_cast<double>(cfg.seconds);
  cfg.phase_secs[kWarm] = 0.5;
  cfg.phase_secs[kSteady] = 0.20 * t;
  cfg.phase_secs[kBlip] = 0.10 * t;
  cfg.phase_secs[kFault] = 0.30 * t;
  cfg.phase_secs[kRecover] = 0.30 * t;
  std::printf("capacity probe: %.0f req/s over %d callers -> offering "
              "%.0f req/s steady (%.2fx), %.0f req/s from fault onset "
              "(%.2fx), queue depth %zu, deadline %ld ms\n",
              capacity_per_s, cfg.callers, cfg.offered_per_s,
              cfg.load_frac, cfg.offered_fault_per_s, cfg.fault_load_frac,
              cfg.queue_depth, cfg.deadline_ms);

  // Zero-deadlock monitor: both mode runs plus drains must finish well
  // inside this bound or the process dies with exit 2.
  const soak::DeadlineMonitor monitor(
      std::chrono::seconds(6 * cfg.seconds + 120 +
                           2 * cfg.naive_attempts *
                               (cfg.deadline_ms / 1000 + 1)),
      "soak");

  const ModeResult naive = run_mode(/*budgeted=*/false, cfg, pool);

  robust::health().reset();
  const ModeResult budgeted = run_mode(/*budgeted=*/true, cfg, pool);
  const auto h = robust::health().snapshot();
  std::printf("§16 counters: retry_attempts %zu retry_successes %zu "
              "retry_budget_exhausted %zu limiter_dips %zu\n",
              h.retry_attempts, h.retry_successes,
              h.retry_budget_exhausted, h.limiter_dips);

  {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"retry_storm_soak\",\n";
    json << strprintf("  \"seconds\": %d, \"load_frac\": %.2f, "
                      "\"deadline_ms\": %ld, \"offered_per_s\": %.0f, "
                      "\"queue_depth\": %zu,\n",
                      cfg.seconds, cfg.load_frac, cfg.deadline_ms,
                      cfg.offered_per_s, cfg.queue_depth);
    const auto mode_json = [&](const ModeResult& m) {
      return strprintf(
          "{\"goodput_steady_per_s\": %.1f, \"goodput_recover_per_s\": "
          "%.1f, \"recovery_ratio\": %.3f, \"amplification\": %.3f, "
          "\"ok\": %zu, \"ok_late\": %zu, \"failed\": %zu, \"shed\": "
          "%zu, \"lost\": %zu, \"unexpected\": %zu, \"overlong\": %zu}",
          m.goodput_steady, m.goodput_recover, m.ratio, m.amplification,
          m.ok, m.ok_late, m.failed, m.shed, m.lost, m.unexpected,
          m.overlong);
    };
    json << "  \"naive\": " << mode_json(naive) << ",\n";
    json << "  \"budgeted\": " << mode_json(budgeted) << ",\n";
    json << strprintf("  \"retry_attempts\": %zu, \"retry_successes\": "
                      "%zu, \"retry_budget_exhausted\": %zu, "
                      "\"limiter_dips\": %zu\n",
                      h.retry_attempts, h.retry_successes,
                      h.retry_budget_exhausted, h.limiter_dips);
    json << "}\n";
  }

  soak::Gates gates;
  gates.check(budgeted.ratio < cfg.goodput_frac,
              "budgeted goodput did not recover past the fault");
  gates.check(naive.ratio >= cfg.goodput_frac,
              "naive goodput recovered — the harness demonstrated nothing");
  gates.check(budgeted.amplification > 1.0 + cfg.budget_frac + 0.05,
              "budgeted retries amplified past the budget bound");
  gates.check(naive.amplification < 1.5, "naive retry storm never formed");
  gates.check(budgeted.lost != 0 || naive.lost != 0,
              "lost calls (arrival neither executed nor shed)");
  gates.check(budgeted.unexpected != 0 || naive.unexpected != 0,
              "unexpected terminal codes");
  gates.check(budgeted.overlong != 0,
              "a budgeted call ran past deadline + slack");
  gates.check(h.retry_attempts == 0, "retry_attempts counter stayed zero");
  gates.check(h.retry_successes < min_rescues,
              "retry_successes counter below the rescue floor");
  gates.check(h.retry_budget_exhausted == 0,
              "retry_budget_exhausted counter stayed zero");
  gates.check(h.limiter_dips == 0, "limiter_dips counter stayed zero");
  gates.check(h.retry_successes > h.retry_attempts,
              "retry_successes exceeded retry_attempts");
  return gates.verdict("retry_storm_soak");
}

// ---- perf smoke (--perf-check) ---------------------------------------------

double perf_trial(bool resilient_path, int requests) {
  SmmService service(soak::perf_service_options());
  resilient::RetryBudget budget(8.0);
  resilient::ResilientClient client(service, {}, &budget);
  soak::Cube cube;
  const auto raw = [&] {
    service.submit(1.0, cube.a.cview(), cube.b.cview(), 0.0, cube.c.view())
        .wait();
  };
  for (int i = 0; i < 50; ++i) raw();
  const double goodput = soak::goodput_per_s(requests, [&] {
    if (resilient_path)
      client.execute(1.0, cube.a.cview(), cube.b.cview(), 0.0, cube.c.view());
    else
      raw();
  });
  service.shutdown();
  return goodput;
}

int run_perf_check(int argc, char** argv) {
  const int reps =
      std::stoi(bench::arg_value(argc, argv, "--perf-reps", "3"));
  const int requests =
      std::stoi(bench::arg_value(argc, argv, "--perf-requests", "400"));
  const double ratio_gate =
      std::stod(bench::arg_value(argc, argv, "--perf-ratio", "0.95"));
  const std::string json_path =
      bench::arg_value(argc, argv, "--json", "BENCH_retry.json");

  const soak::BestOf best = soak::interleaved_best_of(
      reps, [&] { return perf_trial(/*resilient_path=*/true, requests); },
      [&] { return perf_trial(/*resilient_path=*/false, requests); },
      "resilient", "raw", ratio_gate);
  {
    std::ofstream json(json_path);
    json << "{\n  \"bench\": \"retry_perf_check\",\n";
    json << strprintf("  \"requests\": %d, \"reps\": %d,\n", requests,
                      reps);
    json << strprintf("  \"goodput_resilient_per_s\": %.1f, "
                      "\"goodput_raw_per_s\": %.1f, \"ratio\": %.3f, "
                      "\"ratio_gate\": %.2f\n",
                      best.a, best.b, best.ratio, ratio_gate);
    json << "}\n";
  }
  soak::Gates gates;
  gates.check(best.ratio < ratio_gate,
              strprintf("fault-free ResilientClient goodput below %.2fx of "
                        "raw submit",
                        ratio_gate));
  return gates.verdict("retry_storm_soak --perf-check");
}

}  // namespace

int main(int argc, char** argv) {
  if (bench::has_flag(argc, argv, "--perf-check"))
    return run_perf_check(argc, argv);
  return run_soak(argc, argv);
}
