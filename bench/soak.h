// Shared machinery of the four soaks (overload, failover, chaos,
// corruption): the Zipfian shape pool, the terminal classifier,
// synchronous calibration, paced producers, the zero-deadlock monitor,
// gate printing and the one-domain perf-parity leg. Each soak keeps only
// its own traffic shape, fault schedule, gates and JSON fields.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/matrix/matrix.h"
#include "src/service/smm_service.h"

namespace smm::bench::soak {

using Clock = std::chrono::steady_clock;

/// A rows x cols f32 matrix filled from Rng(seed).
inline Matrix<float> random_matrix(index_t rows, index_t cols,
                                   std::uint64_t seed) {
  Rng rng(seed);
  Matrix<float> m(rows, cols);
  m.fill_random(rng);
  return m;
}

/// Square f32 operands, one shared A and B per dimension: every request
/// for a shape presents literally the same B view, so coalesced groups
/// hit the pack-once fast path exactly as a DNN inference batch would.
/// Rank i (0-based) is drawn with weight 1 / (i + 1)^zipf_s.
class ShapePool {
 public:
  ShapePool(std::vector<index_t> dims, std::uint64_t seed, double zipf_s)
      : dims_(std::move(dims)), cdf_(dims_.size()) {
    Rng rng(seed);
    for (const index_t d : dims_) {
      as_.emplace_back(d, d);
      bs_.emplace_back(d, d);
      as_.back().fill_random(rng);
      bs_.back().fill_random(rng);
    }
    double total = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
      cdf_[i] = total;
    }
    for (auto& v : cdf_) v /= total;
  }

  [[nodiscard]] std::size_t size() const { return dims_.size(); }
  [[nodiscard]] index_t dim(std::size_t s) const { return dims_[s]; }
  [[nodiscard]] ConstMatrixView<float> a(std::size_t s) const {
    return as_[s].cview();
  }
  [[nodiscard]] ConstMatrixView<float> b(std::size_t s) const {
    return bs_[s].cview();
  }
  [[nodiscard]] const std::vector<double>& cdf() const { return cdf_; }

  /// The rank a uniform draw `u` in [0, 1) selects.
  [[nodiscard]] std::size_t pick(double u) const {
    std::size_t s = 0;
    while (s + 1 < cdf_.size() && u > cdf_[s]) ++s;
    return s;
  }

  /// One C per shape, for a caller with one request in flight at a time.
  [[nodiscard]] std::vector<Matrix<float>> outputs() const {
    std::vector<Matrix<float>> cs;
    for (const index_t d : dims_) cs.emplace_back(d, d);
    return cs;
  }

 private:
  std::vector<index_t> dims_;
  std::vector<Matrix<float>> as_, bs_;
  std::vector<double> cdf_;
};

enum class Terminal { kOk, kRefused, kStopped, kInfra, kUnexpected };

struct Verdict {
  Terminal terminal = Terminal::kOk;
  bool late = false;
};

/// The soaks' terminal buckets: ok; refused (kOverloaded, kShuttingDown);
/// stopped (kCancelled, kDeadlineExceeded); infra (kWorkerPanic while the
/// caller's fault window is open); unexpected (everything else). Late:
/// the terminal came more than 2 x deadline + `slack_ms` after submit.
/// Refusals are terminal at submit, so the latency cap applies to
/// admitted requests only.
inline Verdict classify(const service::Result& r, long long waited_ms,
                        long deadline_ms, long slack_ms, bool window_open) {
  const bool refused = r.code == ErrorCode::kOverloaded ||
                       r.code == ErrorCode::kShuttingDown;
  Verdict v;
  if (r.ok)
    v.terminal = Terminal::kOk;
  else if (refused)
    v.terminal = Terminal::kRefused;
  else if (r.code == ErrorCode::kCancelled ||
           r.code == ErrorCode::kDeadlineExceeded)
    v.terminal = Terminal::kStopped;
  else if (r.code == ErrorCode::kWorkerPanic && window_open)
    v.terminal = Terminal::kInfra;
  else
    v.terminal = Terminal::kUnexpected;
  v.late = !refused && waited_ms > 2 * deadline_ms + slack_ms;
  return v;
}

struct Totals {
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> refused{0};
  std::atomic<std::size_t> stopped{0};
  std::atomic<std::size_t> infra{0};
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> late{0};

  /// Each classified terminal lands in exactly one bucket.
  [[nodiscard]] std::size_t classified() const {
    return ok + refused + stopped + infra + unexpected;
  }
};

struct Pending {
  service::Ticket ticket;
  Clock::time_point submitted;
  long deadline_ms = 0;
  int phase = 0;
};

/// Wait `item`, classify its terminal into `totals` and report unexpected
/// and late terminals on stderr. `waited_ms` is measured here, an upper
/// bound on terminal latency that prompt classification keeps tight.
/// `window` (the caller's fault window, may be null) is read after the
/// wait.
inline Terminal settle(const Pending& item, Totals& totals, long slack_ms,
                       const std::atomic<bool>* window = nullptr) {
  const service::Result& r = item.ticket.wait();
  const long long waited_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            item.submitted)
          .count();
  const Verdict v =
      classify(r, waited_ms, item.deadline_ms, slack_ms,
               window != nullptr && window->load(std::memory_order_relaxed));
  switch (v.terminal) {
    case Terminal::kOk: totals.ok.fetch_add(1); break;
    case Terminal::kRefused: totals.refused.fetch_add(1); break;
    case Terminal::kStopped: totals.stopped.fetch_add(1); break;
    case Terminal::kInfra: totals.infra.fetch_add(1); break;
    case Terminal::kUnexpected:
      totals.unexpected.fetch_add(1);
      std::fprintf(stderr, "unexpected terminal state: %s\n",
                   r.message.c_str());
      break;
  }
  if (v.late) {
    totals.late.fetch_add(1);
    std::fprintf(stderr, "late terminal: %lld ms (deadline %ld ms)\n",
                 waited_ms, item.deadline_ms);
  }
  return v.terminal;
}

/// Median seconds per call over `batches` timed batches of `per_batch`
/// synchronous calls. One batch is exposed to frequency and cache jitter
/// large enough (~±30%) to flip a goodput gate. Warm-up is the caller's.
template <typename Call>
double sync_unit_s(int batches, int per_batch, Call&& call) {
  std::vector<double> units;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) call();
    units.push_back(std::chrono::duration<double>(Clock::now() - t0).count() /
                    per_batch);
  }
  std::sort(units.begin(), units.end());
  return units[units.size() / 2];
}

/// Two producer threads offering Zipf draws from `pool` at `offered_per_s`
/// in total. Each classifies its own tickets with a nonblocking poll
/// sweep every iteration instead of handing them to a blocking collector
/// thread: a per-ticket futex ping-pong would dominate the request cost
/// on a saturated machine and mask the dispatch overhead being measured.
/// The hooks run on the producer threads, concurrently.
class Producers {
 public:
  struct Hooks {
    std::function<bool()> stop;  ///< polled before every submission
    std::function<service::Priority(std::uint64_t n)> priority =
        [](std::uint64_t) { return service::Priority::kNormal; };
    std::function<int()> phase = [] { return 0; };  ///< stamped at submit
    std::function<void(const Pending&, Terminal)> on_terminal =
        [](const Pending&, Terminal) {};
  };

  static constexpr int kWorkers = 2;
  static constexpr std::size_t kRing = 32;

  Producers(service::SmmService& svc, const ShapePool& pool,
            double offered_per_s, long deadline_ms, long slack_ms,
            Totals& totals, Hooks hooks)
      : svc_(svc),
        pool_(pool),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kWorkers / offered_per_s))),
        deadline_ms_(deadline_ms),
        slack_ms_(slack_ms),
        totals_(totals),
        hooks_(std::move(hooks)) {
    for (int w = 0; w < kWorkers; ++w)
      threads_.emplace_back(
          [this, w] { run(1000u + static_cast<unsigned>(w)); });
  }
  ~Producers() { join(); }
  Producers(const Producers&) = delete;
  Producers& operator=(const Producers&) = delete;

  void join() {
    for (auto& t : threads_)
      if (t.joinable()) t.join();
  }

 private:
  void run(unsigned seed) {
    // Per-shape C rings: slot reuse waits on the ticket that last wrote
    // the slot, bounding outstanding work without ever letting two
    // in-flight requests share an output (which the coalescer's conflict
    // sweep would refuse to group anyway).
    const std::size_t shapes = pool_.size();
    std::vector<std::vector<Matrix<float>>> cs(shapes);
    std::vector<std::vector<service::Ticket>> rings(shapes);
    std::vector<std::size_t> nshape(shapes, 0);
    for (std::size_t s = 0; s < shapes; ++s) {
      rings[s].resize(kRing);
      for (std::size_t i = 0; i < kRing; ++i)
        cs[s].emplace_back(pool_.dim(s), pool_.dim(s));
    }
    std::deque<Pending> pending;
    const auto settle_front = [&] {
      hooks_.on_terminal(pending.front(),
                         settle(pending.front(), totals_, slack_ms_));
      pending.pop_front();
    };
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    // Submissions are tallied locally: a shared counter bumped per request
    // would bounce its cache line between the producers.
    std::uint64_t n = 0;
    auto next = Clock::now();
    while (!hooks_.stop()) {
      const std::size_t s = pool_.pick(uni(rng));
      const std::size_t slot = nshape[s] % kRing;
      if (rings[s][slot].valid()) rings[s][slot].wait();
      const service::Priority priority = hooks_.priority(n);
      const auto t0 = Clock::now();
      const int phase = hooks_.phase();
      service::Ticket t =
          svc_.submit(1.0f, pool_.a(s), pool_.b(s), 0.0f, cs[s][slot].view(),
                      priority, deadline_ms_);
      rings[s][slot] = t;
      ++nshape[s];
      pending.push_back({t, t0, deadline_ms_, phase});
      while (!pending.empty() && pending.front().ticket.done()) settle_front();
      ++n;
      next += period_;
      // Pacing: only sleep when ahead of schedule — sleep_until on a past
      // deadline still costs a syscall, which at these request rates
      // would itself become the bottleneck.
      if (Clock::now() < next) std::this_thread::sleep_until(next);
    }
    // Drain in submit order: the front is the oldest outstanding ticket,
    // so each wait measures a latency close to the actual terminal time.
    while (!pending.empty()) settle_front();
    totals_.submitted.fetch_add(n);
  }

  service::SmmService& svc_;
  const ShapePool& pool_;
  const Clock::duration period_;
  const long deadline_ms_;
  const long slack_ms_;
  Totals& totals_;
  const Hooks hooks_;
  std::vector<std::thread> threads_;
};

/// While in scope, a soak that has not finished `limit` after
/// construction prints "GLOBAL DEADLINE: <what> did not finish" and exits
/// the process with code 2.
class DeadlineMonitor {
 public:
  DeadlineMonitor(std::chrono::milliseconds limit, std::string what)
      : what_(std::move(what)),
        thread_([this, deadline = Clock::now() + limit] { watch(deadline); }) {}
  ~DeadlineMonitor() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  DeadlineMonitor(const DeadlineMonitor&) = delete;
  DeadlineMonitor& operator=(const DeadlineMonitor&) = delete;

 private:
  void watch(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_until(lock, deadline, [this] { return finished_; })) return;
    std::fprintf(stderr, "GLOBAL DEADLINE: %s did not finish\n",
                 what_.c_str());
    std::_Exit(2);
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool finished_ = false;
  const std::string what_;
  std::thread thread_;
};

class Gates {
 public:
  /// A violated gate prints "GATE FAILED: <what>" and fails the verdict.
  void check(bool bad, const std::string& what) {
    if (!bad) return;
    std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
    failed_ = true;
  }
  /// Prints "<name>: PASS|FAIL"; returns the process exit code.
  [[nodiscard]] int verdict(const char* name) const {
    std::printf("%s: %s\n", name, failed_ ? "FAIL" : "PASS");
    return failed_ ? 1 : 0;
  }

 private:
  bool failed_ = false;
};

constexpr index_t kCubeDim = 64;

/// The fixed 64^3 f64 request: A then B filled from Rng(42).
struct Cube {
  Matrix<double> a{kCubeDim, kCubeDim}, b{kCubeDim, kCubeDim},
      c{kCubeDim, kCubeDim};
  Cube() {
    Rng rng(42);
    a.fill_random(rng);
    b.fill_random(rng);
  }
};

/// One shard, one lane, two threads per request, queue depth 32.
inline service::ServiceOptions perf_service_options() {
  service::ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  options.threads_per_request = 2;
  options.queue_depth = 32;
  return options;
}

/// Calls per second over `requests` back-to-back synchronous calls.
template <typename Call>
double goodput_per_s(int requests, Call&& call) {
  const auto t0 = Clock::now();
  for (int i = 0; i < requests; ++i) call();
  return static_cast<double>(requests) /
         std::chrono::duration<double>(Clock::now() - t0).count();
}

struct BestOf {
  double a = 0.0;
  double b = 0.0;
  double ratio = 0.0;  ///< a / b
};

/// Interleaved best-of-`reps` goodput of two arms. A throughput ratio on
/// a shared host is exposed to frequency and load drift: interleaving
/// decorrelates it, and best-of picks each arm's undisturbed run. Prints
/// each rep and the summary against `gate`.
template <typename ArmA, typename ArmB>
BestOf interleaved_best_of(int reps, ArmA&& arm_a, ArmB&& arm_b,
                           const char* name_a, const char* name_b,
                           double gate) {
  BestOf best;
  for (int r = 0; r < reps; ++r) {
    const double a = arm_a();
    const double b = arm_b();
    std::printf("perf rep %d: %s %.0f req/s, %s %.0f req/s\n", r, name_a, a,
                name_b, b);
    best.a = std::max(best.a, a);
    best.b = std::max(best.b, b);
  }
  best.ratio = best.b > 0.0 ? best.a / best.b : 0.0;
  std::printf("perf-check: %s %.0f req/s, %s %.0f req/s, ratio %.3f "
              "(gate %.2f)\n",
              name_a, best.a, name_b, best.b, best.ratio, gate);
  return best;
}

}  // namespace smm::bench::soak
