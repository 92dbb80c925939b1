#include "serve.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include <sys/prctl.h>

#include "oracle.h"
#include "src/core/smm.h"
#include "src/robust/health.h"
#include "src/tune/tune.h"

namespace perfbench {

namespace svc = smm::service;

namespace {

constexpr std::size_t kRing = 512;      // in-flight request slots
constexpr std::size_t kAPool = 256;     // rotating A (and own-B) buffers
constexpr std::size_t kChecks = 64;     // oracle samples per phase
constexpr double kCheckProbability = 1.0 / 256;
constexpr double kZipfS = 1.1;
/// Fixed rank -> class permutation: part of the workload definition, so
/// every seed sends the same hot shapes and only the draws differ.
constexpr std::uint64_t kRankSeed = 0x5EEDC1A55ull;
/// Longest the harness blocks before it looks at every outstanding ticket.
constexpr std::int64_t kPoll = 40'000;  // ns

svc::Priority priority_of(double u) {
  if (u < 0.10) return svc::Priority::kHigh;
  if (u < 0.80) return svc::Priority::kNormal;
  return svc::Priority::kLow;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve_shared_b" || name == "serve_single_domain";
}

// Loads are absolute and part of the workload; nothing is calibrated at
// run time.
ServeSpec serve_spec(const std::string& name) {
  ServeSpec s;
  if (name == "serve_shared_b") {
    s.shards = 4;
    s.lanes = 1;
    s.dims = {4, 8, 12, 16, 20, 24, 28, 32, 36, 40};
    s.shared_b = true;
  } else {
    s.shards = 1;
    s.lanes = 4;
    s.coalesce_depth = 1;
    s.dims = {8, 16, 24, 32};
  }
  // Two clients keep at most two lanes busy: with every vCPU of a shared
  // VM busy, host steal made throughput and p99 spread 40-200% over ten
  // runs. The traced run adds 16 clients, enough to keep every lane busy
  // and same-shape requests queued together (coalescing, steals).
  s.clients = 2;
  s.traced_clients = 16;
  s.open_rate = 10000;
  // Host scheduler stalls (10-40 ms seen on a shared VM) must not read
  // as service failures.
  s.limit_ms = 50;
  return s;
}

struct ServeBench::Pools {
  index_t max_elems = 0;
  std::vector<Mat<float>> af, bf, wf;   // A pool, own-B pool, weights
  std::vector<Mat<double>> ad, bd, wd;
  smm::AlignedBuffer<float> cf, chkf;   // kRing / kChecks C slots
  smm::AlignedBuffer<double> cd, chkd;
};

namespace {

template <typename T>
void fill_pool(std::vector<Mat<T>>& pool, std::size_t count, index_t dim,
               Rng& rng) {
  pool.clear();
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pool.emplace_back(dim, dim);
    pool.back().fill(rng);
  }
}

std::vector<double> zipf_cdf(std::size_t n) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[i] = sum;
  }
  for (double& c : cdf) c /= sum;
  return cdf;
}

/// One arrival of a seeded Poisson stream.
struct Arrival {
  double gap_s;
  std::size_t rank;
  svc::Priority priority;
  int weight;   ///< which of the class's two B weights (shared-B)
  bool check;   ///< oracle-sampled
};

Arrival draw(Rng& rng, double rate, const std::vector<double>& cdf) {
  Arrival a{};
  a.gap_s = -std::log1p(-rng.unit()) / rate;
  const double u = rng.unit();
  a.rank = static_cast<std::size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  a.rank = std::min(a.rank, cdf.size() - 1);
  a.priority = priority_of(rng.unit());
  a.weight = static_cast<int>(rng.next() & 1);
  a.check = rng.unit() < kCheckProbability;
  return a;
}

template <typename T>
svc::Ticket submit_typed(svc::SmmService& s, const Shape& sh, const T* a,
                         const T* b, T* c, svc::Priority prio, long ms) {
  return s.submit(T(1), smm::ConstMatrixView<T>(a, sh.m, sh.k, sh.m),
                  smm::ConstMatrixView<T>(b, sh.k, sh.n, sh.k), T(0),
                  smm::MatrixView<T>(c, sh.m, sh.n, sh.m), prio, ms);
}

template <typename T>
OracleVerdict check_typed(const Shape& sh, const T* a, const T* b,
                          const T* c) {
  return check_gemm(T(1), smm::ConstMatrixView<T>(a, sh.m, sh.k, sh.m),
                    smm::ConstMatrixView<T>(b, sh.k, sh.n, sh.k), T(0),
                    smm::ConstMatrixView<T>(),
                    smm::ConstMatrixView<T>(c, sh.m, sh.n, sh.m));
}

}  // namespace

std::uint64_t serve_inputs_digest(std::uint64_t seed) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  const std::vector<double> cdf = zipf_cdf(2000);
  Rng arrivals(seed, 100);
  for (int i = 0; i < 1000; ++i) {
    const Arrival a = draw(arrivals, 1e5, cdf);
    mix(static_cast<std::uint64_t>(a.gap_s * 1e12));
    mix(a.rank);
    mix(static_cast<std::uint64_t>(a.priority));
  }
  std::vector<Mat<float>> pool;
  Rng data(seed, 20);
  fill_pool(pool, 4, 8, data);
  for (const auto& m : pool)
    for (index_t i = 0; i < m.rows * m.cols; ++i)
      mix(static_cast<std::uint64_t>(m.buf.data()[i] * 1e6f + 1e7f));
  return h;
}

ServeBench::ServeBench(const RunConfig& cfg)
    : cfg_(cfg), spec_(serve_spec(cfg.workload)), pools_(std::make_unique<Pools>()) {
  for (bool f64 : {false, true})
    for (index_t m : spec_.dims)
      for (index_t n : spec_.dims)
        for (index_t k : spec_.dims) classes_.push_back(Shape{m, n, k, f64});
  for (const Shape& s : classes_) span_names_.push_back("request " + s.name());
  rank_to_class_.resize(classes_.size());
  for (std::size_t i = 0; i < classes_.size(); ++i) rank_to_class_[i] = i;
  Rng ranks(kRankSeed);
  for (std::size_t i = classes_.size(); i > 1; --i)
    std::swap(rank_to_class_[i - 1], rank_to_class_[ranks.below(i)]);
  zipf_cdf_ = zipf_cdf(classes_.size());

  // Input generation (excluded from set-up time): A pool, own-B pool or
  // two weights per class, and the C slots.
  const index_t dim = *std::max_element(spec_.dims.begin(), spec_.dims.end());
  Pools& p = *pools_;
  p.max_elems = dim * dim;
  Rng data(cfg.seed, 20);
  fill_pool(p.af, kAPool, dim, data);
  fill_pool(p.ad, kAPool, dim, data);
  if (spec_.shared_b) {
    p.wf.resize(2 * classes_.size());
    p.wd.resize(2 * classes_.size());
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      const Shape& s = classes_[c];
      for (std::size_t j = 0; j < 2; ++j) {
        if (s.f64) {
          p.wd[2 * c + j] = Mat<double>(s.k, s.n);
          p.wd[2 * c + j].fill(data);
        } else {
          p.wf[2 * c + j] = Mat<float>(s.k, s.n);
          p.wf[2 * c + j].fill(data);
        }
      }
    }
  } else {
    fill_pool(p.bf, kAPool, dim, data);
    fill_pool(p.bd, kAPool, dim, data);
  }
  p.cf = smm::AlignedBuffer<float>(static_cast<index_t>(kRing) * p.max_elems);
  p.cd = smm::AlignedBuffer<double>(static_cast<index_t>(kRing) * p.max_elems);
  p.chkf = smm::AlignedBuffer<float>(static_cast<index_t>(kChecks) * p.max_elems);
  p.chkd = smm::AlignedBuffer<double>(static_cast<index_t>(kChecks) * p.max_elems);
  warm_median_ns_.assign(classes_.size(), -1.0);
}

ServeBench::~ServeBench() = default;

namespace {

/// Operands of one request: which pooled buffers it reads and the C it
/// writes. A rotates through the pool; B is the class weight (shared-B)
/// or its own rotating buffer.
struct Operands {
  const void* a;
  const void* b;
  void* c;
};

}  // namespace

double ServeBench::setup(Report& report) {
  Pools& p = *pools_;
  svc::ServiceOptions options;
  options.shards = spec_.shards;
  options.lanes = spec_.lanes;
  options.threads_per_request = 1;
  options.coalesce_depth = spec_.coalesce_depth;
  std::int64_t spent = 0;
  std::int64_t t0 = now_ns();
  svc_ = std::make_unique<svc::SmmService>(options);
  // Every class once, in waves small enough that no shard queue fills;
  // the oracle checks between waves are taken off the clock.
  constexpr std::size_t kWave = 32;
  std::vector<svc::Ticket> tickets(kWave);
  for (std::size_t base = 0; base < classes_.size(); base += kWave) {
    const std::size_t n = std::min(kWave, classes_.size() - base);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = base + i;
      const Shape& s = classes_[c];
      const std::size_t a_idx = c % kAPool;
      if (s.f64) {
        const double* b = spec_.shared_b ? p.wd[2 * c].buf.data() : p.bd[a_idx].buf.data();
        tickets[i] = submit_typed(*svc_, s, p.ad[a_idx].buf.data(), b,
                                  p.cd.data() + i * p.max_elems,
                                  svc::Priority::kNormal, 0);
      } else {
        const float* b = spec_.shared_b ? p.wf[2 * c].buf.data() : p.bf[a_idx].buf.data();
        tickets[i] = submit_typed(*svc_, s, p.af[a_idx].buf.data(), b,
                                  p.cf.data() + i * p.max_elems,
                                  svc::Priority::kNormal, 0);
      }
    }
    for (std::size_t i = 0; i < n; ++i) tickets[i].wait();
    const std::int64_t pause = now_ns();
    spent += pause - t0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = base + i;
      const Shape& s = classes_[c];
      const std::size_t a_idx = c % kAPool;
      ++report.attempted;
      const svc::Result& r = tickets[i].wait();
      if (!r.ok) {
        ++report.failed;
        report.notes.push_back(s.name() + " failed in set-up: " + r.message);
        continue;
      }
      const OracleVerdict v =
          s.f64 ? check_typed(s, p.ad[a_idx].buf.data(),
                              spec_.shared_b ? p.wd[2 * c].buf.data() : p.bd[a_idx].buf.data(),
                              p.cd.data() + i * p.max_elems)
                : check_typed(s, p.af[a_idx].buf.data(),
                              spec_.shared_b ? p.wf[2 * c].buf.data() : p.bf[a_idx].buf.data(),
                              p.cf.data() + i * p.max_elems);
      if (!v.ok) {
        ++report.wrong;
        report.notes.push_back("WRONG " + s.name() + ": " + v.detail);
      }
    }
    t0 = now_ns();
  }
  return static_cast<double>(spent) * 1e-9;
}

double PhaseResult::p(double q) const {
  std::vector<double> per_window;
  for (const auto& w : windows)
    if (!w.empty()) per_window.push_back(quantile(w, q));
  return median(std::move(per_window));
}

double PhaseResult::per_window_median(const std::vector<double>& totals) const {
  std::vector<double> rates;
  for (double x : totals) rates.push_back(x / window_s);
  return median(std::move(rates));
}

PhaseResult ServeBench::run_phase(const Load& load, double seconds,
                                  std::uint64_t stream, TraceSink* trace,
                                  Report& report) {
  struct Slot {
    svc::Ticket ticket;
    std::int64_t due = 0, sent0 = 0, sent1 = 0, last_check = 0;
    std::size_t cls = 0;
    int check = -1;  ///< index into the check records, or -1
    bool collected = true;
  };
  struct CheckRecord {
    std::size_t cls;
    Operands ops;
    bool ok = false;
  };
  Pools& p = *pools_;
  PhaseResult r;
  const bool open = load.clients == 0;
  const double rate = open ? load.rate : 1.0;  // closed: gaps unused
  r.before = svc_->stats();
  const auto health0 = smm::robust::health().snapshot();
  std::vector<Slot> ring(kRing);
  std::vector<CheckRecord> checks;
  checks.reserve(kChecks);
  Rng rng(cfg_.seed, 100 + stream);
  const long limit = spec_.limit_ms;

  std::size_t next = 0, oldest = 0, collected = 0;  // sequence numbers
  std::size_t own_b = 0;
  std::vector<double> outstanding;   // backlog samples, every 1 ms
  const std::int64_t start = now_ns() + 200'000;
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_sample = start;
  // Sleeps end within microseconds of their target, not the default 50.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  Arrival arr = draw(rng, rate, zipf_cdf_);
  std::int64_t due = open ? start + static_cast<std::int64_t>(arr.gap_s * 1e9) : start;
  const auto nwin = static_cast<std::size_t>(
      std::max(1.0, std::round(seconds / (0.01 * cfg_.seconds))));
  r.windows.resize(nwin);
  r.window_ok.resize(nwin);
  r.window_flops.resize(nwin);
  r.window_s = seconds / static_cast<double>(nwin);
  const auto window_of = [&](std::int64_t at) {
    return static_cast<std::size_t>(std::clamp<std::int64_t>(
        (at - start) * static_cast<std::int64_t>(nwin) / (stop - start), 0,
        static_cast<std::int64_t>(nwin) - 1));
  };
  // A failed or refused request misses the limit: it reads as its own
  // wait or just past the limit, whichever is longer.
  const auto miss = [limit_ns = static_cast<double>(limit) * 1e6](std::int64_t waited) {
    return std::max(static_cast<double>(waited), limit_ns + 1.0);
  };
  const auto record = [&](std::int64_t due_at, double lat) {
    r.latency.push_back(lat);
    r.windows[window_of(due_at)].push_back(lat);
  };

  const auto collect = [&](Slot& s, std::int64_t t) {
    const svc::Result& res = s.ticket.wait();
    const Shape& sh = classes_[s.cls];
    r.collect_lag.push_back(static_cast<double>(t - s.last_check));
    ++collected;
    if (res.ok) {
      ++r.ok;
      ++r.window_ok[window_of(t)];
      r.window_flops[window_of(t)] += sh.flops();
      const double lat = static_cast<double>(t - s.due);
      record(s.due, lat);
      if (trace != nullptr && warm_median_ns_[s.cls] >= 0)
        r.overhead_ns.push_back(lat - warm_median_ns_[s.cls]);
      if (s.check >= 0) checks[static_cast<std::size_t>(s.check)].ok = true;
    } else {
      record(s.due, miss(t - s.due));
      ++r.failure_codes[smm::to_string(res.code)];
      if (res.code == smm::ErrorCode::kOverloaded ||
          res.code == smm::ErrorCode::kShuttingDown)
        ++r.refused;
      else
        ++r.failed;
    }
    if (trace != nullptr) {
      const int home = svc_->route_shard(sh.m, sh.n, sh.k, sh.f64 ? 1 : 0);
      trace->span(span_names_[s.cls].c_str(),
                  res.ok ? "service" : "service.failed", 1 + home, s.due, t);
      trace->span("submit", "service.submit", 0, s.sent0, s.sent1);
    }
    s.collected = true;
    s.ticket = svc::Ticket();
  };

  const auto sweep = [&] {
    const std::int64_t t = now_ns();
    for (std::size_t q = oldest; q < next; ++q) {
      Slot& s = ring[q % kRing];
      if (s.collected) continue;
      if (s.ticket.done()) collect(s, now_ns());
      else s.last_check = t;
    }
    while (oldest < next && ring[oldest % kRing].collected) ++oldest;
  };

  for (;;) {
    std::int64_t t = now_ns();
    if (t >= next_sample && t < stop) {
      outstanding.push_back(static_cast<double>(next - oldest));
      next_sample += 1'000'000;
    }
    // Open loop: every arrival whose time has come. Closed loop: refill
    // the client window; the request is due the moment it is sent.
    if (!open) due = std::min(t, stop);
    while (due <= t && due < stop && next - oldest < kRing &&
           (open || next - collected < load.clients)) {
      Slot& s = ring[next % kRing];
      const std::size_t cls = rank_to_class_[arr.rank];
      const Shape& sh = classes_[cls];
      const std::size_t a_idx = next % kAPool;
      Operands ops{};
      int check = -1;
      if (arr.check && checks.size() < kChecks) {
        check = static_cast<int>(checks.size());
      }
      const std::size_t b_idx = own_b++ % kAPool;
      if (sh.f64) {
        ops.a = p.ad[a_idx].buf.data();
        ops.b = spec_.shared_b ? p.wd[2 * cls + arr.weight].buf.data()
                               : p.bd[b_idx].buf.data();
        ops.c = check >= 0 ? p.chkd.data() + check * p.max_elems
                           : p.cd.data() + (next % kRing) * p.max_elems;
      } else {
        ops.a = p.af[a_idx].buf.data();
        ops.b = spec_.shared_b ? p.wf[2 * cls + arr.weight].buf.data()
                               : p.bf[b_idx].buf.data();
        ops.c = check >= 0 ? p.chkf.data() + check * p.max_elems
                           : p.cf.data() + (next % kRing) * p.max_elems;
      }
      if (check >= 0) checks.push_back(CheckRecord{cls, ops});
      s.due = due;
      s.cls = cls;
      s.check = check;
      s.collected = false;
      s.sent0 = now_ns();
      s.ticket = sh.f64
                     ? submit_typed(*svc_, sh, static_cast<const double*>(ops.a),
                                    static_cast<const double*>(ops.b),
                                    static_cast<double*>(ops.c), arr.priority, limit)
                     : submit_typed(*svc_, sh, static_cast<const float*>(ops.a),
                                    static_cast<const float*>(ops.b),
                                    static_cast<float*>(ops.c), arr.priority, limit);
      s.sent1 = now_ns();
      s.last_check = s.sent1;
      if (open) r.gen_lag.push_back(static_cast<double>(s.sent0 - due));
      if (trace != nullptr)
        r.submit_ns.push_back(static_cast<double>(s.sent1 - s.sent0));
      ++next;
      ++r.sent;
      arr = draw(rng, rate, zipf_cdf_);
      if (open) due += static_cast<std::int64_t>(arr.gap_s * 1e9);
    }
    sweep();
    if ((open ? due >= stop : t >= stop) && oldest == next) break;
    // Between arrivals the harness blocks instead of spinning: on the
    // oldest outstanding ticket (woken by its terminal) or in a sleep, for
    // at most kPoll, so out-of-order terminals are seen within kPoll. A
    // spinning harness holds a whole vCPU, and a VM host throttles such a
    // vCPU in bursts of milliseconds, which then reach the service as
    // arrival bursts.
    // A closed loop only yields: its next send waits on a terminal, so a
    // late look at the tickets would throttle the load itself.
    if (!open) {
      std::this_thread::yield();
    } else {
      const std::int64_t wake =
          std::min(due < stop ? due : stop + kPoll, now_ns() + kPoll);
      const Clock::time_point until{std::chrono::nanoseconds(wake)};
      if (oldest < next)
        ring[oldest % kRing].ticket.wait_until(until);
      else if (wake > now_ns())
        std::this_thread::sleep_until(until);
    }
    // A request stuck far past its deadline means a lost terminal: give
    // up rather than hang, and count what is left as failed.
    if (t > stop + 5'000'000'000ll) {
      for (std::size_t q = oldest; q < next; ++q)
        if (!ring[q % kRing].collected) {
          ++r.failed;
          record(ring[q % kRing].due, miss(now_ns() - ring[q % kRing].due));
        }
      report.notes.push_back("phase gave up on requests with no terminal");
      break;
    }
  }
  r.wall_ns = std::max<std::int64_t>(stop, now_ns()) - start;
  r.after = svc_->stats();

  // Backlog: the outstanding count must not trend up across the phase.
  // Medians, so one stall at either end does not read as a trend.
  if (outstanding.size() >= 9) {
    const auto third = static_cast<std::ptrdiff_t>(outstanding.size() / 3);
    const double first =
        median(std::vector<double>(outstanding.begin(), outstanding.begin() + third));
    const double last =
        median(std::vector<double>(outstanding.end() - third, outstanding.end()));
    r.backlog_grew = last > 2.0 * first + 8.0;
  }

  // Oracle samples, outside the timed phase.
  for (const CheckRecord& c : checks) {
    if (!c.ok) continue;
    const Shape& sh = classes_[c.cls];
    const OracleVerdict v =
        sh.f64 ? check_typed(sh, static_cast<const double*>(c.ops.a),
                             static_cast<const double*>(c.ops.b),
                             static_cast<const double*>(c.ops.c))
               : check_typed(sh, static_cast<const float*>(c.ops.a),
                             static_cast<const float*>(c.ops.b),
                             static_cast<const float*>(c.ops.c));
    if (!v.ok) {
      ++r.wrong;
      report.notes.push_back("WRONG request " + sh.name() + ": " + v.detail);
    }
  }
  report.wrong += r.wrong;
  const auto health1 = smm::robust::health().snapshot();
  if (smm::tune::mode() == smm::tune::Mode::kObserve &&
      health1.tune_replans != health0.tune_replans)
    report.violate("tune_replans moved in observe mode");
  return r;
}

void ServeBench::check_invariants(const PhaseResult& r, const std::string& phase,
                                  Report& report) const {
  const auto& a = r.after;
  const auto& b = r.before;
  const std::size_t submitted = a.submitted - b.submitted;
  const std::size_t admitted = a.admitted - b.admitted;
  const std::size_t rejected = a.rejected - b.rejected;
  const std::size_t routed = a.routed - b.routed;
  std::size_t per_shard = 0;
  for (std::size_t i = 0; i < a.routed_per_shard.size(); ++i)
    per_shard += a.routed_per_shard[i] - b.routed_per_shard[i];
  const std::size_t rerouted = a.rerouted - b.rerouted;
  if (submitted != r.sent)
    report.violate(phase + ": service saw " + std::to_string(submitted) +
                   " submissions, harness sent " + std::to_string(r.sent));
  if (submitted != admitted + rejected)
    report.violate(phase + ": submitted " + std::to_string(submitted) +
                   " != admitted " + std::to_string(admitted) + " + rejected " +
                   std::to_string(rejected));
  if (routed != per_shard + rerouted)
    report.violate(phase + ": routed " + std::to_string(routed) +
                   " != sum(routed_per_shard) " + std::to_string(per_shard) +
                   " + rerouted " + std::to_string(rerouted));
}

void ServeBench::measure_warm_medians() {
  Pools& p = *pools_;
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const Shape& s = classes_[c];
    std::vector<double> v;
    for (int rep = 0; rep < 12; ++rep) {
      const std::int64_t t0 = now_ns();
      if (s.f64)
        smm::core::smm_gemm(1.0, smm::ConstMatrixView<double>(p.ad[0].buf.data(), s.m, s.k, s.m),
                            smm::ConstMatrixView<double>(p.ad[1].buf.data(), s.k, s.n, s.k), 0.0,
                            smm::MatrixView<double>(p.cd.data(), s.m, s.n, s.m));
      else
        smm::core::smm_gemm(1.0f, smm::ConstMatrixView<float>(p.af[0].buf.data(), s.m, s.k, s.m),
                            smm::ConstMatrixView<float>(p.af[1].buf.data(), s.k, s.n, s.k), 0.0f,
                            smm::MatrixView<float>(p.cf.data(), s.m, s.n, s.m));
      if (rep >= 2) v.push_back(static_cast<double>(now_ns() - t0));
    }
    warm_median_ns_[c] = median(std::move(v));
  }
}

namespace {
std::string codes(const PhaseResult& r) {
  std::string out;
  for (const auto& [name, n] : r.failure_codes)
    out += (out.empty() ? " (" : ", ") + name + " " + std::to_string(n);
  return out.empty() ? out : out + ")";
}
}  // namespace

void ServeBench::measure(Report& report) {
  const PhaseResult r = run_phase(Load{0.0, spec_.clients}, 0.9 * cfg_.seconds, 1,
                                  nullptr, report);
  check_invariants(r, "closed-loop phase", report);
  const std::size_t n = r.latency.size();
  report.attempted += r.sent;
  report.failed += r.failed + r.refused;
  report.put("latency_p50_ns", r.p(0.50), "ns", n);
  report.put("latency_p99_ns", r.p(0.99), "ns", n);
  report.put("gflops", r.per_window_median(r.window_flops) * 1e-9, "GFLOP/s", r.ok);
  report.put("sustained_rps", r.per_window_median(r.window_ok), "1/s", r.ok);
  report.notes.push_back(
      std::to_string(spec_.clients) + " clients: " + std::to_string(r.sent) + " sent, " +
      std::to_string(r.ok) + " ok, " + std::to_string(r.refused) + " refused, " +
      std::to_string(r.failed) + " failed" + codes(r) + "; metrics are medians over " +
      std::to_string(r.windows.size()) + " windows");
}

}  // namespace perfbench
