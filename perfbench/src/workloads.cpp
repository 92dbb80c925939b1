#include "workloads.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "src/common/error.h"
#include "src/core/smm.h"
#include "stats.h"

namespace perfbench {

std::string Shape::name() const {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%ldx%ldx%ld/%s", static_cast<long>(m),
                static_cast<long>(n), static_cast<long>(k), f64 ? "f64" : "f32");
  return buf;
}

namespace {

struct Mnk {
  index_t m, n, k;
};

// 24 shapes in [2,24]: cubes, tile non-multiples, and the paper's "one
// dimension much smaller" classes (k, n, or m tiny beside the others).
constexpr Mnk kWarmTiny[] = {
    {2, 2, 2},    {4, 4, 4},    {5, 5, 5},    {8, 8, 8},   {12, 12, 12},
    {16, 16, 16}, {20, 20, 20}, {24, 24, 24}, {7, 9, 11},  {13, 5, 17},
    {23, 19, 21}, {9, 24, 6},   {17, 3, 22},  {11, 14, 3}, {24, 24, 2},
    {24, 2, 24},  {2, 24, 24},  {20, 20, 4},  {4, 20, 20}, {20, 4, 20},
    {24, 3, 16},  {3, 24, 16},  {16, 16, 3},  {6, 18, 10},
};

// 12 shapes of >= 200k flops: cubes, skinny (m or n <= 8 with the other
// dimensions 128-256) and small-k (k 8-16 with m,n 128-256).
constexpr Mnk kComputeMid[] = {
    {48, 48, 48},  {64, 64, 64},   {96, 96, 96},   {128, 128, 128},
    {160, 160, 160}, {192, 192, 192}, {8, 256, 128}, {200, 8, 160},
    {4, 192, 256}, {128, 128, 8},  {256, 192, 12}, {160, 224, 16},
};

template <typename F>
decltype(auto) with_typed(CallSite& s, F&& f) {
  return s.shape.f64 ? f(s.ad, s.bd, s.cd, s.c0d) : f(s.af, s.bf, s.cf, s.c0f);
}
template <typename F>
decltype(auto) with_typed(const CallSite& s, F&& f) {
  return s.shape.f64 ? f(s.ad, s.bd, s.cd, s.c0d) : f(s.af, s.bf, s.cf, s.c0f);
}

}  // namespace

bool is_gemm_workload(const std::string& name) {
  return name == "warm_tiny" || name == "compute_mid";
}

std::vector<Shape> gemm_shapes(const std::string& name) {
  std::vector<Shape> out;
  const auto add = [&out](const auto& list) {
    for (bool f64 : {false, true})
      for (const Mnk& s : list) out.push_back(Shape{s.m, s.n, s.k, f64});
  };
  if (name == "warm_tiny") add(kWarmTiny);
  if (name == "compute_mid") add(kComputeMid);
  return out;
}

void CallSite::init(Rng& rng) {
  with_typed(*this, [&](auto& a, auto& b, auto& c, auto& c0) {
    using M = std::decay_t<decltype(a)>;
    a = M(shape.m, shape.k);
    b = M(shape.k, shape.n);
    c = M(shape.m, shape.n);
    c0 = M(shape.m, shape.n);
    a.fill(rng);
    b.fill(rng);
    c.fill(rng);
  });
}

void CallSite::call(int nthreads) {
  with_typed(*this, [&](auto& a, auto& b, auto& c, auto&) {
    using T = std::decay_t<decltype(*a.buf.data())>;
    smm::core::smm_gemm(T(1), a.cview(), b.cview(), static_cast<T>(beta),
                        c.view(), nthreads);
  });
}

void CallSite::snapshot() {
  with_typed(*this, [&](auto&, auto&, auto& c, auto& c0) {
    std::copy(c.buf.data(), c.buf.data() + c.rows * c.cols, c0.buf.data());
  });
}

OracleVerdict CallSite::check() const {
  return with_typed(*this, [&](const auto& a, const auto& b, const auto& c,
                               const auto& c0) {
    using T = std::decay_t<decltype(*a.buf.data())>;
    return check_gemm(T(1), a.cview(), b.cview(), static_cast<T>(beta),
                      c0.cview(), c.cview());
  });
}

GemmWorkload make_gemm_workload(const std::string& name,
                                    std::uint64_t seed) {
  GemmWorkload w;
  const bool tiny = name == "warm_tiny";
  w.nthreads = tiny ? 1 : 2;
  w.check_probability = tiny ? 1.0 / 2048 : 1.0 / 128;
  w.max_checks = tiny ? 20000 : 48;
  const std::vector<Shape> shapes = gemm_shapes(name);
  Rng data(seed, 1);
  w.sites.resize(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    w.sites[i].shape = shapes[i];
    // compute_mid alternates beta over the list so both update forms
    // run in both precisions; warm_tiny keeps the default beta = 0.
    w.sites[i].beta = tiny ? 0.0 : static_cast<double>((i / 2) % 2);
    w.sites[i].label = "smm_gemm " + shapes[i].name();
    w.sites[i].init(data);
  }
  Rng order(seed, 2);
  std::vector<std::uint16_t> perm(shapes.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    perm[i] = static_cast<std::uint16_t>(i);
  const std::size_t blocks = tiny ? 2048 : 512;
  w.schedule.reserve(blocks * perm.size());
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1], perm[order.below(i)]);
    w.schedule.insert(w.schedule.end(), perm.begin(), perm.end());
  }
  return w;
}

double gemm_setup(GemmWorkload& w, Report& report) {
  for (CallSite& s : w.sites) s.snapshot();
  const std::int64_t t0 = now_ns();
  for (CallSite& s : w.sites) {
    try {
      s.call(w.nthreads);
    } catch (const std::exception& e) {
      ++report.failed;
      report.notes.push_back(s.shape.name() + " threw in set-up: " + e.what());
    }
  }
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  for (CallSite& s : w.sites) {
    ++report.attempted;
    const OracleVerdict v = s.check();
    if (!v.ok) {
      ++report.wrong;
      report.notes.push_back("WRONG " + s.shape.name() + ": " + v.detail);
    }
  }
  return setup_s;
}

GemmResult gemm_measure(GemmWorkload& w, const RunConfig& cfg,
                            double seconds, TraceSink* trace,
                            Report& report) {
  GemmResult r;
  Rng pick(cfg.seed, 3);
  std::size_t failed = 0;
  const std::size_t len = w.schedule.size();
  const auto window_ns = static_cast<std::int64_t>(0.1 * cfg.seconds * 1e9);
  LatencyHist win;
  std::size_t win_calls = 0;
  double win_flops = 0.0;
  std::int64_t win_excluded = 0;
  r.min_window_calls = SIZE_MAX;
  const std::int64_t start = now_ns();
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t win_start = start;
  std::int64_t prev = now_ns();
  for (std::size_t i = 0;; ++i) {
    CallSite& s = w.sites[w.schedule[i % len]];
    const bool check =
        r.checks < w.max_checks && pick.unit() < w.check_probability;
    if (check) {
      const std::int64_t c0 = now_ns();
      s.snapshot();
      prev = now_ns();
      win_excluded += prev - c0;
    }
    bool ok = true;
    try {
      s.call(w.nthreads);
    } catch (const std::exception& e) {
      ok = false;
      if (failed++ == 0)
        report.notes.push_back(s.shape.name() + " threw: " + e.what());
    }
    std::int64_t t = now_ns();
    r.hist.record(t - prev);
    win.record(t - prev);
    if (trace != nullptr) trace->span(s.label.c_str(), "core", 0, prev, t);
    ++win_calls;
    if (ok) win_flops += s.shape.flops();
    if (check) {
      ++r.checks;
      const OracleVerdict v = s.check();
      if (!v.ok) {
        ++report.wrong;
        win_flops -= s.shape.flops();
        report.notes.push_back("WRONG " + s.shape.name() + ": " + v.detail);
      }
      const std::int64_t t2 = now_ns();
      win_excluded += t2 - t;
      t = t2;
    }
    prev = t;
    const bool done = t >= stop;
    if (done || t - win_start >= window_ns) {
      const double wall = static_cast<double>(t - win_start - win_excluded) * 1e-9;
      r.win_p50.push_back(win.quantile(0.50));
      r.win_p99.push_back(win.quantile(0.99));
      r.win_gflops.push_back(win_flops / wall * 1e-9);
      r.win_rps.push_back(static_cast<double>(win_calls) / wall);
      r.min_window_calls = std::min(r.min_window_calls, win_calls);
      r.calls += win_calls;
      r.flops += win_flops;
      r.wall_s += wall;
      win.clear();
      win_calls = 0;
      win_flops = 0.0;
      win_excluded = 0;
      win_start = t;
    }
    if (done) break;
  }
  report.attempted += r.calls;
  report.failed += failed;
  return r;
}

void report_gemm(const GemmResult& r, Report& report) {
  report.put("latency_p50_ns", median(r.win_p50), "ns", r.calls);
  report.put("latency_p99_ns", median(r.win_p99), "ns", r.calls);
  report.put("gflops", median(r.win_gflops), "GFLOP/s", r.calls);
  report.put("sustained_rps", median(r.win_rps), "1/s", r.calls);
  report.notes.push_back(
      std::to_string(r.calls) + " calls in " +
      std::to_string(r.win_p50.size()) + " windows (fewest " +
      std::to_string(r.min_window_calls) + "), metrics are medians over windows; " +
      std::to_string(r.hist.beyond(0.99)) + " calls beyond the whole-run p99, " +
      std::to_string(r.checks) + " oracle-checked");
}

}  // namespace perfbench
