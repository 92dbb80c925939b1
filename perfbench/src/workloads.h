// The two smm_gemm workloads: one caller issuing smm_gemm back to back
// (a closed loop) over a fixed shape mix.
//
//   warm_tiny    m,n,k in [2,24], nthreads=1, default options. ~1k flops
//                per call, so the dispatch layers (entry checks, option
//                resolve, fingerprint, PlanCache mutex, tuner gate) are a
//                large share of every call.
//   compute_mid  cubes 48-192, skinny (m or n <= 8) and small-k shapes,
//                nthreads=2, beta in {0,1}. >=200k flops per call, so the
//                time goes to packing, micro-kernels and the 2-way split;
//                dispatch is under 1%.
//
// The shape lists are part of the workload's definition and fixed; the
// seed drives operand values, call order and which calls are checked.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "oracle.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// One (shape, dtype, beta) entry of a workload's mix with its operands.
struct CallSite {
  Shape shape;
  double beta = 0.0;
  std::string label;  ///< span name in the Chrome trace
  Mat<float> af, bf, cf, c0f;
  Mat<double> ad, bd, cd, c0d;

  void init(Rng& rng);
  /// C = A*B + beta*C through the public entry point.
  void call(int nthreads);
  /// Copy C aside so the next call can be checked (beta != 0 reads it).
  void snapshot();
  /// Check the latest call against the snapshot taken before it.
  [[nodiscard]] OracleVerdict check() const;
};

struct GemmWorkload {
  int nthreads = 1;
  std::vector<CallSite> sites;
  /// Call order: consecutive seeded permutations of all sites, so every
  /// seed runs each site equally often.
  std::vector<std::uint16_t> schedule;
  double check_probability = 0.0;
  std::size_t max_checks = 0;
};

bool is_gemm_workload(const std::string& name);
std::vector<Shape> gemm_shapes(const std::string& name);
GemmWorkload make_gemm_workload(const std::string& name,
                                    std::uint64_t seed);

/// First call of every site, timed as set-up, then every site checked
/// by the oracle. Returns set-up seconds.
double gemm_setup(GemmWorkload& w, Report& report);

struct GemmResult {
  LatencyHist hist;
  std::size_t calls = 0, checks = 0;
  double wall_s = 0.0;  ///< timed wall, oracle checks excluded
  double flops = 0.0;   ///< useful flops of correct calls
  /// The same figures per consecutive window (1 s of a 10 s run). The
  /// reported metrics are medians over windows, so a host scheduler
  /// stall moves one window, not the run.
  std::vector<double> win_p50, win_p99, win_gflops, win_rps;
  std::size_t min_window_calls = 0;
};

/// The timed loop for `seconds`: per-call latency from
/// consecutive timestamps, seeded oracle samples outside the timed
/// intervals. With `trace`, each call is also recorded as a span.
GemmResult gemm_measure(GemmWorkload& w, const RunConfig& cfg,
                            double seconds, TraceSink* trace,
                            Report& report);

/// The end-to-end metrics of a measurement.
void report_gemm(const GemmResult& r, Report& report);

}  // namespace perfbench
