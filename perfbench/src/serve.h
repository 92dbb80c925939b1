// The two service workloads: one harness thread keeps a fixed number of
// seeded requests in flight against an SmmService (a closed loop of
// clients) and collects their terminals.
//
//   serve_shared_b       shards=4, lanes=1. Zipf (s=1.1) over 2000 shape
//                        classes, more than the four 256-entry shard plan
//                        caches hold, so a few percent of requests build.
//                        B comes from two weight matrices per class, so
//                        same-shape requests coalesce and pack B once;
//                        kHigh requests are hedged.
//   serve_single_domain  shards=1, lanes=4: the legacy admission path
//                        with four lanes on the process-wide plan cache.
//                        128 classes stay cache-resident, every request
//                        has its own B, and coalescing is off, so the
//                        coalescing and hedging counters stay at 0.
//
// Every request carries the same deadline. A closed loop keeps a host
// scheduler stall from turning into an arrival burst: a stalled harness
// or lane delays the few requests in flight, where an open loop would
// queue every arrival of the stall. The end-to-end phase runs two
// clients; the traced run runs sixteen, which queue enough to coalesce
// and steal, and then a seeded Poisson open loop, timed from each
// request's due time, for the generator's own lag and backlog.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/service/smm_service.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

bool is_serve_workload(const std::string& name);

/// Digest of the seeded serve inputs (arrivals, classes, operand pools)
/// for the same-seed self-check.
std::uint64_t serve_inputs_digest(std::uint64_t seed);

struct ServeSpec {
  int shards = 1;
  int lanes = 1;
  std::size_t coalesce_depth = 16;
  std::vector<index_t> dims;  ///< classes are dims^3 x {f32, f64}
  bool shared_b = false;      ///< B from 2 weights per class, else own B
  std::size_t clients = 2;    ///< closed-loop requests kept in flight
  std::size_t traced_clients = 16;  ///< the same, in the traced run
  double open_rate = 0.0;     ///< req/s of the traced open-loop phase
  long limit_ms = 1;          ///< every request's deadline
};
ServeSpec serve_spec(const std::string& name);

/// Offered load of a phase: `clients` requests kept in flight (closed
/// loop), or Poisson arrivals at `rate` req/s when clients == 0.
struct Load {
  double rate = 0.0;
  std::size_t clients = 0;
};

/// What one phase observed.
struct PhaseResult {
  std::int64_t wall_ns = 0;
  std::size_t sent = 0, ok = 0, failed = 0, refused = 0, wrong = 0;
  /// due -> terminal ns of every request (a closed-loop request is due
  /// when sent); a failed or refused one reads at least the deadline.
  std::vector<double> latency;
  /// The same latencies split by due time into consecutive 0.1 s
  /// windows (a 10 s run's share of them, at other run lengths).
  std::vector<std::vector<double>> windows;
  std::vector<double> window_ok;        ///< ok terminals seen per window
  std::vector<double> window_flops;     ///< their useful flops
  double window_s = 0.0;
  std::vector<double> gen_lag, collect_lag;
  std::vector<double> submit_ns;            ///< traced phases only
  std::vector<double> overhead_ns;          ///< traced, minus warm median
  bool backlog_grew = false;
  std::map<std::string, std::size_t> failure_codes;
  smm::service::SmmService::Stats before, after;
  /// Median over the windows of each window's q-quantile. The host's
  /// scheduler stalls (10-40 ms, a few per minute) spoil the windows they
  /// fall in, not the whole phase.
  [[nodiscard]] double p(double q) const;
  /// Median over the windows of a per-window total divided by its length.
  [[nodiscard]] double per_window_median(const std::vector<double>& totals) const;
};

class ServeBench {
 public:
  explicit ServeBench(const RunConfig& cfg);
  ~ServeBench();
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  /// Construct the service and complete every class once (timed), then
  /// check every class's result. Returns set-up seconds.
  double setup(Report& report);

  /// The closed-loop phase; reports the end-to-end metrics.
  void measure(Report& report);

  /// One phase of `load` for `seconds`. Stream `stream` (with the run
  /// seed) fixes the draws: classes, priorities, weights, and for an open
  /// loop the arrival times. With `trace`, submit times, per-request
  /// spans and the per-class overhead are recorded (warm medians must be
  /// set first).
  PhaseResult run_phase(const Load& load, double seconds, std::uint64_t stream,
                        TraceSink* trace, Report& report);

  /// Median warm smm_gemm ns of every class, measured through the public
  /// entry point on the calling thread. Needed by traced phases for
  /// service.overhead_ns.
  void measure_warm_medians();

  /// Counter invariants of one phase; violations go to the report.
  void check_invariants(const PhaseResult& r, const std::string& phase,
                        Report& report) const;

  [[nodiscard]] const ServeSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t num_classes() const { return classes_.size(); }
  [[nodiscard]] const Shape& class_shape(std::size_t c) const {
    return classes_[c];
  }
  /// Class of Zipf rank r (0 = hottest).
  [[nodiscard]] std::size_t class_of_rank(std::size_t r) const {
    return rank_to_class_[r];
  }

 private:
  struct Pools;
  RunConfig cfg_;
  ServeSpec spec_;
  std::vector<Shape> classes_;
  std::vector<std::string> span_names_;  ///< per class, for the trace
  std::vector<std::size_t> rank_to_class_;
  std::vector<double> zipf_cdf_;
  std::unique_ptr<Pools> pools_;
  std::vector<double> warm_median_ns_;
  std::unique_ptr<smm::service::SmmService> svc_;
};

}  // namespace perfbench
