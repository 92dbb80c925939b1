// Order statistics the benchmark reports: a fixed-memory latency
// histogram for the millions of warm calls a run makes, and the exact
// quantile rules used on small samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Latency histogram in integer nanoseconds: exact below 2048 ns, then
/// 256 sub-buckets per power of two (0.4% relative resolution). Fixed
/// memory, O(1) record, so recording never allocates on a timed path.
class LatencyHist {
 public:
  LatencyHist();
  void record(std::int64_t ns);
  void clear();
  /// Nearest-rank quantile: the smallest recorded value v with at least
  /// ceil(q * count) samples <= v (a bucket midpoint above 2048 ns).
  [[nodiscard]] double quantile(double q) const;
  /// Samples ranked strictly above the nearest-rank q-quantile.
  [[nodiscard]] std::size_t beyond(double q) const;

 private:
  static std::size_t bucket(std::int64_t ns);
  static double midpoint(std::size_t b);
  std::vector<std::uint64_t> buckets_;
  std::size_t count_ = 0;
};

/// Nearest-rank quantile of an unsorted sample (copied and sorted).
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Python's statistics.quantiles(data, n=4) (method 'exclusive'): the
/// rule the benchmark's acceptance spread is computed with.
std::vector<double> py_quartiles(std::vector<double> v);

/// Self-checks of the rules above; returns false and explains on stderr
/// when one disagrees with its hand-computed value.
bool stats_selftest();

}  // namespace perfbench
