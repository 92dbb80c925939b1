// Shared vocabulary of the seeded benchmark: clock, seeded RNG, the
// metric sink every workload reports into, and the operand buffers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/aligned_buffer.h"
#include "src/matrix/view.h"

namespace perfbench {

using smm::index_t;
using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of randomness. Every input is
/// a pure function of (--seed, stream id), so one seed regenerates the
/// same operands, schedules and arrival times on any host.
class Rng {
 public:
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 0)
      : s_(seed * 0x9E3779B97F4A7C15ull ^ (stream + 1) * 0xD1B54A32D192ED03ull) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound).
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(unit() * static_cast<double>(bound));
  }

 private:
  std::uint64_t s_;
};

struct Shape {
  index_t m = 0, n = 0, k = 0;
  bool f64 = false;
  [[nodiscard]] double flops() const {
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k);
  }
  [[nodiscard]] std::string name() const;
};

/// One reported number. `samples` is how many observations it summarises
/// (calls, requests, batches); printed beside the value, never in the
/// result object.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

/// What one run reports: the metrics plus the correctness ledger.
struct Report {
  std::map<std::string, Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;     ///< threw, refused, or timed out
  std::size_t wrong = 0;      ///< oracle rejections
  std::size_t violations = 0; ///< counter invariants broken
  std::vector<std::string> notes;

  void put(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void violate(const std::string& what) {
    ++violations;
    notes.push_back("INVARIANT VIOLATED: " + what);
  }
};

/// Column-major operand storage filled with seeded values in [-1, 1].
template <typename T>
struct Mat {
  index_t rows = 0, cols = 0;
  smm::AlignedBuffer<T> buf;
  Mat() = default;
  Mat(index_t r, index_t c) : rows(r), cols(c), buf(r * c) {}
  void fill(Rng& rng) {
    for (index_t i = 0; i < rows * cols; ++i)
      buf.data()[i] = static_cast<T>(2.0 * rng.unit() - 1.0);
  }
  [[nodiscard]] smm::ConstMatrixView<T> cview() const {
    return {buf.data(), rows, cols, rows};
  }
  [[nodiscard]] smm::MatrixView<T> view() { return {buf.data(), rows, cols, rows}; }
};

/// Run parameters shared by every workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the Chrome trace is written
};

}  // namespace perfbench
