#include "stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {
constexpr std::int64_t kExact = 2048;  // 2^11
constexpr int kSubBits = 8;
constexpr int kMaxExp = 47;  // ~1.4e14 ns: far past any run
constexpr std::size_t kBuckets =
    kExact + static_cast<std::size_t>(kMaxExp - 11 + 1) * (1u << kSubBits);
}  // namespace

LatencyHist::LatencyHist() : buckets_(kBuckets, 0) {}

std::size_t LatencyHist::bucket(std::int64_t ns) {
  if (ns < 0) ns = 0;
  if (ns < kExact) return static_cast<std::size_t>(ns);
  const auto u = static_cast<std::uint64_t>(ns);
  const int e = std::min(kMaxExp, 63 - std::countl_zero(u));
  const std::uint64_t sub = (u >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return kExact + static_cast<std::size_t>(e - 11) * (1u << kSubBits) +
         static_cast<std::size_t>(sub);
}

double LatencyHist::midpoint(std::size_t b) {
  if (b < static_cast<std::size_t>(kExact)) return static_cast<double>(b);
  const std::size_t rel = b - kExact;
  const int e = 11 + static_cast<int>(rel >> kSubBits);
  const double sub = static_cast<double>(rel & ((1u << kSubBits) - 1));
  const double width = std::ldexp(1.0, e - kSubBits);
  return std::ldexp(1.0, e) + (sub + 0.5) * width;
}

void LatencyHist::record(std::int64_t ns) {
  ++buckets_[bucket(ns)];
  ++count_;
}

void LatencyHist::clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double LatencyHist::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::size_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return midpoint(b);
  }
  return midpoint(kBuckets - 1);
}

std::size_t LatencyHist::beyond(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count_))));
  std::size_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return count_ - seen;
  }
  return 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> py_quartiles(std::vector<double> v) {
  // CPython statistics.quantiles, method='exclusive', n=4.
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  std::vector<double> out;
  if (ld < 2) return out;
  const long n = 4, m = ld + 1;
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = j < 1 ? 1 : (j > ld - 1 ? ld - 1 : j);
    const long delta = i * m - j * n;
    out.push_back((v[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(n - delta) +
                   v[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  static_cast<double>(n));
  }
  return out;
}

bool stats_selftest() {
  bool ok = true;
  const auto expect = [&ok](const char* what, double got, double want) {
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
      std::fprintf(stderr, "selftest: %s = %.9g, expected %.9g\n", what, got,
                   want);
      ok = false;
    }
  };
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) ten.push_back(i);
  const auto q = py_quartiles(ten);
  expect("quartile q1 of 1..10", q.at(0), 2.75);
  expect("quartile q2 of 1..10", q.at(1), 5.5);
  expect("quartile q3 of 1..10", q.at(2), 8.25);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0] (clamped ends)
  const auto q3 = py_quartiles({4, 1, 2});
  expect("quartile q1 of {1,2,4}", q3.at(0), 1.0);
  expect("quartile q3 of {1,2,4}", q3.at(2), 4.0);
  expect("median of 1..10", median(ten), 5.5);
  // Nearest rank: p99 of 1..1000 is 990, with exactly 10 samples beyond.
  std::vector<double> thousand;
  LatencyHist h;
  for (int i = 1; i <= 1000; ++i) {
    thousand.push_back(i);
    h.record(i);
  }
  expect("p99 of 1..1000", quantile(thousand, 0.99), 990);
  expect("hist p99 of 1..1000", h.quantile(0.99), 990);
  expect("hist beyond p99 of 1..1000", static_cast<double>(h.beyond(0.99)),
         10);
  expect("hist p50 of 1..1000", h.quantile(0.5), 500);
  // Log buckets: a value lands in a bucket whose midpoint is within the
  // stated 0.4% resolution.
  LatencyHist big;
  big.record(1'000'000);
  const double got = big.quantile(0.5);
  if (std::fabs(got - 1e6) > 1e6 / 256.0) {
    std::fprintf(stderr, "selftest: log bucket of 1e6 reads %.1f\n", got);
    ok = false;
  }
  return ok;
}

}  // namespace perfbench
