#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "src/core/smm.h"

namespace perfbench {

namespace {

template <typename T>
using Wide = std::conditional_t<std::is_same_v<T, float>, double, long double>;

template <typename U>
long double gamma_n(index_t n) {
  const long double u =
      static_cast<long double>(std::numeric_limits<U>::epsilon()) / 2;
  const long double nu = static_cast<long double>(n) * u;
  return nu / (1 - nu);
}

}  // namespace

template <typename T>
double element_bound(T alpha, smm::ConstMatrixView<T> a,
                     smm::ConstMatrixView<T> b, T beta,
                     smm::ConstMatrixView<T> c0, index_t i, index_t j) {
  using W = Wide<T>;
  const index_t k = a.cols();
  W mag = 0;
  for (index_t p = 0; p < k; ++p)
    mag += std::fabs(static_cast<W>(a(i, p))) * std::fabs(static_cast<W>(b(p, j)));
  mag *= std::fabs(static_cast<W>(alpha));
  if (beta != T(0))
    mag += std::fabs(static_cast<W>(beta)) * std::fabs(static_cast<W>(c0(i, j)));
  const long double g = gamma_n<T>(k + 2) + gamma_n<W>(k + 2);
  return static_cast<double>(g * static_cast<long double>(mag));
}

template <typename T>
OracleVerdict check_gemm(T alpha, smm::ConstMatrixView<T> a,
                         smm::ConstMatrixView<T> b, T beta,
                         smm::ConstMatrixView<T> c0,
                         smm::ConstMatrixView<T> c) {
  using W = Wide<T>;
  OracleVerdict v;
  const index_t m = c.rows(), n = c.cols(), k = a.cols();
  const long double g = gamma_n<T>(k + 2) + gamma_n<W>(k + 2);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      W acc = 0, mag = 0;
      for (index_t p = 0; p < k; ++p) {
        const W x = static_cast<W>(a(i, p)), y = static_cast<W>(b(p, j));
        acc += x * y;
        mag += std::fabs(x) * std::fabs(y);
      }
      W ref = static_cast<W>(alpha) * acc;
      mag *= std::fabs(static_cast<W>(alpha));
      if (beta != T(0)) {
        ref += static_cast<W>(beta) * static_cast<W>(c0(i, j));
        mag += std::fabs(static_cast<W>(beta)) *
               std::fabs(static_cast<W>(c0(i, j)));
      }
      const long double err = std::fabs(
          static_cast<long double>(static_cast<W>(c(i, j))) -
          static_cast<long double>(ref));
      const long double bound = g * static_cast<long double>(mag);
      const bool finite = std::isfinite(static_cast<double>(c(i, j)));
      const double ratio =
          bound > 0 ? static_cast<double>(err / bound) : (err > 0 ? 1e300 : 0);
      if (ratio > v.worst_ratio) v.worst_ratio = ratio;
      if ((!finite || err > bound) && v.ok) {
        v.ok = false;
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "C(%ld,%ld)=%.17g ref=%.17Lg |err|=%.3Lg bound=%.3Lg",
                      static_cast<long>(i), static_cast<long>(j),
                      static_cast<double>(c(i, j)),
                      static_cast<long double>(ref), err, bound);
        v.detail = buf;
      }
    }
  }
  return v;
}

namespace {

template <typename T>
bool selftest_one(std::uint64_t seed) {
  const index_t m = 13, n = 7, k = 29;
  Rng rng(seed, 99);
  Mat<T> a(m, k), b(k, n), c0(m, n), c(m, n);
  a.fill(rng);
  b.fill(rng);
  c0.fill(rng);
  for (index_t i = 0; i < m * n; ++i) c.buf.data()[i] = c0.buf.data()[i];
  const T alpha = T(1), beta = T(1);
  smm::core::smm_gemm(alpha, a.cview(), b.cview(), beta, c.view());
  if (!check_gemm(alpha, a.cview(), b.cview(), beta, c0.cview(), c.cview()).ok) {
    std::fprintf(stderr, "selftest: oracle rejected a correct product\n");
    return false;
  }
  // Move one element past its bound by four bounds: whatever the
  // element's own rounding error (<= one bound), it now exceeds it.
  const index_t pi = 5, pj = 3;
  const double bnd =
      element_bound(alpha, a.cview(), b.cview(), beta, c0.cview(), pi, pj);
  T& e = c.view()(pi, pj);
  const T moved = static_cast<T>(static_cast<double>(e) + 4.0 * bnd);
  if (moved == e) {
    std::fprintf(stderr, "selftest: perturbation vanished in rounding\n");
    return false;
  }
  e = moved;
  if (check_gemm(alpha, a.cview(), b.cview(), beta, c0.cview(), c.cview()).ok) {
    std::fprintf(stderr, "selftest: oracle accepted a perturbed element\n");
    return false;
  }
  return true;
}

}  // namespace

bool oracle_selftest() {
  return selftest_one<float>(7) && selftest_one<double>(7);
}

template OracleVerdict check_gemm(float, smm::ConstMatrixView<float>,
                                  smm::ConstMatrixView<float>, float,
                                  smm::ConstMatrixView<float>,
                                  smm::ConstMatrixView<float>);
template OracleVerdict check_gemm(double, smm::ConstMatrixView<double>,
                                  smm::ConstMatrixView<double>, double,
                                  smm::ConstMatrixView<double>,
                                  smm::ConstMatrixView<double>);
template double element_bound(float, smm::ConstMatrixView<float>,
                              smm::ConstMatrixView<float>, float,
                              smm::ConstMatrixView<float>, index_t, index_t);
template double element_bound(double, smm::ConstMatrixView<double>,
                              smm::ConstMatrixView<double>, double,
                              smm::ConstMatrixView<double>, index_t, index_t);

}  // namespace perfbench
