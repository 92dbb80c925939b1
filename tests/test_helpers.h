// Shared helpers for the smmkit test suite.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>

#include "src/common/rng.h"
#include "src/libs/naive.h"
#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"

namespace smm::test {

/// Checks C = alpha * A * B + beta * C0, computed in T, against the same
/// product evaluated in a wider type (double for float, long double for
/// double) under the componentwise forward-error bound
///
///   |C - C_ref| <= (gamma_{k+2}(u_T) + gamma_{k+2}(u_ref))
///                  * (|alpha| |A||B| + |beta| |C0|),
///   gamma_n(u) = n u / (1 - n u).
///
/// gamma_k covers the k-term dot product, in any order and whether each
/// step rounds once (fused) or twice; the alpha scale and the beta update
/// add one rounding each, hence k+2. The second term bounds the reference
/// itself. There is no safety factor on top. C0 is not read when
/// beta == 0. A non-finite C element fails.
template <typename T>
::testing::AssertionResult within_forward_error_bound(
    T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b, T beta,
    ConstMatrixView<T> c0, ConstMatrixView<T> c) {
  using W = std::conditional_t<std::is_same_v<T, float>, double, long double>;
  const auto gamma = [&](auto eps) {
    const long double nu = static_cast<long double>(a.cols() + 2) *
                           static_cast<long double>(eps) / 2;
    return nu / (1 - nu);
  };
  const long double g = gamma(std::numeric_limits<T>::epsilon()) +
                        gamma(std::numeric_limits<W>::epsilon());
  for (index_t j = 0; j < c.cols(); ++j) {
    for (index_t i = 0; i < c.rows(); ++i) {
      W ref = 0, mag = 0;
      for (index_t p = 0; p < a.cols(); ++p) {
        const W x = static_cast<W>(a(i, p)), y = static_cast<W>(b(p, j));
        ref += x * y;
        mag += std::fabs(x) * std::fabs(y);
      }
      ref *= static_cast<W>(alpha);
      mag *= std::fabs(static_cast<W>(alpha));
      if (beta != T(0)) {
        ref += static_cast<W>(beta) * static_cast<W>(c0(i, j));
        mag += std::fabs(static_cast<W>(beta) * static_cast<W>(c0(i, j)));
      }
      const long double err = std::fabs(static_cast<long double>(c(i, j)) -
                                        static_cast<long double>(ref));
      const long double bound = g * static_cast<long double>(mag);
      if (!std::isfinite(c(i, j)) || err > bound)
        return ::testing::AssertionFailure()
               << "C(" << i << ", " << j << ") = " << c(i, j) << ", |err| "
               << static_cast<double>(err) << " > bound "
               << static_cast<double>(bound);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Random matrices for a GEMM problem, deterministic per seed.
template <typename T>
struct GemmProblem {
  Matrix<T> a;
  Matrix<T> b;
  Matrix<T> c;
  Matrix<T> c_expected;

  GemmProblem(index_t m, index_t n, index_t k, std::uint64_t seed,
              Layout a_layout = Layout::kColMajor,
              Layout b_layout = Layout::kColMajor)
      : a(m, k, a_layout), b(k, n, b_layout), c(m, n), c_expected(m, n) {
    Rng rng(seed);
    a.fill_random(rng);
    b.fill_random(rng);
    c.fill_random(rng);
    c_expected = c.clone();
  }

  /// Compute the oracle into c_expected, and record alpha, beta and
  /// c_expected's prior contents as C0 for check().
  void reference(T alpha, T beta) {
    alpha_ = alpha;
    beta_ = beta;
    c0_ = c_expected.clone();
    referenced_ = true;
    libs::naive_gemm(alpha, a.cview(), b.cview(), beta,
                     c_expected.view());
  }

  /// Verify c = alpha * A * B + beta * C0 under the forward-error bound
  /// (within_forward_error_bound, no factor), with reference()'s alpha,
  /// beta and C0.
  [[nodiscard]] ::testing::AssertionResult check() const {
    if (!referenced_)
      return ::testing::AssertionFailure() << "check() before reference()";
    return within_forward_error_bound(alpha_, a.cview(), b.cview(), beta_,
                                      c0_.cview(), c.cview());
  }

 private:
  T alpha_ = T(0);
  T beta_ = T(0);
  Matrix<T> c0_;
  bool referenced_ = false;
};

}  // namespace smm::test
