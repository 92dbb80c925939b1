// The one correctness oracle every workload shares.
//
// A result C = alpha*A*B + beta*C0 computed in T is compared against the
// same product evaluated in a wider type (double for float results, long
// double for double results) under the componentwise forward-error bound
//
//   |C - C_ref| <= (gamma_{k+2}(u_T) + gamma_{k+2}(u_ref))
//                  * (|alpha| |A||B| + |beta| |C0|),
//   gamma_n(u) = n u / (1 - n u).
//
// gamma_k covers the k-term dot product; the alpha scale and the beta
// update add one rounding each, hence k+2. The second term is the same
// bound for the reference itself. There is no safety factor on top.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct OracleVerdict {
  bool ok = true;
  /// Largest |C - C_ref| / bound seen (<= 1 on a pass).
  double worst_ratio = 0.0;
  std::string detail;  ///< the first offending element, when !ok
};

/// `c0` is C before the call; it is ignored (and may be empty) when
/// beta == 0, since smm_gemm does not read C then.
template <typename T>
OracleVerdict check_gemm(T alpha, smm::ConstMatrixView<T> a,
                         smm::ConstMatrixView<T> b, T beta,
                         smm::ConstMatrixView<T> c0,
                         smm::ConstMatrixView<T> c);

/// The per-element bound (same formula), exposed for the self-check.
template <typename T>
double element_bound(T alpha, smm::ConstMatrixView<T> a,
                     smm::ConstMatrixView<T> b, T beta,
                     smm::ConstMatrixView<T> c0, index_t i, index_t j);

/// The oracle accepts a correct product and rejects the same product
/// with one element moved just past its bound, in f32 and f64.
bool oracle_selftest();

}  // namespace perfbench
