#include "src/matrix/compare.h"

#include <cmath>
#include <limits>

#include "src/common/error.h"

namespace smm {

template <typename T>
double max_abs_diff(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  SMM_EXPECT(a.rows() == b.rows() && a.cols() == b.cols(),
             "max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double d = std::abs(static_cast<double>(a(i, j)) -
                                static_cast<double>(b(i, j)));
      // `d > worst` is false for NaN, which would read a NaN as a match.
      if (std::isnan(d)) return std::numeric_limits<double>::infinity();
      if (d > worst) worst = d;
    }
  }
  return worst;
}

template <typename T>
double gemm_tolerance(index_t k) {
  const double eps = static_cast<double>(std::numeric_limits<T>::epsilon());
  // k multiply-adds each contribute <= eps relative error; keep headroom
  // for the alpha/beta update and packing round-trips.
  return eps * (4.0 + 2.0 * static_cast<double>(k));
}

template <typename T>
bool gemm_allclose(ConstMatrixView<T> actual, ConstMatrixView<T> expected,
                   index_t k, double scale) {
  return max_abs_diff(actual, expected) <= gemm_tolerance<T>(k) * scale;
}

template double max_abs_diff(ConstMatrixView<float>, ConstMatrixView<float>);
template double max_abs_diff(ConstMatrixView<double>,
                             ConstMatrixView<double>);
template double gemm_tolerance<float>(index_t);
template double gemm_tolerance<double>(index_t);
template bool gemm_allclose(ConstMatrixView<float>, ConstMatrixView<float>,
                            index_t, double);
template bool gemm_allclose(ConstMatrixView<double>, ConstMatrixView<double>,
                            index_t, double);

}  // namespace smm
