// Numerical comparison helpers for verifying GEMM results.
#pragma once

#include "src/common/types.h"
#include "src/matrix/view.h"

namespace smm {

/// Largest absolute element-wise difference between two same-shaped views;
/// +infinity when any difference is NaN (a NaN on either side), so no
/// tolerance accepts it.
template <typename T>
double max_abs_diff(ConstMatrixView<T> a, ConstMatrixView<T> b);

/// Error tolerance for a GEMM with inner dimension k: accumulated rounding
/// grows ~ sqrt(k) for random data; we use a conservative linear bound.
template <typename T>
double gemm_tolerance(index_t k);

/// True iff views match within gemm_tolerance(k) scaled by `scale`
/// (the magnitude of the data, default 1).
template <typename T>
bool gemm_allclose(ConstMatrixView<T> actual, ConstMatrixView<T> expected,
                   index_t k, double scale = 1.0);

}  // namespace smm
