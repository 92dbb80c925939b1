// Algorithm-Based Fault Tolerance checks (DESIGN.md §12), promoted from
// examples/abft_checksum.cpp into a library feature. C = alpha*A*B +
// beta*C0 is verified through the checksum invariants
//
//   1^T * C  ==  alpha * (1^T * A) * B + beta * (1^T * C0)   (per column)
//   C * 1    ==  alpha * A * (B * 1) + beta * (C0 * 1)       (per row)
//
// Each costs two skinny GEMVs — O(mn + mk + kn) — negligible next to the
// m*n*k product exactly when small-M GEMM is fast, which is the paper's
// ABFT motivation. Together they localize damage to exact (row, column)
// coordinates. A single flipped element is repaired in place by an O(k)
// recompute of that element; damage confined to a few rows or columns
// is repaired by an O(panel * k) localized recompute; only
// unlocalizable damage is left to the caller's full-recompute chain.
#pragma once

#include <vector>

#include "src/common/types.h"
#include "src/matrix/view.h"
#include "src/robust/integrity.h"

namespace smm::robust {

/// Row and column sums of a C snapshot — the beta != 0 contribution to
/// both verification invariants. GuardedExecutor computes this *once*
/// per run, before the first attempt, so every verification (and every
/// retry's verification) reuses the pre-update checksum instead of
/// re-deriving it from the full snapshot — and a guarded beta != 0 call
/// is verified exactly like a beta == 0 one.
struct CChecksums {
  std::vector<double> col_sums;  ///< per column j: sum_i c(i, j)
  std::vector<double> row_sums;  ///< per row i:    sum_j c(i, j)
};

/// Checksums of a col-major m x n buffer with leading dimension ld.
template <typename T>
CChecksums checksum_c(const T* c, index_t ld, index_t m, index_t n);

template <typename T>
CChecksums checksum_c(ConstMatrixView<T> c);

/// How verify_and_repair resolved the damage it found.
enum class Repair : std::uint8_t {
  kNone,     ///< nothing repaired (clean, detect-only, or unlocalizable)
  kElement,  ///< one element recomputed in place (O(k))
  kPanel,    ///< damaged rows/columns recomputed in place (O(panel * k))
};

const char* to_string(Repair repair);

/// Result of one row+column verification (and repair attempt).
struct IntegrityReport {
  bool ok = false;        ///< final contents verified (possibly post-repair)
  bool detected = false;  ///< corruption was found (even if repaired)
  Repair repair = Repair::kNone;
  index_t bad_row = -1;   ///< row of the worst column-checksum residual
  index_t bad_col = -1;   ///< column of the worst row-checksum residual
  int damaged_rows = 0;   ///< rows over tolerance at the last pass
  int damaged_cols = 0;   ///< columns over tolerance at the last pass
  double residual = 0.0;
  double tolerance = 0.0;
};

/// Verify c == alpha*a*b + beta*c0 by row AND column checksums; in
/// kCorrect mode, localize and repair in place:
///   - exactly one damaged (row, column): recompute that element (O(k));
///   - damage confined to few rows/columns: recompute the cheaper panel
///     set in double precision (beta != 0 needs `c_before`);
///   - anything wider (or a failed repair): report !ok — the caller's
///     recompute chain takes over.
/// Every repair is re-verified before being reported ok. kDetect stops
/// at detection; kOff returns ok without looking. Health accounting:
/// integrity_detected on detection; integrity_corrected /
/// integrity_recomputed when the element/panel repair lands (a detection
/// returned !ok is the caller's to resolve — GuardedExecutor counts its
/// re-execution as integrity_recomputed).
/// `c0_sums` (required when beta != 0) is the pre-update checksum;
/// `c_before`/`c_before_ld` (optional) enable beta != 0 panel repair.
template <typename T>
IntegrityReport verify_and_repair(T alpha, ConstMatrixView<T> a,
                                  ConstMatrixView<T> b, T beta,
                                  const CChecksums* c0_sums,
                                  const T* c_before, index_t c_before_ld,
                                  MatrixView<T> c, integrity::AbftMode mode,
                                  double tolerance_scale = 64.0);

}  // namespace smm::robust
