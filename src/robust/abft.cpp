#include "src/robust/abft.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "src/common/error.h"
#include "src/matrix/compare.h"
#include "src/robust/health.h"

namespace smm::robust {

// ---- Row+column verification with localization and repair (§12) ------------

const char* to_string(Repair repair) {
  switch (repair) {
    case Repair::kNone:
      return "none";
    case Repair::kElement:
      return "element";
    case Repair::kPanel:
      return "panel";
  }
  return "?";
}

template <typename T>
CChecksums checksum_c(const T* c, index_t ld, index_t m, index_t n) {
  CChecksums sums;
  sums.col_sums.assign(static_cast<std::size_t>(n), 0.0);
  sums.row_sums.assign(static_cast<std::size_t>(m), 0.0);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      const double v = static_cast<double>(c[i + j * ld]);
      sums.col_sums[static_cast<std::size_t>(j)] += v;
      sums.row_sums[static_cast<std::size_t>(i)] += v;
    }
  }
  return sums;
}

template CChecksums checksum_c(const float*, index_t, index_t, index_t);
template CChecksums checksum_c(const double*, index_t, index_t, index_t);

template <typename T>
CChecksums checksum_c(ConstMatrixView<T> c) {
  CChecksums sums;
  sums.col_sums.assign(static_cast<std::size_t>(c.cols()), 0.0);
  sums.row_sums.assign(static_cast<std::size_t>(c.rows()), 0.0);
  for (index_t j = 0; j < c.cols(); ++j) {
    for (index_t i = 0; i < c.rows(); ++i) {
      const double v = static_cast<double>(c(i, j));
      sums.col_sums[static_cast<std::size_t>(j)] += v;
      sums.row_sums[static_cast<std::size_t>(i)] += v;
    }
  }
  return sums;
}

template CChecksums checksum_c(ConstMatrixView<float>);
template CChecksums checksum_c(ConstMatrixView<double>);

namespace {

/// One classification pass: actual row/col sums of C against the
/// expected ones, NaN-safe, collecting the over-tolerance sets.
struct Damage {
  std::vector<index_t> cols;  ///< columns whose row-checksum is off
  std::vector<index_t> rows;  ///< rows whose column-checksum is off
  double residual = 0.0;
  index_t bad_row = -1;
  index_t bad_col = -1;
  [[nodiscard]] bool clean() const { return cols.empty() && rows.empty(); }
};

template <typename T>
Damage classify(MatrixView<T> c, const std::vector<double>& exp_col,
                const std::vector<double>& exp_row, double tol) {
  const index_t m = c.rows(), n = c.cols();
  Damage damage;
  std::vector<double> arow(static_cast<std::size_t>(m), 0.0);
  double worst_col = 0.0, worst_row = 0.0;
  for (index_t j = 0; j < n; ++j) {
    double acol = 0.0;
    for (index_t i = 0; i < m; ++i) {
      const double v = static_cast<double>(c(i, j));
      acol += v;
      arow[static_cast<std::size_t>(i)] += v;
    }
    const double d = std::abs(acol - exp_col[static_cast<std::size_t>(j)]);
    // `!(d <= tol)` so a NaN residual counts as damage.
    if (!(d <= tol)) damage.cols.push_back(j);
    // NaN-safe worst tracking: a NaN residual sticks.
    if (!std::isnan(worst_col) && (std::isnan(d) || d > worst_col)) {
      worst_col = d;
      damage.bad_col = j;
    }
  }
  for (index_t i = 0; i < m; ++i) {
    const double d = std::abs(arow[static_cast<std::size_t>(i)] -
                              exp_row[static_cast<std::size_t>(i)]);
    if (!(d <= tol)) damage.rows.push_back(i);
    if (!std::isnan(worst_row) && (std::isnan(d) || d > worst_row)) {
      worst_row = d;
      damage.bad_row = i;
    }
  }
  damage.residual = std::isnan(worst_col) || std::isnan(worst_row)
                        ? std::numeric_limits<double>::quiet_NaN()
                        : std::max(worst_col, worst_row);
  return damage;
}

/// Recompute one element of C in double precision: the exact repair
/// (unlike subtracting the checksum delta, which carries the checksum's
/// own O(eps * k * m) rounding noise into the repaired value).
template <typename T>
void recompute_element(T alpha, ConstMatrixView<T> a, ConstMatrixView<T> b,
                       T beta, const T* c_before, index_t c_before_ld,
                       MatrixView<T> c, index_t i, index_t j) {
  const index_t k = a.cols();
  double acc = 0.0;
  for (index_t kk = 0; kk < k; ++kk)
    acc += static_cast<double>(a(i, kk)) * static_cast<double>(b(kk, j));
  acc *= static_cast<double>(alpha);
  if (beta != T(0))
    acc += static_cast<double>(beta) *
           static_cast<double>(c_before[i + j * c_before_ld]);
  c(i, j) = static_cast<T>(acc);
}

}  // namespace

template <typename T>
IntegrityReport verify_and_repair(T alpha, ConstMatrixView<T> a,
                                  ConstMatrixView<T> b, T beta,
                                  const CChecksums* c0_sums,
                                  const T* c_before, index_t c_before_ld,
                                  MatrixView<T> c, integrity::AbftMode mode,
                                  double tolerance_scale) {
  const index_t m = c.rows();
  const index_t n = c.cols();
  const index_t k = a.cols();
  SMM_EXPECT_CODE(a.rows() == m && b.rows() == k && b.cols() == n,
                  ErrorCode::kBadShape,
                  "verify_and_repair: operand shape mismatch");

  IntegrityReport report;
  const auto effective = integrity::resolve(mode);
  if (effective == integrity::AbftMode::kOff || c.empty()) {
    report.ok = true;
    return report;
  }
  SMM_EXPECT_CODE(beta == T(0) || c0_sums != nullptr,
                  ErrorCode::kPrecondition,
                  "verify_and_repair: beta != 0 needs the pre-update "
                  "checksum (abft::checksum_c of the original C)");

  // Expected checksums, computed once in double. colsum_a folds A's rows
  // (per k), rowsum_b folds B's columns (per k); one extra k-deep pass
  // per direction turns them into the expected C sums. O(mk + kn + mn)
  // total — two skinny GEMVs per direction, negligible next to m*n*k.
  std::vector<double> colsum_a(static_cast<std::size_t>(std::max<index_t>(k, 1)), 0.0);
  std::vector<double> rowsum_b(static_cast<std::size_t>(std::max<index_t>(k, 1)), 0.0);
  for (index_t kk = 0; kk < k; ++kk) {
    double sa = 0.0;
    for (index_t i = 0; i < m; ++i) sa += static_cast<double>(a(i, kk));
    colsum_a[static_cast<std::size_t>(kk)] = sa;
    double sb = 0.0;
    for (index_t j = 0; j < n; ++j) sb += static_cast<double>(b(kk, j));
    rowsum_b[static_cast<std::size_t>(kk)] = sb;
  }
  double magnitude = 1.0;  // only *expected* values feed the tolerance
  std::vector<double> exp_col(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    double e = 0.0;
    for (index_t kk = 0; kk < k; ++kk)
      e += colsum_a[static_cast<std::size_t>(kk)] *
           static_cast<double>(b(kk, j));
    e *= static_cast<double>(alpha);
    if (beta != T(0))
      e += static_cast<double>(beta) *
           c0_sums->col_sums[static_cast<std::size_t>(j)];
    exp_col[static_cast<std::size_t>(j)] = e;
    magnitude = std::max(magnitude, std::abs(e));
  }
  std::vector<double> exp_row(static_cast<std::size_t>(m), 0.0);
  for (index_t i = 0; i < m; ++i) {
    double e = 0.0;
    for (index_t kk = 0; kk < k; ++kk)
      e += static_cast<double>(a(i, kk)) *
           rowsum_b[static_cast<std::size_t>(kk)];
    e *= static_cast<double>(alpha);
    if (beta != T(0))
      e += static_cast<double>(beta) *
           c0_sums->row_sums[static_cast<std::size_t>(i)];
    exp_row[static_cast<std::size_t>(i)] = e;
    magnitude = std::max(magnitude, std::abs(e));
  }
  // Each checksum folds a k-deep GEMM through an m- (or n-) deep sum:
  // bound rounding by the combined depth, scaled to checksum magnitude.
  const double tol = gemm_tolerance<T>(k + std::max(m, n)) *
                     tolerance_scale * magnitude;
  report.tolerance = tol;

  const auto note = [&report](const Damage& damage) {
    report.residual = damage.residual;
    report.bad_row = damage.bad_row;
    report.bad_col = damage.bad_col;
    report.damaged_rows = static_cast<int>(damage.rows.size());
    report.damaged_cols = static_cast<int>(damage.cols.size());
  };

  Damage damage = classify(c, exp_col, exp_row, tol);
  note(damage);
  if (damage.clean()) {
    report.ok = true;
    return report;
  }

  report.detected = true;
  Health& h = health();
  h.integrity_detected.fetch_add(1, std::memory_order_relaxed);
  if (effective != integrity::AbftMode::kCorrect) return report;

  // Repairs recompute true values, so beta != 0 needs the pre-update C
  // elements themselves (the guarded executor passes its snapshot).
  const bool can_repair = beta == T(0) || c_before != nullptr;
  for (int attempt = 0; can_repair && attempt < 2; ++attempt) {
    if (attempt == 0 && damage.cols.size() == 1 && damage.rows.size() == 1) {
      // Single-element damage: the intersection of the one off column
      // and the one off row is the corrupted cell.
      recompute_element(alpha, a, b, beta, c_before, c_before_ld, c,
                        damage.rows[0], damage.cols[0]);
      report.repair = Repair::kElement;
    } else {
      // Localized panel recompute: redo the cheaper damaged set (each
      // column costs m*k multiplies, each row n*k). Past half the full
      // product the caller's full recompute is the better answer.
      const std::size_t cost_cols = damage.cols.size() * static_cast<std::size_t>(m);
      const std::size_t cost_rows = damage.rows.size() * static_cast<std::size_t>(n);
      const bool by_cols =
          !damage.cols.empty() && (damage.rows.empty() || cost_cols <= cost_rows);
      const std::size_t cost = by_cols ? cost_cols : cost_rows;
      if (2 * cost > static_cast<std::size_t>(m) * static_cast<std::size_t>(n))
        break;
      if (by_cols) {
        for (const index_t j : damage.cols)
          for (index_t i = 0; i < m; ++i)
            recompute_element(alpha, a, b, beta, c_before, c_before_ld, c,
                              i, j);
      } else {
        for (const index_t i : damage.rows)
          for (index_t j = 0; j < n; ++j)
            recompute_element(alpha, a, b, beta, c_before, c_before_ld, c,
                              i, j);
      }
      report.repair = Repair::kPanel;
    }
    // Never report a repair unverified: re-classify the full matrix (one
    // more O(mn) pass — cheap next to any recompute path).
    damage = classify(c, exp_col, exp_row, tol);
    if (damage.clean()) {
      // Keep the detection's localization and residual in the report —
      // they describe what was repaired, not the clean pass's noise.
      report.damaged_rows = 0;
      report.damaged_cols = 0;
      report.ok = true;
      if (report.repair == Repair::kElement)
        h.integrity_corrected.fetch_add(1, std::memory_order_relaxed);
      else
        h.integrity_recomputed.fetch_add(1, std::memory_order_relaxed);
      return report;
    }
    note(damage);  // repair did not land: report the surviving damage
    if (report.repair == Repair::kPanel) break;  // panel already failed
  }
  return report;  // detected, unrepaired: the caller recomputes
}

template IntegrityReport verify_and_repair(float, ConstMatrixView<float>,
                                           ConstMatrixView<float>, float,
                                           const CChecksums*, const float*,
                                           index_t, MatrixView<float>,
                                           integrity::AbftMode, double);
template IntegrityReport verify_and_repair(double, ConstMatrixView<double>,
                                           ConstMatrixView<double>, double,
                                           const CChecksums*, const double*,
                                           index_t, MatrixView<double>,
                                           integrity::AbftMode, double);

}  // namespace smm::robust
