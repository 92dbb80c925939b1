// Algorithm-Based Fault Tolerance (the paper's third motivating
// workload), now built on smm::robust instead of hand-rolled checks.
//
// Part 1 uses the library checksum directly: robust::verify_and_repair in
// detect mode checks the row and column checksums the original example
// hand-rolled, detecting and localizing an injected soft error.
//
// Part 2 is the production shape of the idea: the GuardedExecutor runs
// every GEMM through checksum verification with a retry-then-degrade
// chain, while the deterministic fault injector plays the adversary — a
// miscomputing kernel on the first attempt, which the guard detects,
// retries, and absorbs. The RunReport is the audit trail.
#include <cstdio>

#include "src/common/rng.h"
#include "src/core/smm.h"
#include "src/matrix/matrix.h"
#include "src/robust/abft.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"

int main() {
  using namespace smm;
  Rng rng(123);
  const index_t m = 96, n = 96, k = 96;

  Matrix<float> a(m, k), b(k, n);
  a.fill_random(rng);
  b.fill_random(rng);

  // --- Part 1: the checksum as a standalone detector -------------------
  Matrix<float> c(m, n);
  core::smm_gemm(1.0f, a.cview(), b.cview(), 0.0f, c.view());
  const auto verify = [&] {
    return robust::verify_and_repair<float>(
        1.0f, a.cview(), b.cview(), 0.0f, nullptr, nullptr, m, c.view(),
        integrity::AbftMode::kDetect);
  };
  auto report = verify();
  std::printf("clean result : residual %.3e (tol %.3e) -> %s\n",
              report.residual, report.tolerance,
              report.ok ? "clean" : "FAULT");
  const bool clean_ok = report.ok;

  c(37, 41) += 0.5f;  // a simulated soft error in the result
  report = verify();
  std::printf("after bitflip: residual %.3e -> %s (column %ld)\n",
              report.residual, report.ok ? "clean?!" : "FAULT DETECTED",
              static_cast<long>(report.bad_col));
  const bool detected = !report.ok && report.bad_col == 41;
  // verify_and_repair counted that detection; start the health line
  // below from zero so it describes the guarded run alone.
  robust::health().reset();

  // --- Part 2: the guarded executor absorbing an injected fault --------
  robust::GuardedExecutor guard;  // reference SMM + ABFT verification
  Matrix<float> c2(m, n);

  // Adversary: the first kernel invocation miscomputes (a seeded bit flip
  // in its C update). The guard must detect it, retry, and serve clean.
  robust::FaultInjector::instance().arm(
      robust::FaultSite::kKernelMiscompute,
      {/*fire_after=*/0, /*max_fires=*/1, /*seed=*/2026});
  const robust::RunReport run =
      guard.run(1.0f, a.cview(), b.cview(), 0.0f, c2.view());
  robust::FaultInjector::instance().disarm_all();

  std::printf("guarded run  : %s\n", run.summary().c_str());
  std::printf("health       : %s\n",
              robust::health().snapshot().to_string().c_str());
  const bool recovered = run.ok() && run.retries >= 1;

  std::printf(
      "ABFT cost: one row and one column checksum per verification — "
      "negligible next to the m x n x k product, but only if small-M GEMM "
      "is fast (the paper's point).\n");
  return clean_ok && detected && recovered ? 0 : 1;
}
