// The shared soak harness (bench/soak.h): the Zipfian shape pool, the
// terminal classification table, gates, the deadline monitor and the
// paced producers.
#include "bench/soak.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"
#include "src/service/smm_service.h"

namespace smm {
namespace {

using namespace std::chrono_literals;
using bench::soak::Terminal;
namespace soak = bench::soak;

TEST(ShapePool, OperandsFollowOneSeededFillPerDimension) {
  const std::vector<index_t> dims{4, 7, 5};
  const soak::ShapePool pool(dims, 4242, 1.3);
  ASSERT_EQ(pool.size(), dims.size());
  Rng rng(4242);
  for (std::size_t s = 0; s < dims.size(); ++s) {
    Matrix<float> a(dims[s], dims[s]), b(dims[s], dims[s]);
    a.fill_random(rng);
    b.fill_random(rng);
    EXPECT_EQ(pool.dim(s), dims[s]);
    EXPECT_EQ(max_abs_diff(pool.a(s), a.cview()), 0.0) << "A" << s;
    EXPECT_EQ(max_abs_diff(pool.b(s), b.cview()), 0.0) << "B" << s;
  }
  const auto cs = pool.outputs();
  ASSERT_EQ(cs.size(), dims.size());
  for (std::size_t s = 0; s < dims.size(); ++s) {
    EXPECT_EQ(cs[s].rows(), dims[s]);
    EXPECT_EQ(cs[s].cols(), dims[s]);
  }
}

TEST(ShapePool, PickHonoursTheCdfBoundaries) {
  const double zipf_s = 2.0;
  const soak::ShapePool pool({8, 12, 16, 24, 32}, 1, zipf_s);
  const std::vector<double>& cdf = pool.cdf();
  ASSERT_EQ(cdf.size(), 5u);
  double total = 0.0;
  for (int i = 1; i <= 5; ++i) total += 1.0 / std::pow(i, zipf_s);
  EXPECT_DOUBLE_EQ(cdf[0], 1.0 / total);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);

  EXPECT_EQ(pool.pick(0.0), 0u);
  for (std::size_t i = 0; i + 1 < cdf.size(); ++i) {
    // u == cdf[i] still selects rank i; the next double above it moves on.
    EXPECT_EQ(pool.pick(cdf[i]), i);
    EXPECT_EQ(pool.pick(std::nextafter(cdf[i], 2.0)), i + 1);
  }
  EXPECT_EQ(pool.pick(std::nextafter(1.0, 0.0)), cdf.size() - 1);
  EXPECT_EQ(pool.pick(1.0), cdf.size() - 1);
}

service::Result failed(ErrorCode code) {
  return service::Result{false, code, "probe"};
}

TEST(SoakClassify, EveryBucket) {
  const auto terminal = [](const service::Result& r, bool window) {
    return soak::classify(r, 0, 100, 300, window).terminal;
  };
  for (const bool window : {false, true}) {
    EXPECT_EQ(terminal(service::Result{true, ErrorCode::kUnknown, ""}, window),
              Terminal::kOk);
    EXPECT_EQ(terminal(failed(ErrorCode::kOverloaded), window),
              Terminal::kRefused);
    EXPECT_EQ(terminal(failed(ErrorCode::kShuttingDown), window),
              Terminal::kRefused);
    EXPECT_EQ(terminal(failed(ErrorCode::kCancelled), window),
              Terminal::kStopped);
    EXPECT_EQ(terminal(failed(ErrorCode::kDeadlineExceeded), window),
              Terminal::kStopped);
    EXPECT_EQ(terminal(failed(ErrorCode::kNonFinite), window),
              Terminal::kUnexpected);
    EXPECT_EQ(terminal(failed(ErrorCode::kUnknown), window),
              Terminal::kUnexpected);
  }
  // A worker panic is infrastructure only while the fault window is open.
  EXPECT_EQ(terminal(failed(ErrorCode::kWorkerPanic), true),
            Terminal::kInfra);
  EXPECT_EQ(terminal(failed(ErrorCode::kWorkerPanic), false),
            Terminal::kUnexpected);
}

TEST(SoakClassify, LateBoundaryIsTwiceTheDeadlinePlusSlack) {
  const service::Result ok{true, ErrorCode::kUnknown, ""};
  // deadline 100 ms, slack 300 ms: the cap is 500 ms, inclusive.
  EXPECT_FALSE(soak::classify(ok, 500, 100, 300, false).late);
  EXPECT_TRUE(soak::classify(ok, 501, 100, 300, false).late);
  EXPECT_TRUE(
      soak::classify(failed(ErrorCode::kDeadlineExceeded), 501, 100, 300,
                     false)
          .late);
  EXPECT_TRUE(
      soak::classify(failed(ErrorCode::kWorkerPanic), 501, 100, 300, true)
          .late);
  // No deadline: the slack alone is the cap.
  EXPECT_FALSE(soak::classify(ok, 300, 0, 300, false).late);
  EXPECT_TRUE(soak::classify(ok, 301, 0, 300, false).late);
  // Refusals are terminal at submit and never count as late.
  for (const ErrorCode code :
       {ErrorCode::kOverloaded, ErrorCode::kShuttingDown})
    EXPECT_FALSE(soak::classify(failed(code), 1000000, 100, 300, false).late);
}

TEST(SoakGates, VerdictIsTheExitCode) {
  soak::Gates clean;
  clean.check(false, "never printed");
  testing::internal::CaptureStdout();
  EXPECT_EQ(clean.verdict("probe"), 0);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "probe: PASS\n");

  soak::Gates failing;
  testing::internal::CaptureStderr();
  failing.check(true, "first");
  failing.check(false, "second");
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "GATE FAILED: first\n");
  testing::internal::CaptureStdout();
  EXPECT_EQ(failing.verdict("probe"), 1);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "probe: FAIL\n");
}

TEST(SoakCalibration, SyncUnitIsTheMedianBatch) {
  int calls = 0;
  const double unit = soak::sync_unit_s(3, 5, [&] {
    // Batch 1 (calls 5-9) is slow; the median ignores it.
    if (calls >= 5 && calls < 10) std::this_thread::sleep_for(20ms);
    ++calls;
  });
  EXPECT_EQ(calls, 15);
  EXPECT_GE(unit, 0.0);
  EXPECT_LT(unit, 0.015);
}

TEST(SoakPerfParity, InterleavedBestOfKeepsEachArmsBest) {
  const double as[] = {50.0, 90.0, 70.0};
  const double bs[] = {100.0, 80.0, 60.0};
  int ra = 0, rb = 0;
  testing::internal::CaptureStdout();
  const soak::BestOf best = soak::interleaved_best_of(
      3, [&] { return as[ra++]; }, [&] { return bs[rb++]; }, "a", "b", 0.95);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(ra, 3);
  EXPECT_EQ(rb, 3);
  EXPECT_DOUBLE_EQ(best.a, 90.0);
  EXPECT_DOUBLE_EQ(best.b, 100.0);
  EXPECT_DOUBLE_EQ(best.ratio, 0.9);
  EXPECT_NE(out.find("perf rep 1: a 90 req/s, b 80 req/s\n"),
            std::string::npos);
  EXPECT_NE(out.find("perf-check: a 90 req/s, b 100 req/s, ratio 0.900 "
                     "(gate 0.95)\n"),
            std::string::npos);
}

TEST(SoakDeadlineMonitor, ReturnsQuietlyWhenItsScopeEndsFirst) {
  const auto t0 = std::chrono::steady_clock::now();
  { const soak::DeadlineMonitor monitor(60s, "probe"); }
  // The destructor wakes the watcher; it does not sit out the limit.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
}

TEST(SoakDeadlineMonitorDeathTest, ExitsWithCodeTwoPastItsLimit) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        const soak::DeadlineMonitor monitor(50ms, "probe");
        std::this_thread::sleep_for(30s);
      },
      testing::ExitedWithCode(2), "GLOBAL DEADLINE: probe did not finish");
}

TEST(SoakProducers, EverySubmittedTicketIsClassified) {
  service::ServiceOptions options;
  options.shards = 1;
  options.lanes = 1;
  service::SmmService svc(options);
  const soak::ShapePool pool({8, 12, 16}, 7, 1.1);
  soak::Totals totals;
  std::atomic<std::size_t> hooked{0};
  std::atomic<bool> wrong_phase{false};
  const auto t_end = std::chrono::steady_clock::now() + 100ms;
  soak::Producers(
      svc, pool, /*offered_per_s=*/4000.0, /*deadline_ms=*/1000,
      /*slack_ms=*/300, totals,
      {.stop = [&] { return std::chrono::steady_clock::now() >= t_end; },
       .phase = [] { return 3; },
       .on_terminal =
           [&](const soak::Pending& item, Terminal) {
             if (item.phase != 3) wrong_phase.store(true);
             hooked.fetch_add(1);
           }})
      .join();
  svc.shutdown();
  EXPECT_GT(totals.submitted.load(), 0u);
  EXPECT_EQ(totals.classified(), totals.submitted.load());
  EXPECT_EQ(hooked.load(), totals.classified());
  EXPECT_EQ(totals.unexpected.load(), 0u);
  EXPECT_GT(totals.ok.load(), 0u);
  EXPECT_FALSE(wrong_phase.load());
}

}  // namespace
}  // namespace smm
