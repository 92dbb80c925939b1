// perfbench: the seeded end-to-end benchmark of smmkit.
//
//   perfbench --workload <warm_tiny|compute_mid|serve_shared_b|
//                         serve_single_domain>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--setup-only] [--out <dir>]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the same
// workload untraced and then traced, timing calls into each layer's
// public functions from here, and writes a Chrome trace to --out. The
// last stdout line is one JSON object: correct, attempted, failed,
// metrics. perfbench/run.py builds this binary, scrubs the environment
// and adds the set-up metric measured across fresh processes.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "layers.h"
#include "oracle.h"
#include "serve.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

/// Same seed, same inputs; another seed, other inputs.
bool inputs_selftest() {
  const auto digest = [](std::uint64_t seed) {
    GemmWorkload w = make_gemm_workload("warm_tiny", seed);
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](const void* p, std::size_t n) {
      const auto* c = static_cast<const unsigned char*>(p);
      for (std::size_t i = 0; i < n; ++i) h = (h ^ c[i]) * 1099511628211ull;
    };
    for (const CallSite& s : w.sites) {
      const Mat<float>& a = s.af;
      const Mat<double>& ad = s.ad;
      mix(a.buf.data(), sizeof(float) * static_cast<std::size_t>(a.rows * a.cols));
      mix(ad.buf.data(), sizeof(double) * static_cast<std::size_t>(ad.rows * ad.cols));
    }
    mix(w.schedule.data(), w.schedule.size() * sizeof(w.schedule[0]));
    return h ^ serve_inputs_digest(seed);
  };
  const bool same = digest(11) == digest(11);
  const bool differ = digest(11) != digest(12);
  if (!same) std::fprintf(stderr, "selftest: one seed generated two inputs\n");
  if (!differ) std::fprintf(stderr, "selftest: two seeds generated one input\n");
  return same && differ;
}

bool selftest() {
  const bool s = stats_selftest();
  const bool o = oracle_selftest();
  const bool i = inputs_selftest();
  std::printf("selftest: quantiles %s, oracle %s, seeded inputs %s\n",
              s ? "ok" : "FAIL", o ? "ok" : "FAIL", i ? "ok" : "FAIL");
  return s && o && i;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Report& r, bool correct) {
  std::printf("%-36s %20s %-8s %s\n", "metric", "value", "unit", "samples");
  for (const auto& [name, m] : r.metrics)
    std::printf("%-36s %20.6f %-8s %zu\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  const std::size_t bad = r.failed + r.wrong + r.violations;
  std::printf("error_ratio %.9g (failed %zu, wrong %zu, invariant violations "
              "%zu, attempted %zu)\n",
              r.attempted ? static_cast<double>(bad) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              r.failed, r.wrong, r.violations, r.attempted);
  std::string samples = "{", metrics = "{";
  for (const auto& [name, m] : r.metrics) {
    if (samples.size() > 1) samples += ", ", metrics += ", ";
    samples += "\"" + name + "\": " + std::to_string(m.samples);
    metrics += "\"" + name + "\": {\"value\": " + json_number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("samples: %s}\n", samples.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}}\n",
              correct ? "true" : "false", r.attempted, bad, metrics.c_str());
}

int run(const RunConfig& cfg, bool setup_only) {
  Report report;
  if (setup_only) {
    double setup_s = 0.0;
    if (is_gemm_workload(cfg.workload)) {
      GemmWorkload w = make_gemm_workload(cfg.workload, cfg.seed);
      setup_s = gemm_setup(w, report);
    } else {
      ServeBench bench(cfg);
      setup_s = bench.setup(report);
    }
    std::printf("{\"setup_s\": %s, \"wrong\": %zu, \"failed\": %zu}\n",
                json_number(setup_s).c_str(), report.wrong, report.failed);
    return report.wrong == 0 && report.failed == 0 ? 0 : 1;
  }
  std::printf("build: {\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  // The workload runs first: set-up time covers the process's first call
  // into smmkit, and the self-checks call it too.
  if (cfg.trace) {
    run_traced(cfg, report);
  } else if (is_gemm_workload(cfg.workload)) {
    GemmWorkload w = make_gemm_workload(cfg.workload, cfg.seed);
    report.put("setup_s", gemm_setup(w, report), "s", 1);
    report_gemm(gemm_measure(w, cfg, cfg.seconds, nullptr, report), report);
  } else {
    ServeBench bench(cfg);
    report.put("setup_s", bench.setup(report), "s", 1);
    bench.measure(report);
  }
  if (!cfg.trace) report.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
  const bool self_ok = selftest();
  for (const std::string& note : report.notes)
    std::printf("note: %s\n", note.c_str());
  print_result(report, self_ok && report.wrong == 0 && report.violations == 0);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool setup_only = false, self_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") cfg.workload = value();
    else if (arg == "--seed") cfg.seed = std::stoull(value());
    else if (arg == "--seconds") cfg.seconds = std::stod(value());
    else if (arg == "--trace") cfg.trace = value() != "0";
    else if (arg == "--out") cfg.out_dir = value();
    else if (arg == "--setup-only") setup_only = true;
    else if (arg == "--selftest") self_only = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (self_only) return perfbench::selftest() ? 0 : 1;
  if (!perfbench::is_gemm_workload(cfg.workload) &&
      !perfbench::is_serve_workload(cfg.workload)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 cfg.workload.c_str());
    return 2;
  }
  if (!(cfg.seconds > 0)) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  try {
    return perfbench::run(cfg, setup_only);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
