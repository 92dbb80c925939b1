#!/usr/bin/env python3
"""Build and run the seeded smmkit benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs the four workloads in turn and ends with one JSON
object mapping each workload to its result.

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench, then runs the benchmark
binary with every SMMKIT_* variable removed from its environment, so no
stray knob or persisted tune table carries state between runs.

--trace 0 prints the end-to-end metrics. setup_s is the median over
several fresh processes (set-up is a once-per-process cost). --trace 1
prints the per-layer metrics and writes a Chrome trace beside the build.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. Any build or run failure exits non-zero without that line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("warm_tiny", "compute_mid", "serve_shared_b", "serve_single_domain")
SETUP_PROCESSES = 10       # fresh processes timed for setup_s, plus the main run
RUN_TIMEOUT_S = 170
ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "asimd", "sve", "sve2")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    """CARGO_TARGET_DIR when it lies inside the checkout, else .bench_build."""
    base = os.path.join(ROOT, ".bench_build")
    env = os.environ.get("CARGO_TARGET_DIR")
    if env:
        cand = os.path.realpath(os.path.join(ROOT, env))
        if cand == os.path.realpath(ROOT) or cand.startswith(os.path.realpath(ROOT) + os.sep):
            base = cand
    return os.path.join(base, "perfbench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", SRC, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", "4", "--target", "perfbench"]):
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no benchmark binary")
    return binary


def scrubbed_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("SMMKIT_")}
    return env, sorted(k for k in os.environ if k.startswith("SMMKIT_"))


def run(cmd, env):
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        fail(f"exit code {proc.returncode}: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("no output: " + " ".join(cmd))
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line is not JSON: " + lines[-1][:200])


def host_fingerprint(out, args, scrubbed):
    model, flags = "unknown", []
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "Processor") and model == "unknown":
                    model = value.strip()
                if key in ("flags", "Features") and not flags:
                    have = set(value.split())
                    flags = [x for x in ISA_FLAGS if x in have]
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                name, _, value = line.strip().partition("=")
                cache[name.split(":")[0]] = value
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "isa_flags": flags,
        "library_flags": "-O2, no -march (kernels are 128-bit whatever the ISA flags)",
        "compiler_path": cache.get("CMAKE_CXX_COMPILER", "unknown"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smmkit_env_scrubbed": True,
        "smmkit_vars_removed": scrubbed,
    }


def run_workload(binary, out, env, scrubbed, args, workload):
    """Measure one workload; prints its report and returns its result."""
    base = [binary, "--workload", workload, "--seed", str(args.seed)]
    setups = []

    def time_setups(count):
        for _ in range(count):
            _, res = run(base + ["--setup-only"], env)
            if res.get("wrong") or res.get("failed"):
                fail(f"set-up run produced {res.get('wrong')} wrong and "
                     f"{res.get('failed')} failed results")
            setups.append(float(res["setup_s"]))

    # Half the set-up processes before the measuring run and half after,
    # so the median samples the host across the whole run.
    if not args.trace:
        time_setups(SETUP_PROCESSES // 2)
    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    lines, result = run(base + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                "--out", trace_dir], env)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result: " + json.dumps(result)[:200])
    if not args.trace:
        time_setups(SETUP_PROCESSES - SETUP_PROCESSES // 2)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append(f"setup_s: median of {len(setups)} fresh processes "
                     f"{statistics.median(setups):.6f} s (each: "
                     + ", ".join(f"{s:.6f}" for s in setups) + ")")
    fingerprint = host_fingerprint(out, args, scrubbed)
    fingerprint["workload"] = workload
    for line in lines:
        if line.startswith("build: "):
            fingerprint.update(json.loads(line[len("build: "):]))
        else:
            print(line)
    print("fingerprint: " + json.dumps(fingerprint), flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out = build_dir()
    binary = build(out)
    env, scrubbed = scrubbed_env()
    if args.workload != "all":
        result = run_workload(binary, out, env, scrubbed, args, args.workload)
        print(json.dumps(result), flush=True)
        return
    # Every workload in turn; the last line maps each to its result.
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        results[workload] = run_workload(binary, out, env, scrubbed, args, workload)
    print(json.dumps(results), flush=True)


if __name__ == "__main__":
    main()
