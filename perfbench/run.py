#!/usr/bin/env python3
"""Builds and runs the coupon benchmark (see README.md in this directory).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the harness under .bench_build (or $CARGO_TARGET_DIR), runs one
workload, writes an environment-stamped result file under
.bench_build/results/, and prints one JSON object as the last line of
standard output. The exit code is non-zero when the build fails, a
correctness check fails, or the harness dies.

Steadiness (A/B) mode:

    python3 perfbench/run.py --steadiness [--runs 10] [--workloads a,b]
        [--seed-base 100] [--baseline-root DIR]

runs two interleaved sets of untraced runs of the workloads in
BENCHMARK.json (or --workloads), one seed per pair, and prints
for each end-to-end metric x workload the median and quartiles of each set,
the spread (quartile distance over median) and whether the sets agree
within the bounds in BENCHMARK.json. With --baseline-root, set A runs the
benchmark of another checkout (e.g. the parent commit) and set B this one.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep_sim", "train_sim", "live_wire", "live_straggler"]
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures and builds the harness; returns its path or None."""
    out = build_dir()
    cmake = shutil.which("cmake")
    if cmake is None:
        log("perfbench: cmake not found")
        return None
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: configure failed")
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", out, "-j", jobs, "--target", "perfbench_harness"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        return None
    return os.path.join(out, "perfbench_harness")


def cmake_cache_value(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(load_start):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    version = "unknown"
    if os.path.exists(compiler):
        probe = subprocess.run([compiler, "--version"], capture_output=True, text=True)
        version = (probe.stdout.splitlines() or ["unknown"])[0]
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "compiler_version": version,
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "git_commit": commit,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def run_once(args):
    load_start = os.getloadavg()
    harness = build()
    if harness is None:
        return 1
    out = build_dir()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        cmd += ["--spans", os.path.join(out, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return 1
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        log("perfbench: harness exited %d without a result" % proc.returncode)
        for line in lines:
            log(line)
        return 1
    env = environment(load_start)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    with open(os.path.join(out, "results", tag + ".json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "notes": lines[:-1],
                   "result": result}, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("environment: " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return proc.returncode


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    roots = {"A": args.baseline_root or ROOT, "B": ROOT}
    runs = {}  # (set, workload) -> list of metric dicts
    for workload in workloads:
        for i in range(args.runs):
            seed = args.seed_base + i
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for side in order:
                root = roots[side]
                cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                started = time.time()
                proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                      text=True)
                lines = proc.stdout.splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                ok = proc.returncode == 0 and result and result["correct"]
                log("%s %s seed=%d exit=%d %.1fs" % (side, workload, seed,
                                                     proc.returncode,
                                                     time.time() - started))
                if not ok:
                    log("perfbench: run failed; stopping")
                    return 1
                runs.setdefault((side, workload), []).append(
                    {k: v["value"] for k, v in result["metrics"].items()})
    report = []
    all_ok = True
    for workload in workloads:
        for name, m in bounds.items():
            row = {"workload": workload, "metric": name, "unit": m["unit"],
                   "bound": m["bound"]}
            for side in ("A", "B"):
                values = [r[name] for r in runs[(side, workload)]]
                q1, med, q3 = quartiles(values)
                row[side] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0,
                             "values": values}
            a, b = row["A"]["median"], row["B"]["median"]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            row["b_worse_by"] = worse
            spread_ok = (row["A"]["spread"] <= m["bound"] and
                         row["B"]["spread"] <= m["bound"])
            row["agree"] = worse <= m["bound"] and spread_ok
            all_ok = all_ok and row["agree"]
            report.append(row)
    print("%-15s %-17s %12s %8s %12s %8s %8s %6s %s" % (
        "workload", "metric", "A median", "A sprd", "B median", "B sprd",
        "B worse", "bound", "agree"))
    for r in report:
        print("%-15s %-17s %12.5g %8.4f %12.5g %8.4f %8.4f %6.2f %s" % (
            r["workload"], r["metric"], r["A"]["median"], r["A"]["spread"],
            r["B"]["median"], r["B"]["spread"], r["b_worse_by"], r["bound"],
            "yes" if r["agree"] else "NO"))
    os.makedirs(build_dir(), exist_ok=True)
    with open(os.path.join(build_dir(), "steadiness.json"), "w") as f:
        json.dump({"roots": roots, "runs": args.runs, "seconds": args.seconds,
                   "seed_base": args.seed_base, "rows": report}, f, indent=1)
    return 0 if all_ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--baseline-root", default="")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = default_seconds()
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
