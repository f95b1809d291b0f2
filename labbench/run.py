#!/usr/bin/env python3
"""Lab-serving benchmark: builds pdclab from this checkout, serves it with
`pdclab serve`, drives one workload in a closed loop and prints the metrics.

    python3 labbench/run.py --workload class-replay --seed 1 --seconds 45 --trace 0
    python3 labbench/run.py --workload all --seconds 45        # every workload

The last line of standard output is one JSON object:
{"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
with the end-to-end metrics under --trace 0 and the per-layer metrics under
--trace 1. Any wrong output or lost job makes the exit code nonzero.
See labbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("class-replay", "cold-explore", "durable-fleet")
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="short configuration the self-test runs")
    parser.add_argument("--fault", choices=("wrong-output", "lost-job"),
                        help="self-test: break one correctness gate on purpose")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the load generator and pdclab; returns the
    build directory. Build output goes to stderr."""
    out = os.path.join(build_root(), "labbench-cmake")
    configured = any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "labbench_loadgen"],
                   check=True, stdout=sys.stderr)
    return out


def run_workload(out, workload, args):
    """Runs one workload in a fresh scratch directory of the checkout.
    Returns (exit code, stdout lines)."""
    rundir = os.path.join(build_root(), "run-%d" % os.getpid())
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    traces = os.path.join(build_root(), "traces")
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(out, "labbench_loadgen"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--pdclab", os.path.join(out, "pdclab", "tools", "pdclab"),
               "--trace-out", os.path.join(traces, workload + ".json")]
    if args.smoke:
        command.append("--smoke")
    if args.fault:
        command += ["--fault", args.fault]
    try:
        done = subprocess.run(command, cwd=rundir, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        code, text = done.returncode, done.stdout
    except subprocess.TimeoutExpired as expired:
        code, text = 124, expired.stdout or ""
        if isinstance(text, bytes):
            text = text.decode(errors="replace")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    return code, text.splitlines()


def result_of(lines):
    """The JSON result line a load-generator run ended with, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main(argv):
    args = parse_args(argv)
    try:
        out = build()
    except (subprocess.CalledProcessError, OSError) as error:
        print("labbench: build failed: %s" % error, file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    status = 0
    for workload in workloads:
        code, lines = run_workload(out, workload, args)
        result = result_of(lines)
        body = lines[:-1] if result is not None else lines
        for line in body:
            print(line)
        if result is None:
            print("labbench: %s produced no result (exit %d)" % (workload, code),
                  file=sys.stderr)
            return 1
        if code != 0 or not result["correct"]:
            status = 1
        results[workload] = result
        if args.workload == "all":
            print(json.dumps(result))

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return status
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s.%s" % (w, name): metric
                    for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
