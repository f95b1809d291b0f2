#!/usr/bin/env python3
"""Self-test of the lab-serving benchmark, end to end on the smoke
configuration (one-second runs, a 500-record history):

    python3 labbench/selftest.py

It checks that bad arguments are refused without a result, that every
workload runs and prints exactly the metrics BENCHMARK.json names (untraced
and traced), and that each correctness gate trips when broken on purpose:
a wrong output and a lost job must both exit nonzero with "correct": false.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ("class-replay", "cold-explore", "durable-fleet")

failures = []


def check(condition, what):
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        failures.append(what)


def run(args, timeout=600):
    done = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done.stdout + done.stderr


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def well_formed(result, expected):
    if not isinstance(result, dict):
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return False
    metrics = result["metrics"]
    return set(metrics) == set(expected) and all(
        metrics[name]["unit"] == unit and isinstance(metrics[name]["value"], (int, float))
        for name, unit in expected.items())


def test_parser():
    for args in ([], ["--workload", "nope"],
                 ["--workload", "class-replay", "--trace", "2"],
                 ["--workload", "class-replay", "--seconds", "0"],
                 ["--workload", "class-replay", "--seed", "-1"],
                 ["--workload", "class-replay", "--fault", "nope"]):
        code, result, _ = run(args)
        check(code != 0 and result is None, "run.py refuses %s" % (args or "no arguments"))
    loadgen = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                           "labbench-cmake", "labbench_loadgen")
    for args in (["--workload", "cold-explore"],
                 ["--workload", "x", "--pdclab", "p"],
                 ["--workload", "cold-explore", "--pdclab", "p", "--seconds", "-1"],
                 ["--workload", "cold-explore", "--pdclab", "p", "--bogus"]):
        done = subprocess.run([loadgen] + args, cwd=ROOT, capture_output=True, text=True)
        check(done.returncode == 64 and not done.stdout,
              "labbench_loadgen refuses %s" % args)


def test_smoke():
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            code, result, log = run(["--workload", workload, "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace), "--smoke"])
            ok = (code == 0 and well_formed(result, expected) and result["correct"]
                  and result["failed"] == 0)
            if ok and trace == 0:
                ok = all(m["value"] > 0 for m in result["metrics"].values())
            if ok and trace == 1:
                ok = "reconcile %s" % workload in log and "spans written" in log
            check(ok, "%s --trace %d: exit 0, correct, every declared metric" % (workload, trace))
            if not ok:
                print(log[-3000:])
    code, result, _ = run(["--workload", "all", "--seconds", "1", "--smoke"])
    check(code == 0 and result is not None and result["correct"] and
          len(result["metrics"]) == len(WORKLOADS) * len(end_to_end),
          "--workload all runs every workload")


def test_gates():
    for workload, fault in (("class-replay", "wrong-output"),
                            ("cold-explore", "wrong-output"),
                            ("durable-fleet", "wrong-output"),
                            ("class-replay", "lost-job"),
                            ("durable-fleet", "lost-job")):
        code, result, _ = run(["--workload", workload, "--seconds", "1", "--smoke",
                               "--fault", fault])
        check(code != 0 and result is not None and result["correct"] is False
              and result["failed"] >= 1,
              "%s with a %s: exit nonzero, correct false, failed >= 1" % (workload, fault))


def main():
    test_smoke()  # builds the load generator the parser test calls directly
    test_parser()
    test_gates()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
