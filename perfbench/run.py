#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

The first form builds perfbench/perfbench.exe from the checkout's sources
with dune, runs one workload and passes its output through; the last
stdout line is the JSON result. It fails (exit status 1 or 2, no result
line) when the sources are missing, the build fails, or the result does
not carry exactly the metrics BENCHMARK.json declares.

--self-check runs every workload at a tiny size in both modes, requires
each declared metric to be present and finite and every output check to
pass, and requires a deliberately corrupted result to be caught.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s in %s: the benchmark builds from the repository "
                 "sources" % (needed, ROOT), 2)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def run_exe(args):
    """Runs the benchmark binary; returns (stdout lines, parsed result)."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run did not finish: %s" % e)
    output = proc.stdout.decode(errors="replace")
    lines = output.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(output)
        fail("benchmark exited with status %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1][:200])
    return lines, result


def result_problems(result, declared):
    """Everything wrong with a result against the declared metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted %r" % result["attempted"])
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed %r" % result["failed"])
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(metrics)):
        problems.append("missing metric " + name)
    for name in sorted(set(metrics) - set(want)):
        problems.append("undeclared metric " + name)
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s is not a finite number: %r" % (name, v))
        if m.get("unit") != unit:
            problems.append("%s has unit %r, declared %r" % (name, m.get("unit"), unit))
    return problems


def declared_for(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def spans_file(workload):
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, workload + ".spans.jsonl")


def exe_args(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans", spans_file(workload)]
    return args


def self_check(spec):
    bad = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            _, result = run_exe(exe_args(w["name"], 7, 0.5, trace) + ["--tiny"])
            problems = result_problems(result, declared_for(spec, trace))
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append("output checks failed")
            label = "%s --trace %d" % (w["name"], trace)
            print("%-28s %s" % (label, "ok" if not problems else "; ".join(problems)))
            bad += problems
    first = spec["workloads"][0]["name"]
    _, result = run_exe(exe_args(first, 7, 0.5, 0) + ["--tiny", "--corrupt"])
    caught = result.get("correct") is False and result.get("failed", 0) >= 1
    print("%-28s %s" % ("corrupted result", "caught" if caught else "NOT caught"))
    if not caught:
        bad.append("a corrupted result passed the output checks")
    if bad:
        fail("self-check failed")
    print("self-check passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    build()
    spec = load_spec()
    if args.self_check:
        self_check(spec)
        return
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names), 2)
    lines, result = run_exe(exe_args(args.workload, args.seed, args.seconds, args.trace))
    problems = result_problems(result, declared_for(spec, args.trace))
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print(lines[-1])


if __name__ == "__main__":
    main()
