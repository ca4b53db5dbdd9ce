#!/usr/bin/env python3
"""Entry point of the layered benchmark (see perfbench/README.md).

Run from the root of an rtnet checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

It builds perfbench/bench.exe from source with dune, runs it, and passes
its output through: the last line of standard output is one JSON object
{correct, attempted, failed, metrics}.  --smoke runs every workload in
both modes at tiny sizes and checks that every metric named in
BENCHMARK.json is printed with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
WORKLOADS = ["dense", "faulty", "churn", "federation"]
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of an rtnet checkout: no dune-project or lib/ here")
    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "-j", "2",
         "./perfbench/bench.exe"],
        env=env, stdout=sys.stderr)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(args):
    """Run bench.exe; return (exit code, stdout)."""
    try:
        r = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % RUN_TIMEOUT_S)
    return r.returncode, r.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def smoke():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            code, out = run(["--workload", w, "--seed", "1", "--seconds", "0.2",
                             "--trace", str(trace), "--size", "tiny"])
            res = result_of(out)
            tag = "%s/trace%d" % (w, trace)
            if code != 0 or res is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if not res["correct"]:
                problems.append("%s: correct is false" % tag)
            for m in wanted[trace]:
                got = res["metrics"].get(m["name"])
                if got is None:
                    problems.append("%s: %s missing" % (tag, m["name"]))
                elif got.get("unit") != m["unit"] or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append("%s: %s printed as %r" % (tag, m["name"], got))
            print("smoke %-20s %d metrics" % (tag, len(res["metrics"])))
    for p in problems:
        print("smoke: FAIL " + p)
    print("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run of every workload; check every metric is printed")
    a = ap.parse_args()
    build()
    if a.smoke:
        sys.exit(smoke())
    if a.workload is None:
        fail("--workload is required")
    code, out = run(["--workload", a.workload, "--seed", str(a.seed),
                     "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if result_of(out) is None:
        sys.stdout.write(out)
        fail("no result line (exit %d)" % code)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
