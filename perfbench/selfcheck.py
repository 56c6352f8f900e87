#!/usr/bin/env python3
"""Self-check of the serving benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json at a tiny size for a few seconds,
untraced and traced, and asserts that the result line carries exactly
the metrics BENCHMARK.json names, with their units, and a correct
verdict. Then it corrupts one recorded answer and asserts that the
oracle rejects it: the run reports correct = false and exits nonzero.
Run it from the root of a checkout; exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402

TINY_DOCS = {"mem-rw": 150, "disk-scan": 80, "coord2": 80}


def fxbench(workload, trace, *extra):
    proc = subprocess.run(
        [run.EXE, "--workload", workload, "--seed", "11", "--seconds", "2", "--trace", str(trace),
         "--docs", str(TINY_DOCS[workload]), "--setups", "1"] + list(extra),
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def check(cond, what):
    if not cond:
        print("selfcheck FAILED: " + what)
        sys.exit(1)
    print("ok: " + what)


def main():
    if run.build() != 0:
        print("selfcheck FAILED: build")
        return 1
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            code, result = fxbench(name, trace)
            check(code == 0 and result is not None, "%s trace %d exits 0 with a result" % (name, trace))
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  "%s trace %d result keys" % (name, trace))
            check(result["correct"] is True and result["attempted"] >= 1,
                  "%s trace %d answers correct" % (name, trace))
            metrics = result["metrics"]
            check(sorted(metrics) == sorted(m["name"] for m in wanted[trace]),
                  "%s trace %d prints every named metric" % (name, trace))
            for m in wanted[trace]:
                v = metrics[m["name"]]
                check(v["unit"] == m["unit"] and isinstance(v["value"], (int, float)),
                      "%s %s in %s" % (name, m["name"], m["unit"]))
        code, result = fxbench(name, 0, "--corrupt-answer")
        check(code != 0 and result is not None and result["correct"] is False,
              "%s oracle rejects a corrupted answer" % name)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
