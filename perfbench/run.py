#!/usr/bin/env python3
"""Build and run the FliX serving benchmark.

    python3 perfbench/run.py --workload mem-rw --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. It builds perfbench/fxbench.exe
with dune (build output goes to stderr), then runs it with the given
arguments plus the checkout's git commit, and exits with its exit code.
The last line of standard output is the run's result as one JSON
object. Workloads: mem-rw and disk-scan (see BENCHMARK.json), and
coord2, which BENCHMARK.json leaves out while the coordinator fails the
answer oracle on it.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "fxbench.exe")
WORK = "_perfbench"


def git_commit():
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Build the benchmark; every file dune writes stays in the checkout."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(os.path.join(WORK, "tmp")))
    return subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/fxbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        env=env,
    ).returncode


def main(args):
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a FliX checkout", file=sys.stderr)
        return 2
    try:
        code = build()
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    return subprocess.run([EXE] + args + ["--commit", git_commit()]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
