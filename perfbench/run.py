#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload fine_zoo --seed 1 --seconds 20 --trace 0

Run from the repository root.  The arguments are passed unchanged to the
benchmark executable (perfbench/bench.ml), which prints the result object
as its last stdout line.  Exits non-zero without a result when the
program cannot be built, e.g. in a tree that holds only the benchmark.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def main():
    os.chdir(ROOT)
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        print("run.py: no dune project with lib/ at %s" % ROOT, file=sys.stderr)
        return 2
    # The shared dune cache lives outside the tree; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # The benchmark replaces this process, so its peak RSS is its own.
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
