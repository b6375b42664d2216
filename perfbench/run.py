#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe with dune (the
first build compiles the whole library tree; the shared dune cache is
off, so the build stays inside the tree), then replaces this process
with the benchmark, passing the arguments through. Build output goes to
stderr; the benchmark's last stdout line is its result object. Exits
non-zero, printing no result, when the tree or the build is missing.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write("perfbench: %s not found; run from the repository root\n" % needed)
            return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
