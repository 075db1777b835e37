#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload page-load --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe with dune (build output goes to standard
error), then runs it with the same arguments. The last line of standard
output is the JSON result; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run me from the root of a checkout of the repository",
              file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
