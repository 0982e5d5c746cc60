#!/usr/bin/env python3
"""Build the benchmark from source and run it.

    python3 perfbench/run.py --workload bigmesh --seed 1 --seconds 30 --trace 0

Run from the repository root. The Go build cache, temporary files and the
binary all go under .bench_build/ in the repository root, so nothing is
written outside it. The benchmark prints one JSON result line last; see
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build_env():
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "go-cache",
        "GOPATH": "gopath",
        "GOMODCACHE": os.path.join("gopath", "pkg", "mod"),
        "GOTMPDIR": "tmp",
        # The go command keeps its telemetry counters under the user
        # config directory; point that inside the build directory too.
        "XDG_CONFIG_HOME": "config",
        "HOME": "home",
    }
    for var, sub in dirs.items():
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env["GOTOOLCHAIN"] = "local"
    env["GOENV"] = "off"
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    # Stamp the git revision when building inside a git checkout; elsewhere
    # the report says "unknown".
    vcs = "-buildvcs=true" if os.path.isdir(os.path.join(ROOT, ".git")) else "-buildvcs=false"
    build = subprocess.run(
        ["go", "build", vcs, "-o", binary, "."],
        cwd=HERE, env=build_env(), stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    sys.stdout.flush()
    # Replace this process, so the benchmark's own exit is the command's
    # exit and no wrapper process is left behind.
    os.execv(binary, [binary,
                      "-workload", args.workload,
                      "-seed", str(args.seed),
                      "-seconds", str(args.seconds),
                      "-trace", str(args.trace)])
    return 1


if __name__ == "__main__":
    sys.exit(main())
