#!/usr/bin/env python3
"""Build the benchmark binary inside the checkout, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-write --seed 1 --seconds 10 --trace 0

The arguments pass through to the Go program (see README.md). Everything
the build and the run write stays under .bench_build/ at the repository
root: the Go build cache, temporary files, the binary, and the
optanestudy-trace/v1 streams of traced runs.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The first build in a fresh checkout compiles the whole module.
BUILD_TIMEOUT = 850
# The program caps its own run well below this.
RUN_TIMEOUT = 178


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    env.update(
        GOCACHE=os.path.join(BUILD, "go-cache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(tmp, exist_ok=True)
    return env


def main(argv):
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [binary, *argv, "-trace-dir", os.path.join(BUILD, "trace")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
