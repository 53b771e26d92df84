#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload cholesky --seed 1 --seconds 20 --trace 0

The benchmark is the Go module in this directory. It is built from source
into .bench_build/ at the repository root, with the Go build cache and every
other file the toolchain writes kept there too, then run with the arguments
given. The last line of its output is the JSON result. A failed build exits
non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def commit():
    """The commit under test, when the checkout is a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", BINARY, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    args = [BINARY, "--commit", commit(),
            "--span-dir", os.path.join(BUILD, "spans")] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
