#!/usr/bin/env python3
"""Build perfbench from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sort-1m --seed 1 --seconds 20 --trace 0

The binary, the Go build cache, the build's temporary files and the files
reps write all go under $CARGO_TARGET_DIR (default .bench_build), so
nothing outside the checkout is written. Build output goes to stderr; the
benchmark's result is the last line of stdout. A failed build exits non-zero
without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = os.path.join(build, "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
    )
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=SRC, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"run.py: cannot run go: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    os.execve(binary, [binary, *sys.argv[1:], "--tmp", tmp], env)


if __name__ == "__main__":
    sys.exit(main())
