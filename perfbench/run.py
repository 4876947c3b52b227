#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

The script builds the Go command in this directory (a module of its own
that uses the repository through a replace directive) into .bench_build/
and runs it with the given arguments, passing its exit status through.
Every Go cache, module and configuration directory is kept under
.bench_build/, so nothing outside the checkout is read or written. The
last line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    home = os.path.join(BUILD, "home")
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        print("perfbench: %s is not a checkout of the repository" % ROOT, file=sys.stderr)
        return 1
    go = shutil.which("go") or "/usr/local/go/bin/go"
    if not os.path.exists(go):
        print("perfbench: go toolchain not found", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(BUILD, "home"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=HERE, env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary, "--root", ROOT] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
