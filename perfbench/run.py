#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload walk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py compare BASE CHANGE

The benchmark is a Go program (this directory is its own module, which
reaches the repository's packages through a relative replace). It is
built from source on every run; the Go build cache, the module cache,
the build's temporary files and the binary all live under .bench_build/
in the checkout, and the build never touches the network. A failed
build exits 2 and prints no result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except OSError as e:
        print(f"perfbench: cannot run the go toolchain: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed:\n" + build.stdout, file=sys.stderr)
        return 2
    os.chdir(root)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
