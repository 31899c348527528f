#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scf_checkpoint --seed 1 --seconds 20 --trace 0

Everything the build and the run write stays under .bench_build/ at the
root: the Go build cache, the binary, temporary files and span dumps. The
exit code is the benchmark's own; a failed build exits 3 without a result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    work = os.path.join(out, "work")
    for d in ("gocache", "gopath", "gotmp", "config", "work"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(out, "gotmp"),
        "TMPDIR": os.path.join(out, "gotmp"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    try:
        run = subprocess.run([binary, "--workdir", work] + sys.argv[1:], cwd=root, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
