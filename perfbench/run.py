#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

The Go build (compiler cache, temporary files and the binary) stays inside
.bench_build/ at the tree root, or under $CARGO_TARGET_DIR when that is set.
Build messages go to standard error; standard output carries only the
benchmark's own output, whose last line is the JSON result. The exit code
is the benchmark's, or 3 when the build fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_env(build_dir):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "go-cache"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at %s; run from the root of the source tree" % ROOT, file=sys.stderr)
        return 3
    env = build_env(build_dir)
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    # On SIGTERM raise SystemExit, so subprocess.run kills and reaps the
    # benchmark before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
