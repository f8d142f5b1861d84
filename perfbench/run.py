#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds perfbench/ (a Go module of its
own that uses the simulator through ../) into the build directory named
by $CARGO_TARGET_DIR (default .bench_build), keeping the Go build cache
and every temporary file there and fetching nothing, then runs the
binary with the same arguments. The binary's last line of standard
output is the result JSON; its exit status is passed through.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures for --seconds and may then finish its minimum number of
# episodes (fanin-udp: three of about 11 s each); this covers both.
TIMEOUT_MARGIN_S = 120


def build(out_dir):
    """Build the benchmark; Go's build cache in out_dir makes an unchanged rebuild cheap."""
    binary = os.path.join(out_dir, "perfbench")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"),
                     ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(out_dir, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOENV="off", GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-buildvcs=false")
    res = subprocess.run(["go", "build", "-trimpath", "-o", binary, "."], cwd=HERE, env=env)
    return binary if res.returncode == 0 else None


def run_timeout(args):
    """Twice the --seconds budget plus the margin; the binary rejects a bad value itself."""
    seconds = 10.0
    for i, a in enumerate(args):
        value = None
        if a in ("--seconds", "-seconds") and i + 1 < len(args):
            value = args[i + 1]
        elif a.startswith(("--seconds=", "-seconds=")):
            value = a.split("=", 1)[1]
        try:
            seconds = float(value) if value is not None else seconds
        except ValueError:
            pass
    return 2 * max(seconds, 0) + TIMEOUT_MARGIN_S


def main():
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    binary = build(out_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    timeout = run_timeout(sys.argv[1:])
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %g s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
