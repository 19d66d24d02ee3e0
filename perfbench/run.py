#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve-1k --seed 1 --seconds 10 --trace 0

The arguments go to the benchmark unchanged and its exit code is
returned. The binary, the Go build cache and the traced runs' span
files stay under .bench_build/ in the repository root.
"""
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 880  # seconds: a cold build compiles the standard library
RUN_TIMEOUT = 170  # seconds: a run must end within 180


def go_env():
    """The environment for go and the benchmark: every cache and
    temporary file inside BUILD, no network, no toolchain download."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTELEMETRY": "off",
    })
    return env


def run(cmd, cwd, env, timeout):
    """Run cmd in its own process group; on timeout kill the group and
    wait for it. Returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no go.mod at the repository root; nothing to build", file=sys.stderr)
        return 2
    env = go_env()
    try:
        code = run(["go", "build", "-o", BINARY, "."], HERE, env, BUILD_TIMEOUT)
    except FileNotFoundError:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    spans = os.path.join(BUILD, "spans")
    return run([BINARY, "--spans", spans] + sys.argv[1:], ROOT, env, RUN_TIMEOUT)


if __name__ == "__main__":
    sys.exit(main())
