#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

    python3 perfbench/run.py --workload point-2reach --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Builds perfbench/bench.exe and the
stt CLI (the replica process of routed-2reach) with dune, then runs the
benchmark; its last stdout line is the JSON result.  The benchmark runs
in a process group of its own, which is killed and waited for when it
ends, so no replica outlives a run.
"""

import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bench.exe", "./bin/stt.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    # One CPU for the benchmark and its replica: a request's hand-offs
    # between client, router and replica are then context switches, not
    # wake-ups of another virtual CPU, whose latency on a shared host
    # swings with the hypervisor.  Children inherit the mask.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc = subprocess.Popen([exe, *sys.argv[1:]], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        code = 1
    finally:
        kill_group(proc.pid)
        proc.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
