#!/usr/bin/env python3
"""Build and run the tdflow repository benchmark.

Run from the root of a tdflow checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run compiles the libraries
it needs), clears the TDFLOW_* knobs that would change the measured
program, and runs one workload.  The last line of standard output is the
benchmark's JSON result.  Exits non-zero when the build fails, a check
fails, or the checkout is not a tdflow source tree.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

# Knobs the libraries read from the environment.  The benchmark measures
# the program's defaults: jobs 1, no tiles, the blocking MCMF engine and
# the binary search frontier.
KNOBS = ("TDFLOW_JOBS", "TDFLOW_TILES", "TDFLOW_SOLVER", "TDFLOW_FRONTIER")

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
# Where main.exe keeps its daemon socket and journal, one directory per pid.
WORK = ".perfbench-work"
# A run may take 180 s, the first one (which compiles) 900 s.
RUN_TIMEOUT_S = 170
FIRST_RUN_TIMEOUT_S = 890


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def run(cmd, env, timeout):
    """Run cmd to completion; on timeout kill it, wait for it and remove
    its work directory."""
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %.0f s" % (cmd[0], timeout), file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            shutil.rmtree(os.path.join(WORK, str(proc.pid)), ignore_errors=True)
            try:
                os.rmdir(WORK)
            except OSError:
                pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "main.ml"))):
        return fail("run from the root of a tdflow source checkout")
    dune = dune_command()
    if dune is None:
        return fail("dune is not on PATH")

    env = dict(os.environ)
    for k in KNOBS:
        if env.pop(k, None) is not None:
            print("perfbench: cleared %s" % k, file=sys.stderr)
    # Keep every build artifact inside the checkout.
    env["DUNE_CACHE"] = "disabled"

    start = time.monotonic()
    build = dune + ["build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"]
    code = run(build, env, FIRST_RUN_TIMEOUT_S - RUN_TIMEOUT_S)
    if code != 0:
        print("perfbench: build failed (exit %d)" % code, file=sys.stderr)
        return 1
    budget = min(RUN_TIMEOUT_S, FIRST_RUN_TIMEOUT_S - (time.monotonic() - start))
    sys.stdout.flush()
    return run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               env, budget)


if __name__ == "__main__":
    sys.exit(main())
