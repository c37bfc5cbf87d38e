#!/usr/bin/env python3
"""Build acmr and the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload wire-greedy --seed 1 --seconds 50 --trace 0

Run from the root of an acmr checkout. Builds the release `acmr` binary
(the system under test) and the `acmr-perfbench` load generator into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the generator,
which prints the result object as the last line of stdout.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("wire-greedy", "sweep-opt")
# A run takes about a minute; past this the generator and the servers
# it spawned are killed together.
RUN_TIMEOUT_S = 160


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("Cargo.toml", "crates", "src", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"{needed} not found: run from the root of an acmr checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    builds = (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "acmr"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for cmd in builds:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")

    release = os.path.join(target, "release")
    acmr = os.path.join(release, "acmr")
    bench = os.path.join(release, "acmr-perfbench")
    for binary in (acmr, bench):
        if not os.path.isfile(binary):
            fail(f"{binary} missing after the build")

    work = os.path.join(target, "perfbench-work")
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--acmr-bin", acmr, "--work-dir", work]
    # Its own process group, so the servers it spawns can be stopped
    # with it whatever happens.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
