#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--tiny] [--record FILE]

Run it from the repository root.  The benchmark is the dune project in
perfbench/pkg/.  run.py builds it in a workspace of its own,
.bench_build/ws/, which links that project's files and the repository's
lib/, in the release profile and with the shared dune cache disabled so
nothing is written outside the checkout.  It then runs it and passes its output through.  The last
line of standard output is the JSON result.  Scratch files, checkpoint
stores and the traced run's outputs go to .perfbench-out/.  --record
appends the result, tagged with workload, seed and trace, to a
JSON-lines file that compare.py reads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
PKG = os.path.join("perfbench", "pkg")
WORKSPACE = os.path.join(BUILD_DIR, "ws")
EXE = os.path.join(BUILD_DIR, "out", "default", "perfbench.exe")
WORKLOADS = ("solve-graph", "solve-tree", "recover")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def stage():
    """Link lib/ and the package's files into the build workspace."""
    if not os.path.isdir("lib") or not os.path.isdir(PKG):
        fail("run from the repository root: the library sources are missing")
    os.makedirs(WORKSPACE, exist_ok=True)
    links = ["lib"] + [os.path.join(PKG, f) for f in os.listdir(PKG)]
    for target in links:
        path = os.path.join(WORKSPACE, os.path.basename(target))
        want = os.path.relpath(target, WORKSPACE)
        if os.path.islink(path) and os.readlink(path) == want:
            continue
        if os.path.lexists(path):
            os.remove(path)
        os.symlink(want, path)


def build():
    stage()
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = [dune, "build", "--root", WORKSPACE, "--profile", "release",
           "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "out")),
           "--display", "quiet", "./perfbench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke test")
    ap.add_argument("--record", metavar="FILE",
                    help="append the tagged result to this JSON-lines file")
    args = ap.parse_args()

    build()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    out = r.stdout.decode()
    lines = out.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % r.returncode)
    result = json.loads(lines[-1])
    sys.stdout.write(out)
    sys.stdout.flush()
    if args.record:
        tagged = dict(workload=args.workload, seed=args.seed,
                      trace=args.trace, **result)
        with open(args.record, "a") as f:
            f.write(json.dumps(tagged) + "\n")


if __name__ == "__main__":
    main()
