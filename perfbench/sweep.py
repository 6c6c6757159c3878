#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json over several seeds into one result set.

    python3 perfbench/sweep.py --seeds 1-10 --out SET.jsonl [--trace 0|1]

Run it from the repository root.  Each run goes through run.py with
BENCHMARK.json's run_seconds and is appended to SET.jsonl, which
compare.py reads.  Runs are sequential: one client, one process.
"""

import argparse
import json
import subprocess
import sys


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_range, required=True,
                    help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, metavar="SET.jsonl")
    args = ap.parse_args()
    for w in spec["workloads"]:
        for seed in args.seeds:
            cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"],
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace), "--record", args.out]
            r = subprocess.run(cmd, stdout=subprocess.DEVNULL)
            if r.returncode != 0:
                sys.exit("sweep.py: %s seed %d failed" % (w["name"], seed))
            print("%s seed %d done" % (w["name"], seed), file=sys.stderr)


if __name__ == "__main__":
    main()
