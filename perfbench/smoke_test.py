#!/usr/bin/env python3
"""Smoke test of the benchmark.

    python3 perfbench/smoke_test.py

Run it from the repository root.  It runs every workload of
BENCHMARK.json once at tiny size, untraced and traced, and asserts that
the result line has the contract's keys, that every op passed its
checks, and that the printed metric names and units are exactly
BENCHMARK.json's end-to-end (untraced) and per-layer (traced) lists.
"""

import json
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w["name"],
                   "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--tiny"]
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, check=True)
            result = json.loads(r.stdout.decode().strip().splitlines()[-1])
            where = "%s --trace %d" % (w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, where
            assert result["correct"] and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            assert printed == expected, "%s: metrics %s" % (
                where, sorted(set(printed) ^ set(expected)))
            print("ok  " + where)


if __name__ == "__main__":
    main()
