#!/usr/bin/env python3
"""Summarise one benchmark result set, or compare two.

    python3 perfbench/compare.py SET.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Result sets are JSON-lines files written by run.py --record (or
sweep.py).  For every (metric, workload) pair it prints the median and
quartiles of each side over its seeds, as statistics.quantiles(values,
n=4) gives them, and the spread: the distance between the quartiles as
a share of the median.

With one set, an end-to-end pair is flagged "wide" when its spread is
over a third of the metric's bound in BENCHMARK.json, and "OVER" when
it is over the bound itself (setup_s is exempt from both).

With two sets, runs are paired by workload and seed, so both sides of a
pair had the same inputs: seeds that only one set ran are left out.
For each seed the NEW/BASE ratio is taken, and the last columns give
the median ratio and the ratios' spread.  An end-to-end pair is
  - "unresolved" when the ratios' spread is wider than the bound
    (setup_s is exempt: its runs are too short to be steady, so only
    its median ratio is judged);
  - "REGRESSED" when the median ratio is worse than 1 by more than the
    bound;
  - "improved" when it is better by more than the bound;
  - "ok" otherwise.
Per-layer metrics have no bound and get the median ratio without a
verdict.  The exit code is 1 when a pair regressed or a run failed its
checks.  Two sets of runs of one commit should read "ok" everywhere.
"""

import json
import statistics
import sys
from collections import defaultdict


def load(path):
    """{(metric, workload): {seed: value}} and the runs that failed."""
    runs = defaultdict(dict)
    failed = []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            r = json.loads(line)
            if not r["correct"] or r["failed"]:
                failed.append("%s seed %s" % (r["workload"], r["seed"]))
            for name, m in r["metrics"].items():
                runs[(name, r["workload"])][r["seed"]] = m["value"]
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return "%11.5g [%.5g, %.5g] %6.1f%%" % (q2, q1, q3, 100 * spread(values))


def paired(name, base, new, better, bound):
    """Median NEW/BASE ratio over the common seeds, its spread, verdict."""
    seeds = sorted(set(base) & set(new))
    ratios = [new[s] / base[s] for s in seeds if base[s]]
    if not ratios:
        return "no common seeds"
    r = statistics.median(ratios)
    cols = "x%.4f %6.1f%%" % (r, 100 * spread(ratios))
    if bound is None:
        return cols
    worse = r - 1 if better == "lower" else 1 - r
    if spread(ratios) > bound and name != "setup_s":
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSED"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "ok"
    return cols + "  " + verdict


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    metrics.update({m["name"]: m for m in spec["per_layer"]})
    order = [w["name"] for w in spec["workloads"]]
    sets = [load(p) for p in sys.argv[1:]]
    bad = False
    for path, (_, failed) in zip(sys.argv[1:], sets):
        if failed:
            bad = True
            print("%s: runs that failed their checks: %s"
                  % (path, ", ".join(failed)))
    keys = sorted(set().union(*(s[0].keys() for s in sets)),
                  key=lambda k: ("bound" not in metrics.get(k[0], {}),
                                 order.index(k[1]) if k[1] in order else 99,
                                 k[0]))
    for name, workload in keys:
        m = metrics.get(name)
        sides = [s[0].get((name, workload), {}) for s in sets]
        if m is None or any(not v for v in sides):
            continue
        bound = m.get("bound")
        cols = "  ".join(fmt(list(v.values())) for v in sides)
        if len(sides) == 1:
            verdict = ""
            s = spread(list(sides[0].values()))
            if bound is not None and name != "setup_s":
                verdict = ("OVER" if s > bound else
                           "wide" if s > bound / 3 else "steady")
        else:
            verdict = paired(name, sides[0], sides[1], m["better"], bound)
            bad = bad or verdict.endswith("REGRESSED")
        print("%-12s %-28s %s  %s" % (workload, name, cols, verdict))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
