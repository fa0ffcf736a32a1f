#!/usr/bin/env python3
"""Compare two sets of nordbench results: parent (A) against change (B).

    compare.py A_DIR B_DIR [--benchmark BENCHMARK.json]

Each directory holds the per-run documents nordbench writes
(<workload>-s<seed>-t0.json); traced runs are ignored. Runs of one
workload are paired by seed (in seed order), so run the two commits
alternately with the same seeds. For every (workload, end-to-end metric)
the script prints each side's median and quartiles and one verdict,
judged against the metric's bound in BENCHMARK.json:

  gain        B wins at least 9/10 of the pairs (ties count for neither)
              and the medians differ by more than A's quartile spread;
  unresolved  the run-to-run spread (quartile distance over median, the
              larger side) exceeds the bound, unless every B run beats
              every A run;
  regression  B's median is worse than A's by more than the bound;
  unchanged   anything else.

Exit status: 0 when no pairing is a regression, 1 otherwise, 2 on bad
input.
"""

import argparse
import json
import os
import statistics
import sys


def load_runs(directory):
    """{workload: {seed: metrics}} for the untraced runs in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith("-t0.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            doc = json.load(f)
        if doc.get("schema") != "nordbench-result-1" or doc.get("trace"):
            continue
        metrics = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
        runs.setdefault(doc["workload"], {})[doc["seed"]] = metrics
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(a, b, better, bound):
    """Verdict and details for paired samples a (parent) and b (change)."""
    sign = 1.0 if better == "higher" else -1.0
    a_q = quartiles(a)
    b_q = quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    pairs = min(len(a), len(b))
    spread_a = a_q[2] - a_q[0]
    rel_spread = max(spread_a / abs(a_q[1]) if a_q[1] else 0.0,
                     (b_q[2] - b_q[0]) / abs(b_q[1]) if b_q[1] else 0.0)
    change = sign * (b_q[1] - a_q[1]) / abs(a_q[1]) if a_q[1] else 0.0
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if wins >= 0.9 * pairs and sign * (b_q[1] - a_q[1]) > spread_a:
        verdict = "gain"
    elif rel_spread > bound and not all_better:
        verdict = "unresolved"
    elif change < -bound:
        verdict = "regression"
    else:
        verdict = "unchanged"
    return {"verdict": verdict, "a": a_q, "b": b_q, "wins": wins,
            "pairs": pairs, "change": change, "spread": rel_spread}


def compare(runs_a, runs_b, end_to_end):
    """{workload: {metric: judge()}} over workloads both sides ran."""
    table = {}
    for workload in sorted(set(runs_a) & set(runs_b)):
        seeds = sorted(set(runs_a[workload]) & set(runs_b[workload]))
        if not seeds:
            continue
        row = {}
        for m in end_to_end:
            a = [runs_a[workload][s][m["name"]] for s in seeds]
            b = [runs_b[workload][s][m["name"]] for s in seeds]
            row[m["name"]] = judge(a, b, m["better"], m["bound"])
        table[workload] = row
    return table


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="directory of parent-commit results")
    p.add_argument("change", help="directory of change results")
    p.add_argument("--benchmark",
                   default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = p.parse_args(argv)
    with open(args.benchmark) as f:
        end_to_end = json.load(f)["end_to_end"]
    table = compare(load_runs(args.parent), load_runs(args.change),
                    end_to_end)
    if not table:
        print("compare.py: no workload with runs of the same seed on both "
              "sides", file=sys.stderr)
        return 2

    names = [m["name"] for m in end_to_end]
    width = max(len(n) for n in names) + 2
    print("%-22s" % "workload" + "".join("%*s" % (width, n) for n in names))
    for workload, row in table.items():
        cells = ["%s %+.1f%%" % (row[n]["verdict"], 100 * row[n]["change"])
                 for n in names]
        print("%-22s" % workload + "".join("%*s" % (width, c) for c in cells))
    print()
    for workload, row in table.items():
        for n in names:
            r = row[n]
            print("%-22s %-18s A %.6g [%.6g, %.6g]  B %.6g [%.6g, %.6g]  "
                  "wins %d/%d  spread %.1f%%  %s"
                  % (workload, n, r["a"][1], r["a"][0], r["a"][2], r["b"][1],
                     r["b"][0], r["b"][2], r["wins"], r["pairs"],
                     100 * r["spread"], r["verdict"]))
    regressed = any(r["verdict"] == "regression"
                    for row in table.values() for r in row.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
