#!/usr/bin/env python3
"""Self-test of the nordbench package (registered with ctest).

    selftest.py smoke NORDBENCH_BIN OUT_DIR
        Runs every workload at smoke length (1/50), untraced and traced.
        Each run must be correct and its summary line must carry exactly
        the BENCHMARK.json metrics of its mode, with valid names, the
        declared units and finite values; a traced run must write a
        Chrome trace whose spans cover at least 95% of the workload.

    selftest.py compare
        compare.py must flag a planted 20% regression on every metric
        whose bound is below 20% (and only there), pass identical sets,
        and call noisy sets unresolved.
"""

import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def smoke(bench, out):
    problems = []
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            run = "%s trace=%d" % (workload, trace)
            p = subprocess.run(
                [bench, "--smoke", "--workload", workload, "--trace",
                 str(trace), "--out", out],
                capture_output=True, text=True, timeout=240)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (run, p.returncode,
                                                     p.stderr[-2000:]))
                continue
            summary = json.loads(lines[-1])
            if set(summary) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: summary keys %s" % (run, set(summary)))
            if summary.get("correct") is not True or \
                    summary.get("failed") != 0 or summary.get("attempted", 0) < 1:
                problems.append("%s: not correct: %s" % (run, lines[-1]))
            declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
            metrics = summary.get("metrics", {})
            if set(metrics) != set(declared):
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (run, set(metrics) ^ set(declared)))
            for name, m in metrics.items():
                value = m.get("value")
                if not NAME.match(name) or m.get("unit") != declared.get(name) \
                        or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append("%s: bad metric %s %r" % (run, name, m))
                if "%s " % name not in p.stdout:
                    problems.append("%s: %s not printed" % (run, name))
            if trace:
                tag = "%s-s1-t1" % workload
                with open(os.path.join(out, "trace-%s.json" % tag)) as f:
                    if not json.load(f)["traceEvents"]:
                        problems.append("%s: empty trace" % run)
                with open(os.path.join(out, "%s.json" % tag)) as f:
                    coverage = json.load(f)["trace_coverage"]
                if coverage < 0.95:
                    problems.append("%s: spans cover %.3f" % (run, coverage))
    return problems


def synthetic_runs(rng, noise, worse=(), factor=1.2):
    """Ten seeded runs of one workload; metrics in `worse` are made worse."""
    runs = {}
    for seed in range(1, 11):
        metrics = {}
        for m in BENCHMARK["end_to_end"]:
            value = 100.0 * (1.0 + rng.gauss(0.0, noise))
            if m["name"] in worse:
                value = value * factor if m["better"] == "lower" \
                    else value / factor
            metrics[m["name"]] = value
        runs[seed] = metrics
    return {"w": runs}


def write_runs(directory, runs):
    for workload, by_seed in runs.items():
        for seed, metrics in by_seed.items():
            doc = {"schema": "nordbench-result-1", "workload": workload,
                   "seed": seed, "trace": 0,
                   "result": {"metrics": {k: {"value": v, "unit": "x"}
                                          for k, v in metrics.items()}}}
            with open(os.path.join(directory,
                                   "%s-s%d-t0.json" % (workload, seed)),
                      "w") as f:
                json.dump(doc, f)


def verdicts(a, b):
    table = compare.compare(a, b, BENCHMARK["end_to_end"])
    return {name: r["verdict"] for name, r in table["w"].items()}


def compare_test():
    problems = []
    rng = random.Random(11)
    base = synthetic_runs(rng, noise=0.005)
    planted = [m["name"] for m in BENCHMARK["end_to_end"]]
    flagged = {m["name"] for m in BENCHMARK["end_to_end"] if m["bound"] < 0.2}
    if not flagged:
        problems.append("no bound below 20%: the planted test proves nothing")

    same = verdicts(base, base)
    if set(same.values()) != {"unchanged"}:
        problems.append("identical sets: %s" % same)

    worse = synthetic_runs(random.Random(11), noise=0.005, worse=planted)
    got = verdicts(base, worse)
    for name, verdict in got.items():
        want = "regression" if name in flagged else "unchanged"
        if verdict != want:
            problems.append("planted regression: %s is %s, want %s"
                            % (name, verdict, want))

    noisy_a = synthetic_runs(rng, noise=0.4)
    noisy_b = synthetic_runs(rng, noise=0.4)
    got = verdicts(noisy_a, noisy_b)
    if set(got.values()) != {"unresolved"}:
        problems.append("noisy sets: %s" % got)

    with tempfile.TemporaryDirectory() as tmp:
        a_dir, b_dir = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        os.mkdir(a_dir)
        os.mkdir(b_dir)
        write_runs(a_dir, base)
        write_runs(b_dir, worse)
        cli = [sys.executable, os.path.join(HERE, "compare.py")]
        if subprocess.run(cli + [a_dir, a_dir], capture_output=True).returncode:
            problems.append("compare.py fails identical directories")
        p = subprocess.run(cli + [a_dir, b_dir], capture_output=True, text=True)
        if p.returncode != 1 or "regression" not in p.stdout:
            problems.append("compare.py missed the planted regression:\n"
                            + p.stdout)
    return problems


def main(argv):
    if argv[:1] == ["smoke"] and len(argv) == 3:
        os.makedirs(argv[2], exist_ok=True)
        problems = smoke(argv[1], argv[2])
    elif argv == ["compare"]:
        problems = compare_test()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for p in problems:
        print("FAIL:", p)
    print("%s: %s" % (argv[0], "FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
