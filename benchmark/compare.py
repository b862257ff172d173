#!/usr/bin/env python3
"""Compares two sets of benchmark runs, workload by workload.

    python3 benchmark/compare.py SET_A SET_B

A set is a results directory (every *.jsonl in it) or one .jsonl file, as
benchmark/run.sh writes them: one record per untraced run. SET_A is the
parent, SET_B the change. Within a workload, the i-th run of A is paired
with the i-th run of B, so run the pairs alternately (A first, then B
first, ...) with the same seeds, at least ten of them.

For every end-to-end metric the records carry it prints each side's median
and quartiles, the share of pairs B wins, and a verdict against the bound
BENCHMARK.json declares (metrics it does not declare, such as the wall-clock
sim_qps, get only "gain" or "-"):

  gain        B wins at least 9 in 10 pairs and the medians differ by more
              than A's interquartile distance;
  regression  B's median is worse than A's by more than the metric's bound;
  unresolved  a side's own spread (IQR / median) exceeds the bound, so the
              bound cannot be checked -- unless every B run is better
              (then "gain" or "same") or worse ("regression") than every A;
  same        none of the above.

It also reports whether the sim_digest of each seed run on both sides is
identical (the modeled results did not change). Exit status: 1 if any
metric regressed, 0 otherwise. Standard library only.
"""

import json
import pathlib
import statistics
import sys

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    """workload -> list of records, in file order."""
    path = pathlib.Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = {}
    for file in files:
        for line in file.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("smoke"):
                continue
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a, b, better, bound):
    """Returns (verdict, share of pairs B won, B's relative worsening).
    `bound` is None for a metric without a declared bound."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):  # x better than y
        return sign * (y - x) > 0

    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if beats(y, x))
    won = wins / len(pairs) if pairs else 0.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = quartiles(b)[1]
    worse = sign * (b_med - a_med) / abs(a_med) + 0.0 if a_med else 0.0
    all_better = all(beats(y, x) for y in b for x in a)
    all_worse = all(beats(x, y) for y in b for x in a)
    if pairs and won >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1) and worse < 0:
        return "gain", won, worse
    if bound is None:
        return "-", won, worse
    if all_worse and worse > bound:
        return "regression", won, worse
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", won, worse
    if worse > bound:
        return "regression", won, worse
    return "same", won, worse


def main(argv):
    if len(argv) != 3:
        print("usage: compare.py SET_A SET_B", file=sys.stderr)
        return 2
    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK_JSON.read_text())["end_to_end"]}
    set_a, set_b = load(argv[1]), load(argv[2])
    regressions = 0
    for workload in sorted(set(set_a) & set(set_b)):
        runs_a, runs_b = set_a[workload], set_b[workload]
        pairs = min(len(runs_a), len(runs_b))
        print(f"== {workload}: {len(runs_a)} runs in A, {len(runs_b)} in B, "
              f"{pairs} pairs" + ("" if pairs >= 10 else " (fewer than 10: no claim)"))
        print(f"  {'metric':18s} {'A median':>12s} {'A q1..q3':>25s} "
              f"{'B median':>12s} {'B q1..q3':>25s} {'B won':>6s} "
              f"{'worse':>8s} {'bound':>6s}  verdict")
        for name, metric in runs_a[0]["metrics"].items():
            if any(name not in r["metrics"] for r in runs_a + runs_b):
                continue
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            bound = bounds.get(name)
            result, won, worse = verdict(a, b, metric["better"], bound)
            regressions += result == "regression"
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            print(f"  {name:18s} {a_med:12.6g} {a_q1:12.6g}..{a_q3:<12.6g} "
                  f"{b_med:12.6g} {b_q1:12.6g}..{b_q3:<12.6g} {won:6.0%} "
                  f"{worse:+8.2%} {'-' if bound is None else f'{bound:.0%}':>6s}  "
                  f"{result}")
        digests_a = {r["seed"]: r["sim_digest"] for r in runs_a}
        digests_b = {r["seed"]: r["sim_digest"] for r in runs_b}
        shared = sorted(set(digests_a) & set(digests_b))
        differ = [s for s in shared if digests_a[s] != digests_b[s]]
        if shared:
            print(f"  sim_digest: {len(shared) - len(differ)} of {len(shared)} "
                  "shared seeds identical" +
                  (f"; differ at seeds {differ}" if differ else ""))
    only = sorted(set(set_a) ^ set(set_b))
    if only:
        print(f"workloads in one set only: {', '.join(only)}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
