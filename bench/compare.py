"""Compare two sets of benchmark runs: a parent commit (A) and a change (B).

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds run records as bench/run.py appends them to
bench/results/results.jsonl.  Runs of the two sets are paired by workload,
trace mode and seed.  One row is printed per (workload, metric) pair with
each side's median and quartiles, the pairs won and lost by B, and a verdict:

- improved: at least ten pairs, B wins at least nine tenths of them (ties
  count for neither), and the medians differ by more than A's own spread
  (the distance between A's quartiles);
- worse: B's median is worse than A's by more than the metric's bound, a
  share of A's median; for a metric without a bound (per-layer), the
  mirror image of the improved rule;
- unresolved: A's spread is wider than the bound, unless every run of B
  reads better than every run of A; for a metric without a bound, the
  medians differ by more than A's spread without meeting either rule;
- unchanged: otherwise.

Bounds and directions come from BENCHMARK.json.  A row per workload also
compares failed ops, which may not grow.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {seed: [record, ...]}}"""
    runs: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])][rec["seed"]].append(rec)
    return runs


def spread(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(pairs: list[tuple[float, float]], better: str, bound: float | None) -> tuple[str, int, int]:
    """(verdict, pairs won by B, pairs lost by B) for (A, B) value pairs."""
    sign = 1.0 if better == "higher" else -1.0
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    q1, med_a, q3 = spread(a)
    iqr = q3 - q1
    gain = sign * (statistics.median(b) - med_a)
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    losses = sum(sign * (y - x) < 0 for x, y in pairs)
    n = len(pairs)
    if n >= 10 and wins >= 0.9 * n and gain > iqr:
        result = "improved"
    elif bound is None:
        if n >= 10 and losses >= 0.9 * n and -gain > iqr:
            result = "worse"
        else:
            result = "unchanged" if abs(gain) <= iqr else "unresolved"
    elif -gain > bound * abs(med_a):
        result = "worse"
    elif iqr > bound * abs(med_a) and not min(sign * y for y in b) > max(sign * x for x in a):
        result = "unresolved"
    else:
        result = "unchanged"
    return result, wins, losses


def compare(parent: dict, change: dict, spec: dict) -> list[list[str]]:
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    rows = []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        seeds = sorted(set(parent[key]) & set(change[key]))
        recs = [(ra, rb) for s in seeds for ra, rb in zip(parent[key][s], change[key][s])]
        if not recs:
            continue
        for m in metrics[trace]:
            name = m["name"]
            pairs = [(ra["metrics"][name]["value"], rb["metrics"][name]["value"])
                     for ra, rb in recs if name in ra["metrics"] and name in rb["metrics"]]
            if not pairs:
                rows.append([workload, name, "0", "-", "-", "-", "unresolved"])
                continue
            rows.append(_row(workload, name, pairs, m["better"], m.get("bound")))
        fa = sum(ra["failed"] for ra, _ in recs)
        fb = sum(rb["failed"] for _, rb in recs)
        rows.append([workload, f"failed_ops(trace={trace})", str(len(recs)), str(fa), str(fb),
                     "-", "worse" if fb > fa else "unchanged"])
    return rows


def _row(workload, name, pairs, better, bound) -> list[str]:
    result, wins, losses = verdict(pairs, better, bound)
    fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"  # noqa: E731
    return [workload, name, str(len(pairs)), fmt(spread([x for x, _ in pairs])),
            fmt(spread([y for _, y in pairs])), f"{wins}/{losses}", result]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="run records of the parent commit (A)")
    parser.add_argument("change", help="run records of the change (B)")
    parser.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load(args.parent), load(args.change), spec)
    header = ["workload", "metric", "pairs", "A median [q1, q3]", "B median [q1, q3]",
              "B won/lost", "verdict"]
    widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
    for r in [header] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
