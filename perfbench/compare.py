"""Summarise one results file, or compare two, per workload and metric.

Usage::

    python3 perfbench/compare.py RESULTS.json               # spread per metric
    python3 perfbench/compare.py PARENT.json CHANGE.json    # outcome per metric

A results file is written by ``campaign.py``.  For each workload and metric
the summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.

A comparison pairs the runs of both files by seed and gives one outcome:

* ``better``: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's quartile
  distance;
* ``worse``: the change's median is worse than the parent's by more than the
  bound (for metrics without a bound: the parent wins 9 of 10 pairs and the
  medians differ by more than the parent's quartile distance);
* ``unresolved``: the parent's own spread is wider than the bound and not
  every run of the change reads better than every run of the parent, or the
  metric has no bound and neither side wins;
* ``unchanged``: otherwise, i.e. the change's median is within the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_specs() -> dict[str, dict]:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def series(results: dict) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} over the correct runs."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for run in results["runs"]:
        if not run["result"]["correct"]:
            continue
        for name, cell in run["result"]["metrics"].items():
            out.setdefault((run["workload"], name), {})[run["seed"]] = cell["value"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def outcome(base: dict[int, float], change: dict[int, float], spec: dict) -> str:
    lower = spec.get("better", "lower") == "lower"
    bound = spec.get("bound")

    def gain(a: float, b: float) -> float:
        return a - b if lower else b - a

    a_vals, b_vals = list(base.values()), list(change.values())
    q1, med_a, q3 = quartiles(a_vals)
    med_b = statistics.median(b_vals)
    seeds = sorted(set(base) & set(change))
    pairs = [gain(base[s], change[s]) for s in seeds]
    wins = sum(g > 0 for g in pairs)
    losses = sum(g < 0 for g in pairs)
    margin = gain(med_a, med_b)
    if pairs and wins >= 0.9 * len(pairs) and margin > q3 - q1:
        return "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -margin > q3 - q1:
            return "worse"
        return "unresolved"
    if -margin > bound * abs(med_a):
        return "worse"
    all_better = all(gain(a, b) > 0 for a in a_vals for b in b_vals)
    if spread(a_vals) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def summarise(results: dict) -> list[str]:
    specs = metric_specs()
    rows = ["workload\tmetric\truns\tq1\tmedian\tq3\tspread\tbound"]
    for (workload, name), by_seed in sorted(series(results).items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        bound = specs.get(name, {}).get("bound")
        rows.append(
            "\t".join(
                [workload, name, str(len(vals)), _fmt(q1), _fmt(med), _fmt(q3),
                 f"{spread(vals):.4f}", "" if bound is None else str(bound)]
            )
        )
    return rows


def compare(base: dict, change: dict) -> list[str]:
    specs = metric_specs()
    a, b = series(base), series(change)
    rows = ["workload\tmetric\tparent q1/median/q3\tchange q1/median/q3\toutcome"]
    for key in sorted(set(a) & set(b)):
        workload, name = key
        qa = "/".join(map(_fmt, quartiles(list(a[key].values()))))
        qb = "/".join(map(_fmt, quartiles(list(b[key].values()))))
        rows.append(
            "\t".join([workload, name, qa, qb, outcome(a[key], b[key], specs.get(name, {}))])
        )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    files = [json.loads(Path(p).read_text()) for p in argv]
    lines = summarise(files[0]) if len(files) == 1 else compare(*files)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
