"""Compare runs of two commits made with ``run.py --json``.

    python benchmarks/e2e/compare.py PARENT1.json ... CHANGE1.json ...

The first half of the files are the parent's runs and the second half the
change's, in the order they were made; run ``i`` of each side forms pair
``i`` (alternate which side runs first).  For every workload and metric:

- **gain**: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
- **regression**: the change's median is worse than the parent's by more
  than the metric's bound;
- **unresolved**: either side's interquartile range is wider than the
  bound, unless every change run beats every parent run;
- **same**: none of the above.

Failed operations are reported separately, per side.  One row is printed
per workload.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from catalog import E2E_METRICS, EXTRA_METRICS
from stats import spread

GAIN_WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(label, relative change of the median)`` for one metric.

    ``parent[i]`` and ``change[i]`` are pair ``i``; the relative change is
    signed so that positive is better.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    p_iqr, c_iqr = p["q3"] - p["q1"], c["q3"] - c["q1"]
    delta = c["median"] - p["median"]
    gain = sign * delta / abs(p["median"]) if p["median"] else 0.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    if wins >= GAIN_WIN_SHARE * len(parent) and sign * delta > p_iqr:
        return "gain", gain
    if gain < -bound:
        return "regression", gain
    wide = max(p_iqr, c_iqr) > bound * abs(p["median"])
    separated = all(sign * (b - a) > 0 for b in change for a in parent)
    if wide and not separated:
        return "unresolved", gain
    return "same", gain


def _values(docs: Sequence[Dict[str, Any]], workload: str,
            metric: str) -> List[float]:
    values = []
    for doc in docs:
        for result in doc["results"]:
            entry = result.get("metrics", {}).get(metric)
            if result["workload"] == workload and entry is not None:
                values.append(entry["value"])
    return values


def _failures(docs: Sequence[Dict[str, Any]], workload: str) -> Tuple[int, int]:
    failed = attempted = 0
    for doc in docs:
        for result in doc["results"]:
            if result["workload"] == workload:
                failed += result["failed"]
                attempted += result["attempted"]
    return failed, attempted


def compare(parent: Sequence[Dict[str, Any]],
            change: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """One row per workload: each metric's verdict, plus failures."""
    metrics = {**E2E_METRICS, **EXTRA_METRICS}
    workloads = []
    for doc in list(parent) + list(change):
        for result in doc["results"]:
            if result["workload"] not in workloads:
                workloads.append(result["workload"])
    rows = []
    for workload in workloads:
        row: Dict[str, Any] = {"workload": workload, "metrics": {}}
        for name, spec in metrics.items():
            p = _values(parent, workload, name)
            c = _values(change, workload, name)
            if not p or len(p) != len(c):
                continue
            row["metrics"][name] = verdict(p, c, spec["better"],
                                           spec["bound"])
        row["failed_parent"] = _failures(parent, workload)
        row["failed_change"] = _failures(change, workload)
        rows.append(row)
    return rows


def format_row(row: Dict[str, Any]) -> str:
    cells = [f"{name}={label}({gain:+.1%})"
             for name, (label, gain) in row["metrics"].items()]
    fp, ap = row["failed_parent"]
    fc, ac = row["failed_change"]
    cells.append(f"failed parent {fp}/{ap} change {fc}/{ac}")
    return f"{row['workload']}: " + " ".join(cells)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare parent and change runs of the benchmark."
    )
    parser.add_argument("files", nargs="+",
                        help="parent runs, then the same number of "
                             "change runs")
    args = parser.parse_args(argv)
    if len(args.files) % 2:
        parser.error("give as many change runs as parent runs")
    docs = []
    for path in args.files:
        with open(path, encoding="utf-8") as handle:
            docs.append(json.load(handle))
    half = len(docs) // 2
    rows = compare(docs[:half], docs[half:])
    for row in rows:
        print(format_row(row))
    regressed = any(label == "regression"
                    for row in rows for label, _ in row["metrics"].values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
