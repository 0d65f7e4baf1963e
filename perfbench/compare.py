"""Compare two sets of benchmark runs, such as a parent commit and a change.

usage: python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result records ``run.py --results DIR`` wrote, one
per run, with tracing off. Run the two sides alternately, at least ten times
each, with the same ``--seconds``; the i-th run of one side is paired with
the i-th run of the other in the order they started. For every workload
and end-to-end metric this prints both medians and quartiles, the fraction
of pairs the change wins (ties count for neither side) and a verdict:

* improved: the change wins at least 9 in 10 pairs and the medians differ
  by more than the distance between the base's quartiles;
* unresolved: fewer than ten pairs, more failed commands on the change
  side, or a base spread wider than the metric's bound while not every
  change run beats every base run;
* regressed: the change's median is worse by more than the bound;
* unchanged: otherwise.

Bounds and directions come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, list[dict]]:
    """Untraced run records per workload, in the order the runs started."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in directory.glob("*.json"):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["run"]["trace"] == 0:
            runs[record["workload"]].append(record)
    for records in runs.values():
        records.sort(key=lambda record: record["run"]["started_unix"])
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _cell(values: list[float]) -> str:
    q1, median, q3 = _quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base: list[float], change: list[float], lower_is_better: bool, bound: float,
            more_failures: bool) -> tuple[str, float]:
    """(verdict, share of pairs the change wins) for one workload and metric."""

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = list(zip(base, change))
    wins = sum(better(c, b) for b, c in pairs) / len(pairs) if pairs else 0.0
    q1, base_median, q3 = _quartiles(base)
    change_median = statistics.median(change)
    worse_by = (change_median - base_median) / base_median
    if not lower_is_better:
        worse_by = -worse_by
    if len(pairs) < MIN_PAIRS or more_failures:
        return "unresolved", wins
    if wins >= WIN_SHARE and abs(change_median - base_median) > q3 - q1:
        return "improved", wins
    if (q3 - q1) / base_median > bound and not all(better(c, b) for c in change for b in base):
        return "unresolved", wins
    return ("regressed" if worse_by > bound else "unchanged"), wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    base, change = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':<16}{'metric':<13}{'base median [q1, q3]':<36}"
          f"{'change median [q1, q3]':<36}{'wins':>5}  verdict")
    for workload in sorted(set(base) & set(change)):
        a, b = base[workload], change[workload]
        more_failures = sum(r["failed"] for r in b) > sum(r["failed"] for r in a)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in a]
            values_b = [r["metrics"][name]["value"] for r in b]
            result, wins = verdict(values_a, values_b, metric["better"] == "lower",
                                   metric["bound"], more_failures)
            print(f"{workload:<16}{name:<13}{_cell(values_a):<35} {_cell(values_b):<35} "
                  f"{wins:>5.2f}  {result} (pairs {min(len(a), len(b))}, bound {metric['bound']})")
    for workload in sorted(set(base) ^ set(change)):
        print(f"{workload}: runs on one side only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
