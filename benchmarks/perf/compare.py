"""Compare two sets of benchmark runs, per (workload, end-to-end metric).

Input is run rows as ``run.py --record`` writes them (one JSON object
per line with ``label``, ``workload``, ``seed``, ``trace`` and the run's
``result``).  Either give two files (base, then head), or one file and
the two labels to compare::

    python3 benchmarks/perf/compare.py benchmarks/perf/baseline.jsonl \\
        --base A --head B
    python3 benchmarks/perf/compare.py parent.jsonl change.jsonl

For every workload and end-to-end metric of ``BENCHMARK.json`` it prints
each side's median and quartiles, its spread (quartile distance over
median), and a verdict, by the rules of the benchmark's method:

* ``better`` -- the head wins at least 9 of every 10 runs paired by seed
  (ties count for neither) and the medians differ by more than the
  base's quartile distance;
* ``unresolved`` -- otherwise, when either side's spread is wider than
  the metric's bound, unless every head run beats every base run;
* ``worse`` -- the head's median is worse than the base's by more than
  the bound;
* ``unchanged`` -- anything else.

Exits 1 when any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_rows(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def by_seed(rows: List[dict], workload: str, metric: str) -> Dict[int, float]:
    return {
        row["seed"]: row["result"]["metrics"][metric]["value"]
        for row in rows
        if row["workload"] == workload and not row["trace"]
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    base: Dict[int, float], head: Dict[int, float], better: str, bound: float
) -> Tuple[str, dict]:
    sign = 1.0 if better == "higher" else -1.0
    b1, b2, b3 = quartiles(list(base.values()))
    h1, h2, h3 = quartiles(list(head.values()))
    pairs = sorted(set(base) & set(head))
    wins = sum(1 for seed in pairs if sign * (head[seed] - base[seed]) > 0)
    change = sign * (h2 - b2) / b2
    spread = max((b3 - b1) / b2, (h3 - h1) / h2)
    detail = {
        "base": (b1, b2, b3),
        "head": (h1, h2, h3),
        "wins": f"{wins}/{len(pairs)}",
        "change": change,
        "spread": spread,
    }
    if sign > 0:
        all_better = min(head.values()) > max(base.values())
    else:
        all_better = max(head.values()) < min(base.values())
    clear_gain = change > 0 and abs(h2 - b2) > b3 - b1
    if pairs and wins >= 0.9 * len(pairs) and clear_gain:
        return "better", detail
    if spread > bound and not all_better:
        return "unresolved", detail
    if -change > bound:
        return "worse", detail
    return "unchanged", detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="one or two JSONL row files")
    parser.add_argument("--base", default=None, help="label of the base set")
    parser.add_argument("--head", default=None, help="label of the head set")
    args = parser.parse_args(argv)
    if len(args.files) > 2:
        parser.error("give one or two files")
    if len(args.files) == 2:
        base_rows = load_rows(args.files[0])
        head_rows = load_rows(args.files[1])
    else:
        rows = load_rows(args.files[0])
        labels = list(dict.fromkeys(row["label"] for row in rows))
        base_label = args.base or labels[0]
        head_label = args.head or labels[-1]
        base_rows = [row for row in rows if row["label"] == base_label]
        head_rows = [row for row in rows if row["label"] == head_label]

    spec = json.loads(BENCHMARK.read_text())
    counts: Dict[str, int] = defaultdict(int)
    print(f"{'workload':<18} {'metric':<19} {'base q1/med/q3':>32} "
          f"{'head q1/med/q3':>32} {'spread':>7} {'change':>8} "
          f"{'wins':>6}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            base = by_seed(base_rows, workload, metric["name"])
            head = by_seed(head_rows, workload, metric["name"])
            if not base or not head:
                print(f"{workload:<18} {metric['name']:<19} missing runs")
                counts["unresolved"] += 1
                continue
            result, detail = verdict(
                base, head, metric["better"], metric["bound"]
            )
            counts[result] += 1
            base_q = "/".join(f"{v:.4g}" for v in detail["base"])
            head_q = "/".join(f"{v:.4g}" for v in detail["head"])
            print(
                f"{workload:<18} {metric['name']:<19} {base_q:>32} "
                f"{head_q:>32} {detail['spread']:>7.2%} "
                f"{detail['change']:>+8.2%} {detail['wins']:>6}  "
                f"{result} (bound {metric['bound']:.0%})"
            )
    print(", ".join(f"{count} {name}" for name, count in sorted(counts.items())))
    return 1 if counts["worse"] or counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
