"""Table 1 (suite inventory) and the §5.1 headline numbers.

The headline experiment is the paper's central claim: over the 88-trace
suite, mean MPKI is BTB 3.40, VPC 0.29, ITTAGE 0.193, BLBP 0.183 — BLBP
improving 5% over ITTAGE — and on the untuned CBP-4 traces ITTAGE 0.028
vs BLBP 0.027 (3.5%).  ``headline()`` reproduces both comparisons on our
synthetic suites.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.experiments.configs import predictor_factories
from repro.experiments.runcache import get_campaign
from repro.workloads.suite import suite88_specs

#: The paper's §5.1 mean MPKI values over its 88-trace suite.
PAPER_HEADLINE_MPKI: Dict[str, float] = {
    "BTB": 3.40,
    "VPC": 0.29,
    "ITTAGE": 0.193,
    "BLBP": 0.183,
}

#: The paper's CBP-4 cross-check (untuned predictors).
PAPER_CBP4_MPKI: Dict[str, float] = {"ITTAGE": 0.028, "BLBP": 0.027}


def table1() -> List[Tuple[str, int, str]]:
    """Rows of (source, #benchmarks, details) matching Table 1."""
    specs = suite88_specs(scale=1.0)
    by_source: "OrderedDict[str, List[str]]" = OrderedDict()
    for entry in specs:
        by_source.setdefault(entry.source, []).append(entry.name)
    rows = []
    for source, names in by_source.items():
        benchmarks = set()
        for name in names:
            if "." in name:
                # "spec2006.400_perlbench.0" -> "400_perlbench"
                benchmarks.add(name.split(".")[1])
            else:
                # "SHORT-MOBILE-3" -> "SHORT-MOBILE"
                benchmarks.add(name.rsplit("-", 1)[0])
        ordered = sorted(benchmarks)
        details = ", ".join(ordered[:6])
        if len(ordered) > 6:
            details += ", ..."
        rows.append((source, len(names), details))
    return rows


def format_table1() -> str:
    lines = [
        "Table 1: the 88-workload evaluation suite",
        f"{'source':<14} {'#':>3}  details",
        "-" * 76,
    ]
    total = 0
    for source, count, details in table1():
        total += count
        lines.append(f"{source:<14} {count:>3}  {details}")
    lines.append("-" * 76)
    lines.append(f"{'total':<14} {total:>3}")
    return "\n".join(lines)


def headline(scale: Optional[float] = None) -> Dict[str, Dict[str, float]]:
    """§5.1: mean MPKI per predictor on suite-88 and the CBP-4-like suite.

    Returns ``{"suite88": {name: mpki}, "cbp4": {name: mpki}}`` with the
    full four-predictor comparison on the main suite and the
    ITTAGE/BLBP pair on the secondary suite.
    """
    main = get_campaign(predictor_factories(), scale=scale, suite="suite88")
    suite88 = {name: main.mean_mpki(name) for name in main.predictors()}

    pair = {
        name: factory
        for name, factory in predictor_factories().items()
        if name in ("ITTAGE", "BLBP")
    }
    secondary = get_campaign(pair, scale=scale, suite="cbp4")
    cbp4 = {name: secondary.mean_mpki(name) for name in secondary.predictors()}
    return {"suite88": suite88, "cbp4": cbp4}
