"""Per-trace statistics behind the paper's workload-characterization figures.

* Figure 1 plots the prevalence of each branch type per kilo-instruction.
* Figure 6 plots polymorphism: the share of indirect-branch executions
  whose (static) branch has more than one observed target.
* Figure 7 plots, for x = 1..64, the percentage of (static) indirect
  branches with **at least x** distinct targets (a CCDF).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.trace.record import BranchType
from repro.trace.stream import Trace


@dataclass
class TraceStats:
    """Workload-characterization statistics for one trace."""

    name: str
    total_instructions: int
    counts_by_type: Dict[BranchType, int]
    # Static indirect branch pc -> set size of distinct targets observed.
    targets_per_branch: Dict[int, int]
    # Dynamic executions of indirect branches whose static branch is
    # polymorphic (ends the trace with > 1 distinct target).
    polymorphic_executions: int
    indirect_executions: int

    def per_kilo(self, branch_type: BranchType) -> float:
        """Dynamic executions of ``branch_type`` per 1000 instructions."""
        if self.total_instructions == 0:
            return 0.0
        return 1000.0 * self.counts_by_type.get(branch_type, 0) / self.total_instructions

    def polymorphic_fraction(self) -> float:
        """Fraction of indirect executions from polymorphic branches (Fig. 6)."""
        if self.indirect_executions == 0:
            return 0.0
        return self.polymorphic_executions / self.indirect_executions

    def target_count_ccdf(self, max_targets: int = 64) -> List[float]:
        """Fig. 7 series: % of static indirect branches with >= x targets.

        Index 0 corresponds to x = 1 (always 100.0 when any indirect
        branch exists).
        """
        num_branches = len(self.targets_per_branch)
        if num_branches == 0:
            return [0.0] * max_targets
        counts = np.array(list(self.targets_per_branch.values()))
        return [
            100.0 * float(np.count_nonzero(counts >= x)) / num_branches
            for x in range(1, max_targets + 1)
        ]


def compute_stats(trace: Trace) -> TraceStats:
    """Scan ``trace`` once and compute its :class:`TraceStats`."""
    counts: Dict[BranchType, int] = {
        bt: trace.count_of(bt) for bt in BranchType
    }

    indirect_mask = trace.indirect_mask()
    indirect_pcs = trace.pcs[indirect_mask]
    indirect_targets = trace.targets[indirect_mask]

    seen: Dict[int, set] = defaultdict(set)
    for pc, target in zip(indirect_pcs.tolist(), indirect_targets.tolist()):
        seen[pc].add(target)
    targets_per_branch = {pc: len(targets) for pc, targets in seen.items()}

    polymorphic_pcs = {pc for pc, n in targets_per_branch.items() if n > 1}
    polymorphic_executions = sum(
        1 for pc in indirect_pcs.tolist() if pc in polymorphic_pcs
    )

    return TraceStats(
        name=trace.name,
        total_instructions=trace.total_instructions(),
        counts_by_type=counts,
        targets_per_branch=targets_per_branch,
        polymorphic_executions=polymorphic_executions,
        indirect_executions=int(indirect_mask.sum()),
    )


def aggregate_target_ccdf(stats: List[TraceStats], max_targets: int = 64) -> List[float]:
    """Suite-wide Fig. 7 series: pool static indirect branches across traces."""
    all_counts: List[int] = []
    for stat in stats:
        all_counts.extend(stat.targets_per_branch.values())
    if not all_counts:
        return [0.0] * max_targets
    counts = np.array(all_counts)
    return [
        100.0 * float(np.count_nonzero(counts >= x)) / len(counts)
        for x in range(1, max_targets + 1)
    ]
