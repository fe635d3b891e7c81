"""Post-hoc analysis tools: learning curves, breakdowns, warmup studies.

The paper reports whole-trace MPKI; when reproducing it on shorter
synthetic traces, it matters *where* the mispredictions come from —
cold-start, steady-state aliasing, or genuinely unpredictable targets.
These tools answer that:

* :func:`learning_curve` — misprediction rate per window of indirect
  executions, showing convergence;
* :func:`per_branch_breakdown` — which static branches carry the MPKI;
* :func:`steady_state_mpki` — MPKI with a warmup fraction excluded,
  approximating the billion-instruction steady state of the paper's
  simpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.predictors.base import IndirectBranchPredictor
from repro.sim.engine import simulate
from repro.trace.record import BranchType
from repro.trace.stream import Trace

_COND = int(BranchType.CONDITIONAL)
_INDIRECT = (int(BranchType.INDIRECT_JUMP), int(BranchType.INDIRECT_CALL))


@dataclass
class LearningCurve:
    """Misprediction rate per window of indirect executions."""

    trace_name: str
    predictor_name: str
    window: int
    #: Miss rate (0..1) per consecutive window of ``window`` executions.
    rates: List[float]

    def converged_rate(self, tail_windows: int = 3) -> float:
        """Mean rate over the last ``tail_windows`` windows."""
        tail = self.rates[-tail_windows:] if self.rates else []
        return sum(tail) / len(tail) if tail else 0.0

    def warmup_windows(self, tolerance: float = 1.5) -> int:
        """Windows until the rate first drops within ``tolerance`` x the
        converged rate (the visible warmup length)."""
        target = self.converged_rate() * tolerance + 1e-9
        for index, rate in enumerate(self.rates):
            if rate <= target:
                return index
        return len(self.rates)


def learning_curve(
    predictor: IndirectBranchPredictor,
    trace: Trace,
    window: int = 200,
) -> LearningCurve:
    """Drive ``predictor`` over ``trace``, recording windowed miss rates."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    pcs = trace.pcs.tolist()
    types = trace.types.tolist()
    takens = trace.takens.tolist()
    targets = trace.targets.tolist()

    rates: List[float] = []
    window_count = 0
    window_misses = 0
    for index in range(len(pcs)):
        branch_type = types[index]
        pc = pcs[index]
        if branch_type == _COND:
            predictor.on_conditional(pc, takens[index])
            continue
        target = targets[index]
        if branch_type in _INDIRECT:
            prediction = predictor.predict_target(pc)
            window_count += 1
            if prediction != target:
                window_misses += 1
            predictor.train(pc, target)
            if window_count == window:
                rates.append(window_misses / window)
                window_count = 0
                window_misses = 0
        predictor.on_retired(pc, branch_type, target)
    if window_count:
        rates.append(window_misses / window_count)
    return LearningCurve(
        trace_name=trace.name,
        predictor_name=predictor.name,
        window=window,
        rates=rates,
    )


@dataclass
class BranchReport:
    """Misprediction attribution for one static indirect branch."""

    pc: int
    executions: int
    mispredictions: int
    distinct_targets: int

    @property
    def miss_rate(self) -> float:
        return self.mispredictions / self.executions if self.executions else 0.0


def per_branch_breakdown(
    predictor: IndirectBranchPredictor,
    trace: Trace,
    top: Optional[int] = None,
) -> List[BranchReport]:
    """Per-static-branch misprediction report, worst offenders first.

    The misses are :func:`simulate`'s per-PC tally; executions and
    distinct targets come from the trace's indirect columns.  Ties keep
    first-execution order.
    """
    misses = simulate(
        predictor, trace, collect_per_pc=True
    ).mispredictions_by_pc
    indirect = trace.indirect_mask()
    pcs = trace.pcs[indirect]
    targets = trace.targets[indirect]
    unique, first, executions = np.unique(
        pcs, return_index=True, return_counts=True
    )
    pairs = np.unique(np.stack((pcs, targets)), axis=1)
    distinct = np.unique(pairs[0], return_counts=True)[1]
    reports = [
        BranchReport(
            pc=pc,
            executions=count,
            mispredictions=misses.get(pc, 0),
            distinct_targets=targets_seen,
        )
        for _, pc, count, targets_seen in sorted(
            zip(
                first.tolist(), unique.tolist(), executions.tolist(),
                distinct.tolist(),
            )
        )
    ]
    reports.sort(key=lambda report: report.mispredictions, reverse=True)
    return reports[:top] if top is not None else reports


def steady_state_mpki(
    factory: Callable[[], IndirectBranchPredictor],
    trace: Trace,
    warmup_fraction: float = 0.5,
) -> Tuple[float, float]:
    """(whole-trace MPKI, steady-state MPKI after warmup).

    Approximates the paper's billion-instruction measurements on short
    synthetic traces by excluding the first ``warmup_fraction`` of
    records from the steady-state number.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction out of [0,1): {warmup_fraction}")
    whole = simulate(factory(), trace).mpki()
    warm_records = int(len(trace) * warmup_fraction)
    steady_result = simulate(factory(), trace, warmup_records=warm_records)
    # Normalize by the instructions actually measured.
    measured_instructions = (
        int(trace.gaps[warm_records:].sum()) + (len(trace) - warm_records)
    )
    steady = (
        1000.0 * steady_result.indirect_mispredictions / measured_instructions
        if measured_instructions
        else 0.0
    )
    return whole, steady


def format_learning_curve(curve: LearningCurve, width: int = 50) -> str:
    """ASCII rendering of a learning curve."""
    lines = [
        f"learning curve: {curve.predictor_name} on {curve.trace_name} "
        f"(window = {curve.window} indirect executions)"
    ]
    peak = max(curve.rates, default=0.0) or 1.0
    for index, rate in enumerate(curve.rates):
        bar = "#" * int(width * rate / peak)
        lines.append(f"  {index:>4}  {rate:6.3f}  {bar}")
    return "\n".join(lines)


def format_branch_reports(reports: List[BranchReport]) -> str:
    lines = [
        f"{'pc':>14}  {'execs':>7}  {'misses':>7}  {'rate':>6}  {'targets':>7}",
    ]
    for report in reports:
        lines.append(
            f"{report.pc:#14x}  {report.executions:>7}  "
            f"{report.mispredictions:>7}  {report.miss_rate:>6.3f}  "
            f"{report.distinct_targets:>7}"
        )
    return "\n".join(lines)
