"""Campaign runner: many traces × many predictors.

Predictors carry state, so a campaign constructs a *fresh* predictor per
trace through a factory callable.  This runner is single-process and
deterministic; :mod:`repro.exec` schedules the same (trace, predictor)
cells across worker processes and merges them into an identical
:class:`~repro.sim.metrics.CampaignResult`.

Both paths share one progress protocol: a ``progress`` callback is
called as ``(trace, predictor, mpki, index, total)``, where ``index`` is
the zero-based cell number and ``total`` the campaign cell count.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.predictors.base import IndirectBranchPredictor
from repro.sim.counters import SimCounters
from repro.sim.engine import simulate
from repro.sim.metrics import CampaignResult
from repro.trace.source import as_source
from repro.trace.stream import Trace

#: A callable producing a fresh predictor instance.
PredictorFactory = Callable[[], IndirectBranchPredictor]

#: A progress callback: ``(trace, predictor, mpki, index, total)``.
ProgressCallback = Callable[[str, str, float, int, int], None]


def run_campaign(
    traces: Iterable[Trace],
    factories: Dict[str, PredictorFactory],
    ras_depth: int = 32,
    warmup_records: int = 0,
    progress: Optional[ProgressCallback] = None,
    counters: Optional[SimCounters] = None,
    backend: str = "scalar",
) -> CampaignResult:
    """Simulate every predictor over every trace.

    Args:
        traces: the workload suite — in-memory :class:`Trace`s, lazy
            :class:`~repro.trace.source.TraceSource`s, or workload
            specs (coerced via :func:`~repro.trace.source.as_source`;
            lazy sources materialize when their cells run and are
            released after).
        factories: predictor-name → factory map; the name overrides the
            predictor's own ``name`` in results so one campaign can
            compare multiple configurations of the same class.
        ras_depth, warmup_records: forwarded to :func:`simulate`.
        backend: simulation backend per cell ("scalar" or "columnar");
            forwarded to :func:`simulate`, results identical either way.
        progress: optional callback invoked after each cell as
            ``(trace, predictor, mpki, index, total)``.
        counters: when given, every cell runs profiled — per-cell
            numbers land on each result's ``profile`` field and the
            campaign totals accumulate into ``counters``.

    Returns:
        A :class:`CampaignResult` with one cell per (trace, predictor).
    """
    sources = [as_source(trace) for trace in traces]
    total = len(sources) * len(factories)
    campaign = CampaignResult()
    index = 0
    for source in sources:
        trace = source.trace()
        for name, factory in factories.items():
            predictor = factory()
            result = simulate(
                predictor,
                trace,
                ras_depth=ras_depth,
                warmup_records=warmup_records,
                counters=counters,
                backend=backend,
            )
            result.predictor_name = name
            campaign.add(result)
            if progress is not None:
                progress(trace.name, name, result.mpki(), index, total)
            index += 1
        source.release()
    return campaign
