"""Campaign execution engine: parallel, resumable, observable.

The serial :func:`repro.sim.runner.run_campaign` visits (trace,
predictor) cells one at a time in one process.  This package runs the
same cells as a scheduled *campaign*:

* :mod:`repro.exec.plan` expands traces × factories into serializable
  :class:`CellSpec`s, spilling traces to the binary cache so workers
  load columns from disk instead of pickling them;
* :mod:`repro.exec.pool` executes cells across a process pool with
  per-cell timeouts, bounded retry, and graceful degradation to serial
  execution, merging results in deterministic plan order;
* :mod:`repro.exec.journal` checkpoints every finished cell to a JSONL
  file so an interrupted campaign resumes where it died;
* :mod:`repro.exec.events` streams structured progress events
  (throughput, ETA, retries) into pluggable sinks.

:func:`run_campaign_parallel` is the drop-in entry point::

    from repro.exec import run_campaign_parallel

    campaign = run_campaign_parallel(
        traces, {"BLBP": BLBP, "ITTAGE": ITTAGE},
        jobs=4, journal_path="campaign.jsonl",
    )

It accepts the serial runner's arguments (including its ``progress``
callback protocol) and returns a cell-for-cell identical
:class:`~repro.sim.metrics.CampaignResult`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.exec.events import (
    CELL_FINISH,
    CELL_RESUME,
    CELL_SKIPPED,
    CollectingSink,
    EventSink,
    ExecEvent,
    LogSink,
    ProgressLineSink,
    broadcast,
    null_sink,
)
from repro.exec.journal import (
    Journal,
    JournalError,
    load_journal,
    result_from_json,
    result_to_json,
)
from repro.exec.plan import (
    CampaignPlan,
    CellSpec,
    FactoryRef,
    FusedCellSpec,
    PlanError,
    fuse_cells,
    plan_campaign,
)
from repro.exec.pool import (
    CellFailedError,
    CellTimeout,
    execute_plan,
    run_cell,
    run_fused_cell,
)
from repro.sim.metrics import CampaignResult
from repro.sim.runner import PredictorFactory, ProgressCallback
from repro.trace.stream import Trace

#: Environment variable selecting the default worker count.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_JOBS``, else 1.

    Values below 1 are clamped to 1 (serial).  A non-integer
    ``REPRO_JOBS`` raises ``ValueError`` rather than silently running
    serial.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV)
        if raw is None:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    return max(1, jobs)


def _progress_sink(progress: ProgressCallback) -> EventSink:
    """Adapt a runner-style progress callback into an event sink."""

    def sink(event: ExecEvent) -> None:
        if event.kind in (CELL_FINISH, CELL_SKIPPED):
            progress(
                event.trace,
                event.predictor,
                event.mpki,
                event.index,
                event.total,
            )

    return sink


def run_campaign_parallel(
    traces: Iterable[Trace],
    factories: Dict[str, PredictorFactory],
    jobs: Optional[int] = None,
    ras_depth: int = 32,
    warmup_records: int = 0,
    progress: Optional[ProgressCallback] = None,
    journal_path: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    events: Optional[EventSink] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.1,
    profile: bool = False,
    checkpoint_every: int = 0,
    fuse: bool = True,
    pool=None,
    backend: str = "scalar",
) -> CampaignResult:
    """Run a campaign across worker processes; a drop-in for
    :func:`repro.sim.runner.run_campaign`.

    Args:
        traces, factories, ras_depth, warmup_records, progress: as the
            serial runner.
        jobs: worker processes; ``None`` reads ``REPRO_JOBS`` (default 1).
        journal_path: JSONL checkpoint; pass the same path again to
            resume an interrupted campaign.
        cache_dir: where trace spill files go; ``None`` uses a
            temporary directory deleted when the call returns.
        events: structured-event sink (combined with ``progress`` if
            both given).
        timeout, retries, backoff: per-cell execution policy, see
            :func:`repro.exec.pool.execute_plan`.
        profile: run every cell with hot-path profiling; per-cell
            counters land on each result's ``profile`` field, in
            ``cell_finish`` events, and in the journal.
        checkpoint_every: when > 0, workers snapshot simulation state
            every this-many records into ``<journal>.ckpt/`` so a
            killed or timed-out cell resumes mid-trace; see
            :func:`repro.exec.pool.execute_plan`.
        fuse: fuse contiguous same-trace cells into single-pass
            multi-predictor units (default on; results are identical
            either way — see :func:`repro.exec.pool.execute_plan`).
        pool: a :class:`repro.dist.Pool` to schedule cells on —
            :class:`~repro.dist.NodePool` / :class:`~repro.dist.SSHPool`
            distribute the campaign across worker nodes with
            byte-identical journals; ``None`` keeps classic ``jobs``
            scheduling (or reads ``REPRO_NODES``, see
            :func:`repro.dist.resolve_pool`).
        backend: simulation backend for every cell ("scalar",
            "columnar", or "columnar-strict", see
            :data:`repro.sim.engine.BACKENDS`); results and journal
            bytes are identical whichever backend runs.

    Returns:
        A :class:`CampaignResult` identical to the serial runner's.
    """
    jobs = resolve_jobs(jobs)
    sinks = []
    if events is not None:
        sinks.append(events)
    if progress is not None:
        sinks.append(_progress_sink(progress))
    sink: Optional[EventSink] = None
    if sinks:
        sink = sinks[0] if len(sinks) == 1 else broadcast(*sinks)

    def _execute(spill_dir: Union[str, Path]) -> CampaignResult:
        plan = plan_campaign(
            traces,
            factories,
            cache_dir=spill_dir,
            ras_depth=ras_depth,
            warmup_records=warmup_records,
            profile=profile,
            backend=backend,
        )
        return execute_plan(
            plan,
            jobs=jobs,
            journal_path=journal_path,
            events=sink,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            checkpoint_every=checkpoint_every,
            fuse=fuse,
            pool=pool,
        )

    if cache_dir is not None:
        return _execute(cache_dir)
    with tempfile.TemporaryDirectory(prefix="repro-exec-") as spill_dir:
        return _execute(spill_dir)


__all__ = [
    "CELL_RESUME",
    "CampaignPlan",
    "CellFailedError",
    "CellSpec",
    "CellTimeout",
    "CollectingSink",
    "EventSink",
    "ExecEvent",
    "FactoryRef",
    "FusedCellSpec",
    "JOBS_ENV",
    "Journal",
    "JournalError",
    "LogSink",
    "PlanError",
    "ProgressLineSink",
    "broadcast",
    "execute_plan",
    "fuse_cells",
    "load_journal",
    "null_sink",
    "plan_campaign",
    "resolve_jobs",
    "result_from_json",
    "result_to_json",
    "run_campaign_parallel",
    "run_cell",
    "run_fused_cell",
]
