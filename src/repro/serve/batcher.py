"""Cross-session micro-batching: coalesce event traffic, step it fused.

Under load, events arrive from many sessions at once.  Handling each
``events`` message the moment it arrives would interleave thousands of
tiny Python loops with asyncio wakeups; instead each server shard runs a
:class:`MicroBatcher` that collects submissions for a short window
(``--batch-window``, default 2 ms) or until a size cap, then drains them
all in one synchronous pass.

The drain is where fusion happens (:func:`drain_batch`): sessions whose
pending event run is *identical* — the common case when many clients
stream the same workload, and the serving analogue of the engine's
``simulate_many`` sharing one trace across predictors — are grouped and
stepped through :func:`~repro.serve.session.step_sessions_fused`, which
pays the per-event decode and dispatch once for the whole group.
Everything else steps solo.  Per-session submission order is always
preserved (a session with several pending messages runs them solo, in
order), and fused stepping is bit-identical to solo stepping, so
batching is invisible in the results: only the throughput changes.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve.metrics import ServerMetrics
from repro.serve.session import (
    PredictorSession,
    StepOutput,
    step_sessions_fused,
)

#: Default coalescing window in seconds.
DEFAULT_BATCH_WINDOW = 0.002

#: Default event-count cap that triggers an early drain.
DEFAULT_MAX_BATCH_EVENTS = 8192


class _BatchItem:
    """One submitted event run awaiting execution."""

    __slots__ = ("session", "events", "future")

    def __init__(
        self,
        session: PredictorSession,
        events: Sequence[Tuple[int, int, bool, int, int]],
        future: "asyncio.Future[List[StepOutput]]",
    ) -> None:
        self.session = session
        self.events = events
        self.future = future


def drain_batch(
    items: Sequence[_BatchItem], metrics: Optional[ServerMetrics] = None
) -> None:
    """Execute one micro-batch synchronously, resolving every future.

    Sessions with exactly one pending run are grouped by identical event
    payload and stepped fused; sessions with several pending runs (or a
    unique payload) step solo in submission order.  A session that
    raises poisons only its own futures — the rest of the batch still
    completes.
    """
    if not items:
        return

    # Per-session pending lists, in submission order.
    per_session: Dict[int, List[_BatchItem]] = {}
    order: List[_BatchItem] = []
    for item in items:
        runs = per_session.setdefault(id(item.session), [])
        runs.append(item)
        order.append(item)

    # Fusion candidates: sessions with a single pending run, keyed by the
    # exact event payload.
    fusable: Dict[Tuple, List[_BatchItem]] = {}
    for runs in per_session.values():
        if len(runs) == 1:
            fusable.setdefault(tuple(runs[0].events), []).append(runs[0])

    fused_sessions = 0
    fused_groups = 0
    done = set()
    stepped: List[PredictorSession] = []
    for key, group in fusable.items():
        if len(group) < 2:
            continue
        fused_groups += 1
        fused_sessions += len(group)
        try:
            outputs = step_sessions_fused(
                [item.session for item in group], group[0].events
            )
        except Exception as exc:  # pragma: no cover - predictor bug guard
            for item in group:
                if not item.future.cancelled():
                    item.future.set_exception(exc)
                done.add(id(item))
            continue
        for item, out in zip(group, outputs):
            if not item.future.cancelled():
                item.future.set_result(out)
            done.add(id(item))
            stepped.append(item.session)

    for item in order:
        if id(item) in done:
            continue
        try:
            out = item.session.step_events(item.events)
        except Exception as exc:
            if not item.future.cancelled():
                item.future.set_exception(exc)
            continue
        if not item.future.cancelled():
            item.future.set_result(out)
        stepped.append(item.session)

    if metrics is not None:
        for session in stepped:
            metrics.record_step(session.predictor_key, *session.step_path)
        metrics.record_batch(
            events=sum(len(item.events) for item in items),
            sessions=len(per_session),
            fused_sessions=fused_sessions,
            fused_groups=fused_groups,
        )


class MicroBatcher:
    """Collects event submissions for one shard and drains them fused.

    All methods run on the event loop; the drain itself is synchronous
    Python (no awaits), so per-session ordering needs no locks — a
    submission either makes a drain or the next one, never half of each.
    """

    def __init__(
        self,
        window_seconds: float = DEFAULT_BATCH_WINDOW,
        max_batch_events: int = DEFAULT_MAX_BATCH_EVENTS,
        metrics: Optional[ServerMetrics] = None,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(f"window must be >= 0, got {window_seconds}")
        if max_batch_events < 1:
            raise ValueError(
                f"max_batch_events must be >= 1, got {max_batch_events}"
            )
        self.window_seconds = window_seconds
        self.max_batch_events = max_batch_events
        self.metrics = metrics
        self._pending: List[_BatchItem] = []
        self._pending_events = 0
        self._wake: Optional[asyncio.Event] = None
        self._full: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._closed = False

    def _ensure_started(self) -> None:
        if self._task is None or self._task.done():
            self._wake = asyncio.Event()
            self._full = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(
                self._drain_loop(), name="repro-serve-batcher"
            )

    async def submit(
        self,
        session: PredictorSession,
        events: Sequence[Tuple[int, int, bool, int, int]],
    ) -> List[StepOutput]:
        """Queue one event run; resolves when its micro-batch drains."""
        if self._closed:
            raise RuntimeError("batcher is closed")
        self._ensure_started()
        future: "asyncio.Future[List[StepOutput]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending.append(_BatchItem(session, events, future))
        self._pending_events += len(events)
        self._wake.set()
        if self._pending_events >= self.max_batch_events:
            self._full.set()
        return await future

    def flush(self) -> int:
        """Drain everything pending right now; returns items executed."""
        batch = self._pending
        self._pending = []
        self._pending_events = 0
        if self._wake is not None:
            self._wake.clear()
            self._full.clear()
        drain_batch(batch, self.metrics)
        return len(batch)

    async def close(self) -> None:
        """Flush pending work and stop the drain task."""
        self._closed = True
        self.flush()
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None

    async def _drain_loop(self) -> None:
        while True:
            await self._wake.wait()
            if self.window_seconds > 0 and not self._full.is_set():
                try:
                    await asyncio.wait_for(
                        self._full.wait(), timeout=self.window_seconds
                    )
                except asyncio.TimeoutError:
                    pass
            self.flush()


__all__ = [
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_MAX_BATCH_EVENTS",
    "MicroBatcher",
    "drain_batch",
]
