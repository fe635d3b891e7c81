"""Cell execution: one scheduler, three runner kinds, one fallback ladder.

:func:`execute_plan` takes a :class:`~repro.exec.plan.CampaignPlan` and
produces the same :class:`~repro.sim.metrics.CampaignResult` the serial
runner would.  Every campaign goes through one :class:`_Scheduler`,
which pulls execution units off one queue for a list of *runners*:

* the in-process runner (``jobs == 1``), driven on the calling thread;
* ``jobs`` process-pool slots sharing one
  :class:`~concurrent.futures.ProcessPoolExecutor` (``jobs > 1``);
* worker nodes of a :class:`repro.dist.NodePool` / ``SSHPool``.

Results are merged **in plan order**, so the outcome is byte-identical
regardless of which runner finished first.

Robustness ladder, roughly in the order things go wrong in practice:

* a cell raises → bounded retry with linear backoff (slept on the
  failing runner's thread; the retry goes to the front of the queue),
  then :class:`CellFailedError` (the journal keeps everything done);
* a cell hangs → a per-cell wall-clock deadline enforced via
  ``SIGALRM`` on the thread running the cell (a worker's main thread,
  or the caller's), surfacing as :class:`CellTimeout` and entering the
  same retry path;
* a runner goes away (a worker process dies, a node drops) → its unit
  requeues at the same attempt on the runners left;
* no runner is left, the pool cannot start, or a factory cannot be
  pickled for an out-of-process runner → the remaining cells finish on
  one in-process runner, announced by a ``fallback`` event — a campaign
  never fails merely because parallelism did.

With ``fuse=True`` (the default) contiguous cells sharing a trace are
grouped into :class:`~repro.exec.plan.FusedCellSpec` units that a runner
executes as *one* pass over the trace (:func:`run_fused_cell` →
:func:`repro.sim.engine.simulate_many`), sharing the trace mapping, the
derived plane, and the per-branch dispatch across all member predictors.
Journal entries, events, results, and checkpoints stay per-cell, and a
group that exhausts its retry budget degrades to solo member cells —
fusion is invisible to everything downstream except the wall clock.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.common.state import StateError
from repro.exec.events import (
    CAMPAIGN_END,
    CAMPAIGN_START,
    CELL_FAILED,
    CELL_FINISH,
    CELL_RESUME,
    CELL_SKIPPED,
    CELL_START,
    CELL_RETRY,
    FALLBACK,
    NODE_DOWN,
    EventSink,
    ExecEvent,
    safe_emit,
)
from repro.exec.journal import Journal, load_journal
from repro.exec.plan import (
    CampaignPlan,
    CellKey,
    CellSpec,
    ExecutionUnit,
    FusedCellSpec,
    checkpoint_name,
    fuse_cells,
)
from repro.sim.checkpoint import discard_checkpoint, load_checkpoint
from repro.sim.counters import SimCounters
from repro.sim.engine import simulate, simulate_many
from repro.sim.metrics import CampaignResult, SimulationResult
from repro.trace.derived import cached_derived
from repro.trace.plane import cached_trace


class CellTimeout(RuntimeError):
    """A cell exceeded its per-cell wall-clock deadline."""


class CellFailedError(RuntimeError):
    """A cell failed after exhausting its retry budget."""

    def __init__(self, key: CellKey, attempts: int, cause: BaseException):
        trace, predictor = key
        super().__init__(
            f"cell ({trace}, {predictor}) failed after {attempts} "
            f"attempt(s): {cause!r}"
        )
        self.key = key
        self.attempts = attempts


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`CellTimeout` if the block runs past ``seconds``.

    Uses ``SIGALRM``/``setitimer``, which only works on Unix and only
    in a main thread — both true for pool workers (tasks run on the
    worker's main thread) and the usual serial caller.  Anywhere else
    the deadline silently degrades to "no deadline".
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _expired(signum, frame):
        raise CellTimeout(f"cell exceeded {seconds:.1f}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    # setitimer returns the *outer* timer it displaced.  Restoring only
    # the handler would silently cancel a nested/outer deadline when
    # this block finishes early, so re-arm whatever time it has left
    # (the time this block consumed counts against it; an outer timer
    # that expired while ours was armed fires near-immediately).
    armed_at = time.monotonic()
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, seconds
    )
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - armed_at)
            signal.setitimer(
                signal.ITIMER_REAL,
                max(remaining, 1e-6),
                outer_interval,
            )


def run_cell(
    spec: CellSpec, timeout: Optional[float] = None
) -> Tuple[int, SimulationResult, float]:
    """Execute one cell: load its trace, simulate, stamp the name.

    This is the entry point of every runner kind (in-process, process
    pool worker, dist node).  Returns ``(plan index, result, wall-clock
    seconds)``.

    When the spec carries a ``checkpoint_path``, the worker resumes from
    any checkpoint left by a killed or timed-out predecessor (validating
    it belongs to this cell; a stale or damaged file just restarts the
    trace), snapshots every ``checkpoint_every`` records while running,
    and removes the file on success so a finished cell never resumes.
    """
    started = time.perf_counter()
    resume_from = None
    if spec.checkpoint_path is not None:
        candidate = load_checkpoint(spec.checkpoint_path)
        if candidate is not None and candidate.trace_name == spec.trace_name:
            resume_from = candidate
    with _deadline(timeout):
        trace = cached_trace(spec.trace_path)
        predictor = spec.factory.build()
        if resume_from is not None and (
            resume_from.predictor_name != predictor.name
        ):
            resume_from = None
        derived = None
        if spec.backend != "scalar" and not spec.checkpoint_every:
            # The columnar kernel consumes the derived plane whole; the
            # per-worker cache shares one plane across every cell and
            # retry on the same trace.
            derived = cached_derived(spec.trace_path, trace, spec.ras_depth)
        try:
            result = simulate(
                predictor,
                trace,
                ras_depth=spec.ras_depth,
                warmup_records=spec.warmup_records,
                counters=SimCounters() if spec.profile else None,
                checkpoint_every=spec.checkpoint_every,
                checkpoint_path=spec.checkpoint_path,
                resume_from=resume_from,
                backend=spec.backend,
                derived=derived,
            )
        except StateError:
            # A snapshot that fails validation is dropped: the retry
            # restarts the trace instead of failing the same way.
            if resume_from is not None:
                discard_checkpoint(spec.checkpoint_path)
            raise
    if spec.checkpoint_path is not None:
        discard_checkpoint(spec.checkpoint_path)
    result.predictor_name = spec.predictor_name
    return spec.index, result, time.perf_counter() - started


def run_fused_cell(
    group: FusedCellSpec, timeout: Optional[float] = None
) -> List[Tuple[int, SimulationResult, float]]:
    """Execute a fused group: one trace pass, all member predictors.

    Worker entry point like :func:`run_cell`.  The trace is attached
    through the per-worker :class:`~repro.trace.plane.TraceCache`, whose
    entry also holds its derived plane, so every group (and every
    unfused cell) on the same trace shares one mapping and one plane.
    The SIGALRM deadline scales by group size — a fused group
    legitimately does N cells of predictor work in one pass.

    Returns one ``(plan index, result, seconds)`` triple per member, the
    wall clock split evenly across members (throughput accounting; the
    pass is genuinely shared).
    """
    started = time.perf_counter()
    cells = group.cells
    scaled = timeout * len(cells) if timeout else timeout
    first = cells[0]
    with _deadline(scaled):
        trace = cached_trace(group.trace_path)
        derived = None
        if not first.checkpoint_every:
            derived = cached_derived(group.trace_path, trace, first.ras_depth)
        predictors = [spec.factory.build() for spec in cells]
        results = simulate_many(
            predictors,
            trace,
            ras_depth=first.ras_depth,
            warmup_records=first.warmup_records,
            derived=derived,
            checkpoint_every=first.checkpoint_every,
            checkpoint_paths=[spec.checkpoint_path for spec in cells],
            backend=first.backend,
        )
    share = (time.perf_counter() - started) / len(cells)
    outcomes = []
    for spec, result in zip(cells, results):
        if spec.checkpoint_path is not None:
            discard_checkpoint(spec.checkpoint_path)
        result.predictor_name = spec.predictor_name
        outcomes.append((spec.index, result, share))
    return outcomes


def _member_cells(unit: ExecutionUnit) -> Tuple[CellSpec, ...]:
    return unit.cells if isinstance(unit, FusedCellSpec) else (unit,)


def _fusable(spec: CellSpec) -> bool:
    """Whether a cell may join a fused group.

    Profiled cells keep the solo path (their profile must measure one
    predictor, not a fused pass), and a cell with a pending mid-trace
    checkpoint resumes solo — ``simulate_many`` starts every member at
    record zero.
    """
    if spec.profile:
        return False
    if spec.checkpoint_path and os.path.exists(spec.checkpoint_path):
        return False
    return True


def _plan_units(specs: List[CellSpec], fuse: bool) -> List[ExecutionUnit]:
    if not fuse:
        return list(specs)
    return fuse_cells(specs, fusable=_fusable)


class _Execution:
    """Mutable campaign bookkeeping: results, counters, journal, events."""

    def __init__(
        self,
        plan: CampaignPlan,
        events: Optional[EventSink],
        journal: Optional[Journal],
    ) -> None:
        self.plan = plan
        self.events = events
        self.journal = journal
        self.results: Dict[CellKey, SimulationResult] = {}
        self.completed = 0
        self.live_finished = 0
        self.retries = 0
        self.started = time.monotonic()

    def emit(
        self, kind: str, spec: Optional[CellSpec] = None, **fields
    ) -> None:
        """Emit one event; ``spec`` fills in the cell's identity."""
        if spec is not None:
            fields.update(
                trace=spec.trace_name,
                predictor=spec.predictor_name,
                index=spec.index,
            )
        safe_emit(
            self.events,
            ExecEvent(kind=kind, total=self.plan.total, **fields),
        )

    def _eta(self) -> float:
        remaining = self.plan.total - self.completed
        if remaining <= 0 or self.live_finished == 0:
            return 0.0
        elapsed = time.monotonic() - self.started
        return remaining * elapsed / self.live_finished

    def skip(self, spec: CellSpec, result: SimulationResult) -> None:
        self.results[spec.key] = result
        self.completed += 1
        self.emit(
            CELL_SKIPPED, spec,
            completed=self.completed,
            records=spec.records,
            mpki=result.mpki(),
            node=result.node,
        )

    def record(
        self,
        spec: CellSpec,
        result: SimulationResult,
        duration: float,
        node: str = "",
    ) -> None:
        self.results[spec.key] = result
        self.completed += 1
        self.live_finished += 1
        if self.journal is not None:
            self.journal.append(result, node=node)
        self.emit(
            CELL_FINISH, spec,
            completed=self.completed,
            duration=duration,
            records=spec.records,
            records_per_sec=spec.records / duration if duration > 0 else 0.0,
            eta_seconds=self._eta(),
            mpki=result.mpki(),
            profile=result.profile,
            node=node,
        )

    def pending(self) -> List[CellSpec]:
        return [
            cell for cell in self.plan.cells if cell.key not in self.results
        ]


class _PoolDegraded(Exception):
    """Internal: no runner can finish the campaign; finish in-process."""


class _UnitFailed(Exception):
    """A unit's cells raised; the scheduler retries, unfuses or fails it."""


class _RunnerDown(RuntimeError):
    """A runner is gone; the scheduler requeues its unit elsewhere."""


Outcomes = List[Tuple[int, SimulationResult, float]]


class _Runner:
    """Somewhere the scheduler can run a unit.

    :meth:`run` returns one ``(plan index, result, seconds)`` row per
    member cell.  It raises :class:`_UnitFailed` when the cells raised
    (retry or unfuse) and :class:`_RunnerDown` when the runner itself is
    gone (requeue elsewhere); any other exception is fatal to the
    campaign.  :meth:`prepare` runs before the unit's ``cell_start``
    events — a node ships traces there, so shipping is not unit time.
    ``node`` labels events and journal lines (``""`` = this machine).
    """

    node = ""
    dead = False

    def prepare(self, unit: ExecutionUnit) -> None:
        """Get ready to run ``unit``; may raise :class:`_RunnerDown`."""

    def run(self, unit: ExecutionUnit, timeout: Optional[float]) -> Outcomes:
        raise NotImplementedError


def _run_unit(unit: ExecutionUnit, timeout: Optional[float]) -> Outcomes:
    if isinstance(unit, FusedCellSpec):
        return run_fused_cell(unit, timeout)
    return [run_cell(unit, timeout)]


class _InProcessRunner(_Runner):
    """Runs units on the scheduler's own thread."""

    def run(self, unit: ExecutionUnit, timeout: Optional[float]) -> Outcomes:
        try:
            return _run_unit(unit, timeout)
        except Exception as exc:  # noqa: BLE001 - the scheduler retries
            raise _UnitFailed(repr(exc)) from exc


class _SlotRunner(_Runner):
    """One of ``jobs`` slots sharing one :class:`ProcessPoolExecutor`."""

    def __init__(self, executor: ProcessPoolExecutor) -> None:
        self.executor = executor

    def run(self, unit: ExecutionUnit, timeout: Optional[float]) -> Outcomes:
        try:
            future = self.executor.submit(_run_unit, unit, timeout)
        except (OSError, RuntimeError) as exc:
            raise _RunnerDown(f"submission failed: {exc!r}") from exc
        try:
            return future.result()
        except BrokenProcessPool as exc:
            raise _RunnerDown(f"worker pool broke: {exc!r}") from exc
        except Exception as exc:  # noqa: BLE001 - the scheduler retries
            raise _UnitFailed(repr(exc)) from exc


def _require_picklable(units: List[ExecutionUnit]) -> None:
    """Pre-flight for out-of-process runners: every factory must pickle."""
    names = {
        spec.predictor_name
        for unit in units
        for spec in _member_cells(unit)
        if not spec.factory.picklable()
    }
    if names:
        raise _PoolDegraded(
            f"factories not picklable for worker processes: {sorted(names)}"
        )


class _Scheduler:
    """The campaign scheduler: every pool runs its units through it.

    Runners pull ``(unit, attempt)`` pairs off one queue — one thread
    per runner, or the calling thread when there is only one runner.
    The scheduler alone emits ``cell_start``/``cell_resume``, retries a
    failed unit with linear backoff (slept on the failing runner's own
    thread), unfuses a fused group whose budget ran out (its members get
    fresh budgets), raises :class:`CellFailedError`, and records
    outcomes in member order.  Retries and unfused members go to the
    *front* of the queue, so a single runner visits cells in plan order
    and its journal is byte-identical to a serial unfused one.

    A runner that goes down requeues its unit at the same attempt (a
    node announces ``node_down``); if every runner is down with work
    pending, :meth:`run` raises :class:`_PoolDegraded`.
    """

    def __init__(
        self,
        state: _Execution,
        units: List[ExecutionUnit],
        timeout: Optional[float],
        retries: int,
        backoff: float,
    ) -> None:
        self.state = state
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.queue: deque = deque((unit, 1) for unit in units)
        self.busy = 0
        self.fatal: Optional[BaseException] = None
        self.down_reason = ""
        self.lock = threading.Condition()

    def run(self, runners: List[_Runner]) -> None:
        if len(runners) == 1:
            self._drive(runners[0])
        else:
            threads = [
                threading.Thread(
                    target=self._drive, args=(runner,), daemon=True,
                    name=f"repro-runner-{runner.node or index}",
                )
                for index, runner in enumerate(runners)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if self.fatal is not None:
            raise self.fatal
        if self.queue:
            raise _PoolDegraded(
                f"every runner is down with cells pending "
                f"(last: {self.down_reason})"
            )

    def _drive(self, runner: _Runner) -> None:
        """Run units on ``runner`` until the work, the runner, or the
        campaign ends."""
        while True:
            with self.lock:
                while self.fatal is None and not self.queue and self.busy:
                    self.lock.wait()
                if self.fatal is not None or not self.queue:
                    return
                unit, attempt = self.queue.popleft()
                self.busy += 1
            again: List[Tuple[ExecutionUnit, int]] = []
            try:
                again = self._attempt(runner, unit, attempt)
            except _RunnerDown as exc:
                runner.dead = True
                again = [(unit, attempt)]
                with self.lock:
                    self.down_reason = str(exc)
                    if runner.node:
                        self.state.emit(
                            NODE_DOWN, node=runner.node, message=str(exc)
                        )
                return
            except BaseException as exc:  # noqa: BLE001 - raised by run()
                with self.lock:
                    if self.fatal is None:
                        self.fatal = exc
                return
            finally:
                with self.lock:
                    self.queue.extendleft(reversed(again))
                    self.busy -= 1
                    self.lock.notify_all()

    def _attempt(
        self, runner: _Runner, unit: ExecutionUnit, attempt: int
    ) -> List[Tuple[ExecutionUnit, int]]:
        """Run ``unit`` once on ``runner``; return what to requeue."""
        cells = _member_cells(unit)
        group = unit.size if isinstance(unit, FusedCellSpec) else 0
        runner.prepare(unit)
        with self.lock:
            for spec in cells:
                self.state.emit(
                    CELL_START, spec,
                    completed=self.state.completed,
                    attempt=attempt,
                    group=group,
                    node=runner.node,
                )
                # Announced here, not by the runner, so the event reaches
                # the sink even when the previous attempt died without a
                # word — exactly the case checkpoints exist for.
                checkpoint = spec.checkpoint_path
                if checkpoint and os.path.exists(checkpoint):
                    self.state.emit(
                        CELL_RESUME, spec,
                        completed=self.state.completed,
                        attempt=attempt,
                    )
        try:
            outcomes = runner.run(unit, self.timeout)
        except _UnitFailed as failure:
            return self._failed(unit, attempt, group, failure)
        by_index = {index: (result, secs) for index, result, secs in outcomes}
        with self.lock:
            # Member (plan) order keeps a fused journal byte-identical to
            # an unfused one.
            for spec in cells:
                result, seconds = by_index[spec.index]
                self.state.record(spec, result, seconds, node=runner.node)
        return []

    def _failed(
        self,
        unit: ExecutionUnit,
        attempt: int,
        group: int,
        failure: _UnitFailed,
    ) -> List[Tuple[ExecutionUnit, int]]:
        cells = _member_cells(unit)
        message = str(failure)
        with self.lock:
            if attempt <= self.retries:
                self.state.retries += 1
                self.state.emit(
                    CELL_RETRY,
                    trace=unit.trace_name,
                    predictor="+".join(spec.predictor_name for spec in cells),
                    index=cells[0].index,
                    attempt=attempt,
                    group=group,
                    message=message,
                )
            elif group:
                # The group exhausted its shared budget: each member
                # re-runs solo with its own budget, for precise failure
                # attribution.
                self.state.emit(
                    FALLBACK,
                    message=(
                        f"fused group of {group} on {unit.trace_name!r} "
                        f"failed after {attempt} attempt(s): {message}; "
                        "re-running its cells unfused"
                    ),
                )
                return [(spec, 1) for spec in cells]
            else:
                self.state.emit(
                    CELL_FAILED, unit,
                    attempt=attempt,
                    message=message,
                )
                cause = failure.__cause__ or RuntimeError(message)
                raise CellFailedError(unit.key, attempt, cause) from cause
        time.sleep(self.backoff * attempt)
        return [(unit, attempt + 1)]


def _attach_checkpoints(
    plan: CampaignPlan,
    checkpoint_every: int,
    journal_path: Optional[Union[str, Path]],
) -> CampaignPlan:
    """Return a copy of ``plan`` whose cells carry checkpoint files.

    Checkpoints live in a ``<journal>.ckpt`` sibling directory — the
    journal is the artifact that survives a killed run (the plan's
    ``cache_dir`` is often a temporary directory torn down with the
    process), so mid-cell state must live next to it to be there for
    the resuming process.  Without a journal there is nothing durable to
    resume *from*, so checkpointing falls back to the plan's own cache
    directory (useful for in-process supervisors) or, lacking both, is
    disabled.
    """
    if checkpoint_every <= 0:
        return plan
    if journal_path is not None:
        checkpoint_dir = Path(str(journal_path) + ".ckpt")
    elif plan.cache_dir is not None:
        checkpoint_dir = Path(plan.cache_dir) / "checkpoints"
    else:
        return plan
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    cells = [
        dataclasses.replace(
            cell,
            checkpoint_every=checkpoint_every,
            checkpoint_path=str(checkpoint_dir / checkpoint_name(cell)),
        )
        for cell in plan.cells
    ]
    return CampaignPlan(cells=cells, cache_dir=plan.cache_dir)


def execute_plan(
    plan: CampaignPlan,
    jobs: int = 1,
    journal_path: Optional[Union[str, Path]] = None,
    events: Optional[EventSink] = None,
    timeout: Optional[float] = None,
    retries: int = 2,
    backoff: float = 0.1,
    checkpoint_every: int = 0,
    fuse: bool = True,
    pool=None,
) -> CampaignResult:
    """Execute every cell of ``plan`` and merge deterministically.

    Args:
        plan: the expanded campaign (see :func:`repro.exec.plan.plan_campaign`).
        jobs: worker processes; ``1`` runs in-process with no pool.
        journal_path: JSONL checkpoint file.  Existing entries matching
            plan cells are **skipped** (resume); new completions are
            appended as they happen.
        events: observability sink receiving :class:`ExecEvent`s.
        timeout: per-cell wall-clock deadline in seconds (best effort;
            see :func:`run_cell`).
        retries: extra attempts per cell after its first failure.
        backoff: seconds slept before retry ``n`` is ``backoff * n``.
        checkpoint_every: when > 0, workers snapshot simulation state
            every this-many records into per-cell files beside the
            journal, so a killed or timed-out cell resumes *mid-trace*
            on the next attempt (or the next process) instead of
            replaying from record zero.  Zero disables mid-cell
            checkpointing; journal-level cell resume is unaffected.
        fuse: run contiguous same-trace cells as one fused pass
            (:func:`repro.sim.engine.simulate_many`) — results, journal
            bytes, and final predictor states are identical to unfused
            execution, just cheaper.  Profiled cells and cells resuming
            from a mid-trace checkpoint always run solo.
        pool: a :class:`repro.dist.Pool` backend to schedule units on.
            ``None`` means a ``REPRO_NODES`` node pool when that is set,
            else ``LocalPool(jobs)``; :class:`~repro.dist.NodePool` /
            :class:`~repro.dist.SSHPool` shard units across worker
            nodes, journal into per-node shards, and leave the journal
            canonicalized (byte-identical to a single-node run) on
            completion.

    Returns:
        A :class:`CampaignResult` whose cells and values are identical
        to a serial :func:`repro.sim.runner.run_campaign` of the same
        campaign, regardless of ``jobs``, ``pool``, or completion order.
    """
    jobs = max(1, int(jobs))
    owns_pool = pool is None
    if pool is None:
        from repro.dist.pool import LocalPool, resolve_pool

        pool = resolve_pool(None) or LocalPool(jobs)  # REPRO_NODES default
    distributed = not pool.local
    if not distributed:
        # Mid-trace checkpoint files are coordinator-local; distributed
        # workers derive their own node-local checkpoint paths instead.
        plan = _attach_checkpoints(plan, checkpoint_every, journal_path)
    journal: Optional[Journal] = None
    journaled: Dict[CellKey, SimulationResult] = {}
    had_shards = False
    if journal_path is not None:
        journaled = load_journal(journal_path)
        from repro.dist.merge import (  # local import: dist builds on exec
            ShardedJournal,
            load_shards,
            shards_dir,
        )

        if shards_dir(journal_path).is_dir():
            # Leftovers of a killed distributed run: its per-node shards
            # hold cells the canonical journal never absorbed.  Whatever
            # backend finishes the campaign must canonicalize at the
            # end, or those cells would live only in the shards.
            journaled.update(load_shards(journal_path))
            had_shards = True
        journal = (
            ShardedJournal(journal_path) if distributed
            else Journal(journal_path)
        )

    state = _Execution(plan, events, journal)
    state.emit(CAMPAIGN_START, jobs=jobs, completed=0)
    try:
        for cell in plan.cells:
            if cell.key in journaled:
                state.skip(cell, journaled[cell.key])
        pending = state.pending()
        if pending:
            try:
                pool.execute(
                    state,
                    _plan_units(pending, fuse),
                    timeout=timeout,
                    retries=retries,
                    backoff=backoff,
                    checkpoint_every=checkpoint_every,
                )
            except _PoolDegraded as degraded:
                state.emit(FALLBACK, message=str(degraded))
                _Scheduler(
                    state,
                    _plan_units(state.pending(), fuse),
                    timeout,
                    retries,
                    backoff,
                ).run([_InProcessRunner()])
    finally:
        if journal is not None:
            journal.close()
        if owns_pool:
            pool.close()

    campaign = CampaignResult()
    for cell in plan.cells:
        campaign.add(state.results[cell.key])
    if (distributed or had_shards) and journal_path is not None:
        from repro.dist.merge import write_canonical_journal

        write_canonical_journal(journal_path, plan.keys(), state.results)
    state.emit(
        CAMPAIGN_END,
        completed=state.completed,
        retries=state.retries,
        duration=time.monotonic() - state.started,
    )
    return campaign


__all__ = [
    "CellFailedError",
    "CellTimeout",
    "execute_plan",
    "run_cell",
    "run_fused_cell",
]
