"""The simulation loop: one predictor over one trace.

Mirrors the CBP infrastructure's discipline (§4.2):

* **conditional branches** feed the predictor's conditional-history
  hook (and, for VPC, the shared conditional predictor);
* **indirect jumps and calls** are predicted, scored, trained, and then
  retired into the predictor's history;
* **returns** are predicted by the return-address stack and excluded
  from indirect MPKI;
* **direct calls** push the RAS; direct jumps just retire.

The loop works on plain Python scalars extracted from the trace columns
once up front — constructing a record object per branch would dominate
runtime at multi-million-record scale.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.predictors.base import IndirectBranchPredictor
from repro.sim import kernel
from repro.sim.checkpoint import (
    SimulationCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.counters import SimCounters
from repro.sim.metrics import SimulationResult
from repro.sim.ras import ReturnAddressStack
from repro.trace.derived import DerivedPlane
from repro.trace.record import BranchType
from repro.trace.stream import Trace

#: Recognized simulation backends.  "scalar" is the per-branch Python
#: loop below; "columnar" dispatches eligible cells to the batch tensor
#: kernels in :mod:`repro.sim.kernel` (bit-identical results) and falls
#: back to the scalar loop otherwise — warning when the fallback is due
#: to an unsupported predictor; "columnar-strict" refuses to fall back
#: and raises :class:`ColumnarUnsupportedError` carrying the reason.
BACKENDS: Tuple[str, ...] = ("scalar", "columnar", "columnar-strict")


class ColumnarUnsupportedError(RuntimeError):
    """``backend="columnar-strict"`` could not use the columnar kernels.

    The message carries the :func:`repro.sim.kernel.columnar_support`
    reason (which predictor type, and what to do about it) or names the
    engine feature the kernels do not cover.
    """


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


def _columnar_blockers(
    checkpoint_every: int,
    checkpoint_path: Optional[str],
    resume_from: Optional[SimulationCheckpoint],
    counters: Optional[SimCounters],
) -> List[str]:
    """Engine features the columnar kernels do not cover."""
    blockers = []
    if checkpoint_every or checkpoint_path is not None:
        blockers.append("checkpointing (checkpoint_every/checkpoint_path)")
    if resume_from is not None:
        blockers.append("resume (resume_from)")
    if counters is not None:
        blockers.append("profiling (counters)")
    return blockers

_COND = int(BranchType.CONDITIONAL)
_DIRECT_JUMP = int(BranchType.DIRECT_JUMP)
_DIRECT_CALL = int(BranchType.DIRECT_CALL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)
_RETURN = int(BranchType.RETURN)


class _DerivedRAS:
    """A RAS stand-in that replays precomputed per-return predictions.

    The return-address stack is a pure function of the trace, so when a
    :class:`~repro.trace.derived.DerivedPlane` is available the push/pop
    replay can be skipped entirely: ``predict`` serves the precomputed
    prediction for the next return and ``pop`` advances past it.  Drop-in
    for :class:`ReturnAddressStack` inside the span loop.
    """

    __slots__ = ("_preds", "_cursor")

    def __init__(self, predictions: List[Optional[int]]) -> None:
        self._preds = predictions
        self._cursor = 0

    def predict(self) -> Optional[int]:
        return self._preds[self._cursor]

    def pop(self) -> None:
        self._cursor += 1

    def push(self, address: int) -> None:  # pragma: no cover - trivially empty
        pass


def _replay_span(
    pcs,
    types,
    takens,
    targets,
    on_conditional,
    predict_target,
    train,
    on_retired,
    ras,
    collect_per_pc,
    by_pc,
    skip,
    indirect,
    mispredictions,
    returns,
    return_mispredictions,
    conditionals,
) -> Tuple[int, int, int, int, int, int]:
    """The simulation hot loop over one span of trace columns.

    The checkpoint-off path calls this once over the whole trace, so
    checkpointing must cost nothing here: counters stay plain locals,
    history advances through the pre-bound callables, and the function
    hands its accumulators back as a tuple.  ``by_pc`` is mutated in
    place.
    """
    for pc, branch_type, taken, target in zip(pcs, types, takens, targets):
        if branch_type == _COND:
            on_conditional(pc, taken)
            conditionals += 1
            if skip:
                skip -= 1
            continue

        counted = not skip
        if skip:
            skip -= 1

        if branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
            prediction: Optional[int] = predict_target(pc)
            if counted:
                indirect += 1
                if prediction != target:
                    mispredictions += 1
                    if collect_per_pc:
                        by_pc[pc] = by_pc.get(pc, 0) + 1
            train(pc, target)
            on_retired(pc, branch_type, target)
            if branch_type == _INDIRECT_CALL:
                ras.push(pc + 4)
        elif branch_type == _RETURN:
            ras_prediction = ras.predict()
            ras.pop()
            if counted:
                returns += 1
                if ras_prediction != target:
                    return_mispredictions += 1
            on_retired(pc, branch_type, target)
        elif branch_type == _DIRECT_CALL:
            ras.push(pc + 4)
            on_retired(pc, branch_type, target)
        else:  # direct jump
            on_retired(pc, branch_type, target)
    return skip, indirect, mispredictions, returns, return_mispredictions, conditionals


def simulate(
    predictor: IndirectBranchPredictor,
    trace: Trace,
    ras_depth: int = 32,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    counters: Optional[SimCounters] = None,
    checkpoint_every: int = 0,
    checkpoint_path: Optional[str] = None,
    resume_from: Optional[SimulationCheckpoint] = None,
    on_checkpoint: Optional[Callable[[SimulationCheckpoint], None]] = None,
    derived: Optional[DerivedPlane] = None,
    backend: str = "scalar",
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return its result.

    Args:
        predictor: the indirect predictor under test (mutated in place).
        trace: the branch trace to replay.
        ras_depth: depth of the return-address stack.
        warmup_records: leading records whose mispredictions are not
            counted (predictors still train on them).
        collect_per_pc: also record per-static-branch misprediction
            counts (slower; for diagnostics).
        counters: when given, profile the run — per-phase wall times and
            the predictor's own hot-path counters are accumulated into
            ``counters`` and this cell's numbers land on the result's
            ``profile`` field.  The unprofiled path pays nothing for
            this.
        checkpoint_every: when > 0, snapshot the full simulation state
            (predictor, RAS, cursor, accumulators) after every this-many
            records into ``checkpoint_path`` and/or ``on_checkpoint``.
            Zero (the default) runs the whole trace in one span and pays
            nothing for the checkpoint machinery.
        checkpoint_path: file that receives each checkpoint (written
            atomically).  Requires ``checkpoint_every > 0``.
        resume_from: a :class:`SimulationCheckpoint` to continue from —
            the predictor must be freshly constructed with the same
            configuration; its state, the RAS, the cursor, and all
            accumulators are restored before replay.  The final result
            is per-branch identical to an uninterrupted run.
        on_checkpoint: optional callback receiving each checkpoint (for
            tests and in-process supervisors).
        derived: a :class:`~repro.trace.derived.DerivedPlane` for this
            trace — its precomputed RAS outcomes replace the live
            push/pop replay (bit-identical results; the RAS is a pure
            function of the trace).  Ignored when checkpointing or
            resuming, because those paths must snapshot real RAS state.
        backend: "scalar" (this per-branch loop), "columnar" (the
            batch tensor kernels in :mod:`repro.sim.kernel`), or
            "columnar-strict".  The columnar backend produces
            bit-identical results and final predictor state; it falls
            back to the scalar loop for predictors it does not support
            (with a ``RuntimeWarning`` naming the reason; on a host
            where the compiled replay cores cannot be built, that is
            every predictor) and for features it does not cover
            (checkpointing, resume, profiling counters).
            "columnar-strict" never falls back —
            it raises :class:`ColumnarUnsupportedError` instead, for
            callers that need the kernel's throughput or an explicit
            failure.
    """
    if checkpoint_every < 0:
        raise ValueError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}"
        )
    if checkpoint_every and checkpoint_path is None and on_checkpoint is None:
        raise ValueError(
            "checkpoint_every needs a checkpoint_path or on_checkpoint sink"
        )
    _check_backend(backend)

    if backend in ("columnar", "columnar-strict"):
        supported, reason = kernel.columnar_support(predictor)
        blockers = _columnar_blockers(
            checkpoint_every, checkpoint_path, resume_from, counters
        )
        if supported and not blockers:
            # The kernel validates (or computes) the derived plane
            # itself and returns results and final predictor state
            # bit-identical to the scalar loop below.
            return kernel.simulate_columnar(
                predictor,
                trace,
                ras_depth=ras_depth,
                warmup_records=warmup_records,
                collect_per_pc=collect_per_pc,
                derived=derived,
            )
        if backend == "columnar-strict":
            if not supported:
                raise ColumnarUnsupportedError(reason)
            raise ColumnarUnsupportedError(
                "columnar-strict cannot cover " + ", ".join(blockers)
                + "; use backend='columnar' (scalar fallback) or "
                "backend='scalar' for these features"
            )
        if not supported:
            warnings.warn(
                f"columnar backend falling back to scalar: {reason}",
                RuntimeWarning,
                stacklevel=2,
            )

    pcs, types, takens, targets = trace.scalar_columns()
    total = len(pcs)

    ras: object
    if (
        derived is not None
        and not checkpoint_every
        and resume_from is None
        and checkpoint_path is None
    ):
        if not derived.matches(trace, ras_depth):
            raise ValueError(
                f"derived plane is for {derived.trace_name!r} "
                f"({derived.records} records, ras_depth={derived.ras_depth}), "
                f"not {trace.name!r} ({total} records, ras_depth={ras_depth})"
            )
        ras = _DerivedRAS(derived.return_predictions())
    else:
        ras = ReturnAddressStack(ras_depth)
    indirect = 0
    mispredictions = 0
    returns = 0
    return_mispredictions = 0
    conditionals = 0
    by_pc: Dict[int, int] = {}
    skip = warmup_records
    cursor = 0

    if resume_from is not None:
        if resume_from.trace_name != trace.name:
            raise ValueError(
                f"checkpoint is for trace {resume_from.trace_name!r}, "
                f"not {trace.name!r}"
            )
        if resume_from.predictor_name != predictor.name:
            raise ValueError(
                f"checkpoint is for predictor "
                f"{resume_from.predictor_name!r}, not {predictor.name!r}"
            )
        if resume_from.cursor > total:
            raise ValueError(
                f"checkpoint cursor {resume_from.cursor} beyond trace "
                f"length {total}"
            )
        predictor.load_state(resume_from.predictor)
        ras.load_state(resume_from.ras)
        cursor = resume_from.cursor
        skip = resume_from.skip
        indirect = resume_from.indirect
        mispredictions = resume_from.mispredictions
        returns = resume_from.returns
        return_mispredictions = resume_from.return_mispredictions
        conditionals = resume_from.conditionals
        by_pc = dict(resume_from.by_pc)

    started_at = cursor

    on_conditional = predictor.on_conditional
    on_retired = predictor.on_retired
    predict_target = predictor.predict_target
    train = predictor.train

    cell: Optional[SimCounters] = None
    if counters is not None:
        # Profiling wraps the three hot callables with timers.  The
        # wrappers only exist on this branch, so the common unprofiled
        # path keeps its direct bound-method calls.
        cell = SimCounters()
        perf = time.perf_counter

        def on_conditional(pc, taken, _inner=on_conditional):
            began = perf()
            _inner(pc, taken)
            cell.conditional_seconds += perf() - began

        def predict_target(pc, _inner=predict_target):
            began = perf()
            prediction = _inner(pc)
            cell.predict_seconds += perf() - began
            return prediction

        def train(pc, target, _inner=train):
            began = perf()
            _inner(pc, target)
            cell.train_seconds += perf() - began

        loop_started = perf()

    if not checkpoint_every and cursor == 0:
        # Fast path: the whole trace in one span, zero checkpoint cost.
        (
            skip,
            indirect,
            mispredictions,
            returns,
            return_mispredictions,
            conditionals,
        ) = _replay_span(
            pcs, types, takens, targets,
            on_conditional, predict_target, train, on_retired,
            ras, collect_per_pc, by_pc,
            skip, indirect, mispredictions,
            returns, return_mispredictions, conditionals,
        )
    else:
        span = checkpoint_every if checkpoint_every else total
        while cursor < total:
            upper = min(cursor + span, total)
            (
                skip,
                indirect,
                mispredictions,
                returns,
                return_mispredictions,
                conditionals,
            ) = _replay_span(
                pcs[cursor:upper], types[cursor:upper],
                takens[cursor:upper], targets[cursor:upper],
                on_conditional, predict_target, train, on_retired,
                ras, collect_per_pc, by_pc,
                skip, indirect, mispredictions,
                returns, return_mispredictions, conditionals,
            )
            cursor = upper
            if checkpoint_every and cursor < total:
                checkpoint = SimulationCheckpoint(
                    trace_name=trace.name,
                    predictor_name=predictor.name,
                    cursor=cursor,
                    skip=skip,
                    indirect=indirect,
                    mispredictions=mispredictions,
                    returns=returns,
                    return_mispredictions=return_mispredictions,
                    conditionals=conditionals,
                    by_pc=dict(by_pc),
                    ras=ras.state_dict(),
                    predictor=predictor.state_dict(),
                )
                if checkpoint_path is not None:
                    save_checkpoint(checkpoint, checkpoint_path)
                if on_checkpoint is not None:
                    on_checkpoint(checkpoint)

    result = SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        total_instructions=trace.total_instructions(),
        indirect_branches=indirect,
        indirect_mispredictions=mispredictions,
        return_branches=returns,
        return_mispredictions=return_mispredictions,
        conditional_branches=conditionals,
        mispredictions_by_pc=by_pc,
    )
    if cell is not None:
        cell.elapsed_seconds = time.perf_counter() - loop_started
        # Only the records this process actually replayed (a resumed
        # cell's profile measures its own work, not the whole trace).
        cell.records = total - started_at
        cell.conditionals = conditionals
        cell.harvest(predictor)
        result.profile = cell.as_dict()
        counters.merge(cell)
    return result


@dataclass
class SampledSimulationResult:
    """Outcome of a SimPoint-style sampled simulation.

    ``estimated_mpki`` is the cluster-weight-combined MPKI of the
    measured windows — the sampled estimate of what a full-trace
    :func:`simulate` would report.  Per-region detail rides along for
    diagnostics and accuracy audits.
    """

    trace_name: str
    predictor_name: str
    estimated_mpki: float
    #: Records in the full trace vs. records actually replayed
    #: (warm-up + measured); their ratio bounds the achievable speedup.
    full_records: int
    replayed_records: int
    region_results: List[SimulationResult] = dataclass_field(
        default_factory=list
    )
    region_mpki: List[float] = dataclass_field(default_factory=list)
    #: Regions whose warm-up was restored from a cached
    #: :class:`SimulationCheckpoint` instead of replayed.
    warm_checkpoint_hits: int = 0

    @property
    def record_reduction(self) -> float:
        """Full-trace records per replayed record (≥ 1)."""
        if self.replayed_records == 0:
            return float("inf")
        return self.full_records / self.replayed_records


def _warm_checkpoint_path(
    checkpoint_dir, trace_hash: str, region, fresh_hash: str
) -> "Path":
    """Content-addressed warm-up checkpoint file for one region.

    Keyed on the *trace content hash*, the region geometry, and the
    hash of the predictor's fresh (pre-simulation) state — which pins
    the predictor class and its full configuration — so a stale file
    can never warm the wrong predictor or the wrong trace bytes.
    """
    from pathlib import Path

    name = (
        f"warm-{trace_hash[:16]}-{region.start}-{region.warmup}"
        f"-{fresh_hash[:16]}.ckpt.json"
    )
    return Path(checkpoint_dir) / name


def simulate_sampled(
    factory: Callable[[], IndirectBranchPredictor],
    trace: Trace,
    plan=None,
    interval_records: int = 5000,
    max_regions: int = 4,
    warmup_intervals: int = 1,
    ras_depth: int = 32,
    collect_per_pc: bool = False,
    backend: str = "scalar",
    checkpoint_dir=None,
) -> SampledSimulationResult:
    """Estimate full-trace MPKI from SimPoint-style sampled regions.

    Each region of ``plan`` (built via
    :func:`repro.trace.sampling.simpoint_plan` when not supplied) is
    simulated independently with a *fresh* predictor from ``factory``:
    the region's warm-up span is replayed untallied
    (``warmup_records``), the measured window is tallied, and the
    region's MPKI is computed over the measured window's own
    instructions.  The full-trace estimate is the cluster-weighted sum
    of region MPKIs — the SimPoint estimator at trace granularity.

    Args:
        factory: zero-argument predictor factory (a fresh instance per
            region; regions are independent by construction).
        trace: the **full** trace the plan was cut from.
        plan: a :class:`~repro.trace.sampling.SamplingPlan`; built from
            ``interval_records``/``max_regions``/``warmup_intervals``
            when omitted.
        ras_depth, collect_per_pc, backend: forwarded to
            :func:`simulate` per region (the columnar backend
            accelerates sampled spans exactly as it does full runs).
        checkpoint_dir: when given, each region's post-warm-up state is
            cached as a PR 4 :class:`SimulationCheckpoint` in a
            content-addressed file; later calls with the same trace
            bytes, region geometry, and predictor configuration restore
            it through the engine's ``resume_from`` path and skip the
            warm-up replay entirely.  Results are bit-identical either
            way (resume is per-branch identical by construction).

    Returns:
        A :class:`SampledSimulationResult`; its ``region_results``
        entries are ordinary :class:`SimulationResult`s over the
        warm+measure windows.
    """
    from repro.trace.sampling import SamplingPlan, simpoint_plan, window

    if plan is None:
        plan = simpoint_plan(
            trace,
            interval_records,
            max_regions=max_regions,
            warmup_intervals=warmup_intervals,
        )
    if not isinstance(plan, SamplingPlan):
        raise TypeError(
            f"plan must be a SamplingPlan, got {type(plan).__name__}"
        )
    if plan.trace_name != trace.name or plan.records != len(trace):
        raise ValueError(
            f"plan is for {plan.trace_name!r} ({plan.records} records), "
            f"not {trace.name!r} ({len(trace)} records)"
        )
    _check_backend(backend)

    trace_hash: Optional[str] = None
    if checkpoint_dir is not None:
        from pathlib import Path

        from repro.trace.plane import trace_content_hash

        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        trace_hash = trace_content_hash(trace)

    region_results: List[SimulationResult] = []
    region_mpki: List[float] = []
    estimated = 0.0
    predictor_name = ""
    warm_hits = 0
    for region in plan.regions:
        sub = window(
            trace, region.start - region.warmup,
            region.warmup + region.length,
        )
        predictor = factory()
        predictor_name = predictor.name
        result: Optional[SimulationResult] = None
        checkpoint_path = None
        if checkpoint_dir is not None and region.warmup:
            checkpoint_path = _warm_checkpoint_path(
                checkpoint_dir, trace_hash, region, predictor.state_hash()
            )
            cached = load_checkpoint(checkpoint_path)
            if (
                cached is not None
                and cached.trace_name == sub.name
                and cached.predictor_name == predictor.name
                and cached.cursor == region.warmup
            ):
                # Warm-up restored, not replayed: the engine's resume
                # machinery replays only the measured window.
                result = simulate(
                    predictor,
                    sub,
                    ras_depth=ras_depth,
                    warmup_records=region.warmup,
                    collect_per_pc=collect_per_pc,
                    resume_from=cached,
                )
                warm_hits += 1
        if result is None:
            if checkpoint_path is not None:
                # Cold pass: capture the post-warm-up state through the
                # checkpoint hook (fires at every warm-up-sized span;
                # only the warm-boundary snapshot is kept).
                def keep_warm_boundary(
                    snapshot: SimulationCheckpoint,
                    _path=checkpoint_path,
                    _warm=region.warmup,
                ) -> None:
                    if snapshot.cursor == _warm:
                        save_checkpoint(snapshot, _path)

                result = simulate(
                    predictor,
                    sub,
                    ras_depth=ras_depth,
                    warmup_records=region.warmup,
                    collect_per_pc=collect_per_pc,
                    checkpoint_every=region.warmup,
                    on_checkpoint=keep_warm_boundary,
                )
            else:
                result = simulate(
                    predictor,
                    sub,
                    ras_depth=ras_depth,
                    warmup_records=region.warmup,
                    collect_per_pc=collect_per_pc,
                    backend=backend,
                )
        stop = region.start + region.length
        measured_instructions = (
            int(trace.gaps[region.start:stop].sum()) + region.length
        )
        mpki = (
            1000.0 * result.indirect_mispredictions / measured_instructions
            if measured_instructions
            else 0.0
        )
        region_results.append(result)
        region_mpki.append(mpki)
        estimated += region.weight * mpki

    return SampledSimulationResult(
        trace_name=trace.name,
        predictor_name=predictor_name,
        estimated_mpki=estimated,
        full_records=plan.records,
        replayed_records=plan.replayed_records,
        region_results=region_results,
        region_mpki=region_mpki,
        warm_checkpoint_hits=warm_hits,
    )


def _replay_span_many(
    pcs,
    types,
    takens,
    targets,
    engines,
    cond_hooks,
    retire_hooks,
    ras,
    collect_per_pc,
    by_pc,
    mispredictions,
    skip,
    indirect,
    returns,
    return_mispredictions,
    conditionals,
) -> Tuple[int, int, int, int, int]:
    """The fused hot loop: one pass over the columns, N predictors.

    Per-branch work that is predictor-independent — scalar extraction,
    type dispatch, RAS traffic, warmup accounting — happens once; only
    the predict/train/retire calls multiply by N.  ``engines`` carries
    one ``(predict_target, train, on_retired-or-None)`` tuple per
    predictor; ``cond_hooks``/``retire_hooks`` hold only the bound hooks
    that actually override the base no-ops, so baseline predictors pay
    nothing for histories they do not keep.  ``mispredictions`` and
    ``by_pc`` are per-predictor and mutated in place; each predictor's
    own call sequence is exactly what :func:`_replay_span` would issue,
    so per-predictor state evolution is bit-identical to unfused runs.
    """
    for pc, branch_type, taken, target in zip(pcs, types, takens, targets):
        if branch_type == _COND:
            for hook in cond_hooks:
                hook(pc, taken)
            conditionals += 1
            if skip:
                skip -= 1
            continue

        counted = not skip
        if skip:
            skip -= 1

        if branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
            if counted:
                indirect += 1
            slot = 0
            for predict_target, train, on_retired in engines:
                prediction: Optional[int] = predict_target(pc)
                if counted and prediction != target:
                    mispredictions[slot] += 1
                    if collect_per_pc:
                        cell = by_pc[slot]
                        cell[pc] = cell.get(pc, 0) + 1
                train(pc, target)
                if on_retired is not None:
                    on_retired(pc, branch_type, target)
                slot += 1
            if branch_type == _INDIRECT_CALL:
                ras.push(pc + 4)
        elif branch_type == _RETURN:
            ras_prediction = ras.predict()
            ras.pop()
            if counted:
                returns += 1
                if ras_prediction != target:
                    return_mispredictions += 1
            for hook in retire_hooks:
                hook(pc, branch_type, target)
        elif branch_type == _DIRECT_CALL:
            ras.push(pc + 4)
            for hook in retire_hooks:
                hook(pc, branch_type, target)
        else:  # direct jump
            for hook in retire_hooks:
                hook(pc, branch_type, target)
    return skip, indirect, returns, return_mispredictions, conditionals


def simulate_many(
    predictors: Sequence[IndirectBranchPredictor],
    trace: Trace,
    ras_depth: int = 32,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    derived: Optional[DerivedPlane] = None,
    checkpoint_every: int = 0,
    checkpoint_paths: Optional[Sequence[Optional[str]]] = None,
    backend: str = "scalar",
) -> List[SimulationResult]:
    """Run every predictor over ``trace`` in one fused pass.

    Produces, for each predictor, a result and final predictor state
    bit-identical to ``simulate(predictor, trace, ...)`` — the fused loop
    issues each predictor the exact call sequence the solo loop would,
    only sharing the per-branch costs that are predictor-independent
    (column decode, type dispatch, RAS replay, warmup accounting).

    When every fused predictor is *indirect-only* (overrides neither
    ``on_conditional`` nor ``on_retired``) and a ``derived`` plane is
    supplied, the loop skips non-indirect records entirely and walks the
    plane's indirect index arrays instead of the full columns.

    Args:
        predictors: freshly constructed predictors (mutated in place).
        trace: the branch trace to replay.
        ras_depth: depth of the shared return-address stack.
        warmup_records: leading records whose mispredictions are not
            counted (identical accounting for every predictor).
        collect_per_pc: also record per-static-branch misprediction
            counts, per predictor.
        derived: this trace's :class:`~repro.trace.derived.DerivedPlane`;
            substitutes precomputed RAS outcomes (and enables the
            indirect-only fast path).  Ignored while checkpointing —
            snapshots need real RAS state.
        checkpoint_every: when > 0, write one checkpoint *per predictor*
            every this-many records into the matching entry of
            ``checkpoint_paths``; each snapshot is loadable by
            :func:`simulate` for an unfused per-cell resume.
        checkpoint_paths: one path (or ``None``) per predictor.
        backend: "scalar", "columnar", or "columnar-strict".  Under
            "columnar", predictors the kernels support run as one fused
            columnar group (:func:`repro.sim.kernel.simulate_columnar_many`
            — one shared precompute pass, compatible BLBP lanes
            lane-parallel) and the rest run through this fused scalar
            loop, with a ``RuntimeWarning`` naming why; the merged
            results and final states are bit-identical to an all-scalar
            pass.  Ignored while checkpointing.  "columnar-strict"
            raises :class:`ColumnarUnsupportedError` instead of falling
            back (unsupported predictor or checkpointing).
    """
    predictors = list(predictors)
    count = len(predictors)
    if count == 0:
        return []
    if checkpoint_every < 0:
        raise ValueError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if checkpoint_paths is None:
        checkpoint_paths = [None] * count
    checkpoint_paths = list(checkpoint_paths)
    if len(checkpoint_paths) != count:
        raise ValueError(
            f"{len(checkpoint_paths)} checkpoint paths for {count} predictors"
        )
    if checkpoint_every and not any(checkpoint_paths):
        raise ValueError("checkpoint_every needs at least one checkpoint path")
    _check_backend(backend)

    total = len(trace)
    use_derived = derived is not None and not checkpoint_every
    if use_derived and not derived.matches(trace, ras_depth):
        raise ValueError(
            f"derived plane is for {derived.trace_name!r} "
            f"({derived.records} records, ras_depth={derived.ras_depth}), "
            f"not {trace.name!r} ({total} records, ras_depth={ras_depth})"
        )

    if backend in ("columnar", "columnar-strict"):
        reasons = {
            slot: kernel.columnar_support(predictor)
            for slot, predictor in enumerate(predictors)
        }
        supported = [slot for slot, (ok, _) in reasons.items() if ok]
        if backend == "columnar-strict":
            if checkpoint_every:
                raise ColumnarUnsupportedError(
                    "columnar-strict cannot cover checkpointing "
                    "(checkpoint_every); use backend='columnar' or "
                    "'scalar'"
                )
            unsupported = [
                reason for ok, reason in reasons.values() if not ok
            ]
            if unsupported:
                raise ColumnarUnsupportedError(unsupported[0])
        elif checkpoint_every:
            supported = []
        elif len(supported) < count:
            fallback = sorted(
                {
                    reason
                    for ok, reason in reasons.values()
                    if not ok
                }
            )
            warnings.warn(
                "columnar backend falling back to the fused scalar "
                "loop for some predictors: " + "; ".join(fallback),
                RuntimeWarning,
                stacklevel=2,
            )
        if supported:
            plane = derived
            if plane is None:
                from repro.trace.derived import compute_derived

                plane = compute_derived(trace, ras_depth)
            merged: List[Optional[SimulationResult]] = [None] * count
            # One shared precompute pass serves every supported lane;
            # compatible BLBP lanes advance lane-parallel inside.
            for slot, result in zip(
                supported,
                kernel.simulate_columnar_many(
                    [predictors[slot] for slot in supported],
                    trace,
                    ras_depth=ras_depth,
                    warmup_records=warmup_records,
                    collect_per_pc=collect_per_pc,
                    derived=plane,
                ),
            ):
                merged[slot] = result
            rest = [slot for slot in range(count) if merged[slot] is None]
            if rest:
                for slot, result in zip(
                    rest,
                    simulate_many(
                        [predictors[slot] for slot in rest],
                        trace,
                        ras_depth=ras_depth,
                        warmup_records=warmup_records,
                        collect_per_pc=collect_per_pc,
                        derived=plane,
                    ),
                ):
                    merged[slot] = result
            return [result for result in merged if result is not None]

    base_conditional = IndirectBranchPredictor.on_conditional
    base_retired = IndirectBranchPredictor.on_retired
    cond_hooks = [
        p.on_conditional
        for p in predictors
        if type(p).on_conditional is not base_conditional
    ]
    retire_hooks = [
        p.on_retired for p in predictors if type(p).on_retired is not base_retired
    ]
    engines = [
        (
            p.predict_target,
            p.train,
            p.on_retired if type(p).on_retired is not base_retired else None,
        )
        for p in predictors
    ]

    mispredictions = [0] * count
    by_pc: List[Dict[int, int]] = [{} for _ in range(count)]
    skip = warmup_records
    indirect = 0
    returns = 0
    return_mispredictions = 0
    conditionals = 0

    if use_derived and not cond_hooks and not retire_hooks:
        # Indirect-only fast path: every record a fused predictor cares
        # about is in the plane's indirect index arrays, and the shared
        # RAS/conditional accounting is a pure function of the plane.
        warm = warmup_records
        for index, pc, target in zip(
            derived.indirect_idx.tolist(),
            derived.indirect_pcs.tolist(),
            derived.indirect_targets.tolist(),
        ):
            counted = index >= warm
            if counted:
                indirect += 1
            slot = 0
            for predict_target, train, _ in engines:
                prediction = predict_target(pc)
                if counted and prediction != target:
                    mispredictions[slot] += 1
                    if collect_per_pc:
                        cell = by_pc[slot]
                        cell[pc] = cell.get(pc, 0) + 1
                train(pc, target)
                slot += 1
        conditionals = derived.conditionals
        return_indices = derived.return_idx
        if len(return_indices):
            counted_mask = return_indices >= warm
            returns = int(np.count_nonzero(counted_mask))
            return_mispredictions = int(
                np.count_nonzero(counted_mask & (derived.return_ok == 0))
            )
    else:
        pcs, types, takens, targets = trace.scalar_columns()
        ras: object
        if use_derived:
            ras = _DerivedRAS(derived.return_predictions())
        else:
            ras = ReturnAddressStack(ras_depth)
        span = checkpoint_every if checkpoint_every else total
        cursor = 0
        while cursor < total:
            upper = min(cursor + span, total)
            (
                skip,
                indirect,
                returns,
                return_mispredictions,
                conditionals,
            ) = _replay_span_many(
                pcs[cursor:upper], types[cursor:upper],
                takens[cursor:upper], targets[cursor:upper],
                engines, cond_hooks, retire_hooks,
                ras, collect_per_pc, by_pc, mispredictions,
                skip, indirect, returns, return_mispredictions, conditionals,
            )
            cursor = upper
            if checkpoint_every and cursor < total:
                ras_state = ras.state_dict()
                for slot, predictor in enumerate(predictors):
                    path = checkpoint_paths[slot]
                    if path is None:
                        continue
                    save_checkpoint(
                        SimulationCheckpoint(
                            trace_name=trace.name,
                            predictor_name=predictor.name,
                            cursor=cursor,
                            skip=skip,
                            indirect=indirect,
                            mispredictions=mispredictions[slot],
                            returns=returns,
                            return_mispredictions=return_mispredictions,
                            conditionals=conditionals,
                            by_pc=dict(by_pc[slot]),
                            ras=ras_state,
                            predictor=predictor.state_dict(),
                        ),
                        path,
                    )

    total_instructions = trace.total_instructions()
    return [
        SimulationResult(
            trace_name=trace.name,
            predictor_name=predictor.name,
            total_instructions=total_instructions,
            indirect_branches=indirect,
            indirect_mispredictions=mispredictions[slot],
            return_branches=returns,
            return_mispredictions=return_mispredictions,
            conditional_branches=conditionals,
            mispredictions_by_pc=by_pc[slot],
        )
        for slot, predictor in enumerate(predictors)
    ]


def simulate_conditional(
    predictor,
    trace: Trace,
    warmup_records: int = 0,
) -> SimulationResult:
    """Run a *conditional* predictor over a trace's conditional stream.

    Used by the §6 consolidation study (BLBP as a conditional predictor)
    and for measuring standalone conditional substrates.  Non-conditional
    branches are skipped — conditional predictors maintain their own
    histories from the outcomes alone.  Returns a
    :class:`SimulationResult` whose "indirect" fields carry the
    conditional counts so the MPKI helpers apply unchanged.
    """
    pcs = trace.pcs.tolist()
    types = trace.types.tolist()
    takens = trace.takens.tolist()

    count = 0
    mispredictions = 0
    predict = predictor.predict
    update = predictor.update
    for index in range(len(pcs)):
        if types[index] != _COND:
            continue
        pc = pcs[index]
        taken = takens[index]
        prediction = predict(pc)
        if index >= warmup_records:
            count += 1
            if prediction != taken:
                mispredictions += 1
        update(pc, taken)

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=type(predictor).__name__,
        total_instructions=trace.total_instructions(),
        indirect_branches=count,
        indirect_mispredictions=mispredictions,
        conditional_branches=count,
    )
