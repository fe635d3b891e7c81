"""The simulation loop: predictors over one trace.

:func:`simulate` (one predictor) and :func:`simulate_many` (a fused
group) share one routine, which picks the backend, and one per-record
loop, which mirrors the CBP infrastructure's discipline (§4.2):

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
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.predictors.base import IndirectBranchPredictor
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

#: Recognized simulation backends.  "scalar" is the per-record Python
#: loop below; "columnar" replays each lane the compiled cores in
#: :mod:`repro.sim.kernel` support (bit-identical results) and hands
#: every other lane to the scalar loop, naming why in one
#: ``RuntimeWarning`` per call.  A caller that needs the cores or an
#: error turns that warning into one with
#: ``warnings.simplefilter("error", RuntimeWarning)``.
BACKENDS: Tuple[str, ...] = ("scalar", "columnar")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


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

    This is :func:`simulate_many` with one lane: both go through the
    same routine, ``_simulate_lanes`` (argument checks, backend
    dispatch, derived-plane check, span/checkpoint loop), and the same
    per-record loop.  ``counters``, ``resume_from`` and
    ``on_checkpoint`` are the inputs only a single lane takes.

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
        backend: "scalar" (the per-record loop) or "columnar" (the
            compiled replay cores behind :mod:`repro.sim.kernel`).  The
            columnar backend produces bit-identical results and final
            predictor state; it runs the scalar loop instead, with one
            ``RuntimeWarning`` naming the reason, for a predictor it
            does not support (on a host where the compiled replay cores
            cannot be built, that is every predictor) and for the
            features the cores do not cover (checkpointing, resume,
            profiling counters).
    """
    sinks: List[Callable[[SimulationCheckpoint], None]] = []
    if checkpoint_path is not None:
        sinks.append(partial(save_checkpoint, path=checkpoint_path))
    if on_checkpoint is not None:
        sinks.append(on_checkpoint)
    [result] = _simulate_lanes(
        [predictor],
        trace,
        ras_depth,
        warmup_records,
        collect_per_pc,
        derived,
        checkpoint_every,
        [sinks],
        backend,
        resume_from=resume_from,
        counters=counters,
    )
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
            accelerates sampled spans exactly as it does full runs; a
            region that checkpoints or resumes runs scalar, with the
            engine's warning).
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
                    backend=backend,
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
                    backend=backend,
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
    """The per-record retirement loop: one pass over the columns, N lanes.

    Every scalar replay, solo or fused, runs through here.  Per-branch
    work that is predictor-independent — scalar extraction, type
    dispatch, RAS traffic, warmup accounting — happens once; only the
    predict/train/retire calls multiply by N.  ``engines`` carries one
    ``(predict_target, train, on_retired-or-None)`` tuple per predictor;
    ``cond_hooks``/``retire_hooks`` hold only the bound hooks that
    actually override the base no-ops, so baseline predictors pay
    nothing for histories they do not keep.  ``mispredictions`` and
    ``by_pc`` are per-predictor and mutated in place; each predictor's
    own call sequence does not depend on which other lanes share the
    pass, so per-predictor state evolution is bit-identical to unfused
    runs.  Counters stay plain locals and come back as a tuple, so a
    span boundary costs nothing inside the loop.
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
    bit-identical to ``simulate(predictor, trace, ...)`` — :func:`simulate`
    is this function with one lane, and the shared per-record loop issues
    each predictor the same call sequence however many lanes it carries,
    only sharing the per-branch costs that are predictor-independent
    (column decode, type dispatch, RAS replay, warmup accounting).

    When every scalar lane is *indirect-only* (overrides neither
    ``on_conditional`` nor ``on_retired``) and a ``derived`` plane is in
    use, the loop skips non-indirect records entirely and walks only the
    plane's indirect records.

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
        backend: "scalar" or "columnar".  Under "columnar", predictors
            the kernels support run as one fused columnar group
            (:func:`repro.sim.kernel.simulate_columnar_many` — one
            shared precompute pass, compatible BLBP lanes
            lane-parallel) and the rest run through the fused scalar
            loop; the merged results and final states are bit-identical
            to an all-scalar pass.  Checkpointing runs every lane
            scalar.  Either fallback issues the one ``RuntimeWarning``
            described under :func:`simulate`.
    """
    predictors = list(predictors)
    if checkpoint_paths is None:
        checkpoint_paths = [None] * len(predictors)
    checkpoint_paths = list(checkpoint_paths)
    if len(checkpoint_paths) != len(predictors):
        raise ValueError(
            f"{len(checkpoint_paths)} checkpoint paths for "
            f"{len(predictors)} predictors"
        )
    return _simulate_lanes(
        predictors,
        trace,
        ras_depth,
        warmup_records,
        collect_per_pc,
        derived,
        checkpoint_every,
        [
            [] if path is None else [partial(save_checkpoint, path=path)]
            for path in checkpoint_paths
        ],
        backend,
    )


def _simulate_lanes(
    predictors: List[IndirectBranchPredictor],
    trace: Trace,
    ras_depth: int,
    warmup_records: int,
    collect_per_pc: bool,
    derived: Optional[DerivedPlane],
    checkpoint_every: int,
    sinks: List[List[Callable[[SimulationCheckpoint], None]]],
    backend: str,
    resume_from: Optional[SimulationCheckpoint] = None,
    counters: Optional[SimCounters] = None,
) -> List[SimulationResult]:
    """The one routine behind :func:`simulate` and :func:`simulate_many`.

    Checks the arguments, makes the one backend decision — which lanes
    the columnar kernels replay and which the scalar loop does — and
    merges both sides' results back into lane order.  ``sinks`` holds
    each lane's checkpoint receivers.  ``resume_from`` and ``counters``
    come only from :func:`simulate` and apply to its one lane.
    """
    if checkpoint_every < 0:
        raise ValueError(
            f"checkpoint_every must be >= 0, got {checkpoint_every}"
        )
    if checkpoint_every and not any(sinks):
        raise ValueError(
            "checkpoint_every needs a checkpoint_path or on_checkpoint sink"
        )
    _check_backend(backend)
    if checkpoint_every or resume_from is not None:
        # Snapshots and resumes carry the live RAS, which the plane's
        # precomputed return outcomes cannot stand in for.
        derived = None
    if derived is not None:
        derived.check(trace, ras_depth)
    if not predictors:
        return []

    results: List[Optional[SimulationResult]] = [None] * len(predictors)
    if backend == "columnar":
        # Imported here: the scalar paths (a serve child, say) never
        # load the kernels or build the compiled cores.
        from repro.sim import kernel

        blockers = [
            f"the columnar kernels do not cover {feature}"
            for feature, active in (
                ("checkpointing (checkpoint_every)", checkpoint_every),
                ("resume (resume_from)", resume_from is not None),
                ("profiling (counters)", counters is not None),
            )
            if active
        ]
        support = [kernel.columnar_support(p) for p in predictors]
        reasons = blockers + [reason for ok, reason in support if not ok]
        if reasons:
            # Every lane the scalar loop replays below is named here.
            warnings.warn(
                "columnar backend falling back to the fused scalar "
                "loop for some predictors: "
                + "; ".join(sorted(set(reasons))),
                RuntimeWarning,
                stacklevel=3,
            )
        columnar = [] if blockers else [
            slot for slot, (ok, _) in enumerate(support) if ok
        ]
        if columnar:
            if derived is None:
                from repro.trace.derived import compute_derived

                derived = compute_derived(trace, ras_depth)
            # One shared precompute pass serves every supported lane;
            # compatible BLBP lanes advance lane-parallel inside.
            for slot, result in zip(
                columnar,
                kernel.simulate_columnar_many(
                    [predictors[slot] for slot in columnar],
                    trace,
                    ras_depth=ras_depth,
                    warmup_records=warmup_records,
                    collect_per_pc=collect_per_pc,
                    derived=derived,
                ),
            ):
                results[slot] = result

    scalar = [slot for slot, result in enumerate(results) if result is None]
    if scalar:
        for slot, result in zip(
            scalar,
            _replay_lanes(
                [predictors[slot] for slot in scalar],
                trace,
                ras_depth,
                warmup_records,
                collect_per_pc,
                derived,
                checkpoint_every,
                [sinks[slot] for slot in scalar],
                resume_from,
                counters,
            ),
        ):
            results[slot] = result
    return results


def _timed(inner: Callable, cell: SimCounters, phase: str) -> Callable:
    """``inner``, adding the wall time of each call to ``cell.<phase>``."""
    perf = time.perf_counter

    def timed(*args):
        began = perf()
        result = inner(*args)
        setattr(cell, phase, getattr(cell, phase) + (perf() - began))
        return result

    return timed


def _replay_lanes(
    lanes: List[IndirectBranchPredictor],
    trace: Trace,
    ras_depth: int,
    warmup_records: int,
    collect_per_pc: bool,
    derived: Optional[DerivedPlane],
    checkpoint_every: int,
    sinks: List[List[Callable[[SimulationCheckpoint], None]]],
    resume_from: Optional[SimulationCheckpoint],
    counters: Optional[SimCounters],
) -> List[SimulationResult]:
    """Scalar replay: the span/checkpoint loop over the per-record loop.

    ``derived``, already checked against the trace, replaces the live
    RAS.  ``resume_from`` restores the first lane's state, the RAS, the
    cursor and every accumulator before replay; ``counters`` profiles
    the pass.
    """
    base_conditional = IndirectBranchPredictor.on_conditional
    base_retired = IndirectBranchPredictor.on_retired
    cond_hooks = [
        p.on_conditional
        for p in lanes
        if type(p).on_conditional is not base_conditional
    ]
    retire_hooks = [
        p.on_retired for p in lanes if type(p).on_retired is not base_retired
    ]
    engines = [
        (
            p.predict_target,
            p.train,
            p.on_retired if type(p).on_retired is not base_retired else None,
        )
        for p in lanes
    ]
    cell: Optional[SimCounters] = None
    if counters is not None:
        # Timers wrap the hot callables only on this branch, so the
        # unprofiled path keeps its direct bound-method calls.
        cell = SimCounters()
        cond_hooks = [
            _timed(hook, cell, "conditional_seconds") for hook in cond_hooks
        ]
        engines = [
            (
                _timed(predict_target, cell, "predict_seconds"),
                _timed(train, cell, "train_seconds"),
                on_retired,
            )
            for predict_target, train, on_retired in engines
        ]

    count = len(lanes)
    total = len(trace)
    mispredictions = [0] * count
    by_pc: List[Dict[int, int]] = [{} for _ in range(count)]
    skip = warmup_records
    cursor = indirect = returns = return_mispredictions = conditionals = 0
    ras: object
    indirect_only = derived is not None and not cond_hooks and not retire_hooks
    if indirect_only:
        # Every record these lanes act on is in the plane's indirect
        # arrays, and the RAS and conditional tallies are pure functions
        # of the plane, so the loop walks the indirect records alone,
        # with ``skip`` set to the indirect records inside the warmup.
        index = derived.indirect_idx
        columns = (
            derived.indirect_pcs.tolist(),
            trace.types[index].tolist(),
            trace.takens[index].tolist(),
            derived.indirect_targets.tolist(),
        )
        skip = int(np.searchsorted(index, warmup_records))
        ras = _DerivedRAS([])
    else:
        columns = trace.scalar_columns()
        if derived is not None:
            ras = _DerivedRAS(derived.return_predictions())
        else:
            ras = ReturnAddressStack(ras_depth)

    if resume_from is not None:
        predictor = lanes[0]
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
        mispredictions[0] = resume_from.mispredictions
        returns = resume_from.returns
        return_mispredictions = resume_from.return_mispredictions
        conditionals = resume_from.conditionals
        by_pc[0] = dict(resume_from.by_pc)
    started_at = cursor
    loop_started = time.perf_counter()

    end = len(columns[0])
    span = checkpoint_every or end
    while cursor < end:
        upper = min(cursor + span, end)
        if upper - cursor < end:
            span_columns = [column[cursor:upper] for column in columns]
        else:
            span_columns = columns  # the whole trace: no column copies
        (
            skip,
            indirect,
            returns,
            return_mispredictions,
            conditionals,
        ) = _replay_span_many(
            *span_columns,
            engines, cond_hooks, retire_hooks,
            ras, collect_per_pc, by_pc, mispredictions,
            skip, indirect, returns, return_mispredictions, conditionals,
        )
        cursor = upper
        if checkpoint_every and cursor < end:
            ras_state = ras.state_dict()
            for slot, predictor in enumerate(lanes):
                if not sinks[slot]:
                    continue
                snapshot = SimulationCheckpoint(
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
                )
                for sink in sinks[slot]:
                    sink(snapshot)
    if indirect_only:
        conditionals = derived.conditionals
        counted = derived.return_idx >= warmup_records
        returns = int(np.count_nonzero(counted))
        return_mispredictions = int(
            np.count_nonzero(counted & (derived.return_ok == 0))
        )

    total_instructions = trace.total_instructions()
    results = [
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
        for slot, predictor in enumerate(lanes)
    ]
    if cell is not None:
        cell.elapsed_seconds = time.perf_counter() - loop_started
        # Only the records this process actually replayed (a resumed
        # cell's profile measures its own work, not the whole trace).
        cell.records = total - started_at
        cell.conditionals = conditionals
        for predictor in lanes:
            cell.harvest(predictor)
        for result in results:
            result.profile = cell.as_dict()
        counters.merge(cell)
    return results


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
