"""The simulation loop: predictors over one trace.

:func:`simulate` (one predictor) and :func:`simulate_many` (a fused
group) share one routine, which picks the backend.  Every replay
predicts first and scores afterwards, with the CBP infrastructure's
discipline (§4.2):

* **conditional branches** feed the predictor's conditional-history
  hook (and, for VPC, the shared conditional predictor);
* **indirect jumps and calls** are predicted, trained, and then
  retired into the predictor's history;
* **returns and direct branches** just retire.

Scalar lanes predict through one driver, :func:`replay_predictions`,
which works on plain Python scalars extracted from the trace columns
once up front (constructing a record object per branch would dominate
runtime at multi-million-record scale); columnar lanes predict on the
compiled cores of :mod:`repro.sim.kernel`, over the whole trace or, when
the run checkpoints or resumes, a span at a time.  Either way
:mod:`repro.sim.retire` scores the predictions: the return-address
stack takes the returns, which stay out of the indirect MPKI, and the
warmup stays out of every count.
"""

from __future__ import annotations

import time
import warnings
from operator import ne
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.predictors.base import IndirectBranchPredictor
from repro.sim.checkpoint import (
    SimulationCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.counters import SimCounters
from repro.sim.metrics import SimulationResult
from repro.sim.retire import Retirement, retire_span, score_plane
from repro.trace.derived import DerivedPlane
from repro.trace.record import BranchType
from repro.trace.stream import Trace

#: Recognized simulation backends.  "scalar" is the predictions-only
#: driver below; "columnar" replays each lane the compiled cores in
#: :mod:`repro.sim.kernel` support (bit-identical results), whether or
#: not the run checkpoints, resumes or profiles, and hands every other
#: lane to the scalar loop, naming why in one ``RuntimeWarning`` per
#: call.  Only a predictor can be the reason.  A caller that needs the
#: cores or an error turns that warning into one with
#: ``warnings.simplefilter("error", RuntimeWarning)``.
BACKENDS: Tuple[str, ...] = ("scalar", "columnar")


def _check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )


_COND = int(BranchType.CONDITIONAL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)


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
    driver and scorers.  ``counters``, ``resume_from`` and
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
            this.  A lane on the cores is profiled there (see
            :class:`SimCounters` for its phase times).
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
        backend: "scalar" (the predictions-only driver) or "columnar" (the
            compiled replay cores behind :mod:`repro.sim.kernel`).  The
            columnar backend produces bit-identical results, final
            predictor state and snapshots, checkpointed, resumed or
            profiled; it runs the scalar loop instead, with one
            ``RuntimeWarning`` naming the reason, for a predictor it
            does not support (on a host where the compiled replay cores
            cannot be built, that is every predictor; in checkpoint or
            resume spans, VPC: see :func:`repro.sim.kernel.span_support`).
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
            region that checkpoints or resumes replays BLBP and ITTAGE
            on the cores in spans, and VPC scalar, with the engine's
            warning).
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
        resume_from: Optional[SimulationCheckpoint] = None
        checkpoint_every = 0
        on_checkpoint: Optional[Callable[[SimulationCheckpoint], None]] = None
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
                resume_from = cached
                warm_hits += 1
            else:
                # Cold pass: capture the post-warm-up state through the
                # checkpoint hook (fires at every warm-up-sized span;
                # only the warm-boundary snapshot is kept).
                def on_checkpoint(
                    snapshot: SimulationCheckpoint,
                    _path=checkpoint_path,
                    _warm=region.warmup,
                ) -> None:
                    if snapshot.cursor == _warm:
                        save_checkpoint(snapshot, _path)

                checkpoint_every = region.warmup
        result = simulate(
            predictor,
            sub,
            ras_depth=ras_depth,
            warmup_records=region.warmup,
            collect_per_pc=collect_per_pc,
            checkpoint_every=checkpoint_every,
            resume_from=resume_from,
            on_checkpoint=on_checkpoint,
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


#: What a replay calls for its lanes: the conditional hooks, the retire
#: hooks and one ``(predict_target, train, on_retired-or-None)`` per lane.
LaneCalls = Tuple[
    List[Callable], List[Callable],
    List[Tuple[Callable, Callable, Optional[Callable]]],
]


def _lane_calls(lanes: Sequence[IndirectBranchPredictor]) -> LaneCalls:
    """The calls a replay makes for ``lanes``.

    Only hooks that override the base no-ops are kept, so baseline
    predictors pay nothing for histories they do not keep.
    """
    base_conditional = IndirectBranchPredictor.on_conditional
    base_retired = IndirectBranchPredictor.on_retired
    cond_hooks = [
        p.on_conditional
        for p in lanes
        if type(p).on_conditional is not base_conditional
    ]
    engines = [
        (
            p.predict_target,
            p.train,
            p.on_retired if type(p).on_retired is not base_retired else None,
        )
        for p in lanes
    ]
    retire_hooks = [hook for _, _, hook in engines if hook is not None]
    return cond_hooks, retire_hooks, engines


def replay_predictions(
    predictors: Sequence[IndirectBranchPredictor],
    pcs: Sequence[int],
    types: Sequence[int],
    takens: Sequence[bool],
    targets: Sequence[int],
) -> List[List[Optional[int]]]:
    """Replay a run of records through ``predictors``; return each
    lane's per-indirect predictions, in order.

    Each predictor gets the engine's call sequence — the conditional
    hook; predict, train and retire for indirects; retire for the rest —
    so its state evolves exactly as in :func:`simulate`, which predicts
    its scalar lanes through here too.  Nothing is counted and no RAS is
    kept: :mod:`repro.sim.retire` scores the predictions.  Serve's
    scalar step and :func:`repro.sim.analysis.learning_curve` also run
    on this.
    """
    return _predict(_lane_calls(predictors), pcs, types, takens, targets)


def _predict(
    calls: LaneCalls,
    pcs: Sequence[int],
    types: Sequence[int],
    takens: Sequence[bool],
    targets: Sequence[int],
) -> List[List[Optional[int]]]:
    """:func:`replay_predictions` over prepared (or profiled) calls."""
    cond_hooks, retire_hooks, engines = calls
    predictions: List[List[Optional[int]]] = [[] for _ in engines]
    lanes = [(*calls, out.append) for calls, out in zip(engines, predictions)]
    for pc, branch_type, taken, target in zip(pcs, types, takens, targets):
        if branch_type == _COND:
            for hook in cond_hooks:
                hook(pc, taken)
        elif branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
            for predict_target, train, on_retired, emit in lanes:
                emit(predict_target(pc))
                train(pc, target)
                if on_retired is not None:
                    on_retired(pc, branch_type, target)
        else:
            for hook in retire_hooks:
                hook(pc, branch_type, target)
    return predictions


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
    is this function with one lane, and the shared driver issues each
    predictor the same call sequence however many lanes it carries,
    only sharing the per-branch costs that are predictor-independent
    (column decode, type dispatch, RAS replay, warmup accounting).

    When every scalar lane is *indirect-only* (overrides neither
    ``on_conditional`` nor ``on_retired``) and a ``derived`` plane is in
    use, the driver skips non-indirect records entirely and walks only
    the plane's indirect records.

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
            to an all-scalar pass.  Checkpointing replays BLBP and
            ITTAGE on the cores a span at a time, and VPC scalar.  A
            fallback issues the one ``RuntimeWarning`` of :func:`simulate`.
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
    # Snapshots and resumes carry the live RAS, which the plane's
    # precomputed return outcomes cannot stand in for: they replay in
    # spans, on the cores that take any run of columns.
    spans = checkpoint_every or resume_from is not None
    if spans:
        derived = None
    if derived is not None:
        derived.check(trace, ras_depth)
    if not predictors:
        return []

    cores: List[int] = []
    if backend == "columnar":
        # Imported here: the scalar paths (a serve child, say) never
        # load the kernels or build the compiled cores.
        from repro.sim import kernel

        support = [
            (kernel.span_support if spans else kernel.columnar_support)(p)
            for p in predictors
        ]
        reasons = [reason for ok, reason in support if not ok]
        if reasons:
            # Every lane the scalar loop replays below is named here.
            warnings.warn(
                "columnar backend falling back to the fused scalar "
                "loop for some predictors: "
                + "; ".join(sorted(set(reasons))),
                RuntimeWarning,
                stacklevel=3,
            )
        cores = [slot for slot, (ok, _) in enumerate(support) if ok]
        if cores and not spans and derived is None:
            from repro.trace.derived import compute_derived

            derived = compute_derived(trace, ras_depth)

    # The lanes on the cores first, then the scalar lanes.
    order = cores + [
        slot for slot in range(len(predictors)) if slot not in cores
    ]
    results: List[Optional[SimulationResult]] = [None] * len(predictors)
    for slot, result in zip(order, _replay_lanes(
        [predictors[slot] for slot in order],
        len(cores),
        trace,
        ras_depth,
        warmup_records,
        collect_per_pc,
        derived,
        checkpoint_every,
        [sinks[slot] for slot in order],
        resume_from,
        counters,
    )):
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
    on_cores: int,
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
    """Replay ``lanes``, the first ``on_cores`` of them on the compiled
    cores and the rest through the predictions-only driver, then apply
    the retirement rule of :mod:`repro.sim.retire`.

    Over a plane (``derived``, already checked against the trace) the
    core lanes replay in one :func:`repro.sim.kernel.simulate_columnar_many`
    call, and the scalar lanes predict the whole trace in one pass, over
    the plane's indirect records alone when no lane overrides a hook;
    :func:`~repro.sim.retire.score_plane` scores each lane.  Without
    one, they predict a span at a time (``checkpoint_every`` records,
    or the whole trace), the core lanes in one
    :func:`repro.sim.kernel.replay_cores` call over the span's columns,
    and :func:`~repro.sim.retire.retire_span` retires each span into one
    live-RAS state, which ``resume_from`` restores and each checkpoint
    snapshots.  ``counters`` profiles the pass: its phase timers wrap
    the scalar lanes' calls only.
    """
    cond_hooks, retire_hooks, engines = _lane_calls(lanes[on_cores:])
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
    calls = (cond_hooks, retire_hooks, engines)
    total = len(trace)
    started_at = 0
    loop_started = time.perf_counter()

    if on_cores:
        from repro.sim import kernel

    if derived is not None:
        results = kernel.simulate_columnar_many(
            lanes[:on_cores], trace, ras_depth=ras_depth,
            warmup_records=warmup_records, collect_per_pc=collect_per_pc,
            derived=derived,
        ) if on_cores else []
        if engines:
            targets = derived.indirect_targets.tolist()
            if cond_hooks or retire_hooks:
                columns = trace.scalar_columns()
            else:
                # Every record hookless lanes act on is in the plane's
                # indirect columns.
                index = derived.indirect_idx
                columns = (
                    derived.indirect_pcs.tolist(),
                    trace.types[index].tolist(),
                    trace.takens[index].tolist(),
                    targets,
                )
            results += [
                score_plane(
                    trace, derived, predictor.name,
                    np.fromiter(map(ne, predicted, targets), bool,
                                len(targets)),
                    warmup_records, collect_per_pc,
                )
                for predictor, predicted in zip(
                    lanes[on_cores:], _predict(calls, *columns)
                )
            ]
    else:
        state = Retirement(
            len(lanes), ras_depth, warmup_records, collect_per_pc
        )
        if resume_from is not None:
            if resume_from.cursor > total:
                raise ValueError(
                    f"checkpoint cursor {resume_from.cursor} beyond trace "
                    f"length {total}"
                )
            state.restore(resume_from, trace.name, lanes[0])
            started_at = state.cursor
        if engines:
            columns = trace.scalar_columns()
        # The records retire_span reads, found without a Python pass.
        branch_idx = np.flatnonzero(trace.types != _COND)
        span = checkpoint_every or total
        while state.cursor < total:
            lower = state.cursor
            upper = min(lower + span, total)
            first, last = np.searchsorted(branch_idx, (lower, upper))
            at = branch_idx[first:last]
            branches = list(zip(
                (at - lower).tolist(), trace.pcs[at].tolist(),
                trace.types[at].tolist(), trace.targets[at].tolist(),
            ))
            predicted = [
                kernel.predicted_targets(output)
                for output in kernel.replay_cores(
                    lanes[:on_cores], kernel.trace_columns(trace, lower, upper)
                )
            ] if on_cores else []
            if engines:
                if upper - lower < total:
                    span_columns = [column[lower:upper] for column in columns]
                else:
                    span_columns = columns  # the whole trace: no copies
                predicted += _predict(calls, *span_columns)
            retire_span(state, predicted, branches, upper - lower)
            if checkpoint_every and state.cursor < total:
                for slot, predictor in enumerate(lanes):
                    if sinks[slot]:
                        snapshot = state.checkpoint(slot, trace.name, predictor)
                        for sink in sinks[slot]:
                            sink(snapshot)
        total_instructions = trace.total_instructions()
        results = [
            state.result(slot, trace.name, predictor.name, total_instructions)
            for slot, predictor in enumerate(lanes)
        ]

    if cell is not None:
        cell.elapsed_seconds = time.perf_counter() - loop_started
        # Only the records this process actually replayed (a resumed
        # cell's profile measures its own work, not the whole trace).
        cell.records = total - started_at
        cell.conditionals = results[0].conditional_branches
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
