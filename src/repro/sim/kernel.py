"""The columnar batch simulation kernel (``backend="columnar"``).

The scalar engine retires branches one at a time through Python; the
columnar kernels replay the same simulation as one compiled call per
predictor over the trace's columns (:mod:`repro.sim.native`).  The
result — predictor state, per-branch predictions, every counter — is
bit-identical to the scalar loop (pinned by the equivalence suite over
the full workload suite); only where the arithmetic runs changes.

Each core is *whole-lane*: it walks the records in retirement order and
updates the predictor's own buffers in place, so Python only marshals
the state on the way in and out and counts the result.  For BLBP the
``blbp_replay_many`` core folds the global-history intervals (pending
bits and flushes included), shifts and hashes the local-history
registers, probes and fills the IBTB with its region array, and runs
the weight/θ recurrence; the IBTB's flat fields and the region array
live in ``array('q')`` buffers the core writes directly.
A solo run is a one-lane call, and every BLBP lane of a fused group
goes into one multi-lane call.  :func:`replay_blbp` (and
:func:`repro.sim.kernel_ittage.replay_ittage`) do the marshalling once
for both callers: they take a :class:`ReplayColumns` run — a trace's
columns in a campaign, one message's in ``repro serve`` — and return
the per-indirect out-arrays.  Without the compiled cores,
:func:`columnar_support` reports why and callers run the scalar oracle
instead.

This module is the front door for every columnar predictor, not just
BLBP: :func:`columnar_support` reports whether — and *why not* — a
predictor can be replayed columnar, and :func:`simulate_columnar_many`,
the one columnar entry point, replays a group of one or more
predictors over one trace, dispatching ITTAGE and VPC lanes to their
kernels (:mod:`repro.sim.kernel_ittage`, :mod:`repro.sim.kernel_vpc`).
VPC's virtual-PC tables come from a :class:`SharedPrecompute` cached
per trace content.

The engine's backend dispatch (behind :func:`repro.sim.engine.simulate`
and :func:`repro.sim.engine.simulate_many`) only needs this module's
``columnar_support`` / ``simulate_columnar_many`` pair; new
per-predictor kernels slot in by extending the registry in
:func:`columnar_support`.
"""

from __future__ import annotations

import ctypes
from array import array
from collections import OrderedDict
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.common.hashing import GlobalHistoryRegister
from repro.cond.mpp import MultiperspectivePerceptron
from repro.core.blbp import BLBP
from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCPredictor
from repro.sim import native
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane, compute_derived
from repro.trace.record import BranchType
from repro.trace.stream import Trace

_CONDITIONAL = int(BranchType.CONDITIONAL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)

#: One replayed lane's per-indirect out-arrays: the predicted target
#: (u64) and whether a prediction was made (u8; 0 means ``None``).
LaneOutput = Tuple[np.ndarray, np.ndarray]

#: Exact predictor types with a columnar kernel, and the kernel's name.
#: The kernels replicate each type's architectural state transitions;
#: subclasses may override hooks a kernel cannot see, so the checks are
#: intentionally exact-type.
_KERNELS: Dict[type, str] = {
    BLBP: "BLBP columnar kernel (repro.sim.kernel)",
    ITTAGE: "ITTAGE columnar kernel (repro.sim.kernel_ittage)",
    VPCPredictor: "VPC columnar kernel (repro.sim.kernel_vpc)",
}


def columnar_support(predictor: object) -> Tuple[bool, str]:
    """Whether the columnar kernels can replay ``predictor``, and why.

    Returns ``(True, "<kernel name>")`` for supported predictors and
    ``(False, "<actionable reason>")`` otherwise — the reason string is
    what the engine's fallback warning surfaces, so it names both the
    offending type (or the missing compiled cores) and the remedy.
    This is the one place that decides: every columnar replay runs
    through the compiled cores in :mod:`repro.sim.native`, so a host
    that cannot build them runs the scalar oracle instead.
    """
    kind = type(predictor)
    blocker = _BLOCKERS.get(kind, lambda _: None)(predictor)
    if blocker is not None:
        return False, blocker
    if kind in _KERNELS:
        missing = native.unavailable_reason()
        if missing is not None:
            return False, (
                f"the {kind.__name__} columnar kernel needs the compiled "
                f"replay cores, which are unavailable: {missing}.  "
                f"Install a C compiler (or point CC at one), or use the "
                f"scalar backend."
            )
        return True, _KERNELS[kind]
    supported_names = ", ".join(t.__name__ for t in _KERNELS)
    for base in _KERNELS:
        if isinstance(predictor, base):
            return False, (
                f"{kind.__name__} subclasses {base.__name__}, but the "
                f"columnar kernels are exact-type: a subclass may "
                f"override hooks the kernel cannot see.  Use the scalar "
                f"backend, or register a dedicated kernel for "
                f"{kind.__name__}."
            )
    return False, (
        f"{kind.__name__} has no columnar kernel (supported exact "
        f"types: {supported_names}).  Use the scalar backend for this "
        f"predictor."
    )


def _blbp_blocker(predictor: BLBP) -> Optional[str]:
    """Why the BLBP kernel cannot replay ``predictor``, or None."""
    config = predictor.config
    if config.use_hierarchical_ibtb:
        return (
            "the BLBP columnar kernel replays the flat IBTB only, and this "
            "BLBP uses the hierarchical IBTB (use_hierarchical_ibtb=True, "
            "the paper's section 6 future-work variant).  It runs on the "
            "scalar backend."
        )
    if config.local_history_bits > 64:
        return (
            f"the BLBP columnar kernel holds each local history in 64 "
            f"bits, and this BLBP has local_history_bits="
            f"{config.local_history_bits}.  Use the scalar backend for it."
        )
    if config.low_bit + config.num_target_bits > 64:
        return (
            f"the BLBP columnar kernel predicts target bits below bit 64, "
            f"and this BLBP predicts bits {config.low_bit} to "
            f"{config.low_bit + config.num_target_bits - 1}.  Use the "
            f"scalar backend for it."
        )
    return None


def _ittage_blocker(predictor: ITTAGE) -> Optional[str]:
    """Why the ITTAGE kernel cannot replay ``predictor``, or None."""
    config = predictor.config
    if (
        config.path_bits > 64
        or config.target_bits_per_indirect > 64
        or config.u_reset_period < 1
    ):
        return (
            f"the ITTAGE columnar kernel needs path_bits and "
            f"target_bits_per_indirect of at most 64 and a positive "
            f"u_reset_period, and this ITTAGE has {config.path_bits}, "
            f"{config.target_bits_per_indirect} and "
            f"{config.u_reset_period}.  Use the scalar backend for it."
        )
    return None


def _vpc_blocker(predictor: VPCPredictor) -> Optional[str]:
    """Why the VPC kernel cannot replay ``predictor``, or None.

    The ``vpc_replay`` core runs VPC's conditional predictor itself, and
    it implements exactly :class:`MultiperspectivePerceptron`.
    """
    conditional = predictor.conditional
    if type(conditional) is not MultiperspectivePerceptron:
        return (
            f"the VPC columnar kernel compiles only an exact "
            f"MultiperspectivePerceptron conditional predictor, and this "
            f"VPCPredictor's conditional is {type(conditional).__name__}.  "
            f"Use the scalar backend for it."
        )
    if conditional._local.history_bits > 64:
        return (
            f"the VPC columnar kernel holds each local history in 64 "
            f"bits, and this MultiperspectivePerceptron has local_bits="
            f"{conditional._local.history_bits}.  Use the scalar backend "
            f"for it."
        )
    return None


#: Per exact type: why a configuration has no kernel, or None.
_BLOCKERS: Dict[type, Callable[[object], Optional[str]]] = {
    BLBP: _blbp_blocker,
    ITTAGE: _ittage_blocker,
    VPCPredictor: _vpc_blocker,
}


# ----------------------------------------------------------------------
# Shared precompute
# ----------------------------------------------------------------------


class SharedPrecompute:
    """Keyed cache of trace-pure precompute artifacts for one trace.

    One instance wraps one derived plane (one ``(trace content,
    ras_depth)`` identity) and memoizes what the VPC kernel derives
    from it: the distinct indirect PCs, the virtual-PC tables and the
    merged event stream.  Keys embed everything an artifact depends on
    beyond the trace, so repeated runs over the same trace share work
    exactly when sharing is bit-safe.

    Artifacts are read-only by convention; nothing in the cache is ever
    mutated after construction.
    """

    __slots__ = ("derived", "_artifacts")

    def __init__(self, derived: DerivedPlane) -> None:
        self.derived = derived
        self._artifacts: Dict[tuple, object] = {}

    def get(self, key: tuple, builder: Callable[[], object]) -> object:
        """The artifact under ``key``, building it on first use."""
        try:
            return self._artifacts[key]
        except KeyError:
            value = builder()
            self._artifacts[key] = value
            return value


#: Process-level LRU of shared precomputes, keyed by trace content.
#: Capacity is deliberately tiny: campaigns iterate predictors over one
#: trace at a time, so two entries cover the hot pattern (current trace
#: plus one straggler).
_SHARED_CAPACITY = 2
_SHARED_CACHE: "OrderedDict[Tuple[str, int], SharedPrecompute]" = OrderedDict()


def shared_precompute(
    trace: Trace,
    ras_depth: int = 32,
    derived: Optional[DerivedPlane] = None,
) -> SharedPrecompute:
    """The shared precompute for ``trace``, reused across calls.

    Keyed by ``(derived content hash, ras_depth)``, so repeated
    simulations of the same trace — successive cells of a campaign,
    successive generations of a search — skip the trace-pure passes
    entirely no matter which Trace instance carries the content.
    """
    if derived is None:
        derived = compute_derived(trace, ras_depth)
    key = (derived.content_hash, ras_depth)
    entry = _SHARED_CACHE.get(key)
    if entry is not None and entry.derived.matches(trace, ras_depth):
        _SHARED_CACHE.move_to_end(key)
        return entry
    entry = SharedPrecompute(derived)
    _SHARED_CACHE[key] = entry
    _SHARED_CACHE.move_to_end(key)
    while len(_SHARED_CACHE) > _SHARED_CAPACITY:
        _SHARED_CACHE.popitem(last=False)
    return entry


# ----------------------------------------------------------------------
# Marshalling shared by the BLBP and ITTAGE kernels
# ----------------------------------------------------------------------


def buffer_address(buffer) -> int:
    """Address of a buffer handed to a core: an :class:`array.array`,
    or a writable C-contiguous numpy array (a read-only one raises
    ``TypeError``).  A serve message pays this per
    buffer and call, and it costs a fraction of
    ``ndarray.ctypes.data``."""
    if isinstance(buffer, array):
        return buffer.buffer_info()[0]
    return ctypes.addressof(ctypes.c_char.from_buffer(buffer))


class ReplayColumns(NamedTuple):
    """A run of records as a whole-lane core walks it: the addresses of
    its type (u8), PC (u64), taken (one byte each) and target (u64)
    columns, with the counts its write-back needs.  ``buffers`` keeps
    the columns alive while the addresses are in use."""

    records: int
    addresses: Tuple[int, int, int, int]
    conditionals: int
    indirects: int
    buffers: tuple


def trace_columns(trace: Trace, derived: DerivedPlane) -> ReplayColumns:
    """A trace's columns, counted by its derived plane."""
    columns = (trace.types, trace.pcs, trace.takens, trace.targets)
    return ReplayColumns(
        len(trace), tuple(column.ctypes.data for column in columns),
        derived.conditionals, len(derived.indirect_idx), columns,
    )


def event_columns(
    events: Sequence[Tuple[int, int, bool, int, int]],
) -> ReplayColumns:
    """A non-empty run of serve events ``(pc, type, taken, target,
    gap)`` as columns.

    Built as :class:`array.array` buffers, whose address costs a
    fraction of a numpy array's: this runs once per serve message.
    """
    pcs, types, takens, targets, _ = zip(*events)
    columns = (
        array("B", types), array("Q", pcs), array("B", takens),
        array("Q", targets),
    )
    return ReplayColumns(
        len(events), tuple(buffer_address(column) for column in columns),
        types.count(_CONDITIONAL),
        types.count(_INDIRECT_JUMP) + types.count(_INDIRECT_CALL),
        columns,
    )


def history_buffers(
    history: GlobalHistoryRegister,
) -> Tuple[array, array, array]:
    """A history register as the cores read it: the ``(start, end,
    width)`` span and current value of every fold, and the unmasked
    register (pending bits included) as little-endian words, sized for
    the core to write it back."""
    words = (history._capacity + 1024 + 63) // 64 + 1
    spans = array("q", [
        value for entry in history._fold_batch for value in entry[1:4]
    ])
    folds = array("Q", [fold.fold for fold in history._folds])
    ghist = array("Q", history._ghist.to_bytes(8 * words, "little"))
    return spans, folds, ghist


def restore_history(
    history: GlobalHistoryRegister,
    pending: int,
    folds: array,
    ghist: array,
    pushed: int,
) -> None:
    """Write a replayed register back: the unmasked bits, the pending
    count, the folds as of the last flush, and the fold updates the
    flushes in between performed."""
    history.stat_fold_updates += (
        history._pending + pushed - pending
    ) * history._num_folds
    history._ghist = int.from_bytes(ghist.tobytes(), "little")
    history._pending = pending
    for fold, value in zip(history._folds, folds.tolist()):
        fold.fold = value


def lane_output(predictions: array, valid: array) -> LaneOutput:
    """A core's per-indirect out-buffers as numpy arrays (no copy)."""
    return (
        np.frombuffer(predictions, dtype=np.uint64),
        np.frombuffer(valid, dtype=np.uint8),
    )


def lane_result(
    predictor: object,
    trace: Trace,
    derived: DerivedPlane,
    predictions: np.ndarray,
    valid: np.ndarray,
    warmup_records: int,
    collect_per_pc: bool,
    prediction_sink: Optional[Dict[str, np.ndarray]],
) -> SimulationResult:
    """A replayed lane's result, with the scalar loop's accounting."""
    indirect_idx = np.asarray(derived.indirect_idx)
    prediction_valid = valid.astype(bool)
    if prediction_sink is not None:
        prediction_sink["indirect_idx"] = indirect_idx.copy()
        prediction_sink["valid"] = prediction_valid
        prediction_sink["predictions"] = predictions

    counted = indirect_idx >= warmup_records
    mispredicted = counted & (
        ~prediction_valid | (predictions != derived.indirect_targets)
    )
    by_pc: Dict[int, int] = {}
    if collect_per_pc and mispredicted.any():
        miss_pcs, miss_counts = np.unique(
            derived.indirect_pcs[mispredicted], return_counts=True
        )
        by_pc = {
            int(pc): int(count)
            for pc, count in zip(miss_pcs.tolist(), miss_counts.tolist())
        }

    return_indices = np.asarray(derived.return_idx)
    returns = 0
    return_mispredictions = 0
    if len(return_indices):
        counted_returns = return_indices >= warmup_records
        returns = int(np.count_nonzero(counted_returns))
        return_mispredictions = int(
            np.count_nonzero(
                counted_returns & (np.asarray(derived.return_ok) == 0)
            )
        )

    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor.name,
        total_instructions=trace.total_instructions(),
        indirect_branches=int(np.count_nonzero(counted)),
        indirect_mispredictions=int(np.count_nonzero(mispredicted)),
        return_branches=returns,
        return_mispredictions=return_mispredictions,
        conditional_branches=derived.conditionals,
        mispredictions_by_pc=by_pc,
    )


# ----------------------------------------------------------------------
# The BLBP kernel
# ----------------------------------------------------------------------


class _BLBPLane(ctypes.Structure):
    """One lane of ``blbp_replay_many``: ``blbp_lane_t`` in
    ``cores/blbp.c``, field for field."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "bits", "low_bit", "banks", "table_rows", "lut_offset",
            "magnitude", "counter_max", "counter_min", "adaptive",
            "selective", "use_local", "local_entries", "local_bits",
            "local_target_bit", "history_bits", "pending", "ibtb_sets",
            "ibtb_ways", "ibtb_tag_bits", "rrpv_max", "region_entries",
            "region_offset_bits", "trained",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "fold_spans", "folds", "ghist", "local", "lut", "weights",
            "theta", "counter", "ibtb_tags", "ibtb_regions",
            "ibtb_generations", "ibtb_offsets", "ibtb_rrpv", "region_high",
            "region_generation", "region_stamp", "region_counters",
            "predictions", "valid",
        )
    ]


def _prepare_blbp(predictor: BLBP, columns: ReplayColumns) -> dict:
    """One lane's state as ``blbp_replay_many`` reads and writes it over
    ``columns``: the predictor's own buffers where it keeps them flat,
    copies of the rest for :func:`_finish_blbp` to write back."""
    config = predictor.config
    histories = predictor.histories
    threshold = predictor.threshold
    transfer = predictor.transfer
    ibtb = predictor.ibtb
    regions = ibtb.regions
    # The core walks a raw C-order weight tensor and updates it in place.
    if not predictor.weights.weights.flags.c_contiguous:
        predictor.weights.weights = np.ascontiguousarray(
            predictor.weights.weights
        )
    spans, folds, ghist = history_buffers(histories)
    # The copies are array.array buffers (see buffer_address).
    copies = {
        "spans": spans,
        "folds": folds,
        "ghist": ghist,
        "local": array("Q", histories._local._table),
        "lut": np.ascontiguousarray(transfer._lut, dtype=np.int32),
        # The scalar path's per-bit threshold updates run on lists,
        # which index faster than any buffer; the core gets copies.
        "theta": array("q", threshold._theta),
        "counter": array("q", threshold._counter),
        "region_counters": array("q", (regions._clock, regions.evictions)),
        "predictions": array("Q", bytes(8 * columns.indirects)),
        "valid": array("B", bytes(columns.indirects)),
    }
    lane = _BLBPLane(
        bits=config.num_target_bits,
        low_bit=config.low_bit,
        banks=config.num_subpredictors,
        table_rows=config.table_rows,
        lut_offset=transfer.magnitude_max,
        magnitude=predictor.weights.magnitude,
        counter_max=threshold._max,
        counter_min=threshold._min,
        adaptive=int(threshold.adaptive),
        selective=int(config.use_selective_update),
        use_local=int(config.use_local_history),
        local_entries=histories._local.num_entries,
        local_bits=histories._local.history_bits,
        local_target_bit=config.local_target_bit,
        history_bits=histories._capacity,
        pending=histories._pending,
        ibtb_sets=ibtb.num_sets,
        ibtb_ways=ibtb.num_ways,
        ibtb_tag_bits=ibtb.tag_bits,
        rrpv_max=ibtb._max,
        region_entries=regions.num_entries,
        region_offset_bits=regions.offset_bits,
        trained=0,
        fold_spans=buffer_address(spans),
        folds=buffer_address(folds),
        ghist=buffer_address(ghist),
        local=buffer_address(copies["local"]),
        lut=copies["lut"].ctypes.data,
        weights=buffer_address(predictor.weights.weights),
        theta=buffer_address(copies["theta"]),
        counter=buffer_address(copies["counter"]),
        ibtb_tags=buffer_address(ibtb._tags),
        ibtb_regions=buffer_address(ibtb._regions),
        ibtb_generations=buffer_address(ibtb._generations),
        ibtb_offsets=buffer_address(ibtb._offsets),
        ibtb_rrpv=buffer_address(ibtb._rrpv),
        region_high=buffer_address(regions._high_bits),
        region_generation=buffer_address(regions._generation),
        region_stamp=buffer_address(regions._stamps),
        region_counters=buffer_address(copies["region_counters"]),
        predictions=buffer_address(copies["predictions"]),
        valid=buffer_address(copies["valid"]),
    )
    return {"predictor": predictor, "columns": columns, "lane": lane, **copies}


def _replay_blbp_group(preps: List[dict]) -> None:
    """Replay every prepared BLBP lane over their one run of columns in
    one call into ``blbp_replay_many``; a solo run is a one-lane group."""
    columns = preps[0]["columns"]
    lanes = (_BLBPLane * len(preps))(*(prep["lane"] for prep in preps))
    status = native.load("blbp_replay_many")(
        len(preps), ctypes.addressof(lanes), columns.records,
        *columns.addresses,
    )
    if status:
        raise MemoryError("blbp_replay_many: out of memory")
    # The core wrote its outputs into the array's copies of the lanes.
    for prep, lane in zip(preps, lanes):
        prep["lane"] = lane


def _finish_blbp(prep: dict) -> None:
    """Write back the state the core replayed in copies, and the
    hot-path counters."""
    predictor = prep["predictor"]
    lane = prep["lane"]
    histories = predictor.histories
    histories._local._table = prep["local"].tolist()
    predictor.threshold._theta = prep["theta"].tolist()
    predictor.threshold._counter = prep["counter"].tolist()
    restore_history(
        histories, lane.pending, prep["folds"], prep["ghist"],
        prep["columns"].conditionals,
    )
    ibtb = predictor.ibtb
    ibtb.regions._clock, ibtb.regions.evictions = (
        prep["region_counters"].tolist()
    )
    ibtb._reindex()
    branches = len(prep["predictions"])
    predictor.stat_predictions += branches
    predictor.stat_ibtb_probes += branches
    predictor.stat_trained_bits += lane.trained


def replay_blbp(
    predictors: Sequence[BLBP], columns: ReplayColumns
) -> List[LaneOutput]:
    """Replay BLBP lanes over one run of columns in one
    ``blbp_replay_many`` call and write each predictor's state back.

    Returns each lane's per-indirect ``(predictions, valid)``.  Campaigns
    pass a trace's columns, serve a message's.
    """
    preps = [_prepare_blbp(predictor, columns) for predictor in predictors]
    _replay_blbp_group(preps)
    for prep in preps:
        _finish_blbp(prep)
    return [lane_output(prep["predictions"], prep["valid"]) for prep in preps]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def simulate_columnar_many(
    predictors: List[object],
    trace: Trace,
    ras_depth: int = 32,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    derived: Optional[DerivedPlane] = None,
    prediction_sinks: Optional[
        List[Optional[Dict[str, np.ndarray]]]
    ] = None,
) -> List[SimulationResult]:
    """Fused columnar replay of many predictors over one trace.

    Every BLBP lane goes into one multi-lane ``blbp_replay_many`` call
    over the trace's columns; ITTAGE and VPC lanes replay through their
    own cores, VPC against a :class:`SharedPrecompute` cached per trace
    content.

    This is the one columnar entry point; a solo run is a one-lane
    call.  Results are positionally aligned with ``predictors`` and each
    is bit-identical to ``simulate(predictor, trace, ...)``: the same
    predictions, the same counters, and the same final predictor state
    (``state_dict`` / ``state_hash`` equal).  Lanes are fully
    independent, and a lane may be warm — mid-campaign state, restored
    snapshots — since the cores start from the live registers.  Raises
    ``TypeError`` with the :func:`columnar_support` reason if any
    predictor lacks a kernel — callers mixing supported and unsupported
    predictors must split the group (``repro.sim.engine.simulate_many``
    does exactly that).

    ``prediction_sinks``, when given, holds one dict (or ``None``) per
    lane; each dict receives that lane's per-branch arrays after replay
    — ``indirect_idx`` (record index of every indirect branch),
    ``valid`` (whether a prediction was made), and ``predictions`` (the
    predicted target per branch) — letting equivalence tests assert
    per-branch lockstep against the scalar loop rather than just
    aggregate counts.
    """
    for predictor in predictors:
        supported, reason = columnar_support(predictor)
        if not supported:
            raise TypeError(reason)
    if derived is None:
        derived = compute_derived(trace, ras_depth)
    else:
        derived.check(trace, ras_depth)
    count = len(predictors)
    if prediction_sinks is None:
        sinks: List[Optional[Dict[str, np.ndarray]]] = [None] * count
    else:
        sinks = list(prediction_sinks)
        if len(sinks) != count:
            raise ValueError(
                f"prediction_sinks has {len(sinks)} entries for "
                f"{count} predictors"
            )

    results: List[Optional[SimulationResult]] = [None] * count
    columns = trace_columns(trace, derived)

    def finish(position: int, output: LaneOutput) -> None:
        results[position] = lane_result(
            predictors[position], trace, derived, *output, warmup_records,
            collect_per_pc, sinks[position],
        )

    blbp = [
        position for position, predictor in enumerate(predictors)
        if type(predictor) is BLBP
    ]
    if blbp:
        outputs = replay_blbp([predictors[p] for p in blbp], columns)
        for position, output in zip(blbp, outputs):
            finish(position, output)

    from repro.sim.kernel_ittage import replay_ittage
    from repro.sim.kernel_vpc import simulate_columnar_vpc

    for position, predictor in enumerate(predictors):
        if type(predictor) is ITTAGE:
            finish(position, replay_ittage(predictor, columns))
        elif type(predictor) is VPCPredictor:
            results[position] = simulate_columnar_vpc(
                predictor,
                trace,
                derived,
                shared_precompute(trace, ras_depth, derived),
                warmup_records=warmup_records,
                collect_per_pc=collect_per_pc,
                prediction_sink=sinks[position],
            )
    return results
