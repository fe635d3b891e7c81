"""The columnar batch simulation kernel (``backend="columnar"``).

The scalar engine retires branches one at a time through Python; this
module replays the same simulation as a handful of whole-trace numpy
tensor passes over the RPDERIV1 derived plane, followed by one compiled
retirement-order replay of the prediction-dependent state.  The result
— predictor state, per-branch predictions, every counter — is
bit-identical to the scalar loop (pinned by the equivalence suite over
the full workload suite); only the schedule of the arithmetic changes.

The kernel exploits a structural property of BLBP: almost everything the
scalar loop computes per branch is a pure function of the *trace*, not
of earlier predictions.

* **Global-history folds.**  The fold register for interval ``[s, e)``
  after ``c`` stream bits equals an XOR over a contiguous window of the
  outcome stream, with each bit pre-rotated by its stream position.
  One prefix-XOR row turns every (branch, interval) fold into two
  lookups and a rotation by the fold phase — no sequential state.
  An initial, possibly warm, history register is handled by prepending
  its bits to the stream as a virtual prefix.
* **Local histories.**  Per local-table slot, the register seen by each
  branch is a sliding window over (initial register bits ++ pushed
  target bits) — one vectorized window product per slot.
* **IBTB.**  Candidate sets evolve from actual targets only, never from
  predictions, so a single cheap structural replay in retirement order
  yields every branch's candidate-set snapshot up front.
* **Weights and θ.**  These *are* prediction-dependent, so they replay
  in retirement order through the compiled ``blbp_replay_many`` core
  (:mod:`repro.sim.native`) over the precomputed planes: a solo run is
  a one-lane call, a fused group of compatible lanes one multi-lane
  call.  Without the compiled cores, :func:`columnar_support` reports
  why and callers run the scalar oracle instead.

This module is the front door for every columnar predictor, not just
BLBP: :func:`columnar_support` reports whether — and *why not* — a
predictor can be replayed columnar, and :func:`simulate_columnar_many`,
the one columnar entry point, replays a group of one or more
predictors against one :class:`SharedPrecompute` pass (fold prefix
tables, IBTB candidate tensors, hash-mix planes and derived-plane
loads computed once per trace and shared across lanes, keyed by trace
content hash).  It advances groups of compatible BLBP lanes
lane-parallel through the compiled ``blbp_replay_many`` core and
dispatches ITTAGE and VPC lanes to their kernels
(:mod:`repro.sim.kernel_ittage`, :mod:`repro.sim.kernel_vpc`).

The engine's backend dispatch (behind :func:`repro.sim.engine.simulate`
and :func:`repro.sim.engine.simulate_many`) only needs this module's
``columnar_support`` / ``simulate_columnar_many`` pair; new
per-predictor kernels slot in by extending the registry in
:func:`columnar_support`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc, stable_hash64
from repro.cond.mpp import MultiperspectivePerceptron
from repro.core.blbp import BLBP
from repro.core.ibtb import IndirectBTB
from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCPredictor
from repro.sim import native
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane, compute_derived
from repro.trace.stream import Trace

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
    what ``--backend columnar-strict`` errors and fallback warnings
    surface, so it names both the offending type (or the missing
    compiled cores) and the remedy.  This is the one place that
    decides: every columnar replay runs through the compiled cores in
    :mod:`repro.sim.native`, so a host that cannot build them runs the
    scalar oracle instead.
    """
    kind = type(predictor)
    if kind is VPCPredictor:
        blocker = _vpc_conditional_blocker(predictor.conditional)
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


def _vpc_conditional_blocker(conditional: object) -> Optional[str]:
    """Why the VPC kernel cannot replay ``conditional``, or None.

    The ``vpc_replay`` core runs VPC's conditional predictor itself, and
    it implements exactly :class:`MultiperspectivePerceptron`.
    """
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


# ----------------------------------------------------------------------
# Shared precompute
# ----------------------------------------------------------------------


class SharedPrecompute:
    """Keyed cache of trace-pure precompute artifacts for one trace.

    One instance wraps one derived plane (one ``(trace content,
    ras_depth)`` identity) and memoizes every artifact the kernels
    derive from it: prefix-XOR fold tables, per-salt hash-mix planes
    over the distinct indirect PCs, local-register windows, IBTB
    candidate tensors, ITTAGE index/tag streams, VPC virtual-PC
    tables.  Keys embed everything an artifact depends on beyond the
    trace (initial register values, geometry, bit widths), so lanes of
    a fused group — or repeated solo runs over the same trace — share
    work exactly when sharing is bit-safe, and two lanes whose keys
    match receive the *same object*, which is what the multi-lane
    replay uses to decide groupability.

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
#: plus one straggler) while bounding the fold tables held alive.
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


def _validated_derived(
    trace: Trace, ras_depth: int, derived: Optional[DerivedPlane]
) -> DerivedPlane:
    if derived is None:
        return compute_derived(trace, ras_depth)
    if not derived.matches(trace, ras_depth):
        raise ValueError(
            f"derived plane is for {derived.trace_name!r} "
            f"({derived.records} records, ras_depth={derived.ras_depth}), "
            f"not {trace.name!r} ({len(trace)} records, "
            f"ras_depth={ras_depth})"
        )
    return derived


# ----------------------------------------------------------------------
# Trace-pure precomputation
# ----------------------------------------------------------------------


def _history_stream(
    ghist0: int, pending0: int, history_bits: int, outcomes: np.ndarray
) -> np.ndarray:
    """The full history stream, oldest first: virtual prefix ++ trace.

    The virtual prefix is the initial (possibly unmasked, ``pending0``
    bits wide beyond capacity) global-history register, so a kernel run
    over a warm predictor sees exactly the history the scalar loop would.
    BLBP passes its conditional outcomes, ITTAGE its whole push stream.
    """
    prefix_bits = history_bits + pending0
    if prefix_bits:
        nbytes = (prefix_bits + 7) // 8
        raw = np.frombuffer(
            ghist0.to_bytes(nbytes, "big"), dtype=np.uint8
        )
        pre = np.unpackbits(raw)[8 * nbytes - prefix_bits :]
    else:  # pragma: no cover - history_bits >= 1 by config validation
        pre = np.empty(0, dtype=np.uint8)
    return np.concatenate([pre, outcomes.astype(np.uint8)])


def _fold_prefix_tables(ext: np.ndarray, width: int) -> np.ndarray:
    """``P[j]`` = XOR of ``ext[u] << (-u % width)`` for u < j.

    One row serves every fold phase: shifting each bit by ``m - u``
    instead is the same row rotated left by ``m`` (see
    :func:`_branch_folds`).
    """
    total = len(ext)
    dtype = np.uint16 if width <= 15 else np.uint32
    table = np.zeros(total + 1, dtype=dtype)
    shifts = (-np.arange(total, dtype=np.int64) % width).astype(dtype)
    table[1:] = np.left_shift(ext.astype(dtype), shifts)
    np.bitwise_xor.accumulate(table, out=table)
    return table


def _branch_folds(
    prefix: np.ndarray,
    consumed: np.ndarray,
    intervals: Tuple[Tuple[int, int], ...],
    width: int,
) -> np.ndarray:
    """Fold values per (branch, interval) from the prefix-XOR row.

    The fold of interval ``[s, e)`` after ``c`` consumed stream bits is
    ``rotl_W(P[c - s] ^ P[c - e], (c - 1 - s) % W)``: each window bit
    ``u`` lands at fold position ``(c - 1 - s - u) % W``, exactly
    :func:`repro.common.hashing.fold_int` over the live register.
    """
    count = len(consumed)
    folds = np.zeros((count, len(intervals)), dtype=np.uint64)
    mask = np.uint64((1 << width) - 1)
    for position, (start, end) in enumerate(intervals):
        phase = ((consumed - 1 - start) % width).astype(np.uint64)
        window = (
            prefix[consumed - start] ^ prefix[consumed - end]
        ).astype(np.uint64)
        folds[:, position] = (
            (window << phase) | (window >> (np.uint64(width) - phase))
        ) & mask
    return folds


def _local_registers(
    slots: np.ndarray,
    push_bits: np.ndarray,
    initial: List[int],
    length: int,
) -> Tuple[np.ndarray, Dict[int, int]]:
    """Per-branch local register at predict time, plus final table values.

    Branches are grouped by local-table *slot* (aliasing PCs share a
    register); within a slot the register before occurrence ``j`` is a
    ``length``-bit sliding window over the initial register's bits
    followed by the slot's pushed target bits.
    """
    count = len(slots)
    registers = np.zeros(count, dtype=np.int64)
    finals: Dict[int, int] = {}
    if count == 0:
        return registers, finals
    weights = (1 << (length - 1 - np.arange(length, dtype=np.int64)))
    order = np.argsort(slots, kind="stable")
    sorted_slots = slots[order]
    boundaries = np.flatnonzero(np.diff(sorted_slots)) + 1
    group_starts = np.concatenate([[0], boundaries, [count]])
    seed_positions = length - 1 - np.arange(length, dtype=np.int64)
    for g in range(len(group_starts) - 1):
        lo, hi = int(group_starts[g]), int(group_starts[g + 1])
        positions = order[lo:hi]
        slot = int(sorted_slots[lo])
        seed = int(initial[slot])
        padded = np.empty(length + (hi - lo), dtype=np.int64)
        padded[:length] = (seed >> seed_positions) & 1
        padded[length:] = push_bits[positions]
        windows = np.lib.stride_tricks.sliding_window_view(padded, length)
        values = windows @ weights
        registers[positions] = values[: hi - lo]
        finals[slot] = int(values[hi - lo])
    return registers, finals


def _hash_registers(registers: np.ndarray) -> np.ndarray:
    """Vectorized ``stable_hash64`` over the small set of register values."""
    unique, inverse = np.unique(registers, return_inverse=True)
    hashes = np.fromiter(
        (stable_hash64(int(value)) for value in unique),
        dtype=np.uint64,
        count=len(unique),
    )
    return hashes[inverse]


def _replay_ibtb(
    predictor: BLBP, pcs: List[int], targets: List[int]
) -> Tuple[np.ndarray, List[Tuple[int, ...]]]:
    """Structural IBTB replay: per-branch candidate-set snapshot ids.

    The IBTB's evolution depends only on actual targets (``ensure``)
    and on lookup-time lazy invalidation — never on predictions — so
    one pass in retirement order reproduces both every branch's
    candidate set *and* the exact final IBTB state.  Returns, per
    branch, an id into the list of distinct candidate-target tuples.
    """
    ibtb = predictor.ibtb
    count = len(pcs)
    set_ids = np.zeros(count, dtype=np.int64)
    # Distinct candidate-target tuples -> their ids, in first-seen order.
    registry: Dict[Tuple[int, ...], int] = {}

    if type(ibtb) is IndirectBTB:
        regions = ibtb.regions
        locate = ibtb._locate
        candidates_of = ibtb._candidates
        rrpv = ibtb._rrpv
        versions = ibtb._versions
        # pc -> (set, tag, target->flat entry, sid, set version, region
        # version): valid while neither version moved.  A hit (RRPV
        # promote) moves neither: two dict probes and two int compares.
        memo: Dict[int, tuple] = {}
        out = set_ids.tolist()
        for position in range(count):
            pc = pcs[position]
            target = targets[position]
            entry = memo.get(pc)
            if (
                entry is None
                or entry[4] != versions[entry[0]]
                or entry[5] != regions.version
            ):
                if entry is None:
                    set_index, tag = locate(pc)
                else:
                    set_index, tag = entry[0], entry[1]
                candidates = candidates_of(set_index, tag)
                key = tuple(stored for _, stored in candidates)
                sid = registry.setdefault(key, len(registry))
                base = set_index * ibtb.num_ways
                entry = (
                    set_index,
                    tag,
                    # reversed: on (impossible-by-construction) duplicate
                    # targets, keep the first way, like the scalar scan.
                    {t: base + way for way, t in reversed(candidates)},
                    sid,
                    versions[set_index],
                    regions.version,
                )
                memo[pc] = entry
            out[position] = entry[3]
            # Inlined IndirectBTB.ensure (hit-promote or fill+insert).
            slot = entry[2].get(target)
            if slot is not None:
                rrpv[slot] = 0
            else:
                ibtb._fill(entry[0], entry[1], target)
        set_ids = np.asarray(out, dtype=np.int64)
    else:
        for position in range(count):
            pc = pcs[position]
            key = tuple(target for _, target in ibtb.lookup(pc))
            set_ids[position] = registry.setdefault(key, len(registry))
            ibtb.ensure(pc, targets[position])
    return set_ids, list(registry)


def _candidate_tensors(
    sets: List[Tuple[int, ...]], bit_shifts: np.ndarray, num_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Padded target/bit-matrix/min/max tensors over the distinct sets.

    Empty sets get columnwise min 1 / max 0 so the selective-training
    ``differs`` computation (min/max against the actual bits) yields
    all-False for them — matching the scalar ``bit_lows is None`` path.
    """
    set_count = len(sets)
    max_targets = max((len(s) for s in sets), default=0)
    width = max(1, max_targets)
    padded = np.zeros((set_count, width), dtype=np.uint64)
    sizes = np.zeros(set_count, dtype=np.int64)
    matrices = np.zeros((set_count, width, num_bits), dtype=np.int32)
    lows = np.ones((set_count, num_bits), dtype=np.int32)
    highs = np.zeros((set_count, num_bits), dtype=np.int32)
    for sid, members in enumerate(sets):
        if not members:
            continue
        targets = np.asarray(members, dtype=np.uint64)
        bits = (
            (targets[:, None] >> bit_shifts[None, :]) & np.uint64(1)
        ).astype(np.int32)
        size = len(members)
        padded[sid, :size] = targets
        sizes[sid] = size
        matrices[sid, :size] = bits
        lows[sid] = bits.min(axis=0)
        highs[sid] = bits.max(axis=0)
    return padded, sizes, matrices, lows, highs


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def _mix_plane(
    shared: SharedPrecompute, unique_pcs: np.ndarray, salt: int
) -> np.ndarray:
    """Per-unique-PC ``mix_pc`` values for ``salt``, shared across lanes
    (and across predictor types — BLBP bank salts and ITTAGE table salts
    draw from the same keyed planes)."""
    return shared.get(
        ("pc-mix", salt),
        lambda: np.fromiter(
            (mix_pc(int(pc), salt=salt) for pc in unique_pcs.tolist()),
            dtype=np.uint64,
            count=len(unique_pcs),
        ),
    )


def _prepare_blbp(
    predictor: BLBP,
    trace: Trace,
    derived: DerivedPlane,
    shared: SharedPrecompute,
) -> dict:
    """All trace-pure planes for one BLBP lane, served from ``shared``.

    Artifacts that depend only on the trace (streams, prefix tables,
    mix planes, candidate tensors, differs/desired bit planes) are
    cached under keys embedding their remaining inputs — initial
    register values, geometry, bit shifts — so fused lanes with equal
    keys receive identical objects; the returned prep dict carries both
    the replay inputs and everything the write-back needs.
    """
    config = predictor.config
    histories = predictor.histories
    threshold = predictor.threshold
    weights = predictor.weights
    transfer = predictor.transfer

    outcomes = shared.get(("cond-outcomes",), derived.conditional_outcomes)
    conditional_count = derived.conditionals
    indirect_idx = shared.get(
        ("indirect-idx",), lambda: np.asarray(derived.indirect_idx)
    )
    branch_count = len(indirect_idx)
    branch_pcs = derived.indirect_pcs
    branch_targets = shared.get(
        ("indirect-targets",), lambda: np.asarray(derived.indirect_targets)
    )

    # --- trace-pure precomputation ------------------------------------
    ghist0 = histories._ghist
    pending0 = histories._pending
    width = histories._fold_bits
    intervals = config.effective_intervals
    intervals_key = tuple(intervals)
    prefix_bits = config.global_history_bits + pending0

    stream_key = (
        "blbp-stream", config.global_history_bits, ghist0, pending0
    )
    prefix = shared.get(
        ("blbp-prefix", stream_key, width),
        lambda: _fold_prefix_tables(
            shared.get(
                stream_key,
                lambda: _history_stream(
                    ghist0, pending0, config.global_history_bits, outcomes
                ),
            ),
            width,
        ),
    )

    pcs_list = shared.get(
        ("pc-list",), lambda: [int(pc) for pc in branch_pcs.tolist()]
    )
    targets_list = shared.get(
        ("target-list",),
        lambda: [int(t) for t in branch_targets.tolist()],
    )

    unique_pcs, pc_inverse = shared.get(
        ("pc-unique",),
        lambda: np.unique(branch_pcs, return_inverse=True),
    )
    bank_count = config.num_subpredictors
    mixes = shared.get(
        ("blbp-mixes", bank_count),
        lambda: np.stack(
            [
                _mix_plane(shared, unique_pcs, salt)
                for salt in range(bank_count)
            ],
            axis=1,
        ),
    )

    num_local = histories._local.num_entries
    slot_of_pc = shared.get(
        ("blbp-slots", num_local, bank_count),
        lambda: (mixes[:, 0] % np.uint64(num_local)).astype(np.int64),
    )
    branch_slots = shared.get(
        ("blbp-branch-slots", num_local, bank_count),
        lambda: slot_of_pc[pc_inverse],
    )

    push_bits = shared.get(
        ("blbp-push-bits", config.local_target_bit),
        lambda: (
            (branch_targets >> np.uint64(config.local_target_bit))
            & np.uint64(1)
        ).astype(np.int64),
    )
    local_key = (
        "blbp-local",
        config.local_history_bits,
        num_local,
        config.local_target_bit,
        tuple(histories._local._table),
    )
    registers, final_registers = shared.get(
        local_key,
        lambda: _local_registers(
            branch_slots,
            push_bits,
            histories._local._table,
            config.local_history_bits,
        ),
    )

    cond_before = shared.get(
        ("cond-before",),
        lambda: np.searchsorted(
            np.asarray(derived.cond_idx), indirect_idx
        ),
    )
    consumed = cond_before + prefix_bits
    folds = shared.get(
        ("blbp-folds", stream_key, width, intervals_key),
        lambda: _branch_folds(prefix, consumed, intervals, width),
    )

    table_rows = config.table_rows
    use_local = config.use_local_history
    rows_key = (
        "blbp-rows",
        stream_key,
        width,
        intervals_key,
        table_rows,
        bank_count,
        local_key if use_local else None,
    )

    def _build_rows() -> np.ndarray:
        built = np.empty((branch_count, bank_count), dtype=np.int64)
        mix0 = mixes[pc_inverse, 0]
        if use_local:
            mix0 = mix0 ^ _hash_registers(registers)
        built[:, 0] = (mix0 % np.uint64(table_rows)).astype(np.int64)
        for position in range(len(intervals)):
            mixed = mixes[pc_inverse, position + 1] ^ folds[:, position]
            built[:, position + 1] = (
                mixed % np.uint64(table_rows)
            ).astype(np.int64)
        return built

    rows = shared.get(rows_key, _build_rows)

    # The flat IBTB is keyed by its content and written back unchecked;
    # the hierarchical one by its canonical hash and snapshot.
    ibtb = predictor.ibtb
    flat = type(ibtb) is IndirectBTB
    ibtb_key = ("ibtb", type(ibtb).__qualname__,
                ibtb.content_key() if flat else ibtb.state_hash())
    replayed = []

    def _build_ibtb() -> tuple:
        replayed.append(True)
        ids, candidate_sets = _replay_ibtb(predictor, pcs_list, targets_list)
        final = ibtb._flat_state() if flat else ibtb.state_dict()
        return ids, candidate_sets, final

    set_ids, sets, ibtb_final = shared.get(ibtb_key, _build_ibtb)
    # A cache hit skips the structural replay entirely — the IBTB jumps
    # straight to its recorded final state.  A miss leaves it there.
    if not replayed:
        (ibtb._restore_flat if flat else ibtb.load_state)(ibtb_final)

    shifts_key = tuple(int(s) for s in predictor._bit_shifts.tolist())
    num_bits = config.num_target_bits
    padded_targets, set_sizes, bit_matrices, set_lows, set_highs = (
        shared.get(
            ("blbp-candidates", ibtb_key, shifts_key, num_bits),
            lambda: _candidate_tensors(
                sets, predictor._bit_shifts, num_bits
            ),
        )
    )

    bits_key = ("blbp-target-bits", shifts_key)

    def _build_target_bits() -> tuple:
        target_unique, target_inverse = np.unique(
            branch_targets, return_inverse=True
        )
        unique_bits = (
            (target_unique[:, None] >> predictor._bit_shifts[None, :])
            & np.uint64(1)
        ).astype(np.int32)
        actual = unique_bits[target_inverse]
        return actual, actual == 1

    actual_bits, desired_bits = shared.get(bits_key, _build_target_bits)
    if config.use_selective_update:
        differs_key = ("blbp-differs", ibtb_key, shifts_key, num_bits)
        differs_all = shared.get(
            differs_key,
            lambda: (
                np.minimum(set_lows[set_ids], actual_bits)
                != np.maximum(set_highs[set_ids], actual_bits)
            ),
        )
    else:
        differs_key = ("blbp-differs-dense", shifts_key)
        differs_all = shared.get(
            differs_key, lambda: np.ones_like(desired_bits)
        )
    differs_u8 = shared.get(
        ("u8", differs_key),
        lambda: np.ascontiguousarray(differs_all, dtype=np.uint8),
    )
    desired_u8 = shared.get(
        ("u8", bits_key),
        lambda: np.ascontiguousarray(desired_bits, dtype=np.uint8),
    )

    # --- mutable per-lane state ---------------------------------------
    # The compiled core walks raw C-order buffers and updates the weight
    # tensor in place, so the predictor must own a contiguous one.
    if not weights.weights.flags.c_contiguous:
        weights.weights = np.ascontiguousarray(weights.weights)
    theta = np.asarray(threshold._theta, dtype=np.int64)
    counter = np.asarray(threshold._counter, dtype=np.int64)
    predictions = np.zeros(branch_count, dtype=np.uint64)
    prediction_valid = set_sizes[set_ids] > 0

    return {
        "predictor": predictor,
        "branch_count": branch_count,
        "num_bits": num_bits,
        "tmax": padded_targets.shape[1],
        "bank_count": bank_count,
        "table_rows": table_rows,
        "rows": np.ascontiguousarray(rows),
        "set_ids": set_ids,
        "padded_targets": padded_targets,
        "set_sizes": set_sizes,
        "bit_matrices": bit_matrices,
        "differs_u8": differs_u8,
        "desired_u8": desired_u8,
        "lut32": np.ascontiguousarray(transfer._lut, dtype=np.int32),
        "lut_offset": transfer.magnitude_max,
        "tensor": weights.weights,
        "magnitude": weights.magnitude,
        "theta": theta,
        "counter": counter,
        "cmax": threshold._max,
        "cmin": threshold._min,
        "adaptive": threshold.adaptive,
        "predictions": predictions,
        "prediction_valid": prediction_valid,
        "trained": 0,
        # Write-back inputs.
        "final_registers": final_registers,
        "outcomes": outcomes,
        "conditional_count": conditional_count,
        "consumed": consumed,
        "prefix": prefix,
        "intervals": intervals,
        "width": width,
        "prefix_bits": prefix_bits,
        "ghist0": ghist0,
        "pending0": pending0,
        "indirect_idx": indirect_idx,
        "branch_pcs": branch_pcs,
        "branch_targets": branch_targets,
        # Lanes whose shared planes are the *same objects* (and whose
        # bit/pad geometry matches) may replay lane-parallel together.
        "group_key": (
            branch_count,
            num_bits,
            padded_targets.shape[1],
            id(set_ids),
            id(padded_targets),
            id(set_sizes),
            id(bit_matrices),
            id(differs_u8),
            id(desired_u8),
        ),
    }


def _pointer_array(arrays: List[np.ndarray]) -> np.ndarray:
    """Per-lane base addresses, marshalled as a ``uint64`` vector."""
    return np.asarray(
        [array.ctypes.data for array in arrays], dtype=np.uint64
    )


def _replay_blbp_group(preps: List[dict]) -> None:
    """Lane-parallel compiled replay for one or more BLBP lanes.

    Every prep in ``preps`` must carry the same ``group_key`` — i.e.
    identical shared planes by object identity.  A solo run is a
    one-lane group.
    """
    if not preps[0]["branch_count"]:
        return
    fn = native.load("blbp_replay_many")

    first = preps[0]
    lanes = len(preps)
    banks = np.asarray([p["bank_count"] for p in preps], dtype=np.int64)
    table_rows = np.asarray(
        [p["table_rows"] for p in preps], dtype=np.int64
    )
    lut_offsets = np.asarray(
        [p["lut_offset"] for p in preps], dtype=np.int64
    )
    magnitudes = np.asarray(
        [p["magnitude"] for p in preps], dtype=np.int64
    )
    cmaxs = np.asarray([p["cmax"] for p in preps], dtype=np.int64)
    cmins = np.asarray([p["cmin"] for p in preps], dtype=np.int64)
    adaptives = np.asarray(
        [1 if p["adaptive"] else 0 for p in preps], dtype=np.int64
    )
    trained = np.zeros(lanes, dtype=np.int64)
    rows_ptr = _pointer_array([p["rows"] for p in preps])
    luts_ptr = _pointer_array([p["lut32"] for p in preps])
    weights_ptr = _pointer_array([p["tensor"] for p in preps])
    thetas_ptr = _pointer_array([p["theta"] for p in preps])
    counters_ptr = _pointer_array([p["counter"] for p in preps])
    predictions_ptr = _pointer_array([p["predictions"] for p in preps])

    fn(
        lanes,
        first["branch_count"],
        first["num_bits"],
        first["tmax"],
        first["set_ids"].ctypes.data,
        first["padded_targets"].ctypes.data,
        first["set_sizes"].ctypes.data,
        first["bit_matrices"].ctypes.data,
        first["differs_u8"].ctypes.data,
        first["desired_u8"].ctypes.data,
        banks.ctypes.data,
        table_rows.ctypes.data,
        rows_ptr.ctypes.data,
        luts_ptr.ctypes.data,
        lut_offsets.ctypes.data,
        weights_ptr.ctypes.data,
        magnitudes.ctypes.data,
        thetas_ptr.ctypes.data,
        counters_ptr.ctypes.data,
        cmaxs.ctypes.data,
        cmins.ctypes.data,
        adaptives.ctypes.data,
        predictions_ptr.ctypes.data,
        trained.ctypes.data,
    )
    for lane, prep in enumerate(preps):
        prep["trained"] = int(trained[lane])


def _finish_blbp(
    prep: dict,
    trace: Trace,
    derived: DerivedPlane,
    warmup_records: int,
    collect_per_pc: bool,
    prediction_sink: Optional[Dict[str, np.ndarray]],
) -> SimulationResult:
    """State write-back and result assembly for a replayed BLBP lane.

    Identical accounting to the scalar loop: the predictor leaves with
    the exact state (``state_hash`` equal) the scalar path would have
    produced, and the result carries the same counters.
    """
    predictor = prep["predictor"]
    histories = predictor.histories
    threshold = predictor.threshold

    branch_count = prep["branch_count"]
    conditional_count = prep["conditional_count"]
    consumed = prep["consumed"]
    prefix_bits = prep["prefix_bits"]
    pending0 = prep["pending0"]
    outcomes = prep["outcomes"]
    indirect_idx = prep["indirect_idx"]
    predictions = prep["predictions"]
    prediction_valid = prep["prediction_valid"]
    branch_pcs = prep["branch_pcs"]
    branch_targets = prep["branch_targets"]

    if prediction_sink is not None:
        prediction_sink["indirect_idx"] = indirect_idx.copy()
        prediction_sink["valid"] = prediction_valid.copy()
        prediction_sink["predictions"] = predictions.copy()

    # --- state write-back ---------------------------------------------
    threshold._theta = [int(value) for value in prep["theta"]]
    threshold._counter = [int(value) for value in prep["counter"]]
    for slot, value in prep["final_registers"].items():
        histories._local._table[slot] = value

    if branch_count:
        trailing = conditional_count - int(consumed[-1] - prefix_bits)
        pending_final = trailing % 1024
    else:
        pending_final = (pending0 + conditional_count) % 1024
    packed = np.packbits(outcomes) if conditional_count else None
    if conditional_count:
        outcome_int = int.from_bytes(packed.tobytes(), "big") >> (
            8 * len(packed) - conditional_count
        )
    else:
        outcome_int = 0
    unmasked = (prep["ghist0"] << conditional_count) | outcome_int
    ghist_mask = histories._ghist_mask
    histories._ghist = (
        ((unmasked >> pending_final) & ghist_mask) << pending_final
    ) | (unmasked & ((1 << pending_final) - 1))
    histories._pending = pending_final
    histories.stat_fold_updates += (
        pending0 + conditional_count - pending_final
    ) * histories._num_folds

    flushed = prefix_bits + conditional_count - pending_final
    final_consumed = np.asarray([flushed], dtype=np.int64)
    final_folds = _branch_folds(
        prep["prefix"], final_consumed, prep["intervals"], prep["width"]
    )
    for position, fold in enumerate(histories._folds):
        fold.fold = int(final_folds[0, position])

    predictor.stat_predictions += branch_count
    predictor.stat_ibtb_probes += branch_count
    predictor.stat_trained_bits += prep["trained"]

    # --- result assembly (identical accounting to the scalar loop) ----
    counted = indirect_idx >= warmup_records
    mispredicted = counted & (
        ~prediction_valid | (predictions != branch_targets)
    )
    by_pc: Dict[int, int] = {}
    if collect_per_pc and mispredicted.any():
        miss_pcs, miss_counts = np.unique(
            branch_pcs[mispredicted], return_counts=True
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
        conditional_branches=conditional_count,
        mispredictions_by_pc=by_pc,
    )


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

    One shared precompute pass serves every lane: fold prefix tables,
    hash-mix planes, IBTB candidate tensors and derived loads are built
    once (keyed by everything they depend on) and reused by every
    predictor they fit.  BLBP lanes whose shared planes coincide
    advance lane-parallel through the compiled ``blbp_replay_many``
    core — each branch touches every lane before the next branch, with
    the shared planes hot in cache — and every other supported
    predictor replays solo against the same shared artifacts.

    This is the one columnar entry point; a solo run is a one-lane
    call.  Results are positionally aligned with ``predictors`` and each
    is bit-identical to ``simulate(predictor, trace, ...)``: the same
    predictions, the same counters, and the same final predictor state
    (``state_dict`` / ``state_hash`` equal).  Lanes are fully
    independent, and a lane may be warm — mid-campaign state, restored
    snapshots — since the kernels seed their precomputation from the
    live registers.  Raises ``TypeError`` with the
    :func:`columnar_support` reason if any predictor lacks a kernel —
    callers mixing supported and unsupported predictors must split the
    group (``repro.sim.engine.simulate_many`` does exactly that).

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
    derived = _validated_derived(trace, ras_depth, derived)
    shared = shared_precompute(trace, ras_depth, derived)
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
    preps: List[Optional[dict]] = [None] * count
    for position, predictor in enumerate(predictors):
        if type(predictor) is BLBP:
            preps[position] = _prepare_blbp(
                predictor, trace, derived, shared
            )

    groups: Dict[tuple, List[int]] = {}
    for position, prep in enumerate(preps):
        if prep is not None:
            groups.setdefault(prep["group_key"], []).append(position)
    for members in groups.values():
        _replay_blbp_group([preps[position] for position in members])
    for position, prep in enumerate(preps):
        if prep is not None:
            results[position] = _finish_blbp(
                prep,
                trace,
                derived,
                warmup_records,
                collect_per_pc,
                sinks[position],
            )

    # ITTAGE / VPC lanes replay solo against the same shared artifacts.
    from repro.sim.kernel_ittage import simulate_columnar_ittage
    from repro.sim.kernel_vpc import simulate_columnar_vpc

    for position, predictor in enumerate(predictors):
        if results[position] is None:
            replay = (
                simulate_columnar_ittage
                if type(predictor) is ITTAGE
                else simulate_columnar_vpc
            )
            results[position] = replay(
                predictor,
                trace,
                derived,
                shared,
                warmup_records=warmup_records,
                collect_per_pc=collect_per_pc,
                prediction_sink=sinks[position],
            )
    return results
