"""Columnar replay kernel for :class:`~repro.predictors.vpc.VPCPredictor`.

VPC's scalar cost is dominated by hashing: every prediction walks up to
``max_iterations`` virtual PCs, each needing a ``mix_pc`` to form the
vpca and a ``stable_hash64`` to locate its BTB slot, and the training
paths recompute the same values.  All of that is a pure function of the
static PC — so the kernel precomputes one ``(unique_pcs, max_iter)``
table of (vpca, BTB slot, partial tag) triples and replays the trace
against it.

What remains sequential is genuinely architectural: the direct-mapped
BTB (tags/targets/recency ticks) and the shared conditional predictor,
which VPC consults per virtual branch *and* trains on every real
conditional.  The replay therefore walks a merged event stream —
conditionals and indirect branches in record order — through the
compiled ``vpc_replay`` core in :mod:`repro.sim.native`, which also
runs the conditional predictor: an exact
:class:`~repro.cond.mpp.MultiperspectivePerceptron`, whose weight
tables, histories and threshold are copied into arrays before the call
and written back after it, like the BTB.  VPC over any other
conditional predictor has no kernel (see
:func:`repro.sim.kernel.columnar_support`) and runs the scalar oracle.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc, stable_hash64
from repro.cond.mpp import MultiperspectivePerceptron
from repro.predictors.vpc import VPCPredictor
from repro.sim import native
from repro.sim.kernel import lane_result
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane
from repro.trace.stream import Trace


# ----------------------------------------------------------------------
# Trace-pure precomputation
# ----------------------------------------------------------------------


def _vpca_tables(
    unique_pcs: np.ndarray, max_iter: int, entries: int, tag_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(vpca, BTB slot, partial tag) per (static pc, iteration)."""
    count = len(unique_pcs)
    vpcas = np.empty((count, max_iter), dtype=np.uint64)
    slots = np.empty((count, max_iter), dtype=np.int64)
    vtags = np.empty((count, max_iter), dtype=np.int64)
    tag_mask = (1 << tag_bits) - 1
    for row, pc in enumerate(unique_pcs.tolist()):
        pc = int(pc)
        for iteration in range(max_iter):
            if iteration == 0:
                vpca = pc
            else:
                vpca = mix_pc(pc, salt=iteration) ^ (iteration * 0x1F3)
            hashed = stable_hash64(vpca)
            vpcas[row, iteration] = vpca
            slots[row, iteration] = hashed % entries
            vtags[row, iteration] = (hashed >> 22) & tag_mask
    return vpcas, slots, vtags


def _event_stream(
    trace: Trace, derived: DerivedPlane, pc_inverse: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record-ordered merge of conditional and indirect events.

    Returns ``(kinds, ev_a, ev_taken)``: kind 0 is a conditional with
    ``ev_a`` its PC and ``ev_taken`` its outcome; kind 1 is an indirect
    branch with ``ev_a`` its row in the unique-PC table (branch
    ordinals simply count kind-1 events).
    """
    cond_idx = np.asarray(derived.cond_idx)
    indirect_idx = np.asarray(derived.indirect_idx)
    merged = np.concatenate([cond_idx, indirect_idx])
    order = np.argsort(merged)
    kinds = np.concatenate(
        [
            np.zeros(len(cond_idx), dtype=np.uint8),
            np.ones(len(indirect_idx), dtype=np.uint8),
        ]
    )[order]
    ev_a = np.concatenate(
        [
            trace.pcs[cond_idx].astype(np.uint64),
            pc_inverse.astype(np.uint64),
        ]
    )[order]
    ev_taken = np.concatenate(
        [
            derived.conditional_outcomes().astype(np.uint8),
            np.zeros(len(indirect_idx), dtype=np.uint8),
        ]
    )[order]
    return kinds, ev_a, ev_taken


def _prepare(
    predictor: VPCPredictor,
    trace: Trace,
    derived: DerivedPlane,
    shared,
) -> dict:
    cfg = predictor.config
    branch_targets = np.asarray(derived.indirect_targets)
    unique_pcs, pc_inverse = shared.get(
        ("pc-unique",),
        lambda: np.unique(derived.indirect_pcs, return_inverse=True),
    )
    vpcas, slots, vtags = shared.get(
        ("vpc-tables", cfg.max_iterations, cfg.btb_entries, cfg.btb_tag_bits),
        lambda: _vpca_tables(
            unique_pcs, cfg.max_iterations, cfg.btb_entries, cfg.btb_tag_bits
        ),
    )
    kinds, ev_a, ev_taken = shared.get(
        ("vpc-events",),
        lambda: _event_stream(trace, derived, pc_inverse),
    )
    branch_count = len(branch_targets)
    return {
        "vpcas": vpcas,
        "slots": slots,
        "vtags": vtags,
        "kinds": kinds,
        "ev_a": ev_a,
        "ev_taken": ev_taken,
        "targets": branch_targets,
        "predictions": np.zeros(branch_count, dtype=np.uint64),
        "valid": np.zeros(branch_count, dtype=np.uint8),
    }


# ----------------------------------------------------------------------
# Prediction-dependent replay
# ----------------------------------------------------------------------


#: MultiperspectivePerceptron feature kinds, as ``vpc_replay`` numbers them.
_FEATURE_KINDS = {"bias": 0, "ghist": 1, "path": 2, "local": 3}


def _pack_mpp(mpp: MultiperspectivePerceptron) -> dict:
    """Copies of ``mpp``'s state as the arrays ``vpc_replay`` mutates."""
    ghist = mpp._ghist
    words = (ghist.capacity + 63) // 64
    path = mpp._path
    entries = np.zeros(path.depth, dtype=np.int64)
    entries[: len(path._entries)] = path._entries
    threshold = mpp._threshold
    return {
        "geometry": np.asarray(
            [
                len(mpp.features),
                mpp.index_bits,
                mpp._weight_max,
                mpp._weight_min,
                ghist.capacity,
                path.depth,
                path.bits_per_pc,
                mpp._local.num_entries,
                mpp._local.history_bits,
                threshold._max,
                threshold._min,
            ],
            dtype=np.int64,
        ),
        "kinds": np.asarray(
            [_FEATURE_KINDS[kind] for kind, _ in mpp.features],
            dtype=np.int64,
        ),
        "params": np.asarray(
            [parameter for _, parameter in mpp.features], dtype=np.int64
        ),
        "tables": np.stack(mpp._tables),
        "ghist": np.frombuffer(
            ghist._bits.to_bytes(8 * words, "little"), dtype="<u8"
        ).astype(np.uint64),
        "path": entries,
        "local": np.asarray(mpp._local._table, dtype=np.uint64),
        "state": np.asarray(
            [threshold.theta, threshold._counter, len(path._entries)],
            dtype=np.int64,
        ),
    }


def _unpack_mpp(mpp: MultiperspectivePerceptron, packed: dict) -> None:
    """Write the replayed arrays back into ``mpp``."""
    theta, counter, path_count = packed["state"].tolist()
    mpp._tables = list(packed["tables"])
    mpp._ghist._bits = int.from_bytes(
        packed["ghist"].astype("<u8").tobytes(), "little"
    )
    mpp._path._entries = packed["path"][:path_count].tolist()
    mpp._local._table = packed["local"].tolist()
    mpp._threshold.theta = theta
    mpp._threshold._counter = counter


def _replay(predictor: VPCPredictor, prep: dict) -> None:
    cfg = predictor.config
    btb = predictor._btb
    btb_tags = btb._tags.copy()
    btb_targets = btb._targets.copy()
    btb_ticks = btb._ticks.copy()
    clock = btb._clock
    cond_count = predictor.conditional_count
    cond_misp = predictor.conditional_mispredictions

    if len(prep["kinds"]):
        fn = native.load("vpc_replay")
        counters = np.asarray(
            [clock, cond_count, cond_misp], dtype=np.int64
        )
        mpp = _pack_mpp(predictor.conditional)
        fn(
            len(prep["kinds"]),
            prep["kinds"].ctypes.data,
            prep["ev_a"].ctypes.data,
            prep["ev_taken"].ctypes.data,
            prep["targets"].ctypes.data,
            cfg.max_iterations,
            1 if cfg.fallback_to_first else 0,
            prep["vpcas"].ctypes.data,
            prep["slots"].ctypes.data,
            prep["vtags"].ctypes.data,
            btb_tags.ctypes.data,
            btb_targets.ctypes.data,
            btb_ticks.ctypes.data,
            counters.ctypes.data,
            mpp["geometry"].ctypes.data,
            mpp["kinds"].ctypes.data,
            mpp["params"].ctypes.data,
            mpp["tables"].ctypes.data,
            mpp["ghist"].ctypes.data,
            mpp["path"].ctypes.data,
            mpp["local"].ctypes.data,
            mpp["state"].ctypes.data,
            prep["predictions"].ctypes.data,
            prep["valid"].ctypes.data,
        )
        _unpack_mpp(predictor.conditional, mpp)
        clock = int(counters[0])
        cond_count = int(counters[1])
        cond_misp = int(counters[2])

    btb._tags = btb_tags
    btb._targets = btb_targets
    btb._ticks = btb_ticks
    btb._clock = clock
    predictor.conditional_count = cond_count
    predictor.conditional_mispredictions = cond_misp
    predictor._ctx = None


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def simulate_columnar_vpc(
    predictor: VPCPredictor,
    trace: Trace,
    derived: DerivedPlane,
    shared,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    prediction_sink: Optional[Dict[str, np.ndarray]] = None,
) -> SimulationResult:
    """Columnar VPC replay, bit-identical to the scalar engine.

    Called through :func:`repro.sim.kernel.simulate_columnar_many`,
    which validates support and the derived plane and owns the shared
    precompute; see that function for the caller contract.
    """
    prep = _prepare(predictor, trace, derived, shared)
    _replay(predictor, prep)
    return lane_result(
        predictor, trace, derived, prep["predictions"], prep["valid"],
        warmup_records, collect_per_pc, prediction_sink,
    )
