"""Columnar replay kernel for :class:`~repro.predictors.ittage.ITTAGE`.

The whole replay runs in the compiled ``ittage_replay`` core
(:mod:`repro.sim.native`), which walks the trace's columns in
retirement order: every record shifts its history bits (a conditional
its outcome, an indirect branch its hashed-target bits, any other
branch a constant ``1``) and PC bits into the history and path
registers, whose index, tag and tag2 folds it keeps per record exactly
as the lazily flushed :class:`~repro.common.hashing.GlobalHistoryRegister`
does; every indirect branch then hashes its table indices and tags and
runs provider/altpred selection, the confidence and usefulness
counters, the use-alt meta-counter, allocation with Seznec's geometric
RNG skew and the periodic usefulness reset.  The tagged tables live in
one contiguous ``(num_tagged, entries)`` buffer per field, which the
core updates in place, as it does the base table; the allocation
tie-breaker calls back into the predictor's own ``numpy`` Generator,
so the RNG stream is shared bit-for-bit with the scalar path.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Optional

import numpy as np

from repro.predictors.ittage import ITTAGE
from repro.sim import native
from repro.sim.kernel import (
    history_buffers,
    lane_result,
    restore_history,
    trace_columns,
)
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane
from repro.trace.stream import Trace


class _ITTAGEState(ctypes.Structure):
    """``ittage_t`` in ``cores/ittage.c``, field for field."""

    _fields_ = [
        (name, ctypes.c_int64)
        for name in (
            "num_tagged", "entries", "base_entries", "index_bits",
            "path_bits", "target_bits", "conf_max", "useful_max",
            "use_alt_min", "use_alt_max", "u_reset_period", "history_bits",
            "pending", "use_alt", "updates",
        )
    ] + [("path", ctypes.c_uint64)] + [
        (name, ctypes.c_void_p)
        for name in (
            "tag_bits", "fold_spans", "folds", "ghist", "tags", "targets",
            "ctr", "useful", "valid", "base_targets", "base_ctr",
            "base_valid", "predictions", "valid_out",
        )
    ]


def simulate_columnar_ittage(
    predictor: ITTAGE,
    trace: Trace,
    derived: DerivedPlane,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    prediction_sink: Optional[Dict[str, np.ndarray]] = None,
) -> SimulationResult:
    """Columnar ITTAGE replay, bit-identical to the scalar engine.

    Called through :func:`repro.sim.kernel.simulate_columnar_many`,
    which validates support and the derived plane; see that function
    for the caller contract.
    """
    cfg = predictor.config
    history = predictor._history
    branches = len(derived.indirect_idx)
    spans, folds, ghist = history_buffers(history)
    tag_bits = np.asarray(cfg.tag_bits, dtype=np.int64)
    predictions = np.zeros(branches, dtype=np.uint64)
    valid = np.zeros(branches, dtype=np.uint8)
    fields = predictor._fields
    state = _ITTAGEState(
        num_tagged=cfg.num_tagged,
        entries=cfg.tagged_entries,
        base_entries=cfg.base_entries,
        index_bits=predictor._index_bits,
        path_bits=cfg.path_bits,
        target_bits=cfg.target_bits_per_indirect,
        conf_max=predictor._conf_max,
        useful_max=predictor._useful_max,
        use_alt_min=predictor._use_alt_min,
        use_alt_max=predictor._use_alt_max,
        u_reset_period=cfg.u_reset_period,
        history_bits=history._capacity,
        pending=history._pending,
        use_alt=predictor._use_alt,
        updates=predictor._updates,
        path=predictor._path,
        tag_bits=tag_bits.ctypes.data,
        fold_spans=spans.ctypes.data,
        folds=folds.ctypes.data,
        ghist=ghist.ctypes.data,
        tags=fields["tags"].ctypes.data,
        targets=fields["targets"].ctypes.data,
        ctr=fields["ctr"].ctypes.data,
        useful=fields["useful"].ctypes.data,
        valid=fields["valid"].ctypes.data,
        base_targets=predictor._base_targets.ctypes.data,
        base_ctr=predictor._base_ctr.ctypes.data,
        base_valid=predictor._base_valid.ctypes.data,
        predictions=predictions.ctypes.data,
        valid_out=valid.ctypes.data,
    )
    status = native.load("ittage_replay")(
        len(trace), *trace_columns(trace), ctypes.addressof(state),
        native.RNG_CALLBACK(predictor._rng.random),
    )
    if status:
        raise MemoryError("ittage_replay: out of memory")

    pushed = len(trace) + (cfg.target_bits_per_indirect - 1) * branches
    restore_history(history, state.pending, folds, ghist, pushed)
    predictor._ring_head = (predictor._ring_head + pushed) % history._capacity
    predictor._use_alt = state.use_alt
    predictor._updates = state.updates
    predictor._path = state.path
    predictor._ctx = None
    return lane_result(
        predictor, trace, derived, predictions, valid, warmup_records,
        collect_per_pc, prediction_sink,
    )
