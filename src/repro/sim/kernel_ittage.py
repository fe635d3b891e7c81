"""Columnar replay kernel for :class:`~repro.predictors.ittage.ITTAGE`.

The whole replay runs in the compiled ``ittage_replay`` core
(:mod:`repro.sim.native`), which walks a run of record columns (a
trace's, or one serve message's) in retirement order: every record
shifts its history bits (a conditional its outcome, an indirect branch
its hashed-target bits, any other branch a constant ``1``) and PC bits
into the history and path registers, whose index, tag and tag2 folds it keeps per record exactly
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
from array import array

from repro.predictors.ittage import ITTAGE
from repro.sim import native
from repro.sim.kernel import (
    LaneOutput,
    ReplayColumns,
    buffer_address,
    history_buffers,
    lane_output,
    restore_history,
)


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


def replay_ittage(predictor: ITTAGE, columns: ReplayColumns) -> LaneOutput:
    """Replay ITTAGE over one run of columns in one ``ittage_replay``
    call and write its state back; returns the per-indirect
    ``(predictions, valid)``.

    Campaigns call this through
    :func:`repro.sim.kernel.simulate_columnar_many`, which validates
    support; serve calls it per message.
    """
    cfg = predictor.config
    history = predictor._history
    branches = columns.indirects
    spans, folds, ghist = history_buffers(history)
    tag_bits = array("q", cfg.tag_bits)
    predictions = array("Q", bytes(8 * branches))
    valid = array("B", bytes(branches))
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
        tag_bits=buffer_address(tag_bits),
        fold_spans=buffer_address(spans),
        folds=buffer_address(folds),
        ghist=buffer_address(ghist),
        tags=buffer_address(fields["tags"]),
        targets=buffer_address(fields["targets"]),
        ctr=buffer_address(fields["ctr"]),
        useful=buffer_address(fields["useful"]),
        valid=buffer_address(fields["valid"]),
        base_targets=buffer_address(predictor._base_targets),
        base_ctr=buffer_address(predictor._base_ctr),
        base_valid=buffer_address(predictor._base_valid),
        predictions=buffer_address(predictions),
        valid_out=buffer_address(valid),
    )
    records = columns.records
    status = native.load("ittage_replay")(
        records, *columns.addresses, ctypes.addressof(state),
        native.RNG_CALLBACK(predictor._rng.random),
    )
    if status:
        raise MemoryError("ittage_replay: out of memory")

    pushed = records + (cfg.target_bits_per_indirect - 1) * branches
    restore_history(history, state.pending, folds, ghist, pushed)
    predictor._ring_head = (predictor._ring_head + pushed) % history._capacity
    predictor._use_alt = state.use_alt
    predictor._updates = state.updates
    predictor._path = state.path
    predictor._ctx = None
    return lane_output(predictions, valid)
