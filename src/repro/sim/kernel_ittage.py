"""Columnar replay kernel for :class:`~repro.predictors.ittage.ITTAGE`.

ITTAGE's per-branch work splits the same way BLBP's does (see
:mod:`repro.sim.kernel`): almost everything the scalar loop computes is
a pure function of the *trace*, and only the tagged-table contents are
prediction-dependent.

* **History stream.**  Every record pushes a fixed number of history
  bits — one per conditional (the outcome), ``target_bits_per_indirect``
  per indirect (hashed-target bits), one constant ``1`` for every other
  retired branch — so each branch's fold positions are known up front.
  The folded index/tag registers are interval-``[0, length)`` folds of
  that stream, served from the same one-row prefix-XOR tables the BLBP
  kernel uses.  The live history register (with any pending bits) is
  prepended as a virtual prefix by BLBP's ``_history_stream``, so warm
  predictors replay exactly, and the write-back shifts the stream's
  tail into the register.
* **Path history.**  Two PC bits per record; the 16-bit register any
  branch observes is a fixed-size window over (initial register ++
  per-record codes), computed with a handful of shifted gathers.
* **Indices and tags.**  With folds and path values in hand, every
  (branch, table) index and tag is one vectorized hash-mix — the scalar
  loop's entire ``_tagged_index``/``_tagged_tag`` work disappears from
  the replay.

The replay itself — provider/altpred selection, confidence and
usefulness counters, the use-alt meta-counter, allocation with Seznec's
geometric RNG skew, periodic usefulness reset — is inherently
sequential and runs through the compiled ``ittage_replay`` core in
:mod:`repro.sim.native` over the precomputed index planes (the
allocation tie-breaker calls back into the predictor's own ``numpy``
Generator, so the RNG stream is shared bit-for-bit with the scalar
path).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc, stable_hash64
from repro.predictors.ittage import ITTAGE
from repro.sim import native
from repro.sim.kernel import _branch_folds, _fold_prefix_tables, _history_stream
from repro.sim.metrics import SimulationResult
from repro.trace.derived import DerivedPlane
from repro.trace.stream import Trace


# ----------------------------------------------------------------------
# Trace-pure precomputation
# ----------------------------------------------------------------------


def _push_stream(
    trace: Trace,
    derived: DerivedPlane,
    target_bits: int,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """The history-bit stream pushed by the whole trace, oldest first.

    Returns ``(body, bits_before, total)`` where ``body[j]`` is the
    ``j``-th pushed bit, ``bits_before[b]`` counts stream bits pushed
    before indirect branch ``b`` predicts, and ``total`` is the stream
    length.  Conditionals push their outcome, indirects push
    ``target_bits`` hashed-target bits (LSB first), every other retired
    record pushes a constant ``1``.
    """
    records = derived.records
    indirect_idx = np.asarray(derived.indirect_idx)
    cond_idx = np.asarray(derived.cond_idx)
    branch_count = len(indirect_idx)
    extra = target_bits - 1
    total = records + extra * branch_count

    body = np.ones(total, dtype=np.uint8)
    if len(cond_idx):
        cond_pos = cond_idx + extra * np.searchsorted(
            indirect_idx, cond_idx
        )
        body[cond_pos] = derived.conditional_outcomes()

    starts = indirect_idx + extra * np.arange(branch_count, dtype=np.int64)
    if branch_count and target_bits:
        unique, inverse = np.unique(
            derived.indirect_targets, return_inverse=True
        )
        hashes = np.fromiter(
            (stable_hash64(int(value)) for value in unique.tolist()),
            dtype=np.uint64,
            count=len(unique),
        )[inverse]
        for bit in range(target_bits):
            body[starts + bit] = (
                (hashes >> np.uint64(bit)) & np.uint64(1)
            ).astype(np.uint8)
    bits_before = starts if target_bits else indirect_idx - np.arange(
        branch_count, dtype=np.int64
    )
    return body, bits_before, total


def _path_values(
    codes: np.ndarray,
    positions: np.ndarray,
    path0: int,
    path_bits: int,
) -> np.ndarray:
    """Path-history register seen by each branch, before its own push.

    ``codes`` holds every record's 2-bit path code; the register before
    record ``r`` is a window of the last ``ceil(path_bits / 2)`` codes
    (the initial register supplying codes older than the trace), masked
    to ``path_bits``.
    """
    if path_bits <= 0:
        return np.zeros(len(positions), dtype=np.int64)
    window = (path_bits + 1) // 2
    ext = np.empty(window + len(codes), dtype=np.int64)
    for m in range(window):
        ext[m] = (path0 >> (2 * (window - 1 - m))) & 3
    ext[window:] = codes
    values = np.zeros(len(positions), dtype=np.int64)
    base = positions + (window - 1)
    for u in range(window):
        values |= ext[base - u] << (2 * u)
    return values & ((1 << path_bits) - 1)


def _prepare(
    predictor: ITTAGE,
    trace: Trace,
    derived: DerivedPlane,
    shared,
) -> dict:
    """All trace-pure planes: per-(branch, table) indices/tags, base
    indices, and the write-back ingredients (stream, path, folds)."""
    cfg = predictor.config
    num_tagged = cfg.num_tagged
    lengths = cfg.history_lengths
    tbits = cfg.target_bits_per_indirect
    index_bits = predictor._index_bits

    indirect_idx = np.asarray(derived.indirect_idx)
    branch_count = len(indirect_idx)
    branch_pcs = derived.indirect_pcs
    branch_targets = np.asarray(derived.indirect_targets)

    # History stream with the live register as a virtual prefix; keyed
    # on the register so warm lanes with different histories never
    # collide.
    history = predictor._history
    ghist0 = history._ghist
    pending0 = history._pending
    capacity = history._capacity
    body, bits_before, total = shared.get(
        ("ittage-stream", tbits),
        lambda: _push_stream(trace, derived, tbits),
    )
    stream_key = ("ittage-ext", tbits, capacity, ghist0, pending0)
    ext = shared.get(
        stream_key,
        lambda: _history_stream(ghist0, pending0, capacity, body),
    )
    consumed = capacity + pending0 + bits_before
    final_consumed = np.asarray([len(ext)], dtype=np.int64)

    def folds_for(width: int, intervals: Tuple[Tuple[int, int], ...]):
        prefix = shared.get(
            ("ittage-prefix", stream_key, width),
            lambda: _fold_prefix_tables(ext, width),
        )
        return (
            _branch_folds(prefix, consumed, intervals, width),
            _branch_folds(prefix, final_consumed, intervals, width),
        )

    def grouped_folds(widths: Tuple[int, ...]):
        """Per-table fold planes, computing each distinct width once."""
        per_table = [None] * num_tagged
        finals = [0] * num_tagged
        for width in sorted(set(widths)):
            members = tuple(
                t for t in range(num_tagged) if widths[t] == width
            )
            intervals = tuple((0, lengths[t]) for t in members)
            branch_vals, final_vals = shared.get(
                ("ittage-folds", stream_key, width, intervals),
                lambda w=width, iv=intervals: folds_for(w, iv),
            )
            for column, t in enumerate(members):
                per_table[t] = branch_vals[:, column]
                finals[t] = int(final_vals[0, column])
        return per_table, finals

    index_widths = tuple(index_bits for _ in range(num_tagged))
    tag_widths = tuple(cfg.tag_bits)
    tag2_widths = tuple(max(1, bits - 1) for bits in cfg.tag_bits)
    index_folds, index_finals = grouped_folds(index_widths)
    tag_folds, tag_finals = grouped_folds(tag_widths)
    tag2_folds, tag2_finals = grouped_folds(tag2_widths)

    # Path history: one 2-bit code per record, every branch a window.
    codes = shared.get(
        ("path-codes",),
        lambda: ((trace.pcs >> np.uint64(2)) & np.uint64(3)).astype(
            np.int64
        ),
    )
    path0 = predictor._path
    paths = _path_values(codes, indirect_idx, path0, cfg.path_bits)
    path_final = int(
        _path_values(
            codes,
            np.asarray([derived.records], dtype=np.int64),
            path0,
            cfg.path_bits,
        )[0]
    )

    # Hash-mix planes over the distinct static PCs.
    unique_pcs, pc_inverse = shared.get(
        ("pc-unique",),
        lambda: np.unique(branch_pcs, return_inverse=True),
    )

    def mixes(salt: int) -> np.ndarray:
        return shared.get(
            ("pc-mix", salt),
            lambda: np.fromiter(
                (
                    mix_pc(int(pc), salt=salt)
                    for pc in unique_pcs.tolist()
                ),
                dtype=np.uint64,
                count=len(unique_pcs),
            ),
        )

    base_idx = (
        mixes(0)[pc_inverse] % np.uint64(cfg.base_entries)
    ).astype(np.int64)

    index_mask = np.uint64((1 << index_bits) - 1)
    path_mask = np.uint64((1 << min(cfg.path_bits, 16)) - 1)
    masked_paths = paths.astype(np.uint64) & path_mask
    idx = np.empty((branch_count, num_tagged), dtype=np.int64)
    tag = np.empty((branch_count, num_tagged), dtype=np.int64)
    for t in range(num_tagged):
        mixed = (
            mixes(t + 1)[pc_inverse]
            ^ index_folds[t]
            ^ (masked_paths >> np.uint64(t & 3))
        )
        idx[:, t] = ((mixed & index_mask) % np.uint64(
            cfg.tagged_entries
        )).astype(np.int64)
        tag_mask = np.uint64((1 << cfg.tag_bits[t]) - 1)
        tag[:, t] = (
            (
                mixes(0x7AC + t)[pc_inverse]
                ^ tag_folds[t]
                ^ (tag2_folds[t] << np.uint64(1))
            )
            & tag_mask
        ).astype(np.int64)

    return {
        "idx": idx,
        "tag": tag,
        "base_idx": base_idx,
        "targets": branch_targets,
        "branch_pcs": branch_pcs,
        "indirect_idx": indirect_idx,
        "stream": ext,
        "pushed": total,
        "path_final": path_final,
        "index_finals": index_finals,
        "tag_finals": tag_finals,
        "tag2_finals": tag2_finals,
        "predictions": np.zeros(branch_count, dtype=np.uint64),
        "valid": np.zeros(branch_count, dtype=np.uint8),
    }


# ----------------------------------------------------------------------
# Prediction-dependent replay
# ----------------------------------------------------------------------


def _replay(predictor: ITTAGE, prep: dict) -> None:
    """Run the prediction-dependent replay and write the state back."""
    cfg = predictor.config
    tables = predictor._tables
    num_tagged = cfg.num_tagged
    entries = cfg.tagged_entries
    branch_count = len(prep["base_idx"])

    tab_tags = np.stack([t.tags for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.int64)
    )
    tab_targets = np.stack([t.targets for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.uint64)
    )
    tab_ctr = np.stack([t.ctr for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.int8)
    )
    tab_useful = np.stack([t.useful for t in tables]) if num_tagged else (
        np.zeros((0, entries), dtype=np.int8)
    )
    tab_valid = (
        np.stack([t.valid for t in tables]).astype(np.uint8)
        if num_tagged
        else np.zeros((0, entries), dtype=np.uint8)
    )
    base_targets = predictor._base_targets.copy()
    base_ctr = predictor._base_ctr.copy()
    base_valid = predictor._base_valid.astype(np.uint8)

    use_alt = predictor._use_alt
    updates = predictor._updates
    predictions = prep["predictions"]
    valid_out = prep["valid"]

    if branch_count:
        fn = native.load("ittage_replay")
        rng_callback = native.RNG_CALLBACK(predictor._rng.random)
        state = np.asarray([use_alt, updates], dtype=np.int64)
        fn(
            branch_count,
            num_tagged,
            entries,
            len(base_targets),
            prep["idx"].ctypes.data,
            prep["tag"].ctypes.data,
            prep["base_idx"].ctypes.data,
            prep["targets"].ctypes.data,
            tab_tags.ctypes.data,
            tab_targets.ctypes.data,
            tab_ctr.ctypes.data,
            tab_useful.ctypes.data,
            tab_valid.ctypes.data,
            base_targets.ctypes.data,
            base_ctr.ctypes.data,
            base_valid.ctypes.data,
            predictor._conf_max,
            predictor._useful_max,
            predictor._use_alt_min,
            predictor._use_alt_max,
            cfg.u_reset_period,
            state.ctypes.data,
            rng_callback,
            predictions.ctypes.data,
            valid_out.ctypes.data,
        )
        use_alt = int(state[0])
        updates = int(state[1])

    # --- state write-back ---------------------------------------------
    for t, table in enumerate(tables):
        table.tags = tab_tags[t].copy()
        table.targets = tab_targets[t].copy()
        table.ctr = tab_ctr[t].copy()
        table.useful = tab_useful[t].copy()
        table.valid = tab_valid[t].astype(bool)
    predictor._base_targets = base_targets
    predictor._base_ctr = base_ctr
    predictor._base_valid = base_valid.astype(bool)
    predictor._use_alt = use_alt
    predictor._updates = updates

    history = predictor._history
    capacity = history._capacity
    tail = np.packbits(prep["stream"][-capacity:])
    history._ghist = int.from_bytes(tail.tobytes(), "big") >> (
        8 * len(tail) - capacity
    )
    history._pending = 0
    predictor._ring_head = (predictor._ring_head + prep["pushed"]) % capacity
    for t in range(num_tagged):
        predictor._index_folds[t].fold = prep["index_finals"][t]
        predictor._tag_folds[t].fold = prep["tag_finals"][t]
        predictor._tag_folds2[t].fold = prep["tag2_finals"][t]
    predictor._path = prep["path_final"]
    predictor._ctx = None


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


def simulate_columnar_ittage(
    predictor: ITTAGE,
    trace: Trace,
    derived: DerivedPlane,
    shared,
    warmup_records: int = 0,
    collect_per_pc: bool = False,
    prediction_sink: Optional[Dict[str, np.ndarray]] = None,
) -> SimulationResult:
    """Columnar ITTAGE replay, bit-identical to the scalar engine.

    Called through :func:`repro.sim.kernel.simulate_columnar_many`,
    which validates support and the derived plane and owns the shared
    precompute; see that function for the caller contract.
    """
    prep = _prepare(predictor, trace, derived, shared)
    _replay(predictor, prep)

    predictions = prep["predictions"]
    prediction_valid = prep["valid"].astype(bool)
    indirect_idx = prep["indirect_idx"]
    branch_targets = prep["targets"]
    branch_pcs = prep["branch_pcs"]

    if prediction_sink is not None:
        prediction_sink["indirect_idx"] = indirect_idx.copy()
        prediction_sink["valid"] = prediction_valid.copy()
        prediction_sink["predictions"] = predictions.copy()

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
        conditional_branches=derived.conditionals,
        mispredictions_by_pc=by_pc,
    )
