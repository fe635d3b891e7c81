"""Differential properties of the two batched fold paths.

* :class:`GlobalHistoryRegister`, the lazy register BLBP, ITTAGE and
  TAGE share: after any schedule of single- and multi-bit pushes —
  past the 1024-bit flush bound and past the register's capacity —
  every fold equals a :class:`FoldedHistory` stepped bit by bit and a
  from-scratch :func:`fold_bits` of its window, and a snapshot taken
  while bits are pending restores to a register that continues
  identically.
* The columnar kernels' one-row prefix table
  (:func:`repro.sim.kernel._fold_prefix_tables`) with
  :func:`repro.sim.kernel._branch_folds`: every (consumed, interval)
  fold equals :func:`fold_int` of its window, including intervals that
  start above 0, phase-0 reads and windows that reach the stream start.
"""

import random

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    FoldedHistory,
    GlobalHistoryRegister,
    fold_bits,
    fold_int,
)
from repro.cond.tage import TAGE
from repro.core.config import BLBPConfig
from repro.core.histories import BLBPHistories
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.sim.kernel import _branch_folds, _fold_prefix_tables
from repro.trace.record import BranchType


@st.composite
def registers(draw):
    """A capacity and 1–6 intervals ``(start, end, width)`` inside it."""
    capacity = draw(st.integers(min_value=1, max_value=160))
    intervals = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        start = draw(st.integers(min_value=0, max_value=capacity - 1))
        end = draw(st.integers(min_value=start + 1, max_value=capacity))
        width = draw(st.integers(min_value=1, max_value=16))
        intervals.append((start, end, width))
    return capacity, intervals


#: A push schedule: bursts of bits, each pushed as one multi-bit shift
#: (``True``) or bit by bit, optionally followed by a flush and check.
#: Some bursts are long enough to cross the 1024-bit flush bound.
schedules = st.lists(
    st.tuples(
        st.one_of(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1000, max_value=1300),
        ),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


class _Reference:
    """The register's meaning, one bit at a time: an unbounded history
    and a :class:`FoldedHistory` per interval stepped per bit."""

    def __init__(self, intervals):
        self.history = 0
        self.intervals = intervals
        self.folds = [
            FoldedHistory(end - start, width) for start, end, width in intervals
        ]

    def push(self, bit):
        for fold, (start, end, _) in zip(self.folds, self.intervals):
            entering = bit if start == 0 else (self.history >> (start - 1)) & 1
            fold.update(entering, (self.history >> (end - 1)) & 1)
        self.history = (self.history << 1) | bit

    def window_fold(self, start, end, width):
        bits = [(self.history >> (start + p)) & 1 for p in range(end - start)]
        return fold_bits(bits, width)


def _push_burst(register, reference, bits, as_one_shift):
    if as_one_shift:
        value = 0
        for bit in bits:
            value = (value << 1) | bit
        register.push(value, len(bits))
    else:
        for bit in bits:
            register.push(bit)
    for bit in bits:
        reference.push(bit)


def _assert_current(register, reference):
    register.flush()
    assert register._pending == 0
    for fold, reference_fold, (start, end, width) in zip(
        register._folds, reference.folds, reference.intervals
    ):
        assert fold.fold == reference_fold.fold, (start, end, width)
        assert fold.fold == reference.window_fold(start, end, width)


class TestGlobalHistoryRegister:
    @given(layout=registers(), schedule=schedules, seed=st.integers(0, 2**31))
    @settings(max_examples=120, deadline=None)
    def test_folds_match_bitwise_reference(self, layout, schedule, seed):
        capacity, intervals = layout
        register = GlobalHistoryRegister(capacity, intervals)
        reference = _Reference(intervals)
        rng = random.Random(seed)
        for count, as_one_shift, check in schedule:
            bits = [rng.randrange(2) for _ in range(count)]
            _push_burst(register, reference, bits, as_one_shift)
            assert register._pending < 1024
            if check:
                _assert_current(register, reference)
        _assert_current(register, reference)
        mask = (1 << capacity) - 1
        assert register._ghist == reference.history & mask

    @given(layout=registers(), schedule=schedules, seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_ring_round_trip_with_pending_bits(self, layout, schedule, seed):
        """Snapshot as (ring, head, folds) with bits still pending; the
        restored register continues exactly like the original."""
        capacity, intervals = layout
        original = GlobalHistoryRegister(capacity, intervals)
        reference = _Reference(intervals)
        rng = random.Random(seed)
        pushed = 0
        for count, as_one_shift, _ in schedule:
            bits = [rng.randrange(2) for _ in range(count)]
            _push_burst(original, reference, bits, as_one_shift)
            pushed += count
        head = pushed % capacity
        original.flush()
        ring = original.ring(head)
        assert len(ring) == capacity
        # ring[head] is the oldest bit, ring[head - 1] the newest.
        assert ring[(head - 1) % capacity] == reference.history & 1
        restored = GlobalHistoryRegister(capacity, intervals)
        restored.restore_ring(
            ring, head, [fold.state_dict() for fold in original._folds]
        )
        tail = [rng.randrange(2) for _ in range(rng.randrange(1, 60))]
        for bit in tail:
            restored.push(bit)
        _push_burst(original, reference, tail, False)
        _assert_current(restored, reference)


_IND = int(BranchType.INDIRECT_JUMP)
_JUMP = int(BranchType.DIRECT_JUMP)


def _drive_ittage(predictor, rng, events):
    for _ in range(events):
        kind = rng.randrange(4)
        pc = 0x1000 + 0x40 * rng.randrange(4)
        if kind == 0:
            target = 0x8000 + 0x100 * rng.randrange(5)
            predictor.predict_target(pc)
            predictor.train(pc, target)
            predictor.on_retired(pc, _IND, target)
        elif kind == 1:
            predictor.on_retired(pc, _JUMP, 0x9000)
        else:
            predictor.on_conditional(pc, rng.random() < 0.5)


class TestPredictorSnapshotsWithPendingBits:
    """``state_dict`` flushes, so a snapshot taken mid-batch restores to
    a predictor that continues identically."""

    @given(seed=st.integers(0, 2**31), tail=st.integers(1, 1500))
    @settings(max_examples=15, deadline=None)
    def test_ittage(self, seed, tail):
        config = ITTAGEConfig(base_entries=64, tagged_entries=32)
        rng = random.Random(seed)
        original = ITTAGE(config)
        _drive_ittage(original, rng, 120)
        for _ in range(tail):  # conditionals only: bits stay pending
            original.on_conditional(0x500, rng.random() < 0.5)
        assume(original._history._pending > 0)
        restored = ITTAGE(config)
        restored.load_state(original.state_dict())
        follow = rng.getstate()
        _drive_ittage(original, rng, 80)
        rng.setstate(follow)
        _drive_ittage(restored, rng, 80)
        assert restored.state_dict() == original.state_dict()

    @given(seed=st.integers(0, 2**31), tail=st.integers(1, 400))
    @settings(max_examples=15, deadline=None)
    def test_tage(self, seed, tail):
        rng = random.Random(seed)
        original = TAGE()
        for _ in range(100 + tail):
            pc = 0x1000 + 0x40 * rng.randrange(4)
            original.predict(pc)
            original.update(pc, rng.random() < 0.5)
        original.update(0x2000, True)  # leaves one bit pending
        assert original._history._pending > 0
        restored = TAGE()
        restored.load_state(original.state_dict())
        for _ in range(60):
            pc = 0x1000 + 0x40 * rng.randrange(4)
            taken = rng.random() < 0.5
            assert original.predict(pc) == restored.predict(pc)
            original.update(pc, taken)
            restored.update(pc, taken)
        assert restored.state_dict() == original.state_dict()

    @given(seed=st.integers(0, 2**31), tail=st.integers(1, 1500))
    @settings(max_examples=15, deadline=None)
    def test_blbp_histories(self, seed, tail):
        rng = random.Random(seed)
        original = BLBPHistories(BLBPConfig())
        for _ in range(tail):
            original.push_conditional(rng.random() < 0.5)
        restored = BLBPHistories(BLBPConfig())
        restored.load_state(original.state_dict())
        for _ in range(rng.randrange(1, 300)):
            taken = rng.random() < 0.5
            original.push_conditional(taken)
            restored.push_conditional(taken)
        assert restored.indices(0x4444) == original.indices(0x4444)
        assert restored.indices(0x4444) == original.indices_reference(0x4444)


def _window_value(stream, consumed, start, end):
    """The register's ``[start, end)`` bits after ``consumed`` stream
    bits, most recent at bit 0."""
    value = 0
    for position in range(end - start):
        value |= int(stream[consumed - 1 - start - position]) << position
    return value


class TestOneRowPrefixTables:
    @given(
        stream=st.lists(st.integers(0, 1), min_size=1, max_size=300),
        width=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_branch_folds_match_fold_int(self, stream, width, data):
        ext = np.asarray(stream, dtype=np.uint8)
        total = len(ext)
        intervals = []
        for _ in range(data.draw(st.integers(1, 4))):
            start = data.draw(st.integers(0, total - 1))
            end = data.draw(st.integers(start + 1, total))
            intervals.append((start, end))
        floor = max(end for _, end in intervals)
        consumed = data.draw(
            st.lists(st.integers(floor, total), min_size=1, max_size=8)
        )
        # Edges: the window reaching the stream start, and a phase-0 read
        # ((c - 1 - start) % width == 0) for the first interval.
        start0 = intervals[0][0]
        phase_zero = [
            c for c in range(floor, total + 1) if (c - 1 - start0) % width == 0
        ]
        consumed = consumed + [floor] + phase_zero[:1]
        prefix = _fold_prefix_tables(ext, width)
        assert prefix.shape == (total + 1,)
        folds = _branch_folds(
            prefix, np.asarray(consumed, dtype=np.int64), tuple(intervals),
            width,
        )
        for row, c in enumerate(consumed):
            for column, (start, end) in enumerate(intervals):
                expected = fold_int(
                    _window_value(ext, c, start, end), end - start, width
                )
                assert int(folds[row, column]) == expected, (c, start, end)

    def test_empty_stream(self):
        prefix = _fold_prefix_tables(np.zeros(0, dtype=np.uint8), 7)
        assert prefix.tolist() == [0]
