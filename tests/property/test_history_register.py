"""Differential properties of the two batched fold paths.

* :class:`GlobalHistoryRegister`, the lazy register BLBP, ITTAGE and
  TAGE share: after any schedule of single- and multi-bit pushes —
  past the 1024-bit flush bound and past the register's capacity —
  every fold equals a :class:`FoldedHistory` stepped bit by bit and a
  from-scratch :func:`fold_bits` of its window, and a snapshot taken
  while bits are pending restores to a register that continues
  identically.
* The compiled BLBP core's write-back of the same register: after a
  columnar replay from a cold or warm (pending) register, the unmasked
  bits, pending count and folds equal the scalar register's, and every
  flushed fold equals :func:`fold_int` of its window, for intervals
  that start above 0 and windows that reach the history's end.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.common.hashing import (
    FoldedHistory,
    GlobalHistoryRegister,
    fold_bits,
    fold_int,
)
from repro.cond.tage import TAGE
from repro.core.blbp import BLBP
from repro.core.config import BLBPConfig
from repro.core.histories import BLBPHistories
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.sim.engine import simulate
from repro.sim.kernel import simulate_columnar_many
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace


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


def _blbp_trace(events):
    """Conditionals and indirect branches over a tiny PC pool; the
    indirects flush the register, runs of conditionals leave bits
    pending."""
    records = []
    for kind, taken, pc_index in events:
        if kind:
            records.append(BranchRecord(0x900, BranchType.CONDITIONAL,
                                        taken, 0x910, inst_gap=1))
        else:
            records.append(BranchRecord(0x4000 + 0x40 * pc_index,
                                        BranchType.INDIRECT_JUMP, True,
                                        0x10_0000 + 0x40 * pc_index,
                                        inst_gap=1))
    return Trace.from_records("folds", records)


@st.composite
def blbp_layouts(draw):
    """A BLBP geometry: history length, fold width and 1-6 intervals
    inside the history."""
    capacity = draw(st.integers(min_value=1, max_value=160))
    width = draw(st.integers(min_value=1, max_value=12))
    intervals = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        start = draw(st.integers(min_value=0, max_value=capacity - 1))
        end = draw(st.integers(min_value=start + 1, max_value=capacity))
        intervals.append((start, end))
    return BLBPConfig(
        global_history_bits=capacity,
        intervals=tuple(intervals),
        table_rows=1 << width,
    )


@pytest.mark.usefixtures("compiled_cores")
class TestCompiledFoldWriteBack:
    """The BLBP core keeps the interval folds, pending bits and flushes
    of :class:`GlobalHistoryRegister` per record; what it writes back
    is exactly the scalar register, and once flushed every fold equals
    :func:`fold_int` of its window."""

    @given(
        config=blbp_layouts(),
        warm=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.integers(0, 3)),
            max_size=60,
        ),
        events=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.integers(0, 3)),
            min_size=1,
            max_size=200,
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_final_folds_match_fold_int(self, config, warm, events):
        scalar, columnar = BLBP(config), BLBP(config)
        if warm:
            simulate(scalar, _blbp_trace(warm))
            simulate(columnar, _blbp_trace(warm))
        trace = _blbp_trace(events)
        simulate(scalar, trace)
        simulate_columnar_many([columnar], trace)
        ours, theirs = columnar.histories, scalar.histories
        assert (ours._ghist, ours._pending) == (theirs._ghist, theirs._pending)
        assert [f.fold for f in ours._folds] == [f.fold for f in theirs._folds]
        assert ours.stat_fold_updates == theirs.stat_fold_updates
        ours.flush()
        for fold, (start, end, width) in zip(
            ours._folds, (entry[1:4] for entry in ours._fold_batch)
        ):
            assert fold.fold == fold_int(ours._ghist >> start, end - start, width)

    def test_empty_stream(self):
        """No conditionals: the register keeps its bits, and the first
        indirect branch flushes the pending bits a warm lane brings,
        exactly as the scalar register does."""
        scalar, columnar = BLBP(), BLBP()
        warm = _blbp_trace([(True, True, 0)] * 50)
        simulate(scalar, warm)
        simulate(columnar, warm)
        ghist = columnar.histories._ghist
        assert columnar.histories._pending == 50
        branches = _blbp_trace([(False, False, 1)] * 5)
        simulate(scalar, branches)
        simulate_columnar_many([columnar], branches)
        ours, theirs = columnar.histories, scalar.histories
        assert (ours._ghist, ours._pending) == (ghist, 0)
        assert (ours._ghist, ours._pending) == (theirs._ghist, theirs._pending)
        assert [f.fold for f in ours._folds] == [f.fold for f in theirs._folds]
