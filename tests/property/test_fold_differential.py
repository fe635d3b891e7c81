"""Differential properties of the incremental history folds.

Two layers of oracle, matching the two layers of optimization:

* :class:`FoldedHistory.update` (the one-step circular-shift-register
  recurrence) against a from-scratch :func:`fold_bits` of the window —
  the classic TAGE fold identity, including the ``length % width == 0``
  corner where the out-position wraps to 0;
* :meth:`BLBPHistories.indices` (the *batched* m-step fold absorption)
  against :meth:`BLBPHistories.indices_reference` (per-read ``fold_int``
  recomputation) — covered in ``tests/core/test_histories_boundaries``
  for handpicked intervals and here over random push/read schedules;
* :func:`fold_int` (chunk halving) against :func:`fold_bits` for every
  length 1–700 and width 1–16.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import FoldedHistory, fold_bits, fold_int
from repro.core.config import BLBPConfig
from repro.core.histories import BLBPHistories


def _window_fold(window_value: int, length: int, width: int) -> int:
    """From-scratch oracle: fold the window via ``fold_bits``.

    ``window_value`` holds the most recent bit at bit 0, i.e. bit ``p``
    is the outcome ``p`` steps ago — the same least-significant-first
    convention ``fold_bits`` folds with (and equal to ``fold_int``).
    """
    bits = [(window_value >> position) & 1 for position in range(length)]
    return fold_bits(bits, width)


class TestFoldedHistoryDifferential:
    @given(
        length=st.integers(min_value=1, max_value=96),
        width=st.integers(min_value=1, max_value=16),
        stream=st.lists(st.booleans(), min_size=0, max_size=300),
    )
    @settings(max_examples=200)
    def test_update_matches_from_scratch_fold(self, length, width, stream):
        fold = FoldedHistory(length, width)
        window = 0
        for bit in stream:
            outgoing = (window >> (length - 1)) & 1
            window = ((window << 1) | int(bit)) & ((1 << length) - 1)
            fold.update(int(bit), outgoing)
            assert fold.fold == _window_fold(window, length, width)
            assert fold.fold == fold_int(window, length, width)

    @given(
        multiple=st.integers(min_value=1, max_value=8),
        width=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_exact_multiple_of_width(self, multiple, width, seed):
        """``length % width == 0``: the out-position wraps to bit 0."""
        length = multiple * width
        fold = FoldedHistory(length, width)
        assert fold._out_position == 0
        rng = random.Random(seed)
        window = 0
        for _ in range(3 * length + 7):
            bit = rng.randrange(2)
            outgoing = (window >> (length - 1)) & 1
            window = ((window << 1) | bit) & ((1 << length) - 1)
            fold.update(bit, outgoing)
        assert fold.fold == _window_fold(window, length, width)

    def test_width_one_fold_is_parity(self):
        fold = FoldedHistory(5, 1)
        window = 0
        rng = random.Random(7)
        for _ in range(200):
            bit = rng.randrange(2)
            outgoing = (window >> 4) & 1
            window = ((window << 1) | bit) & 0b11111
            fold.update(bit, outgoing)
            assert fold.fold == bin(window).count("1") % 2


class TestFoldIntDifferential:
    def test_every_length_and_width(self):
        """Halving keeps the XOR of every chunk, including a ragged top
        chunk and bits above ``total_bits`` (which must be ignored)."""
        rng = random.Random(11)
        for length in range(1, 701):
            value = rng.getrandbits(length + 9)
            bits = [(value >> position) & 1 for position in range(length)]
            for width in range(1, 17):
                assert fold_int(value, length, width) == fold_bits(
                    bits, width
                ), (length, width)

    @given(
        length=st.integers(min_value=0, max_value=700),
        width=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_random_values(self, length, width, data):
        value = data.draw(st.integers(min_value=0, max_value=(1 << 720) - 1))
        bits = [(value >> position) & 1 for position in range(length)]
        assert fold_int(value, length, width) == fold_bits(bits, width)


class TestBatchedIndicesDifferential:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        reads=st.lists(
            st.integers(min_value=1, max_value=200), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_push_read_schedule(self, seed, reads):
        """Interleave random-size push bursts with index reads; the
        batched fold must match the from-scratch reference at every
        read regardless of the pending-batch size m."""
        config = BLBPConfig()
        histories = BLBPHistories(config)
        rng = random.Random(seed)
        for burst in reads:
            for _ in range(burst):
                histories.push_conditional(rng.random() < 0.5)
            pc = rng.randrange(1 << 20) << 2
            assert histories.indices(pc) == histories.indices_reference(pc)

    def test_forced_internal_flush(self):
        """Bursts past the 1024-bit pending cap exercise the internal
        flush threshold between reads."""
        config = BLBPConfig()
        histories = BLBPHistories(config)
        rng = random.Random(3)
        for _ in range(2600):
            histories.push_conditional(rng.random() < 0.5)
        assert histories.indices(0x4444) == histories.indices_reference(0x4444)
