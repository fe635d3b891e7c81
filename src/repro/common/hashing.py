"""Hashing utilities: PC mixing and folded-XOR history compression.

Hardware branch predictors cannot afford to index SRAM tables with a
630-bit history, so they *fold* the history down to an index width by
XOR-ing fixed-size chunks together (Michaud's PPM predictor, TAGE, and
every perceptron predictor since the hashed perceptron use this trick).
The paper leaves its hash functions unspecified; we use the standard
folded-XOR construction here, mixed with the branch PC.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.common.state import Stateful, check_state, require

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def stable_hash64(value: int) -> int:
    """A deterministic 64-bit integer mixer (splitmix64 finalizer).

    Python's builtin ``hash`` is salted per-process for strings and is the
    identity for small ints, neither of which is acceptable for a
    reproducible hardware model, so all table indexing goes through this.
    """
    value &= _MASK64
    value = (value + _GOLDEN64) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


def mix_pc(pc: int, salt: int = 0) -> int:
    """Mix a branch PC (optionally with a salt) into a 64-bit hash.

    The low two bits of instruction addresses carry no information on
    aligned ISAs, so the PC is pre-shifted before mixing.
    """
    return stable_hash64((pc >> 2) ^ (salt * _GOLDEN64))


def fold_bits(bits: Sequence[int], width: int) -> int:
    """Fold a least-significant-first bit sequence to ``width`` bits by XOR.

    Equivalent to the circular-shift-register folding hardware used by
    TAGE-family predictors, computed directly for clarity.
    """
    if width < 1:
        raise ValueError(f"fold width must be >= 1, got {width}")
    folded = 0
    for position, bit in enumerate(bits):
        if bit:
            folded ^= 1 << (position % width)
    return folded


def combine(width: int, *values: int) -> int:
    """Combine hashed components into a ``width``-bit table index."""
    acc = 0
    for value in values:
        acc = stable_hash64(acc ^ value)
    return acc & ((1 << width) - 1)


class FoldedHistory(Stateful):
    """Incrementally-folded view of a shift-register history.

    Maintains ``fold`` = XOR-fold of the most recent ``length`` history
    bits down to ``width`` bits, updated in O(1) per inserted bit exactly
    as the circular shift register in TAGE hardware does.  The owning
    history object pushes new bits in and supplies the bit falling out of
    the window.
    """

    __slots__ = ("length", "width", "fold", "_out_position")

    def __init__(self, length: int, width: int) -> None:
        if length < 1:
            raise ValueError(f"history length must be >= 1, got {length}")
        if width < 1:
            raise ValueError(f"fold width must be >= 1, got {width}")
        self.length = length
        self.width = width
        self.fold = 0
        self._out_position = length % width

    def update(self, new_bit: int, outgoing_bit: int) -> None:
        """Shift ``new_bit`` in and ``outgoing_bit`` (the bit that just left
        the ``length``-bit window) out of the fold."""
        # Rotate the fold left by one within `width` bits.
        top = (self.fold >> (self.width - 1)) & 1
        self.fold = ((self.fold << 1) & ((1 << self.width) - 1)) | top
        if new_bit:
            self.fold ^= 1
        if outgoing_bit:
            self.fold ^= 1 << self._out_position

    def reset(self) -> None:
        self.fold = 0

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "FoldedHistory",
            "length": self.length,
            "width": self.width,
            "fold": self.fold,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "FoldedHistory")
        require(
            state["length"] == self.length and state["width"] == self.width,
            f"FoldedHistory geometry mismatch: snapshot is "
            f"{state['length']}x{state['width']}, this fold is "
            f"{self.length}x{self.width}",
        )
        fold = state["fold"]
        require(0 <= fold < (1 << self.width), f"fold {fold} out of range")
        self.fold = fold


def fold_int(value: int, total_bits: int, width: int) -> int:
    """Fold the low ``total_bits`` of ``value`` down to ``width`` bits.

    Halving: the top half of the ``width``-bit chunks is XORed onto the
    bottom half until one chunk is left, which keeps every chunk's XOR.
    """
    if width < 1:
        raise ValueError(f"fold width must be >= 1, got {width}")
    value &= (1 << total_bits) - 1
    chunks = -(-value.bit_length() // width)
    while chunks > 1:
        chunks = (chunks + 1) // 2
        shift = chunks * width
        value = (value & ((1 << shift) - 1)) ^ (value >> shift)
    return value


class GlobalHistoryRegister:
    """A global-history register with lazily batched interval folds.

    Each fold ``(start, end, width)`` is a :class:`FoldedHistory` of the
    history bits ``[start, end)`` (bit 0 most recent), kept equal to
    ``fold_int`` over that window whenever it is read.  A push is one
    shift: :meth:`push` adds ``count`` bits to the unmasked ``_ghist``
    and counts them in ``_pending``, and :meth:`flush` absorbs all m
    pending bits into every fold in one closed-form step.  Applying
    :meth:`FoldedHistory.update` m times rotates the fold left m places
    and lands the step-j entering bit at ``(m-1-j) % W`` and the step-j
    leaving bit at ``(out + m-1-j) % W``.  Read as slices of the
    unmasked register, E = ghist[start : start+m] and
    L = ghist[end : end+m], that is the standard fold of each slice:

        fold' = rot_m(fold) ^ fold(E) ^ rot_out(fold(L))

    For m == 1 this is exactly :meth:`FoldedHistory.update`.  The
    unmasked register keeps the leaving slices readable until the
    flush, and a flush every 1024 pending bits bounds its width.
    """

    def __init__(
        self, capacity: int, folds: Sequence[Tuple[int, int, int]]
    ) -> None:
        self._capacity = capacity
        self._ghist = 0
        self._ghist_mask = (1 << capacity) - 1
        self._pending = 0
        self._folds = [
            FoldedHistory(end - start, width) for start, end, width in folds
        ]
        # (fold, start, end, width, mask, out-position) per fold; start
        # and end double as the shifts selecting the entering and
        # leaving slices.
        self._fold_batch = [
            (fold, start, end, fold.width, (1 << fold.width) - 1,
             fold._out_position)
            for fold, (start, end, _) in zip(self._folds, folds)
        ]
        self._num_folds = len(self._folds)
        #: Incremental fold updates performed (observability).
        self.stat_fold_updates = 0

    def push(self, bits: int, count: int = 1) -> None:
        """Shift ``count`` bits in; the top bit of ``bits`` is oldest."""
        self._ghist = (self._ghist << count) | bits
        self._pending += count
        if self._pending >= 1024:
            self.flush()

    def flush(self) -> None:
        """Bring every fold current (see the class docstring)."""
        m = self._pending
        if not m:
            return
        ghist = self._ghist
        slice_mask = (1 << m) - 1
        for fold, start, end, width, fold_mask, out in self._fold_batch:
            f = fold.fold
            rot = m % width
            if rot:
                f = ((f << rot) | (f >> (width - rot))) & fold_mask
            # fold_int over both slices, inlined: m rarely exceeds a
            # few widths, so each loop runs once or twice.
            segment = (ghist >> start) & slice_mask
            while segment:
                f ^= segment & fold_mask
                segment >>= width
            leaving = 0
            segment = (ghist >> end) & slice_mask
            while segment:
                leaving ^= segment & fold_mask
                segment >>= width
            if out and leaving:
                leaving = ((leaving << out) | (leaving >> (width - out))) & (
                    fold_mask
                )
            fold.fold = f ^ leaving
        self.stat_fold_updates += m * self._num_folds
        self._pending = 0
        self._ghist = ghist & self._ghist_mask

    def restore(self, ghist: int, folds: Sequence[Dict[str, Any]]) -> None:
        """Load a flushed register, refusing folds it does not derive."""
        require(
            len(folds) == self._num_folds,
            f"fold count mismatch: snapshot has {len(folds)} folds, "
            f"this register {self._num_folds}",
        )
        require(0 <= ghist <= self._ghist_mask, "global history out of range")
        for (fold, start, end, width, _, _), payload in zip(
            self._fold_batch, folds
        ):
            fold.load_state(payload)
            require(
                fold.fold == fold_int(ghist >> start, end - start, width),
                f"fold of history bits [{start}, {end}) disagrees with "
                f"the history register",
            )
        self._ghist = ghist
        self._pending = 0

    def ring(self, head: int) -> List[int]:
        """The register as a ring of ``capacity`` bits, oldest at ``head``."""
        capacity = self._capacity
        bits = [
            int(bit)
            for bit in format(self._ghist & self._ghist_mask, f"0{capacity}b")
        ]
        return bits[capacity - head:] + bits[: capacity - head]

    def restore_ring(
        self, ring: Sequence[int], head: int, folds: Sequence[Dict[str, Any]]
    ) -> None:
        """:meth:`restore` from :meth:`ring`'s layout, range-checked."""
        capacity = self._capacity
        require(len(ring) == capacity, "history ring size mismatch")
        require(
            0 <= head < capacity,
            f"history ring head {head} outside [0, {capacity})",
        )
        require(
            all(bit in (0, 1) for bit in ring), "history ring bit not 0 or 1"
        )
        ordered = list(ring[head:]) + list(ring[:head])
        self.restore(
            int("".join("1" if bit else "0" for bit in ordered), 2), folds
        )
