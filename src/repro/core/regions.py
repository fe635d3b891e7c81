"""Region-based target compression (§3.6, borrowed from ITTAGE).

Branch targets cluster in a handful of memory regions (the text segments
of the binary and its libraries).  Instead of storing full 64-bit
targets, the IBTB stores a small *region number* — an index into a
shared array of high-order address bits — plus a low-order offset,
roughly halving target storage.  The region array uses LRU replacement.

Eviction semantics are modelled honestly: each region entry carries a
generation number, and IBTB entries remember the generation they encoded
against.  When a region is recycled, stale IBTB entries referencing it
decode to ``None`` and are dropped, exactly as hardware would invalidate
or misdecode them.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Optional, Tuple

from repro.common.replacement import LRUPolicy
from repro.common.state import Stateful, check_state, require

#: High bits of a free region; live high bits are non-negative.
FREE = -1


class RegionArray(Stateful):
    """LRU-managed array of high-order target-address regions.

    The state lives in flat ``array('q')`` buffers the compiled BLBP
    core updates in place: the high bits per region (:data:`FREE` when
    unallocated), the generation per region, and the LRU order as a
    last-touch stamp per region (0 = never touched) from ``_clock``.
    Snapshots keep the :class:`~repro.common.replacement.LRUPolicy`
    recency-stack layout.
    """

    def __init__(self, num_entries: int = 128, offset_bits: int = 20) -> None:
        if num_entries < 1:
            raise ValueError(f"need >= 1 regions, got {num_entries}")
        if offset_bits < 1:
            raise ValueError(f"need >= 1 offset bits, got {offset_bits}")
        self.num_entries = num_entries
        self.offset_bits = offset_bits
        self._high_bits = array("q", [FREE]) * num_entries
        self._generation = array("q", [0]) * num_entries
        self._stamps = array("q", [0]) * num_entries
        self._clock = 0
        #: Total region evictions (monitoring / tests).
        self.evictions = 0
        #: Bumped whenever any region mapping changes (allocation or
        #: recycling).  Lets IBTB lookup caches validate cheaply: while
        #: this and the set's membership version are unchanged, every
        #: previous decode result still holds.
        self.version = 0

    def _touch(self, index: int) -> None:
        self._clock += 1
        self._stamps[index] = self._clock

    def encode(self, target: int) -> Tuple[int, int, int]:
        """Encode ``target`` as (region index, generation, offset).

        Allocates a region (evicting LRU, untouched regions first) if
        the high bits are new.
        """
        high = target >> self.offset_bits
        offset = target & ((1 << self.offset_bits) - 1)
        try:
            index = self._high_bits.index(high)
        except ValueError:
            stamps = self._stamps
            index = stamps.index(min(stamps))
            if self._high_bits[index] != FREE:
                self.evictions += 1
            self._high_bits[index] = high
            self._generation[index] += 1
            self.version += 1
        self._touch(index)
        return index, self._generation[index], offset

    def decode(self, index: int, generation: int, offset: int) -> Optional[int]:
        """Reconstruct a target; ``None`` if the region was recycled."""
        if not 0 <= index < self.num_entries:
            raise ValueError(f"region index {index} out of range")
        high = self._high_bits[index]
        if high == FREE or self._generation[index] != generation:
            return None
        return (high << self.offset_bits) | offset

    def occupancy(self) -> int:
        """Number of live region entries."""
        return self.num_entries - self._high_bits.count(FREE)

    def storage_bits(self) -> int:
        """Region storage: high-order bits per entry plus LRU state."""
        high_width = 64 - self.offset_bits
        lru_bits = LRUPolicy.storage_bits_per_entry(self.num_entries)
        return self.num_entries * (high_width + lru_bits)

    def state_dict(self) -> Dict[str, Any]:
        # `version` is cache-invalidation bookkeeping, not architectural
        # state: lookup caches key on it, and every cache is empty after
        # a restore, so a restored array may restart it from zero.  It is
        # excluded so restored and never-suspended predictors hash equal.
        # So is the clock: only the stamps' order is architectural.
        touched = sorted(
            (way for way in range(self.num_entries) if self._stamps[way]),
            key=self._stamps.__getitem__,
            reverse=True,
        )
        return {
            "v": 1,
            "kind": "RegionArray",
            "num_entries": self.num_entries,
            "offset_bits": self.offset_bits,
            "high_bits": [
                None if high == FREE else high for high in self._high_bits
            ],
            "generation": list(self._generation),
            "lru": {
                "v": 1,
                "kind": "LRUPolicy",
                "num_ways": self.num_entries,
                "stack": touched,
            },
            "evictions": self.evictions,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "RegionArray")
        require(
            state["num_entries"] == self.num_entries
            and state["offset_bits"] == self.offset_bits,
            "RegionArray geometry mismatch",
        )
        high_bits = state["high_bits"]
        generation = state["generation"]
        require(
            len(high_bits) == self.num_entries
            and len(generation) == self.num_entries,
            "RegionArray table size mismatch",
        )
        require(
            all(high is None or int(high) >= 0 for high in high_bits),
            "RegionArray high bits out of range",
        )
        lru = LRUPolicy(self.num_entries)
        lru.load_state(state["lru"])
        stack = lru.recency_order()
        # Buffers are rewritten in place: the compiled core and any
        # IBTB sharing this array keep their references.
        self._high_bits[:] = array(
            "q", [FREE if high is None else int(high) for high in high_bits]
        )
        self._generation[:] = array("q", [int(value) for value in generation])
        self._stamps[:] = array("q", [0]) * self.num_entries
        for rank, way in enumerate(stack):
            self._stamps[way] = len(stack) - rank
        self._clock = len(stack)
        self.evictions = int(state["evictions"])
        self.version = 0
