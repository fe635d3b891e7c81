"""The Indirect Branch Target Buffer (IBTB, §3.1).

A 64-set × 64-way set-associative store of observed indirect-branch
targets, indexed by branch PC, with 8-bit partial tags, 2-bit RRIP
replacement, and region-compressed targets.  A lookup returns *all*
targets whose partial tag matches the branch — the candidate set that
BLBP scores against its predicted bit vector (Fig. 2's "Possible
Targets").

Storage is flat: one ``array('q')`` per entry field (tag, region index,
generation, offset, RRPV), set ``s`` owning the slice
``[s*ways, (s+1)*ways)``, with SRRIP-HP inlined over that slice.  Each
set's tag→ways index and lookup cache are rebuilt lazily after a load,
or after the compiled BLBP core (:mod:`repro.sim.native`) has replayed
a trace into the same fields in place.
Snapshots keep the per-set ``IBTBSet``/``RRIPPolicy`` layout.

Stale entries (whose region was recycled out of the region array) are
dropped lazily at lookup.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, List, Optional, Tuple

from repro.common.hashing import mix_pc
from repro.common.state import (
    CanonicalText,
    StateError,
    Stateful,
    canonical_json,
    check_state,
    require,
)
from repro.core.regions import RegionArray

#: Tag of an empty way; valid partial tags are non-negative.
_EMPTY = -1
#: Snapshot keys of the flat fields, in field order.
_KEYS = ("tags", "regions", "generations", "offsets", "rrpv")


class IndirectBTB(Stateful):
    """The RRIP-managed, region-compressed IBTB."""

    def __init__(
        self,
        num_sets: int = 64,
        num_ways: int = 64,
        tag_bits: int = 8,
        rrpv_bits: int = 2,
        regions: Optional[RegionArray] = None,
    ) -> None:
        if num_sets < 1 or num_ways < 1:
            raise ValueError("IBTB needs >= 1 set and >= 1 way")
        if tag_bits < 1:
            raise ValueError(f"need >= 1 tag bits, got {tag_bits}")
        if rrpv_bits < 1:
            raise ValueError(f"need >= 1 RRPV bits, got {rrpv_bits}")
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.tag_bits = tag_bits
        self.rrpv_bits = rrpv_bits
        self.regions = regions if regions is not None else RegionArray()
        self._max = (1 << rrpv_bits) - 1
        # Empty ways start at max RRPV so they are chosen as victims
        # first.  The arrays are only ever updated in place.
        self._fields = tuple(
            array("q", [initial]) * (num_sets * num_ways)
            for initial in (_EMPTY, 0, 0, 0, self._max)
        )
        (self._tags, self._regions, self._generations, self._offsets,
         self._rrpv) = self._fields
        #: Per set: bumped on any membership change; keys the cache.
        self._versions = [0] * num_sets
        #: Per set: tag -> ways, ``None`` until the set is next used.
        self._by_tag: List[Optional[dict]] = [None] * num_sets
        #: Per set: tag -> (set version, region version, candidates).
        self._caches: List[dict] = [{} for _ in range(num_sets)]

    def _locate(self, pc: int) -> Tuple[int, int]:
        hashed = mix_pc(pc)
        set_index = hashed % self.num_sets
        tag = (hashed >> 12) & ((1 << self.tag_bits) - 1)
        return set_index, tag

    def _entry(self, pc: int, way: int) -> int:
        """Flat index of ``way`` in the set for ``pc``."""
        if not 0 <= way < self.num_ways:
            raise ValueError(f"way {way} out of range [0, {self.num_ways})")
        return self._locate(pc)[0] * self.num_ways + way

    def _candidates(self, set_index: int, tag: int) -> List[Tuple[int, int]]:
        """(way, target) pairs for ``tag``, via the per-set lookup cache.

        A cached result stays valid while neither the set's membership
        nor any region mapping has changed (RRIP promotions change
        neither), which covers the common predict→train→predict run on a
        hot branch.  Stale region references are invalidated on a miss.
        The returned list is shared with the cache — callers must not
        mutate it.
        """
        regions = self.regions
        cache = self._caches[set_index]
        cached = cache.get(tag)
        if (
            cached is not None
            and cached[0] == self._versions[set_index]
            and cached[1] == regions.version
        ):
            return cached[2]
        base = set_index * self.num_ways
        by_tag = self._by_tag[set_index]
        if by_tag is None:
            by_tag = self._by_tag[set_index] = {}
            for way, stored in enumerate(self._tags[base : base + self.num_ways]):
                if stored != _EMPTY:
                    by_tag.setdefault(stored, set()).add(way)
        candidates: List[Tuple[int, int]] = []
        stale: List[int] = []
        for way in sorted(by_tag.get(tag, ())):
            target = regions.decode(
                self._regions[base + way],
                self._generations[base + way],
                self._offsets[base + way],
            )
            if target is None:
                stale.append(way)
            else:
                candidates.append((way, target))
        for way in stale:
            self._invalidate(set_index, way)
        cache[tag] = (self._versions[set_index], regions.version, candidates)
        return candidates

    def _invalidate(self, set_index: int, way: int) -> None:
        entry = set_index * self.num_ways + way
        tag = self._tags[entry]
        if tag != _EMPTY:
            ways = self._by_tag[set_index][tag]
            ways.discard(way)
            if not ways:
                del self._by_tag[set_index][tag]
            self._tags[entry] = _EMPTY
        self._versions[set_index] += 1  # also covers a fill's new tag

    def _fill(self, set_index: int, tag: int, target: int) -> int:
        """Store ``target`` over the SRRIP victim of an indexed set: the
        first way at max RRPV once the set has aged, inserted at max - 1."""
        region, generation, offset = self.regions.encode(target)
        base = set_index * self.num_ways
        rrpv = self._rrpv
        window = rrpv[base : base + self.num_ways]
        oldest = max(window)
        way = window.index(oldest)
        if oldest < self._max:
            for entry in range(base, base + self.num_ways):
                rrpv[entry] += self._max - oldest
        self._invalidate(set_index, way)
        entry = base + way
        self._tags[entry] = tag
        self._regions[entry] = region
        self._generations[entry] = generation
        self._offsets[entry] = offset
        rrpv[entry] = self._max - 1
        self._by_tag[set_index].setdefault(tag, set()).add(way)
        return way

    def lookup(self, pc: int) -> List[Tuple[int, int]]:
        """All (way, target) candidates whose partial tag matches ``pc``.

        Stale region references are invalidated on the way through, so
        the returned targets are always decodable.  The list may be a
        cached object shared across calls — treat it as read-only.
        """
        set_index, tag = self._locate(pc)
        return self._candidates(set_index, tag)

    def ensure(self, pc: int, target: int) -> int:
        """Guarantee ``target`` is stored for ``pc``; return its way.

        On a hit the way's RRIP value is promoted; on a fill the RRIP
        victim is evicted and the new way gets the insertion RRPV.
        """
        set_index, tag = self._locate(pc)
        for way, stored in self._candidates(set_index, tag):
            if stored == target:
                self._rrpv[set_index * self.num_ways + way] = 0
                return way
        return self._fill(set_index, tag, target)

    def touch(self, pc: int, way: int) -> None:
        """Promote ``way`` in the set for ``pc`` (correct-use hit)."""
        self._rrpv[self._entry(pc, way)] = 0

    def rrpv(self, pc: int, way: int) -> int:
        """The RRPV of ``way`` in the set for ``pc``."""
        return self._rrpv[self._entry(pc, way)]

    def occupancy(self) -> int:
        """Total live entries across all sets."""
        return len(self._tags) - self._tags.count(_EMPTY)

    def storage_bits(self) -> int:
        """IBTB state: tag + region number + offset + RRPV per entry."""
        region_number_bits = max(1, (self.regions.num_entries - 1).bit_length())
        entry_bits = (
            self.tag_bits
            + region_number_bits
            + self.regions.offset_bits
            + self.rrpv_bits
        )
        return self.num_sets * self.num_ways * entry_bits

    def _restore_flat(self, flat: tuple) -> None:
        """Write validated flat fields and a region snapshot back in
        place (the hierarchical IBTB shares the regions)."""
        fields, regions = flat
        self.regions.load_state(regions)
        for field, values in zip(self._fields, fields):
            field[:] = values
        self._reindex()

    def _reindex(self) -> None:
        """Drop the per-set indexes and lookup caches derived from the
        fields, after the fields changed underneath them (a restore, or
        a compiled replay); they rebuild lazily."""
        self._by_tag = [None] * self.num_sets
        self._caches = [{} for _ in range(self.num_sets)]

    def state_dict(self) -> Dict[str, Any]:
        # The tag→ways index and the lookup caches (with the versions
        # that key them) are derived, so they are excluded.
        ways = self.num_ways
        columns = [field.tolist() for field in self._fields]
        return self._state([
            self._set_state(*(column[base : base + ways] for column in columns))
            for base in range(0, len(columns[0]), ways)
        ])

    def hash_view(self) -> Dict[str, Any]:
        """:meth:`state_dict` with the sets as one
        :class:`~repro.common.state.CanonicalText`, rendered from the
        flat fields once per distinct set (a young IBTB's sets are
        mostly identical and empty)."""
        ways = self.num_ways
        raw = [field.tobytes() for field in self._fields]
        width = 8 * ways
        rendered: Dict[tuple, str] = {}
        texts = []
        for start in range(0, len(raw[0]), width):
            key = tuple(column[start : start + width] for column in raw)
            text = rendered.get(key)
            if text is None:
                base = start // 8
                text = rendered[key] = canonical_json(self._set_state(*(
                    field[base : base + ways].tolist() for field in self._fields
                )))
            texts.append(text)
        return self._state(CanonicalText(f"[{','.join(texts)}]"))

    def _set_state(
        self, tags: list, regions: list, generations: list, offsets: list,
        rrpv: list,
    ) -> Dict[str, Any]:
        return {
            "v": 1, "kind": "IBTBSet", "ways": self.num_ways,
            "tags": [None if tag == _EMPTY else tag for tag in tags],
            "regions": regions, "generations": generations,
            "offsets": offsets,
            "rrip": {"v": 1, "kind": "RRIPPolicy", "num_ways": self.num_ways,
                     "rrpv_bits": self.rrpv_bits, "rrpv": rrpv},
        }

    def _state(self, sets: Any) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "IndirectBTB",
            "num_sets": self.num_sets,
            "num_ways": self.num_ways,
            "tag_bits": self.tag_bits,
            "rrpv_bits": self.rrpv_bits,
            "regions": self.regions.state_dict(),
            "sets": sets,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "IndirectBTB")
        require(
            state["num_sets"] == self.num_sets
            and state["num_ways"] == self.num_ways
            and state["tag_bits"] == self.tag_bits
            and state["rrpv_bits"] == self.rrpv_bits,
            "IndirectBTB geometry mismatch",
        )
        require(len(state["sets"]) == self.num_sets, "IBTB set count mismatch")
        ways = self.num_ways
        columns: Tuple[list, ...] = ([], [], [], [], [])
        for bucket in state["sets"]:
            check_state(bucket, "IBTBSet")
            rrip = check_state(bucket["rrip"], "RRIPPolicy")
            require(
                bucket["ways"] == ways == rrip["num_ways"]
                and rrip["rrpv_bits"] == self.rrpv_bits,
                "IBTB set geometry mismatch",
            )
            for column, key in zip(columns, _KEYS):
                values = rrip[key] if key == "rrpv" else bucket[key]
                require(len(values) == ways, "IBTB set arrays malformed")
                column.extend(values)
        # Ranges are checked once per field over the whole table.  The
        # None count catches a literal -1 tag posing as the sentinel.
        empty = columns[0].count(None)
        tags = [_EMPTY if tag is None else tag for tag in columns[0]]
        try:
            fields = [array("q", values) for values in (tags,) + columns[1:]]
        except (TypeError, OverflowError) as exc:
            raise StateError(f"IBTB entries malformed: {exc}") from None
        require(fields[0].count(_EMPTY) == empty, "IBTB tags out of range")
        limits = (1 << self.tag_bits, self.regions.num_entries, None,
                  1 << self.regions.offset_bits, self._max + 1)
        for key, field, limit in zip(_KEYS, fields, limits):
            require(
                min(field) >= (_EMPTY if key == "tags" else 0)
                and (limit is None or max(field) < limit),
                f"IBTB {key} out of range",
            )
        self._restore_flat((fields, state["regions"]))
