"""Unit tests for the IBTB (§3.1)."""

import json

import pytest

from repro.common.state import StateError
from repro.core.ibtb import IndirectBTB
from repro.core.regions import RegionArray


class TestIndirectBTB:
    def test_cold_lookup_empty(self):
        ibtb = IndirectBTB()
        assert ibtb.lookup(0x1000) == []

    def test_ensure_then_lookup(self):
        ibtb = IndirectBTB()
        way = ibtb.ensure(0x1000, 0x40_0000)
        candidates = ibtb.lookup(0x1000)
        assert (way, 0x40_0000) in candidates

    def test_multiple_targets_accumulate(self):
        ibtb = IndirectBTB()
        targets = [0x40_0000 + i * 0x40 for i in range(5)]
        for target in targets:
            ibtb.ensure(0x1000, target)
        stored = {target for _, target in ibtb.lookup(0x1000)}
        assert stored == set(targets)

    def test_duplicate_ensure_is_idempotent(self):
        ibtb = IndirectBTB()
        way_a = ibtb.ensure(0x1000, 0x40_0000)
        way_b = ibtb.ensure(0x1000, 0x40_0000)
        assert way_a == way_b
        assert len(ibtb.lookup(0x1000)) == 1

    def test_capacity_bounded_by_ways(self):
        ibtb = IndirectBTB(num_sets=4, num_ways=4)
        for i in range(16):
            ibtb.ensure(0x1000, 0x40_0000 + i * 0x40)
        assert len(ibtb.lookup(0x1000)) <= 4

    def test_rrip_eviction_replaces_cold_targets(self):
        ibtb = IndirectBTB(num_sets=1, num_ways=2)
        ibtb.ensure(0x1000, 0xA000)
        ibtb.ensure(0x1000, 0xB000)
        # Touch A so B ages out when C arrives.
        candidates = dict(
            (target, way) for way, target in ibtb.lookup(0x1000)
        )
        ibtb.touch(0x1000, candidates[0xA000])
        ibtb.ensure(0x1000, 0xC000)
        targets = {target for _, target in ibtb.lookup(0x1000)}
        assert 0xA000 in targets
        assert 0xC000 in targets

    def test_stale_region_entries_dropped(self):
        regions = RegionArray(num_entries=1, offset_bits=20)
        ibtb = IndirectBTB(num_sets=2, num_ways=4, regions=regions)
        ibtb.ensure(0x1000, 0x1_0000_0000)
        ibtb.ensure(0x1000, 0x2_0000_0000)  # recycles the only region
        targets = {target for _, target in ibtb.lookup(0x1000)}
        assert targets == {0x2_0000_0000}

    def test_distinct_branches_different_tags(self):
        ibtb = IndirectBTB()
        ibtb.ensure(0x1000, 0xA000)
        ibtb.ensure(0x2344, 0xB000)
        assert {t for _, t in ibtb.lookup(0x1000)} == {0xA000}
        assert {t for _, t in ibtb.lookup(0x2344)} == {0xB000}

    def test_occupancy_counts_entries(self):
        ibtb = IndirectBTB()
        assert ibtb.occupancy() == 0
        ibtb.ensure(0x1000, 0xA000)
        ibtb.ensure(0x1000, 0xB000)
        assert ibtb.occupancy() == 2

    def test_storage_bits_paper_shape(self):
        """64 sets x 64 ways x (8 tag + 7 region + 20 offset + 2 rrip)."""
        ibtb = IndirectBTB()
        assert ibtb.storage_bits() == 64 * 64 * (8 + 7 + 20 + 2)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            IndirectBTB(num_sets=0)
        with pytest.raises(ValueError):
            IndirectBTB(tag_bits=0)


def _warm_ibtb(**geometry):
    ibtb = IndirectBTB(**geometry)
    for i in range(40):
        ibtb.ensure(0x1000 + 0x40 * (i % 7), 0x40_0000 + 0x40 * i)
    return ibtb


def _first_live(state):
    """(set, way) of the first filled way in an IBTB snapshot."""
    for set_index, bucket in enumerate(state["sets"]):
        for way, tag in enumerate(bucket["tags"]):
            if tag is not None:
                return set_index, way
    raise AssertionError("snapshot holds no entries")


class TestIBTBSnapshots:
    def test_round_trip_preserves_state_and_lookups(self):
        source = _warm_ibtb(num_sets=4, num_ways=8)
        restored = IndirectBTB(num_sets=4, num_ways=8)
        restored.load_state(json.loads(json.dumps(source.state_dict())))
        assert restored.state_dict() == source.state_dict()
        assert restored.content_key() == source.content_key()
        for pc in range(0x1000, 0x1000 + 0x40 * 7, 0x40):
            assert restored.lookup(pc) == source.lookup(pc)
        # The lazily rebuilt index drives later fills exactly like the
        # never-suspended source's.
        for ibtb in (source, restored):
            ibtb.ensure(0x1040, 0x50_0000)
            ibtb.ensure(0x5000, 0x50_0040)
        assert restored.state_hash() == source.state_hash()

    def test_snapshot_keeps_per_set_layout(self):
        state = IndirectBTB(num_sets=2, num_ways=3, rrpv_bits=2).state_dict()
        assert [bucket["kind"] for bucket in state["sets"]] == ["IBTBSet"] * 2
        bucket = state["sets"][0]
        assert list(bucket) == [
            "v", "kind", "ways", "tags", "regions", "generations",
            "offsets", "rrip",
        ]
        assert bucket["tags"] == [None, None, None]
        assert bucket["rrip"] == {
            "v": 1, "kind": "RRIPPolicy", "num_ways": 3, "rrpv_bits": 2,
            "rrpv": [3, 3, 3],
        }

    def test_rrpv_accessor_matches_snapshot(self):
        ibtb = IndirectBTB(num_sets=1, num_ways=4, rrpv_bits=2)
        way = ibtb.ensure(0x1000, 0xA000)
        assert ibtb.rrpv(0x1000, way) == 2
        ibtb.touch(0x1000, way)
        assert ibtb.rrpv(0x1000, way) == 0
        assert ibtb.state_dict()["sets"][0]["rrip"]["rrpv"] == [0, 3, 3, 3]
        with pytest.raises(ValueError, match="out of range"):
            ibtb.rrpv(0x1000, 4)


class TestCorruptSnapshotsRejected:
    """A snapshot whose entries cannot decode fails at ``load_state``,
    not at some later lookup, and leaves the IBTB untouched."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("regions", 999),  # 128 regions
            ("regions", -1),
            ("offsets", 1 << 40),  # 20 offset bits
            ("offsets", -1),
            ("tags", 256),  # 8 tag bits
            ("tags", -1),  # would alias the empty-way sentinel
            ("generations", -1),
        ],
    )
    def test_out_of_range_entry(self, field, value):
        state = _warm_ibtb().state_dict()
        set_index, way = _first_live(state)
        state["sets"][set_index][field][way] = value
        target = _warm_ibtb()
        before = target.state_hash()
        with pytest.raises(StateError, match=field):
            target.load_state(state)
        assert target.state_hash() == before

    def test_out_of_range_rrpv(self):
        state = _warm_ibtb(rrpv_bits=2).state_dict()
        state["sets"][3]["rrip"]["rrpv"][5] = 4
        with pytest.raises(StateError, match="rrpv"):
            IndirectBTB(rrpv_bits=2).load_state(state)

    def test_empty_way_tags_may_stay_none(self):
        state = IndirectBTB().state_dict()
        IndirectBTB().load_state(state)  # every tag None: valid

    def test_ragged_set_rejected(self):
        state = _warm_ibtb().state_dict()
        state["sets"][0]["offsets"].append(0)
        state["sets"][1]["offsets"].pop()
        with pytest.raises(StateError, match="malformed"):
            IndirectBTB().load_state(state)

    def test_non_integer_entry_rejected(self):
        state = _warm_ibtb().state_dict()
        state["sets"][0]["regions"][0] = None
        with pytest.raises(StateError, match="malformed"):
            IndirectBTB().load_state(state)
