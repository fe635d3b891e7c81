"""Model-based properties of the flat IBTB storage.

* SRRIP parity: the IBTB's inline SRRIP-HP over each set's slice picks
  the same victims and leaves the same RRPV vectors as one
  :class:`RRIPPolicy` per set driving a plain per-way model.
* Content key: ``content_key()`` is equal exactly when ``state_dict()``
  is, and survives a ``load_state`` restore.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.hashing import mix_pc
from repro.common.replacement import RRIPPolicy
from repro.core.ibtb import IndirectBTB

pcs = st.integers(min_value=0, max_value=(1 << 20) - 1).map(lambda v: v * 4)
# A few regions' worth of targets, so region recycling never happens
# (the default region array has 128 entries).
targets = st.integers(min_value=0, max_value=63).map(
    lambda v: 0x40_0000 + (v % 3) * (1 << 20) + (v // 3) * 0x40
)
geometries = st.tuples(
    st.integers(min_value=1, max_value=4),  # sets
    st.integers(min_value=1, max_value=8),  # ways
    st.integers(min_value=1, max_value=3),  # rrpv bits
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("ensure"), pcs, targets),
        st.tuples(st.just("touch"), pcs, st.integers(0, 7)),
    ),
    max_size=80,
)


class _ModelIBTB:
    """Per-set ``RRIPPolicy`` plus (tag, target) per way."""

    def __init__(self, num_sets, num_ways, rrpv_bits, tag_bits=8):
        self.num_sets = num_sets
        self.tag_mask = (1 << tag_bits) - 1
        self.policies = [RRIPPolicy(num_ways, rrpv_bits) for _ in range(num_sets)]
        self.entries = [[None] * num_ways for _ in range(num_sets)]

    def locate(self, pc):
        hashed = mix_pc(pc)
        return hashed % self.num_sets, (hashed >> 12) & self.tag_mask

    def ensure(self, pc, target):
        set_index, tag = self.locate(pc)
        ways, policy = self.entries[set_index], self.policies[set_index]
        for way, entry in enumerate(ways):
            if entry == (tag, target):
                policy.touch(way)
                return way
        victim = policy.victim()
        ways[victim] = (tag, target)
        policy.insert(victim)
        return victim

    def touch(self, pc, way):
        self.policies[self.locate(pc)[0]].touch(way)


class TestSRRIPParity:
    @settings(max_examples=150, deadline=None)
    @given(geometry=geometries, ops=operations)
    def test_victims_and_rrpv_vectors_match_rrip_policy(self, geometry, ops):
        num_sets, num_ways, rrpv_bits = geometry
        ibtb = IndirectBTB(num_sets=num_sets, num_ways=num_ways,
                           rrpv_bits=rrpv_bits)
        model = _ModelIBTB(num_sets, num_ways, rrpv_bits)
        for kind, pc, operand in ops:
            if kind == "ensure":
                assert ibtb.ensure(pc, operand) == model.ensure(pc, operand)
            else:
                way = operand % num_ways
                ibtb.touch(pc, way)
                model.touch(pc, way)
            state = ibtb.state_dict()
            for bucket, policy in zip(state["sets"], model.policies):
                assert bucket["rrip"]["rrpv"] == policy.state_dict()["rrpv"]
        for pc, target in {(pc, t) for kind, pc, t in ops if kind == "ensure"}:
            set_index, tag = model.locate(pc)
            stored = {t for _, t in ibtb.lookup(pc)}
            expected = {
                entry[1] for entry in model.entries[set_index]
                if entry is not None and entry[0] == tag
            }
            assert stored == expected


def _driven(geometry, ops):
    num_sets, num_ways, rrpv_bits = geometry
    ibtb = IndirectBTB(num_sets=num_sets, num_ways=num_ways,
                       rrpv_bits=rrpv_bits)
    for kind, pc, operand in ops:
        if kind == "ensure":
            ibtb.ensure(pc, operand)
        else:
            ibtb.touch(pc, operand % num_ways)
    return ibtb


class TestContentKey:
    @settings(max_examples=100, deadline=None)
    @given(
        geometry=geometries,
        first=operations,
        second=operations,
        same=st.booleans(),
        cut=st.integers(min_value=0, max_value=80),
    )
    def test_key_equal_exactly_when_state_equal(
        self, geometry, first, second, same, cut
    ):
        # ``same`` biases toward equal states: one stream and a prefix
        # of it, which are equal whenever the tail changes nothing.
        a = _driven(geometry, first)
        b = _driven(geometry, first[:cut] if same else second)
        assert (a.content_key() == b.content_key()) == (
            a.state_dict() == b.state_dict()
        )

    @settings(max_examples=60, deadline=None)
    @given(geometry=geometries, ops=operations)
    def test_restored_ibtb_keeps_its_source_key(self, geometry, ops):
        source = _driven(geometry, ops)
        num_sets, num_ways, rrpv_bits = geometry
        restored = IndirectBTB(num_sets=num_sets, num_ways=num_ways,
                               rrpv_bits=rrpv_bits)
        restored.load_state(json.loads(json.dumps(source.state_dict())))
        assert restored.content_key() == source.content_key()

    def test_geometry_is_part_of_the_key(self):
        assert (
            IndirectBTB(num_sets=2, num_ways=4).content_key()
            != IndirectBTB(num_sets=4, num_ways=2).content_key()
        )
