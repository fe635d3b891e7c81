"""The streamed state hash equals SHA-256 of the canonical JSON.

:func:`repro.common.state.hash_state` never runs the array payloads (or
BLBP's IBTB sets) through ``json.dumps``: it serializes a skeleton with
placeholders and feeds the pieces to SHA-256.  These tests pin that the
digest is still exactly ``sha256(canonical_json(state))``, for every
registered predictor fresh and stepped, and for arbitrary nested
states, and that a hash leaves no garbage behind.
"""

import gc
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.state import (
    CanonicalText,
    StateError,
    canonical_json,
    encode_array,
    hash_state,
)
from repro.core.ibtb import IndirectBTB
from repro.registry import indirect_names, make_indirect
from repro.serve.protocol import trace_events
from repro.serve.session import PredictorSession
from repro.workloads.vdispatch import VirtualDispatchSpec


def _reference(state) -> str:
    return hashlib.sha256(canonical_json(state).encode("utf-8")).hexdigest()


def _events():
    return trace_events(
        VirtualDispatchSpec(
            name="hash-stream", seed=5, num_records=300, num_sites=6,
            num_types=5, filler_conditionals=3,
        ).generate()
    )


class TestRegistry:
    @pytest.mark.parametrize("key", indirect_names())
    def test_fresh_and_stepped(self, key):
        session = PredictorSession("h", key)
        predictor = session.predictor
        assert predictor.state_hash() == _reference(predictor.state_dict())
        session.step_events(_events())
        assert predictor.state_hash() == _reference(predictor.state_dict())

    def test_blbp_hashes_the_rendered_ibtb_view(self, monkeypatch):
        """The base ``state_hash`` is the one entry point; BLBP only
        supplies a view whose IBTB sets are pre-rendered."""
        predictor = make_indirect("BLBP")
        assert "state_hash" not in type(predictor).__dict__
        views = []
        hash_view = IndirectBTB.hash_view

        def spy(ibtb):
            views.append(hash_view(ibtb))
            return views[-1]

        monkeypatch.setattr(IndirectBTB, "hash_view", spy)
        digest = predictor.state_hash()
        assert [type(view["sets"]) for view in views] == [CanonicalText]
        assert digest == _reference(predictor.state_dict())

    def test_ibtb_with_distinct_sets(self):
        """Every set different, so the hash view renders each one."""
        ibtb = IndirectBTB(num_sets=16, num_ways=4)
        rng = np.random.default_rng(3)
        for field, high in zip(ibtb._fields, (256, 128, 9, 1 << 20, 4)):
            field[:] = type(field)("q", rng.integers(-1, high, len(field)))
        assert hash_state(ibtb.hash_view()) == _reference(ibtb.state_dict())


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=False, allow_infinity=False),
    # Strings that look like placeholders or need escaping.
    st.sampled_from([
        "\x00part0:0", "\x00part1:0", '"\x00part0:', "\\u0000part0:",
        "\x00", '"', "\\", "é", " ",
    ]),
)

_ARRAYS = st.builds(
    lambda values, dtype: encode_array(np.asarray(values, dtype=dtype)),
    st.lists(st.integers(0, 255), max_size=40),
    st.sampled_from(["uint8", "int64", "uint64", "float64"]),
)

#: ``__ndarray__`` payloads that are not plain base64.
_ODD_ARRAYS = st.builds(
    lambda text: {"__ndarray__": text, "dtype": "uint8", "shape": [0]},
    st.text(max_size=6),
)

_KEYS = st.one_of(
    st.text(max_size=6), st.sampled_from(["__ndarray__", "\x00part0:1", "é"])
)

_STATES = st.recursive(
    st.one_of(_SCALARS, _ARRAYS, _ODD_ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=20,
)


class TestArbitraryStates:
    @given(st.dictionaries(_KEYS, _STATES, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_equals_canonical_json_digest(self, state):
        assert hash_state(state) == _reference(state)

    @given(st.dictionaries(st.text(max_size=4), _STATES, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_key_order_does_not_matter(self, state):
        reordered = dict(reversed(list(state.items())))
        assert hash_state(reordered) == hash_state(state)

    @given(_STATES)
    @settings(max_examples=100, deadline=None)
    def test_canonical_text_stands_for_its_value(self, value):
        state = {"a": value, "b": [1, value]}
        text = CanonicalText(canonical_json({"x": value})[5:-1])
        assert hash_state({"a": text, "b": [1, text]}) == _reference(state)

    def test_canonical_json_refuses_canonical_text(self):
        with pytest.raises(StateError):
            canonical_json({"a": CanonicalText("1")})

    def test_non_json_still_refused(self):
        with pytest.raises(StateError):
            hash_state({"a": {1, 2}})


class TestNoGarbage:
    def test_hash_leaves_nothing_for_the_collector(self):
        state = {
            "tables": [encode_array(np.arange(5000)) for _ in range(3)],
            "nested": {"a": [encode_array(np.ones(3)), {"b": 1}]},
            "text": CanonicalText(json.dumps([1, 2])),
        }
        gc.collect()
        hash_state(state)
        assert gc.collect() == 0

    @pytest.mark.parametrize("key", ["BLBP", "ITTAGE", "BTB"])
    def test_predictor_hash_leaves_nothing(self, key):
        predictor = make_indirect(key)
        predictor.state_hash()
        gc.collect()
        predictor.state_hash()
        assert gc.collect() == 0
