"""Property-based tests on whole predictors: no-crash, candidate
containment, and determinism under arbitrary branch streams."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BLBP
from repro.core.config import BLBPConfig
from repro.predictors import ITTAGE, BranchTargetBuffer, VPCPredictor
from repro.trace.record import BranchType

pcs = st.sampled_from([0x1000, 0x1040, 0x2000, 0x2100])
targets = st.sampled_from(
    [0x40_0004, 0x40_0128, 0x40_0A3C, 0x41_0010, 0x42_0844]
)

events = st.lists(
    st.one_of(
        st.tuples(st.just("cond"), pcs, st.booleans()),
        st.tuples(st.just("indirect"), pcs, targets),
    ),
    max_size=120,
)


def _replay(predictor, stream):
    outcomes = []
    for event in stream:
        if event[0] == "cond":
            predictor.on_conditional(event[1], event[2])
        else:
            _, pc, target = event
            prediction = predictor.predict_target(pc)
            predictor.train(pc, target)
            predictor.on_retired(pc, int(BranchType.INDIRECT_JUMP), target)
            outcomes.append(prediction)
    return outcomes


class TestBLBPProperties:
    @settings(max_examples=30, deadline=None)
    @given(stream=events)
    def test_prediction_is_none_or_known_candidate(self, stream):
        predictor = BLBP(BLBPConfig(table_rows=64))
        seen = set()
        for event in stream:
            if event[0] == "cond":
                predictor.on_conditional(event[1], event[2])
                continue
            _, pc, target = event
            prediction = predictor.predict_target(pc)
            if prediction is not None:
                assert prediction in set(predictor.candidate_targets(pc))
            predictor.train(pc, target)
            seen.add(target)

    @settings(max_examples=15, deadline=None)
    @given(stream=events)
    def test_deterministic_replay(self, stream):
        config = BLBPConfig(table_rows=64)
        assert _replay(BLBP(config), stream) == _replay(BLBP(config), stream)

    @settings(max_examples=15, deadline=None)
    @given(stream=events)
    def test_weights_stay_saturated(self, stream):
        predictor = BLBP(BLBPConfig(table_rows=64))
        _replay(predictor, stream)
        for bank in predictor.weights.weights:
            assert int(bank.max()) <= 7
            assert int(bank.min()) >= -7


class TestBaselineProperties:
    @settings(max_examples=15, deadline=None)
    @given(stream=events)
    def test_ittage_deterministic(self, stream):
        assert _replay(ITTAGE(), stream) == _replay(ITTAGE(), stream)

    @settings(max_examples=15, deadline=None)
    @given(stream=events)
    def test_btb_predicts_last_trained(self, stream):
        predictor = BranchTargetBuffer()
        last = {}
        for event in stream:
            if event[0] != "indirect":
                continue
            _, pc, target = event
            prediction = predictor.predict_target(pc)
            if pc in last:
                assert prediction == last[pc]
            predictor.train(pc, target)
            last[pc] = target

    @settings(max_examples=10, deadline=None)
    @given(stream=events)
    def test_vpc_never_crashes(self, stream):
        predictor = VPCPredictor()
        outcomes = _replay(predictor, stream)
        assert all(o is None or isinstance(o, int) for o in outcomes)
