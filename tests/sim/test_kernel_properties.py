"""Property tests for the BLBP kernel's compiled replay on row collisions.

The traces hypothesis generates here are engineered so that every
weight read depends on the previous branch's training — tiny PC pools
produce same-PC back-to-back indirect branches that hit the same bank
rows — so any divergence of the compiled core from the scalar
observe/train semantics shows up as a per-branch prediction mismatch
within a few records.

The degenerate-shape cases also run as two identical lanes of a fused
group, so both the one-lane and the multi-lane call into
``blbp_replay_many`` are pinned.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BLBP
from repro.sim.kernel import simulate_columnar_many
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace

#: Every columnar replay runs through the compiled cores.
pytestmark = pytest.mark.usefixtures("compiled_cores")

_COND = int(BranchType.CONDITIONAL)
_INDIRECT = (int(BranchType.INDIRECT_JUMP), int(BranchType.INDIRECT_CALL))

#: Deliberately tiny pools: repeated PCs mean consecutive branches hit
#: the same weight rows, so each read depends on the previous update.
_PCS = [0x4000, 0x4000, 0x4040, 0x5000]
_TARGETS = [0x10_0000, 0x10_0040, 0x10_0080, 0x11_0000]


@st.composite
def dependent_traces(draw):
    """Traces dominated by same-PC back-to-back indirect branches."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["ind", "ind", "ind", "cond"]),
                st.integers(0, len(_PCS) - 1),
                st.integers(0, len(_TARGETS) - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    records = []
    for kind, pc_index, target_index, taken in events:
        if kind == "cond":
            records.append(
                BranchRecord(
                    0x900 + 8 * pc_index, BranchType.CONDITIONAL,
                    taken, 0x910, inst_gap=1,
                )
            )
        else:
            records.append(
                BranchRecord(
                    _PCS[pc_index], BranchType.INDIRECT_JUMP,
                    True, _TARGETS[target_index], inst_gap=2,
                )
            )
    return Trace.from_records("hyp-dependent", records)


def _scalar_per_branch(trace):
    """Per-branch predictions from driving BLBP exactly as the engine
    does, plus the predictor for final-state comparison."""
    predictor = BLBP()
    predictions = []
    for pc, branch_type, taken, target in zip(
        trace.pcs.tolist(),
        trace.types.tolist(),
        trace.takens.tolist(),
        trace.targets.tolist(),
    ):
        if branch_type == _COND:
            predictor.on_conditional(pc, taken)
        elif branch_type in _INDIRECT:
            predictions.append(predictor.predict_target(pc))
            predictor.train(pc, target)
    return predictions, predictor


def _assert_lockstep(trace, fused: bool = False) -> None:
    """Lockstep against scalar; ``fused`` replays two identical lanes
    through one multi-lane call and checks the second."""
    scalar_predictions, scalar_predictor = _scalar_per_branch(trace)
    columnar_predictor = BLBP()
    sink = {}
    if fused:
        simulate_columnar_many(
            [BLBP(), columnar_predictor], trace,
            prediction_sinks=[None, sink],
        )
    else:
        simulate_columnar_many(
            [columnar_predictor], trace, prediction_sinks=[sink]
        )
    assert len(scalar_predictions) == len(sink["predictions"])
    for position, (scalar, valid, predicted) in enumerate(
        zip(
            scalar_predictions,
            sink["valid"].tolist(),
            sink["predictions"].tolist(),
        )
    ):
        columnar = predicted if valid else None
        assert scalar == columnar, (
            f"indirect #{position}: scalar {scalar!r} vs "
            f"columnar {columnar!r}"
        )
    assert scalar_predictor.state_hash() == columnar_predictor.state_hash()


class TestOrderingBarriers:
    """Each branch's weight read must see the previous branch's update:
    the retirement order the compiled replay has to respect."""

    @settings(max_examples=60, deadline=None)
    @given(trace=dependent_traces())
    def test_lockstep_on_dependent_traces(self, trace):
        _assert_lockstep(trace)


class TestDerivedEdgeCases:
    """The degenerate shapes ``derived.py`` must hand the kernel."""

    @pytest.mark.parametrize("fused", [False, True])
    def test_empty_conditional_stream(self, fused):
        """Only indirect branches: the conditional bitstream is empty,
        so fold tables and ghist write-back run on zero outcomes."""
        records = [
            BranchRecord(
                _PCS[i % len(_PCS)], BranchType.INDIRECT_JUMP, True,
                _TARGETS[i % len(_TARGETS)], inst_gap=1,
            )
            for i in range(40)
        ]
        _assert_lockstep(
            Trace.from_records("no-conds", records), fused
        )

    @pytest.mark.parametrize("fused", [False, True])
    def test_single_indirect_branch(self, fused):
        trace = Trace.from_records(
            "one-indirect",
            [BranchRecord(0x4000, BranchType.INDIRECT_CALL, True,
                          0x10_0000, inst_gap=1)],
        )
        _assert_lockstep(trace, fused)

    @pytest.mark.parametrize("fused", [False, True])
    def test_no_indirect_branches(self, fused):
        """Only conditionals: branch_count == 0, the replay is skipped
        entirely but history state must still advance identically."""
        records = [
            BranchRecord(0x900, BranchType.CONDITIONAL, bool(i % 3),
                         0x910, inst_gap=1)
            for i in range(50)
        ]
        _assert_lockstep(
            Trace.from_records("no-indirects", records), fused
        )
