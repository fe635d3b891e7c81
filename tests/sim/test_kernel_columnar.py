"""Lockstep differentials for the ITTAGE/VPC columnar kernels and the
fused multi-predictor columnar pass.

The BLBP kernel's ordering barriers are pinned by
``test_kernel_properties``; this module pins the other two kernels and
the fused entry point:

* :func:`repro.sim.kernel.simulate_columnar_many` on ITTAGE and VPC must
  emit per-branch predictions and a final ``state_hash`` identical to
  the scalar engine's call sequence — on traces mixing conditionals,
  indirect jumps/calls, returns, and direct branches, from both cold
  and warm predictor state, solo and as one lane of a fused group;
* VPC's multiperspective perceptron, which ``vpc_replay`` runs in C,
  must stay integer-for-integer with the Python MPP across geometries
  (one- and five-word global histories, path folds deeper than the
  trace, a non-power-of-two local table, 2- to 8-bit weights, feature
  sets without path or local features), from scalar warm starts, and
  without a single call into the Python MPP;
* :func:`repro.sim.kernel.simulate_columnar_many` must give every lane
  of a heterogeneous fused group (identical BLBP twins, differing BLBP
  geometries and feature toggles, ITTAGE, VPC) the exact results and
  final state a solo run produces — called directly and through
  ``simulate_many(backend="columnar")`` with fallback warnings made
  errors, so the cores provably ran — and must hand every
  BLBP lane to one multi-lane call;
* the six ablation BLBP lanes must match scalar with the IBTB replayed
  in place — not a single ``IndirectBTB.state_hash``, ``load_state`` or
  flat restore — and must then continue on the scalar path exactly,
  their per-set indexes rebuilt from the replayed fields;
* a BLBP or ITTAGE lane warmed on the scalar path, replayed columnar
  and continued on the scalar path must match a lane run scalar
  throughout, which pins both kernels' write-back into the lazy
  global-history register (pending bits included);
* :func:`repro.sim.kernel.columnar_support` reasons must name the
  offending type (or, for the hierarchical IBTB, the configuration) and
  the remedy, and the kernels must refuse unsupported predictors rather
  than silently misreplay them.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cond.mpp import MultiperspectivePerceptron
from repro.core import BLBP
from repro.core.config import BLBPConfig
from repro.core.ibtb import IndirectBTB
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.predictors.vpc import VPCConfig, VPCPredictor
from repro.sim import kernel
from repro.sim.engine import simulate, simulate_many
from repro.sim.kernel import (
    columnar_support,
    simulate_columnar_many,
)
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace
from repro.workloads.suite import suite88_specs

_COND = int(BranchType.CONDITIONAL)
_INDIRECT = (int(BranchType.INDIRECT_JUMP), int(BranchType.INDIRECT_CALL))

#: Tiny pools so back-to-back branches collide in tables and IBTB sets.
_PCS = [0x4000, 0x4008, 0x4040, 0x5000]
_TARGETS = [0x10_0000, 0x10_0040, 0x10_0080, 0x11_0000, 0x12_0000]


#: Every columnar replay runs through the compiled cores.
pytestmark = pytest.mark.usefixtures("compiled_cores")


def _append_event(records, depth, kind, pc_index, target_index, taken):
    """Append one event; returns the updated call depth."""
    pc = _PCS[pc_index]
    target = _TARGETS[target_index]
    if kind == "ret" and depth == 0:
        kind = "cond"  # returns only make sense under an open call
    if kind == "cond":
        records.append(
            BranchRecord(0x900 + 8 * pc_index, BranchType.CONDITIONAL,
                         taken, 0x910, inst_gap=1)
        )
    elif kind == "ind":
        records.append(
            BranchRecord(pc, BranchType.INDIRECT_JUMP, True, target,
                         inst_gap=2)
        )
    elif kind == "icall":
        records.append(
            BranchRecord(pc, BranchType.INDIRECT_CALL, True, target,
                         inst_gap=2)
        )
        depth += 1
    elif kind == "dcall":
        records.append(
            BranchRecord(0x7000, BranchType.DIRECT_CALL, True, target,
                         inst_gap=1)
        )
        depth += 1
    elif kind == "ret":
        records.append(
            BranchRecord(0x8000, BranchType.RETURN, True, target,
                         inst_gap=1)
        )
        depth -= 1
    else:  # direct jump
        records.append(
            BranchRecord(0x7100, BranchType.DIRECT_JUMP, True, target,
                         inst_gap=1)
        )
    return depth


_KINDS = ["ind", "ind", "icall", "cond", "cond", "ret", "dcall", "djump"]


def _random_trace(seed: int, name: str, count: int) -> Trace:
    rng = random.Random(seed)
    records = []
    depth = 0
    for _ in range(count):
        depth = _append_event(
            records, depth, rng.choice(_KINDS),
            rng.randrange(len(_PCS)), rng.randrange(len(_TARGETS)),
            rng.random() < 0.5,
        )
    return Trace.from_records(name, records)


@st.composite
def mixed_traces(draw):
    """Traces mixing every branch kind over deliberately tiny pools."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_KINDS),
                st.integers(0, len(_PCS) - 1),
                st.integers(0, len(_TARGETS) - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    records = []
    depth = 0
    for kind, pc_index, target_index, taken in events:
        depth = _append_event(
            records, depth, kind, pc_index, target_index, taken
        )
    return Trace.from_records("hyp-mixed", records)


def _scalar_per_branch(predictor, trace):
    """Per-branch predictions from the engine's exact call sequence."""
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
            predictor.on_retired(pc, branch_type, target)
        else:
            predictor.on_retired(pc, branch_type, target)
    return predictions


def _assert_lockstep(make_predictor, trace, warm_trace=None, fused=False):
    """Per-branch and final-state lockstep against the scalar calls;
    ``fused`` replays the predictor as the second lane of a fused group
    behind a BLBP lane that has already filled the shared precompute."""
    scalar_predictor = make_predictor()
    columnar_predictor = make_predictor()
    if warm_trace is not None:
        simulate(scalar_predictor, warm_trace)
        columnar_predictor.load_state(scalar_predictor.state_dict())
    scalar_predictions = _scalar_per_branch(scalar_predictor, trace)
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
            f"{trace.name}: indirect #{position}: scalar {scalar!r} vs "
            f"columnar {columnar!r}"
        )
    assert scalar_predictor.state_hash() == columnar_predictor.state_hash()


def _small_ittage():
    return ITTAGE(
        ITTAGEConfig(base_entries=64, tagged_entries=32, u_reset_period=16)
    )


def _small_vpc():
    return VPCPredictor(VPCConfig(btb_entries=128))


class TestITTAGELockstep:
    @settings(max_examples=40, deadline=None)
    @given(trace=mixed_traces())
    def test_lockstep_on_mixed_traces(self, trace):
        _assert_lockstep(_small_ittage, trace)

    @pytest.mark.parametrize("fused", [False, True])
    def test_warm_start(self, fused):
        """Resuming from mid-stream state (tables, use-alt meta-counter,
        the allocation RNG) must stay bit-identical, solo or fused."""
        warm = _random_trace(7, "ittage-warm", 160)
        main = _random_trace(8, "ittage-main", 200)
        _assert_lockstep(_small_ittage, main, warm_trace=warm, fused=fused)


class TestVPCLockstep:
    @settings(max_examples=40, deadline=None)
    @given(trace=mixed_traces())
    def test_lockstep_on_mixed_traces(self, trace):
        _assert_lockstep(_small_vpc, trace)

    @pytest.mark.parametrize("fused", [False, True])
    def test_warm_start(self, fused):
        """Resuming with a warm BTB and conditional predictor — the
        virtual-PC iteration depends on both — must stay bit-identical,
        solo or fused."""
        warm = _random_trace(11, "vpc-warm", 160)
        main = _random_trace(12, "vpc-main", 200)
        _assert_lockstep(_small_vpc, main, warm_trace=warm, fused=fused)


#: MultiperspectivePerceptron geometries the compiled core must mirror:
#: a global history of exactly one word and of five words, path folds
#: deeper than most generated traces, a local table whose size is not a
#: power of two, narrow and wide weights, and feature sets without path
#: or local features.
_MPP_GEOMETRIES = [
    dict(features=(("bias", 0), ("ghist", 64), ("local", 0)),
         index_bits=10, weight_bits=4),
    dict(features=(("ghist", 300), ("ghist", 7), ("path", 8),
                   ("local", 0)),
         index_bits=10, weight_bits=8),
    dict(features=(("bias", 0), ("path", 30), ("path", 3), ("ghist", 0)),
         index_bits=10, weight_bits=4),
    dict(features=(("bias", 0), ("ghist", 12), ("local", 0)),
         local_entries=500, local_bits=64, index_bits=10, weight_bits=8),
    dict(features=(("bias", 0), ("ghist", 5), ("ghist", 129)),
         index_bits=3, weight_bits=2),
    dict(local_entries=500, index_bits=10),
]

#: Conditional PCs: a tiny colliding pool plus PCs with high bits set,
#: so hashing and path entries see the full 64-bit range.
_MPP_COND_PCS = [0x900, 0x908, 0x910, 0x7FFF_FFFF_FFFF_FFFC,
                 0xFFFF_FFFF_FFFF_FFF0]


@st.composite
def mpp_traces(draw):
    """VPC traces dense in conditionals over a varied PC pool."""
    events = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["ind", "ind", "cond", "cond", "cond"]),
                st.integers(0, len(_MPP_COND_PCS) - 1),
                st.integers(0, len(_TARGETS) - 1),
                st.booleans(),
            ),
            min_size=1,
            max_size=160,
        )
    )
    records = []
    for kind, pc_index, target_index, taken in events:
        if kind == "cond":
            records.append(
                BranchRecord(_MPP_COND_PCS[pc_index], BranchType.CONDITIONAL,
                             taken, 0x910, inst_gap=1)
            )
        else:
            records.append(
                BranchRecord(_PCS[pc_index % len(_PCS)],
                             BranchType.INDIRECT_JUMP, True,
                             _TARGETS[target_index], inst_gap=2)
            )
    return Trace.from_records("hyp-mpp", records)


def _mpp_vpc(geometry):
    return lambda: VPCPredictor(
        VPCConfig(btb_entries=128),
        conditional=MultiperspectivePerceptron(**geometry),
    )


class TestCompiledMPPLockstep:
    """``vpc_replay`` runs VPC's multiperspective perceptron in C; every
    geometry must stay integer-for-integer with the Python MPP."""

    @settings(max_examples=100, deadline=None)
    @given(
        geometry=st.sampled_from(_MPP_GEOMETRIES),
        trace=mpp_traces(),
    )
    def test_lockstep_over_geometries(self, geometry, trace):
        _assert_lockstep(_mpp_vpc(geometry), trace)

    @settings(max_examples=50, deadline=None)
    @given(
        geometry=st.sampled_from(_MPP_GEOMETRIES),
        trace=mpp_traces(),
        split=st.floats(0.0, 1.0),
    )
    def test_warm_start_mid_trace(self, geometry, trace, split):
        """Columnar resumes from a scalar ``load_state`` taken mid-trace:
        partly filled path history, live local registers, moved θ."""
        records = list(trace.records())
        cut = max(1, int(len(records) * split))
        if cut >= len(records):
            return
        warm = Trace.from_records("mpp-warm", records[:cut])
        main = Trace.from_records("mpp-main", records[cut:])
        _assert_lockstep(_mpp_vpc(geometry), main, warm_trace=warm)

    @pytest.mark.parametrize("geometry", _MPP_GEOMETRIES)
    def test_long_trace_saturates_weights(self, geometry):
        """Long enough for weights to saturate and θ to move."""
        records = []
        rng = random.Random(3)
        for position in range(3000):
            if position % 4 == 3:
                records.append(
                    BranchRecord(_PCS[rng.randrange(len(_PCS))],
                                 BranchType.INDIRECT_JUMP, True,
                                 _TARGETS[rng.randrange(3)], inst_gap=2)
                )
            else:
                records.append(
                    BranchRecord(0x900 + 4 * (position % 7),
                                 BranchType.CONDITIONAL,
                                 position % 3 != 0, 0x910, inst_gap=1)
                )
        _assert_lockstep(
            _mpp_vpc(geometry), Trace.from_records("mpp-long", records)
        )

    def test_threshold_floor(self):
        """Every conditional is taken and lands on a fresh bias weight,
        so each one is a correct prediction below θ: θ walks down to its
        floor of 1 and must stay there."""
        records = []
        for position in range(4000):
            if position % 50 == 49:
                records.append(
                    BranchRecord(_PCS[0], BranchType.INDIRECT_JUMP, True,
                                 _TARGETS[0], inst_gap=2)
                )
            else:
                records.append(
                    BranchRecord(0x10_0000 + 4 * position,
                                 BranchType.CONDITIONAL, True, 0x910,
                                 inst_gap=1)
                )
        trace = Trace.from_records("mpp-theta", records)
        geometry = dict(features=(("bias", 0),), index_bits=14,
                        weight_bits=2)
        _assert_lockstep(_mpp_vpc(geometry), trace)
        scalar = _mpp_vpc(geometry)()
        simulate(scalar, trace)
        assert scalar.conditional._threshold.theta == 1

    def test_no_python_conditional_calls(self, monkeypatch):
        """The columnar replay never re-enters the Python MPP."""
        trace = _random_trace(21, "mpp-no-python", 400)
        scalar = _small_vpc()
        simulate(scalar, trace)
        expected = scalar.state_hash()

        def forbidden(*args, **kwargs):
            raise AssertionError("the Python MPP was called")

        for name in ("predict", "update", "train_weights"):
            monkeypatch.setattr(MultiperspectivePerceptron, name, forbidden)
        columnar = _small_vpc()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate(columnar, trace, backend="columnar")
        assert columnar.state_hash() == expected


def _lanes():
    """A heterogeneous fused group: identical BLBP twins, BLBP
    geometry/feature variants, ITTAGE, VPC."""
    return [
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64)),
        BLBP(BLBPConfig(table_rows=128, ibtb_sets=64)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=32)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64,
                        use_local_history=False)),
        BLBP(BLBPConfig(table_rows=256, ibtb_sets=64,
                        use_selective_update=False)),
        _small_ittage(),
        _small_vpc(),
    ]


def _assert_fused_matches_solo(seed, count, engine, warm):
    trace = _random_trace(seed, f"fused-{seed}", count)
    fused = _lanes()
    solo = _lanes()
    if warm:
        warm_trace = _random_trace(seed + 1000, f"fused-warm-{seed}",
                                   count // 2)
        for lane, reference in zip(fused, solo):
            simulate(reference, warm_trace)
            lane.load_state(reference.state_dict())
    solo_results = [
        simulate(predictor, trace, collect_per_pc=True)
        for predictor in solo
    ]
    if engine:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused_results = simulate_many(
                fused, trace, collect_per_pc=True, backend="columnar"
            )
    else:
        fused_results = simulate_columnar_many(
            fused, trace, collect_per_pc=True
        )
    for slot, (fused_result, solo_result) in enumerate(
        zip(fused_results, solo_results)
    ):
        assert fused_result == solo_result, f"lane {slot}: result diverges"
    for slot, (lane, reference) in enumerate(zip(fused, solo)):
        assert lane.state_hash() == reference.state_hash(), (
            f"lane {slot}: final predictor state diverges"
        )


class TestFusedColumnarMany:
    @pytest.mark.parametrize("engine", [False, True])
    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_heterogeneous_lanes_match_solo(self, seed, warm, engine):
        _assert_fused_matches_solo(seed, 200, engine, warm)

    @pytest.mark.parametrize("warm", [False, True])
    def test_single_lane(self, warm):
        """One lane is the degenerate fused group: a one-lane call into
        the same multi-lane core, from cold or warm state."""
        trace = _random_trace(99, "single-lane", 150)
        fused = BLBP(BLBPConfig(table_rows=128, ibtb_sets=32))
        solo = BLBP(BLBPConfig(table_rows=128, ibtb_sets=32))
        if warm:
            simulate(solo, _random_trace(98, "single-lane-warm", 120))
            fused.load_state(solo.state_dict())
        expected = simulate(solo, trace, collect_per_pc=True)
        (result,) = simulate_columnar_many(
            [fused], trace, collect_per_pc=True
        )
        assert result == expected
        assert fused.state_hash() == solo.state_hash()

    def test_identical_lanes_form_one_group(self, monkeypatch):
        """The kernel hands every BLBP lane of the group to one
        multi-lane replay."""
        group_sizes = []
        original = kernel._replay_blbp_group

        def spy(preps):
            group_sizes.append(len(preps))
            return original(preps)

        monkeypatch.setattr(kernel, "_replay_blbp_group", spy)
        trace = _random_trace(3, "grouped", 200)
        config = lambda: BLBPConfig(table_rows=256, ibtb_sets=64)  # noqa: E731
        fused = [BLBP(config()) for _ in range(3)]
        solo = [BLBP(config()) for _ in range(3)]
        results = simulate_columnar_many(fused, trace)
        expected = [simulate(predictor, trace) for predictor in solo]
        assert results == expected
        for lane, reference in zip(fused, solo):
            assert lane.state_hash() == reference.state_hash()
        assert 3 in group_sizes, (
            f"identical lanes were not grouped: group sizes {group_sizes}"
        )

    def test_solo_blbp_is_a_one_lane_call(self, monkeypatch):
        group_sizes = []
        original = kernel._replay_blbp_group

        def spy(preps):
            group_sizes.append(len(preps))
            return original(preps)

        monkeypatch.setattr(kernel, "_replay_blbp_group", spy)
        trace = _random_trace(4, "solo", 150)
        predictor, reference = BLBP(), BLBP()
        [result] = simulate_columnar_many([predictor], trace)
        assert result == simulate(reference, trace)
        assert group_sizes == [1]
        assert predictor.state_hash() == reference.state_hash()

    def test_non_contiguous_weights_made_contiguous(self):
        """The compiled core needs a C-order weight tensor; a lane whose
        predictor holds any other layout gets a contiguous copy at
        prepare time and still matches scalar."""
        trace = _random_trace(5, "fortran-weights", 150)
        predictor, reference = BLBP(), BLBP()
        predictor.weights.weights = np.asfortranarray(
            predictor.weights.weights
        )
        assert not predictor.weights.weights.flags.c_contiguous
        [result] = simulate_columnar_many([predictor], trace)
        assert result == simulate(reference, trace)
        assert predictor.weights.weights.flags.c_contiguous
        assert predictor.state_hash() == reference.state_hash()

    def test_empty_predictor_list(self):
        assert simulate_columnar_many([], _random_trace(0, "t", 20)) == []


def _ablation_lanes():
    """The six BLBP lanes of the fused ablation campaign: one default
    BLBP and five single-feature removals, all on the Table 2 IBTB."""
    return [
        BLBP(),
        BLBP(BLBPConfig(use_selective_update=False)),
        BLBP(BLBPConfig(use_adaptive_threshold=False)),
        BLBP(BLBPConfig(use_transfer_function=False)),
        BLBP(BLBPConfig(use_local_history=False)),
        BLBP(BLBPConfig(use_intervals=False)),
    ]


def _suite_trace(index):
    return suite88_specs(0.02)[index].generate()


class TestIBTBWriteBack:
    """The compiled core replays each lane's IBTB in its own flat
    fields: no canonical hash, no validated reload, no copy back."""

    def test_no_hash_or_validated_load_on_the_kernel_path(self, monkeypatch):
        trace = _suite_trace(3)
        expected = []
        for reference in _ablation_lanes():
            result = simulate(reference, trace, collect_per_pc=True)
            expected.append((result, reference.state_hash()))

        def forbidden(*args, **kwargs):
            raise AssertionError("IndirectBTB state marshalled by the kernel")

        monkeypatch.setattr(IndirectBTB, "state_hash", forbidden)
        monkeypatch.setattr(IndirectBTB, "load_state", forbidden)
        monkeypatch.setattr(IndirectBTB, "_restore_flat", forbidden)
        lanes = _ablation_lanes()
        fields = [lane.ibtb._fields for lane in lanes]
        results = simulate_columnar_many(lanes, trace, collect_per_pc=True)
        for slot, (lane, result) in enumerate(zip(lanes, results)):
            # The replay wrote the predictor's own buffers.
            assert all(
                after is before
                for after, before in zip(lane.ibtb._fields, fields[slot])
            )
            assert lane.ibtb.occupancy() > 0
            assert (result, lane.state_hash()) == expected[slot], (
                f"lane {slot} diverges from scalar"
            )

    def test_scalar_continuation_after_write_back(self):
        """A replayed IBTB rebuilds its per-set indexes lazily; the
        scalar path must then continue exactly as if it had run scalar
        throughout, evictions included.  The lanes are warmed scalar
        first, so each holds built indexes the replay must drop."""
        warm, first, second = (_suite_trace(i) for i in (1, 5, 9))
        small = lambda: BLBP(BLBPConfig(ibtb_sets=4, ibtb_ways=4))  # noqa: E731

        def lanes():
            return _ablation_lanes() + [small(), small()]

        mixed, scalar = lanes(), lanes()
        for lane in mixed + scalar:
            simulate(lane, warm)
        simulate_columnar_many(mixed, first)
        for reference in scalar:
            simulate(reference, first)
        for slot, (lane, reference) in enumerate(zip(mixed, scalar)):
            assert lane.state_hash() == reference.state_hash(), slot
            assert simulate(lane, second, collect_per_pc=True) == simulate(
                reference, second, collect_per_pc=True
            ), f"lane {slot}: scalar continuation diverges"
            assert lane.state_hash() == reference.state_hash(), slot


def _trace_ending_in_conditionals(seed, name, count, tail):
    """A random trace whose last ``tail`` records are conditionals, so
    the history register holds pending bits when the trace ends."""
    rng = random.Random(seed)
    records = []
    depth = 0
    for position in range(count + tail):
        kind = rng.choice(_KINDS) if position < count else "cond"
        depth = _append_event(
            records, depth, kind,
            rng.randrange(len(_PCS)), rng.randrange(len(_TARGETS)),
            rng.random() < 0.5,
        )
    return Trace.from_records(name, records)


class TestScalarColumnarHandOff:
    """Scalar -> columnar -> scalar equals scalar throughout."""

    @pytest.mark.parametrize(
        "make_predictor", [_small_ittage, BLBP], ids=["ITTAGE", "BLBP"]
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_random_traces(self, make_predictor, seed):
        warm, middle, last = (
            _trace_ending_in_conditionals(seed * 10 + i, f"hand-off-{i}",
                                          150, 9 + 40 * i)
            for i in range(3)
        )
        self._assert_hand_off(make_predictor, warm, middle, last)

    @pytest.mark.parametrize(
        "make_predictor", [ITTAGE, BLBP], ids=["ITTAGE", "BLBP"]
    )
    def test_suite_traces(self, make_predictor):
        warm, middle, last = (_suite_trace(i) for i in (2, 6, 10))
        self._assert_hand_off(make_predictor, warm, middle, last)

    @staticmethod
    def _assert_hand_off(make_predictor, warm, middle, last):
        mixed, scalar = make_predictor(), make_predictor()
        assert simulate(mixed, warm) == simulate(scalar, warm)
        assert simulate_columnar_many(
            [mixed], middle, collect_per_pc=True
        ) == [simulate(scalar, middle, collect_per_pc=True)]
        assert mixed.state_hash() == scalar.state_hash()
        assert simulate(mixed, last, collect_per_pc=True) == simulate(
            scalar, last, collect_per_pc=True
        )
        assert mixed.state_hash() == scalar.state_hash()


class TestColumnarSupport:
    def test_supported_exact_types(self):
        for predictor in (BLBP(), _small_ittage(), _small_vpc()):
            ok, reason = columnar_support(predictor)
            assert ok, reason
            assert "kernel" in reason
            assert columnar_support(predictor)[0]

    def test_subclass_rejected_with_reason(self):
        class Tweaked(BLBP):
            pass

        ok, reason = columnar_support(Tweaked())
        assert not ok
        assert "Tweaked" in reason
        assert "subclasses BLBP" in reason
        assert "scalar" in reason
        assert not columnar_support(Tweaked())[0]

    def test_hierarchical_ibtb_runs_scalar(self):
        """The hierarchical IBTB (section 6 future work) has no kernel:
        the reason names the configuration, the columnar backend warns
        and runs the scalar oracle, and the kernel itself refuses."""
        hierarchical = lambda: BLBP(  # noqa: E731
            BLBPConfig(use_hierarchical_ibtb=True)
        )
        ok, reason = columnar_support(hierarchical())
        assert not ok
        assert "use_hierarchical_ibtb=True" in reason
        assert "scalar" in reason
        trace = _random_trace(6, "hierarchical", 300)
        columnar, scalar = hierarchical(), hierarchical()
        with pytest.warns(RuntimeWarning, match="hierarchical IBTB"):
            result = simulate(
                columnar, trace, collect_per_pc=True, backend="columnar"
            )
        assert result == simulate(scalar, trace, collect_per_pc=True)
        assert columnar.state_hash() == scalar.state_hash()
        with pytest.raises(TypeError, match="hierarchical IBTB"):
            simulate_columnar_many([hierarchical()], trace)

    def test_unknown_type_rejected_with_reason(self):
        ok, reason = columnar_support(object())
        assert not ok
        assert "no columnar kernel" in reason
        for name in ("BLBP", "ITTAGE", "VPCPredictor"):
            assert name in reason

    def test_simulate_columnar_refuses_unsupported(self):
        class Tweaked(BLBP):
            pass

        trace = _random_trace(0, "refuse", 30)
        with pytest.raises(TypeError, match="subclasses"):
            simulate_columnar_many([Tweaked()], trace)
        with pytest.raises(TypeError, match="subclasses"):
            simulate_columnar_many([BLBP(), Tweaked()], trace)
