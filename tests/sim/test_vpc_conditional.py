"""VPC over a conditional predictor the compiled core does not implement.

The ``vpc_replay`` core runs VPC's shared conditional predictor in C,
and it implements exactly
:class:`~repro.cond.mpp.MultiperspectivePerceptron`.  Any other
conditional — TAGE, or an MPP subclass that may override what the core
mirrors — has no columnar kernel: :func:`repro.sim.kernel.columnar_support`
names the conditional's type, ``columnar`` warns and runs the scalar
oracle (same results, same final state), the warnings filter turns that
warning into an error, and serve sessions keep stepping scalar.
"""

from __future__ import annotations

import random

import pytest

from repro.cond.mpp import MultiperspectivePerceptron
from repro.cond.tage import TAGE
from repro.predictors.vpc import VPCConfig, VPCPredictor
from repro.serve.protocol import trace_events
from repro.serve.session import PredictorSession
from repro.sim import kernel
from repro.sim.engine import simulate, simulate_many
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace


class TweakedMPP(MultiperspectivePerceptron):
    pass


def _vpc(conditional_type):
    return VPCPredictor(
        VPCConfig(btb_entries=128), conditional=conditional_type()
    )


@pytest.fixture(params=[TAGE, TweakedMPP], ids=lambda kind: kind.__name__)
def conditional_type(request):
    return request.param


def _trace(seed: int = 0, count: int = 400) -> Trace:
    rng = random.Random(seed)
    pcs = [0x4000, 0x4008, 0x4040, 0x5000]
    targets = [0x10_0000, 0x10_0040, 0x11_0000, 0x12_0000]
    records = []
    for _ in range(count):
        if rng.random() < 0.5:
            records.append(
                BranchRecord(0x900 + 8 * rng.randrange(3),
                             BranchType.CONDITIONAL, rng.random() < 0.5,
                             0x910, inst_gap=1)
            )
        else:
            records.append(
                BranchRecord(rng.choice(pcs), BranchType.INDIRECT_JUMP,
                             True, rng.choice(targets), inst_gap=2)
            )
    return Trace.from_records(f"vpc-cond-{seed}", records)


def test_support_names_the_conditional(conditional_type):
    supported, reason = kernel.columnar_support(_vpc(conditional_type))
    assert not supported
    assert conditional_type.__name__ in reason
    assert "MultiperspectivePerceptron" in reason
    assert "scalar backend" in reason


def test_wide_local_history_runs_scalar():
    predictor = VPCPredictor(
        VPCConfig(btb_entries=128),
        conditional=MultiperspectivePerceptron(local_bits=65),
    )
    supported, reason = kernel.columnar_support(predictor)
    assert not supported
    assert "local_bits=65" in reason


def test_simulate_warns_and_matches_scalar(conditional_type):
    trace = _trace(1)
    columnar_predictor = _vpc(conditional_type)
    scalar_predictor = _vpc(conditional_type)
    with pytest.warns(RuntimeWarning, match=conditional_type.__name__):
        columnar = simulate(columnar_predictor, trace, backend="columnar")
    assert columnar == simulate(scalar_predictor, trace)
    assert columnar_predictor.state_hash() == scalar_predictor.state_hash()


def test_simulate_many_warns_and_matches_scalar(conditional_type):
    trace = _trace(2)
    fused = [_vpc(conditional_type), VPCPredictor(VPCConfig(btb_entries=128))]
    solo = [_vpc(conditional_type), VPCPredictor(VPCConfig(btb_entries=128))]
    with pytest.warns(RuntimeWarning, match=conditional_type.__name__):
        results = simulate_many(fused, trace, backend="columnar")
    assert results == [simulate(predictor, trace) for predictor in solo]
    for lane, reference in zip(fused, solo):
        assert lane.state_hash() == reference.state_hash()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_strict_raises(conditional_type):
    trace = _trace(3)
    with pytest.raises(RuntimeWarning, match=conditional_type.__name__):
        simulate(_vpc(conditional_type), trace, backend="columnar")
    with pytest.raises(RuntimeWarning, match=conditional_type.__name__):
        simulate_many(
            [_vpc(conditional_type), VPCPredictor()], trace,
            backend="columnar",
        )


def test_serve_session_steps_scalar(conditional_type):
    trace = _trace(5)
    session = PredictorSession("s", "VPC")
    session.predictor = _vpc(conditional_type)
    session.step_events(trace_events(trace))
    reference = _vpc(conditional_type)
    result = simulate(reference, trace)
    assert session.result().indirect_mispredictions == (
        result.indirect_mispredictions
    )
    assert session.state_hash() == reference.state_hash()
