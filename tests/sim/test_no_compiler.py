"""Columnar backends on a host where the compiled replay cores fail to build.

Every columnar replay runs through :mod:`repro.sim.native`, so when the
build fails :func:`repro.sim.kernel.columnar_support` is the one place
that says so: it returns ``False`` with the build's failure reason, and
the existing fallback paths take over — ``columnar`` issues one warning
naming the reason and runs the scalar oracle (same results, same final
state), the warnings filter turns that warning into an error, and serve
sessions keep stepping scalar.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core import BLBP
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.predictors.vpc import VPCConfig, VPCPredictor
from repro.serve.protocol import trace_events
from repro.serve.session import PredictorSession
from repro.sim import kernel, native
from repro.sim.engine import simulate, simulate_many
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace


def _roster():
    return [
        BLBP(),
        ITTAGE(ITTAGEConfig(base_entries=64, tagged_entries=32)),
        VPCPredictor(VPCConfig(btb_entries=128)),
    ]


def _trace(seed: int = 0, count: int = 400) -> Trace:
    rng = random.Random(seed)
    pcs = [0x4000, 0x4008, 0x4040, 0x5000]
    targets = [0x10_0000, 0x10_0040, 0x11_0000, 0x12_0000]
    records = []
    for _ in range(count):
        if rng.random() < 0.4:
            records.append(
                BranchRecord(0x900, BranchType.CONDITIONAL,
                             rng.random() < 0.5, 0x910, inst_gap=1)
            )
        else:
            records.append(
                BranchRecord(rng.choice(pcs), BranchType.INDIRECT_JUMP,
                             True, rng.choice(targets), inst_gap=2)
            )
    return Trace.from_records(f"no-cc-{seed}", records)


@pytest.mark.usefixtures("failed_build")
class TestFailedBuild:
    def test_support_carries_the_build_reason(self, failed_build):
        assert not native.available()
        assert native.unavailable_reason() == failed_build
        for predictor in _roster():
            supported, reason = kernel.columnar_support(predictor)
            assert not supported
            assert failed_build in reason
            assert type(predictor).__name__ in reason
            assert "scalar backend" in reason

    def test_simulate_warns_and_matches_scalar(self):
        trace = _trace(1)
        for columnar_predictor, scalar_predictor in zip(_roster(), _roster()):
            with pytest.warns(RuntimeWarning, match="unavailable: cc exited"):
                columnar = simulate(
                    columnar_predictor, trace, backend="columnar"
                )
            assert columnar == simulate(scalar_predictor, trace)
            assert (
                columnar_predictor.state_hash()
                == scalar_predictor.state_hash()
            )

    def test_simulate_many_warns_and_matches_scalar(self):
        trace = _trace(2)
        fused, solo = _roster(), _roster()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = simulate_many(fused, trace, backend="columnar")
        [warning] = caught
        assert warning.category is RuntimeWarning
        assert "unavailable: cc exited" in str(warning.message)
        for predictor in fused:
            assert type(predictor).__name__ in str(warning.message)
        assert results == [simulate(p, trace) for p in solo]
        for lane, reference in zip(fused, solo):
            assert lane.state_hash() == reference.state_hash()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_strict_raises_with_the_reason(self):
        trace = _trace(3)
        with pytest.raises(RuntimeWarning, match="cc exited"):
            simulate(BLBP(), trace, backend="columnar")
        with pytest.raises(RuntimeWarning, match="cc exited"):
            simulate_many(_roster(), trace, backend="columnar")

    def test_kernel_refuses_directly(self):
        with pytest.raises(TypeError, match="cc exited"):
            kernel.simulate_columnar_many([BLBP()], _trace(4))

    def test_serve_session_steps_scalar(self):
        trace = _trace(5)
        session = PredictorSession("s", "BLBP")
        session.step_events(trace_events(trace))
        reference = BLBP()
        result = simulate(reference, trace)
        assert session.result().indirect_mispredictions == (
            result.indirect_mispredictions
        )
        assert session.state_hash() == reference.state_hash()
