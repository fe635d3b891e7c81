"""Backend dispatch: columnar fallback policy and ``columnar-strict``.

The engine's ``backend`` parameter has three values with distinct
contracts: ``"columnar"`` silently covers what the kernels support,
warns (``RuntimeWarning``) and falls back to scalar for unsupported
predictors, and falls back silently for engine features the kernels do
not model (checkpointing, resume, profiling counters — documented
engine behavior, not an anomaly worth a warning); ``"columnar-strict"``
never falls back, raising :class:`ColumnarUnsupportedError` with the
:func:`repro.sim.kernel.columnar_support` reason or the blocking
feature's name.  Either way the numbers are bit-identical to scalar.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core import BLBP
from repro.predictors.ittage import ITTAGE
from repro.sim.counters import SimCounters
from repro.sim.engine import (
    BACKENDS,
    ColumnarUnsupportedError,
    simulate,
    simulate_many,
)
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace


class TracingBLBP(BLBP):
    """A subclass the exact-type kernels must refuse."""


def _trace(seed: int = 0, count: int = 200) -> Trace:
    rng = random.Random(seed)
    pcs = [0x4000, 0x4008, 0x4040, 0x5000]
    targets = [0x10_0000, 0x10_0040, 0x11_0000]
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
    return Trace.from_records(f"backend-{seed}", records)


_TRACE = _trace()


class TestStrictBackend:
    def test_unsupported_predictor_raises_with_reason(self):
        with pytest.raises(ColumnarUnsupportedError, match="subclasses BLBP"):
            simulate(TracingBLBP(), _TRACE, backend="columnar-strict")

    @pytest.mark.usefixtures("compiled_cores")
    def test_checkpointing_blocker_raises(self):
        with pytest.raises(ColumnarUnsupportedError, match="checkpointing"):
            simulate(
                BLBP(), _TRACE, backend="columnar-strict",
                checkpoint_every=50, on_checkpoint=lambda snapshot: None,
            )

    @pytest.mark.usefixtures("compiled_cores")
    def test_counters_blocker_raises(self):
        with pytest.raises(ColumnarUnsupportedError, match="counters"):
            simulate(
                BLBP(), _TRACE, backend="columnar-strict",
                counters=SimCounters(),
            )

    @pytest.mark.usefixtures("compiled_cores")
    def test_supported_predictor_matches_scalar(self):
        strict_predictor = BLBP()
        scalar_predictor = BLBP()
        strict = simulate(strict_predictor, _TRACE,
                          backend="columnar-strict")
        scalar = simulate(scalar_predictor, _TRACE)
        assert strict == scalar
        assert strict_predictor.state_hash() == scalar_predictor.state_hash()

    @pytest.mark.usefixtures("compiled_cores")
    def test_simulate_many_unsupported_raises(self):
        with pytest.raises(ColumnarUnsupportedError, match="subclasses"):
            simulate_many(
                [BLBP(), TracingBLBP()], _TRACE, backend="columnar-strict"
            )

    def test_simulate_many_checkpointing_raises(self, tmp_path):
        with pytest.raises(ColumnarUnsupportedError, match="checkpointing"):
            simulate_many(
                [BLBP()], _TRACE, backend="columnar-strict",
                checkpoint_every=50,
                checkpoint_paths=[str(tmp_path / "cell.ckpt")],
            )


class TestColumnarFallback:
    def test_unsupported_predictor_warns_and_matches_scalar(self):
        columnar_predictor = TracingBLBP()
        scalar_predictor = TracingBLBP()
        with pytest.warns(
            RuntimeWarning, match="falling back to the fused scalar loop"
        ):
            columnar = simulate(
                columnar_predictor, _TRACE, backend="columnar"
            )
        scalar = simulate(scalar_predictor, _TRACE)
        assert columnar == scalar
        assert (
            columnar_predictor.state_hash() == scalar_predictor.state_hash()
        )

    @pytest.mark.usefixtures("compiled_cores")
    def test_feature_fallback_is_silent(self):
        """Checkpointing under ``backend="columnar"`` runs scalar (the
        kernels cannot snapshot mid-trace) without any warning — the
        fallback is documented behavior, not an anomaly."""
        grabbed = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = simulate(
                BLBP(), _TRACE, backend="columnar",
                checkpoint_every=64, on_checkpoint=grabbed.append,
            )
        assert grabbed, "checkpoints were not taken on the fallback path"
        assert result == simulate(BLBP(), _TRACE)

    def test_simulate_many_mixed_lanes_merge(self):
        """Supported lanes run columnar, the subclass runs through the
        fused scalar loop (with one aggregated warning); the merged
        results and final states are indistinguishable from all-scalar."""
        fused = [BLBP(), TracingBLBP(), ITTAGE()]
        solo = [BLBP(), TracingBLBP(), ITTAGE()]
        with pytest.warns(RuntimeWarning, match="fused scalar"):
            results = simulate_many(fused, _TRACE, backend="columnar")
        expected = [simulate(predictor, _TRACE) for predictor in solo]
        assert results == expected
        for slot, (lane, reference) in enumerate(zip(fused, solo)):
            assert lane.state_hash() == reference.state_hash(), (
                f"lane {slot}: final state diverges"
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            simulate(BLBP(), _TRACE, backend="simd")
        with pytest.raises(ValueError, match="unknown backend"):
            simulate_many([BLBP()], _TRACE, backend="simd")
        with pytest.raises(ValueError, match="unknown backend"):
            simulate_many([], _TRACE, backend="simd")

    def test_backend_roster(self):
        assert BACKENDS == ("scalar", "columnar", "columnar-strict")
