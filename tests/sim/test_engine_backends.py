"""Backend dispatch: the columnar fallback rule.

The engine's ``backend`` parameter has two values.  ``"columnar"``
replays every lane the compiled cores support and hands the rest to the
scalar loop; a call that replays any lane scalar issues exactly one
``RuntimeWarning``, naming every reason — an unsupported type or
configuration, missing compiled cores, or an engine feature the cores
do not cover (checkpointing, resume, profiling counters).  A call whose
lanes all run on the cores warns not at all.  Strictness comes from the
warnings filter: under ``warnings.simplefilter("error", RuntimeWarning)``
each fallback raises its warning.  Either way the numbers are
bit-identical to scalar.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.cond.tage import TAGE
from repro.core import BLBP, BLBPConfig
from repro.predictors import BranchTargetBuffer
from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCConfig, VPCPredictor
from repro.sim.counters import SimCounters
from repro.sim.engine import (
    BACKENDS,
    simulate,
    simulate_many,
    simulate_sampled,
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


def _runtime_warnings(call):
    """``call()``'s result and the text of each RuntimeWarning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [
        str(warning.message) for warning in caught
        if issubclass(warning.category, RuntimeWarning)
    ]


def _warm_checkpoint():
    """A scalar snapshot of BLBP on ``_TRACE`` after 100 records."""
    grabbed = []
    simulate(BLBP(), _TRACE, checkpoint_every=100,
             on_checkpoint=grabbed.append)
    return grabbed[0]


#: One case per fallback reason: (predictor factory, factory of extra
#: ``simulate`` arguments, text the one warning must carry).
_REASONS = {
    "subclass": (TracingBLBP, dict, "TracingBLBP subclasses BLBP"),
    "hierarchical-ibtb": (
        lambda: BLBP(BLBPConfig(use_hierarchical_ibtb=True)), dict,
        "use_hierarchical_ibtb=True",
    ),
    "vpc-conditional": (
        lambda: VPCPredictor(VPCConfig(btb_entries=128),
                             conditional=TAGE()),
        dict, "conditional is TAGE",
    ),
    "checkpointing": (
        BLBP,
        lambda: {"checkpoint_every": 64,
                 "on_checkpoint": lambda snapshot: None},
        "checkpointing (checkpoint_every)",
    ),
    "resume": (BLBP, lambda: {"resume_from": _warm_checkpoint()},
               "resume (resume_from)"),
    "counters": (BLBP, lambda: {"counters": SimCounters()},
                 "profiling (counters)"),
}


class TestStrictBackend:
    """Strictness through the standard warnings filter: every fallback
    raises its ``RuntimeWarning``, and lanes on the cores raise none."""

    pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

    def test_unsupported_predictor_raises_with_reason(self):
        with pytest.raises(RuntimeWarning, match="subclasses BLBP"):
            simulate(TracingBLBP(), _TRACE, backend="columnar")

    def test_checkpointing_blocker_raises(self):
        with pytest.raises(RuntimeWarning, match="checkpointing"):
            simulate(
                BLBP(), _TRACE, backend="columnar",
                checkpoint_every=50, on_checkpoint=lambda snapshot: None,
            )

    def test_counters_blocker_raises(self):
        with pytest.raises(RuntimeWarning, match="counters"):
            simulate(
                BLBP(), _TRACE, backend="columnar",
                counters=SimCounters(),
            )

    @pytest.mark.usefixtures("compiled_cores")
    def test_supported_predictor_matches_scalar(self):
        strict_predictor = BLBP()
        scalar_predictor = BLBP()
        strict = simulate(strict_predictor, _TRACE, backend="columnar")
        scalar = simulate(scalar_predictor, _TRACE)
        assert strict == scalar
        assert strict_predictor.state_hash() == scalar_predictor.state_hash()

    def test_simulate_many_unsupported_raises(self):
        with pytest.raises(RuntimeWarning, match="subclasses"):
            simulate_many(
                [BLBP(), TracingBLBP()], _TRACE, backend="columnar"
            )

    def test_simulate_many_checkpointing_raises(self, tmp_path):
        with pytest.raises(RuntimeWarning, match="checkpointing"):
            simulate_many(
                [BLBP()], _TRACE, backend="columnar",
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

    def test_feature_fallback_warns(self):
        """Checkpointing under ``backend="columnar"`` runs scalar (the
        cores cannot snapshot mid-trace), and the warning says so."""
        grabbed = []
        result, texts = _runtime_warnings(lambda: simulate(
            BLBP(), _TRACE, backend="columnar",
            checkpoint_every=64, on_checkpoint=grabbed.append,
        ))
        assert len(texts) == 1
        assert "checkpointing (checkpoint_every)" in texts[0]
        assert grabbed, "checkpoints were not taken on the fallback path"
        assert result == simulate(BLBP(), _TRACE)

    @pytest.mark.parametrize("case", sorted(_REASONS))
    def test_one_warning_names_the_reason(self, case):
        factory, arguments, reason = _REASONS[case]
        columnar_predictor, scalar_predictor = factory(), factory()
        columnar, texts = _runtime_warnings(lambda: simulate(
            columnar_predictor, _TRACE, backend="columnar", **arguments()
        ))
        assert len(texts) == 1, texts
        assert texts[0].startswith(
            "columnar backend falling back to the fused scalar loop for "
            "some predictors: "
        )
        assert reason in texts[0]
        scalar = simulate(scalar_predictor, _TRACE, **arguments())
        columnar.profile = scalar.profile = None  # wall times differ
        assert columnar == scalar
        assert (
            columnar_predictor.state_hash() == scalar_predictor.state_hash()
        )

    def test_one_warning_names_every_reason(self, tmp_path):
        lanes = [BLBP(), TracingBLBP(),
                 BLBP(BLBPConfig(use_hierarchical_ibtb=True))]
        _, texts = _runtime_warnings(lambda: simulate_many(
            lanes, _TRACE, backend="columnar", checkpoint_every=50,
            checkpoint_paths=[str(tmp_path / "cell.ckpt"), None, None],
        ))
        assert len(texts) == 1, texts
        for reason in ("checkpointing", "subclasses BLBP",
                       "use_hierarchical_ibtb=True"):
            assert reason in texts[0]

    def test_predictor_fallback_text_is_stable(self):
        """Callers filter the expected BTB fallback by this exact text."""
        _, texts = _runtime_warnings(lambda: simulate_many(
            [BranchTargetBuffer(), BranchTargetBuffer()], _TRACE,
            backend="columnar",
        ))
        assert texts == [
            "columnar backend falling back to the fused scalar loop for "
            "some predictors: BranchTargetBuffer has no columnar kernel "
            "(supported exact types: BLBP, ITTAGE, VPCPredictor).  Use "
            "the scalar backend for this predictor."
        ]

    @pytest.mark.usefixtures("compiled_cores")
    def test_lanes_on_the_cores_do_not_warn(self):
        roster = [BLBP(), ITTAGE(), VPCPredictor(VPCConfig(btb_entries=128))]
        results, texts = _runtime_warnings(
            lambda: simulate_many(roster, _TRACE, backend="columnar")
        )
        assert texts == []
        assert results == [
            simulate(predictor, _TRACE) for predictor in (
                BLBP(), ITTAGE(), VPCPredictor(VPCConfig(btb_entries=128))
            )
        ]

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
        with pytest.raises(ValueError, match="unknown backend"):
            simulate_sampled(BLBP, _TRACE, interval_records=50,
                             backend="simd")

    def test_backend_roster(self):
        assert BACKENDS == ("scalar", "columnar")
