"""Edge cases of the whole-lane BLBP and ITTAGE cores, in lockstep.

Each case replays a predictor through
:func:`repro.sim.kernel.simulate_columnar_many` and its twin through the
scalar engine's call sequence, then compares every per-branch
prediction, the final ``state_hash``, and the raw history register
(unmasked bits, pending count and folds, which ``state_hash`` sees only
flushed):

* a warm lane whose global-history register holds pending bits;
* more than 1024 conditionals between two indirect branches, which
  crosses the register's pending-flush bound inside one gap;
* more than 128 distinct target regions, so the region array recycles
  entries and the core invalidates stale IBTB ways;
* more than 64 distinct targets in one IBTB set, which forces SRRIP
  ageing and fills;
* the nine lanes of the fused ablation campaign over one trace.
"""

from __future__ import annotations

import random

import pytest

from benchmarks.bench_columnar import ablation_factories
from repro.core import BLBP
from repro.core.config import BLBPConfig
from repro.predictors.ittage import ITTAGE, ITTAGEConfig
from repro.sim.engine import simulate
from repro.sim.kernel import simulate_columnar_many
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace
from repro.workloads.suite import suite88_specs

pytestmark = pytest.mark.usefixtures("compiled_cores")

_COND = int(BranchType.CONDITIONAL)
_INDIRECT = (int(BranchType.INDIRECT_JUMP), int(BranchType.INDIRECT_CALL))


def _cond(rng, pc=0x900):
    return BranchRecord(pc, BranchType.CONDITIONAL, rng.random() < 0.5,
                        pc + 0x10, inst_gap=1)


def _jump(pc, target):
    return BranchRecord(pc, BranchType.INDIRECT_JUMP, True, target,
                        inst_gap=2)


def _scalar_predictions(predictor, trace):
    predictions = []
    for pc, branch_type, taken, target in zip(
        trace.pcs.tolist(), trace.types.tolist(), trace.takens.tolist(),
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


def _register(predictor):
    history = (
        predictor.histories if isinstance(predictor, BLBP)
        else predictor._history
    )
    return (
        history._ghist,
        history._pending,
        [fold.fold for fold in history._folds],
        history.stat_fold_updates,
    )


def _assert_lockstep(make, trace, warm=None):
    scalar, columnar = make(), make()
    if warm is not None:
        simulate(scalar, warm)
        simulate(columnar, warm)
    expected = _scalar_predictions(scalar, trace)
    sink = {}
    simulate_columnar_many([columnar], trace, prediction_sinks=[sink])
    got = [
        target if valid else None
        for target, valid in zip(
            sink["predictions"].tolist(), sink["valid"].tolist()
        )
    ]
    assert got == expected
    assert _register(columnar) == _register(scalar)
    assert columnar.state_hash() == scalar.state_hash()
    return columnar


def _small_ittage():
    return ITTAGE(
        ITTAGEConfig(base_entries=64, tagged_entries=32, u_reset_period=64)
    )


_MAKERS = [BLBP, _small_ittage, ITTAGE]
_IDS = ["BLBP", "ITTAGE-small", "ITTAGE"]


def _mixed(seed, count, pcs=4, targets=5):
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        if rng.random() < 0.6:
            records.append(_cond(rng))
        else:
            records.append(_jump(0x4000 + 0x40 * rng.randrange(pcs),
                                 0x10_0000 + 0x40 * rng.randrange(targets)))
    return records


@pytest.mark.parametrize("make", _MAKERS, ids=_IDS)
def test_warm_lane_with_pending_bits(make):
    rng = random.Random(1)
    warm = Trace.from_records(
        "warm", _mixed(2, 300) + [_cond(rng) for _ in range(77)]
    )
    probe = make()
    simulate(probe, warm)
    assert _register(probe)[1] > 0, "the warm lane must hold pending bits"
    _assert_lockstep(make, Trace.from_records("main", _mixed(3, 400)),
                     warm=warm)


@pytest.mark.parametrize("make", _MAKERS, ids=_IDS)
@pytest.mark.parametrize("gap", [1023, 1024, 1500, 3000])
def test_long_conditional_gap_crosses_the_flush_bound(make, gap):
    rng = random.Random(gap)
    records = _mixed(4, 60)
    records += [_cond(rng, 0x900 + 4 * (i % 5)) for i in range(gap)]
    records += _mixed(5, 60)
    records += [_cond(rng) for _ in range(gap // 2)]
    _assert_lockstep(make, Trace.from_records(f"gap-{gap}", records),
                     warm=Trace.from_records("warm", _mixed(6, 50)))


def test_region_recycling_invalidates_stale_ways():
    """300 distinct high-bit regions against 128 region entries: the
    core recycles LRU regions and drops the IBTB ways they strand."""
    rng = random.Random(7)
    records = []
    for step in range(3000):
        if step % 3 == 0:
            records.append(_cond(rng))
        region = rng.randrange(300) if rng.random() < 0.7 else step % 5
        records.append(_jump(0x4000 + 0x40 * rng.randrange(6),
                             (region << 20) | (0x40 * rng.randrange(4))))
    columnar = _assert_lockstep(
        BLBP, Trace.from_records("regions", records)
    )
    assert columnar.ibtb.regions.evictions > 0


def test_crowded_ibtb_set_ages_and_fills():
    """One branch with 100 targets into a 64-way set: RRIP ages the set
    and evicts on fills, in the scalar order."""
    rng = random.Random(9)
    records = []
    for step in range(4000):
        if step % 4 == 0:
            records.append(_cond(rng))
        target = 0x10_0000 + 0x40 * (
            rng.randrange(100) if rng.random() < 0.8 else step % 3
        )
        records.append(_jump(0x4000, target))
    _assert_lockstep(BLBP, Trace.from_records("crowded", records))
    small = lambda: BLBP(BLBPConfig(ibtb_sets=2, ibtb_ways=8))  # noqa: E731
    _assert_lockstep(small, Trace.from_records("crowded-small", records))


def test_ablation_lanes_fused():
    """All nine lanes of the ablation campaign in one fused call match
    their solo scalar runs, per branch and in final state."""
    trace = suite88_specs(0.05)[7].generate()
    factories = list(ablation_factories().values())
    scalar = [make() for make in factories]
    fused = [make() for make in factories]
    expected = [_scalar_predictions(lane, trace) for lane in scalar]
    sinks = [{} for _ in fused]
    simulate_columnar_many(fused, trace, prediction_sinks=sinks)
    for slot, (lane, reference, sink) in enumerate(
        zip(fused, scalar, sinks)
    ):
        got = [
            target if valid else None
            for target, valid in zip(
                sink["predictions"].tolist(), sink["valid"].tolist()
            )
        ]
        assert got == expected[slot], f"lane {slot}: predictions diverge"
        assert _register(lane) == _register(reference), slot
        assert lane.state_hash() == reference.state_hash(), slot
