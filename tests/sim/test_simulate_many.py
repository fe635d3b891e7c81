"""Equivalence tests for the fused multi-predictor loop.

``simulate_many`` promises results and final predictor state
bit-identical to per-predictor ``simulate`` calls — across every
registry predictor, with and without a derived plane, on the fast
indirect-only path and the general path, and while checkpointing.
"""

from __future__ import annotations

import pytest

from repro.registry import INDIRECT_PREDICTORS, make_indirect
from repro.sim import simulate, simulate_many
from repro.sim.checkpoint import load_checkpoint
from repro.trace.derived import compute_derived
from repro.trace.stream import Trace, concatenate


def _result_key(result):
    return (
        result.trace_name,
        result.total_instructions,
        result.indirect_branches,
        result.indirect_mispredictions,
        result.return_branches,
        result.return_mispredictions,
        result.conditional_branches,
        tuple(sorted(result.mispredictions_by_pc.items())),
    )


def _by_pc_order(result):
    return list(result.mispredictions_by_pc.items())


@pytest.fixture(scope="module")
def mixed_trace():
    from repro.workloads import CallReturnSpec, VirtualDispatchSpec

    callret = CallReturnSpec(
        name="cr-many", seed=10, num_records=3000, filler_conditionals=6
    ).generate()
    vdispatch = VirtualDispatchSpec(
        name="vd-many", seed=7, num_records=3000, num_types=4, num_sites=2,
        determinism=0.95, filler_conditionals=6,
    ).generate()
    return concatenate("mixed", [callret, vdispatch])


NAMES = sorted(INDIRECT_PREDICTORS)


class TestSoloEquivalence:
    @pytest.mark.parametrize("name", NAMES)
    def test_matches_simulate_per_predictor(self, name, mixed_trace):
        solo_predictor = make_indirect(name)
        solo = simulate(
            solo_predictor, mixed_trace, warmup_records=200,
            collect_per_pc=True,
        )
        fused_predictor = make_indirect(name)
        [fused] = simulate_many(
            [fused_predictor], mixed_trace, warmup_records=200,
            collect_per_pc=True,
        )
        assert _result_key(fused) == _result_key(solo)
        assert fused_predictor.state_hash() == solo_predictor.state_hash()

    def test_all_predictors_in_one_pass(self, mixed_trace):
        solos = {
            name: simulate(make_indirect(name), mixed_trace)
            for name in NAMES
        }
        predictors = [make_indirect(name) for name in NAMES]
        fused = simulate_many(predictors, mixed_trace)
        for name, result in zip(NAMES, fused):
            assert _result_key(result) == _result_key(solos[name]), name

    def test_derived_plane_matches_live_ras(self, mixed_trace):
        # The plane scorer against the live-RAS span scorer.
        derived = compute_derived(mixed_trace, 32)
        for warmup in (0, 700):
            live = simulate_many(
                [make_indirect(name) for name in NAMES], mixed_trace,
                warmup_records=warmup, collect_per_pc=True,
            )
            planar = simulate_many(
                [make_indirect(name) for name in NAMES], mixed_trace,
                derived=derived, warmup_records=warmup, collect_per_pc=True,
            )
            for left, right in zip(live, planar):
                assert _result_key(left) == _result_key(right)
                assert _by_pc_order(left) == _by_pc_order(right)

    def test_fast_path_matches_general_path(self, mixed_trace):
        # BTB and 2bit-BTB override neither hook, so a pure group
        # predicts over the plane's indirect records alone; mixing in
        # ITTAGE (which consumes conditional outcomes) makes the group
        # walk every record.  Fast-path members must be unaffected by
        # their companions, and both must match the live-RAS span
        # scorer.
        derived = compute_derived(mixed_trace, 32)
        for warmup in (0, 100):
            fast = simulate_many(
                [make_indirect("BTB"), make_indirect("2bit-BTB")],
                mixed_trace, derived=derived, warmup_records=warmup,
                collect_per_pc=True,
            )
            general = simulate_many(
                [make_indirect("BTB"), make_indirect("2bit-BTB"),
                 make_indirect("ITTAGE")],
                mixed_trace, derived=derived, warmup_records=warmup,
                collect_per_pc=True,
            )
            live = simulate_many(
                [make_indirect("BTB"), make_indirect("2bit-BTB")],
                mixed_trace, warmup_records=warmup, collect_per_pc=True,
            )
            for left, middle, right in zip(fast, general, live):
                assert _result_key(left) == _result_key(middle)
                assert _result_key(left) == _result_key(right)
                assert _by_pc_order(left) == _by_pc_order(middle)
                assert _by_pc_order(left) == _by_pc_order(right)

    @pytest.mark.usefixtures("compiled_cores")
    @pytest.mark.parametrize("name", ["BLBP", "ITTAGE", "VPC"])
    def test_by_pc_order_is_the_same_on_every_path(self, name):
        # First-miss order, whichever scorer ran: the live-RAS span
        # scorer, the plane scorer on a scalar lane, and the plane
        # scorer on a core.  A journal writes the dict in this order.
        from repro.workloads import VirtualDispatchSpec

        trace = VirtualDispatchSpec(
            name="vd-by-pc", seed=3, num_records=4000
        ).generate()
        derived = compute_derived(trace, 32)
        orders = [
            _by_pc_order(simulate(
                make_indirect(name), trace, collect_per_pc=True, **options
            ))
            for options in (
                {}, {"derived": derived}, {"backend": "columnar"},
            )
        ]
        assert orders[0] != sorted(orders[0])
        assert orders[1] == orders[0]
        assert orders[2] == orders[0]

    def test_empty_predictor_list(self, mixed_trace):
        assert simulate_many([], mixed_trace) == []

    def test_empty_trace(self):
        empty = Trace.from_records("empty", [])
        [result] = simulate_many([make_indirect("BTB")], empty)
        assert result.indirect_branches == 0
        assert result.indirect_mispredictions == 0


class TestCheckpoints:
    def test_fused_checkpoints_resume_via_simulate(self, mixed_trace, tmp_path):
        names = ["BTB", "ITTAGE"]
        paths = [str(tmp_path / f"{name}.ckpt") for name in names]
        fused_predictors = [make_indirect(name) for name in names]
        fused = simulate_many(
            fused_predictors, mixed_trace,
            checkpoint_every=500, checkpoint_paths=paths,
        )
        for name, path, fused_result in zip(names, paths, fused):
            snapshot = load_checkpoint(path)
            assert snapshot is not None
            resumed_predictor = make_indirect(name)
            resumed = simulate(
                resumed_predictor, mixed_trace, resume_from=snapshot
            )
            assert _result_key(resumed) == _result_key(fused_result)

    def test_checkpointing_does_not_change_results(self, mixed_trace, tmp_path):
        baseline = simulate(make_indirect("VPC"), mixed_trace)
        [checked] = simulate_many(
            [make_indirect("VPC")], mixed_trace,
            checkpoint_every=300,
            checkpoint_paths=[str(tmp_path / "vpc.ckpt")],
        )
        assert _result_key(checked) == _result_key(baseline)


class TestValidation:
    def test_mismatched_derived_rejected(self, mixed_trace, tiny_trace):
        wrong = compute_derived(tiny_trace, 32)
        with pytest.raises(ValueError):
            simulate_many([make_indirect("BTB")], mixed_trace, derived=wrong)

    def test_wrong_depth_derived_rejected(self, mixed_trace):
        shallow = compute_derived(mixed_trace, 4)
        with pytest.raises(ValueError):
            simulate_many(
                [make_indirect("BTB")], mixed_trace,
                ras_depth=32, derived=shallow,
            )

    def test_checkpoint_paths_length_checked(self, mixed_trace, tmp_path):
        with pytest.raises(ValueError):
            simulate_many(
                [make_indirect("BTB"), make_indirect("VPC")], mixed_trace,
                checkpoint_every=100,
                checkpoint_paths=[str(tmp_path / "only-one.ckpt")],
            )

    def test_checkpoint_every_needs_paths(self, mixed_trace):
        with pytest.raises(ValueError):
            simulate_many(
                [make_indirect("BTB")], mixed_trace, checkpoint_every=100
            )
