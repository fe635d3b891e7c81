"""Tests for SimPoint-style sampled simulation."""

import warnings

import pytest

from repro.predictors import ITTAGE, BranchTargetBuffer
from repro.sim import simulate, simulate_sampled
from repro.trace.sampling import simpoint_plan


class TestSampledEstimate:
    def test_degenerate_plan_equals_full_mpki(self, vdispatch_trace):
        # One interval spanning the whole trace: the "sampled" run *is*
        # the full run and the estimate must match exactly.
        plan = simpoint_plan(vdispatch_trace, 10**6)
        full = simulate(BranchTargetBuffer(), vdispatch_trace)
        sampled = simulate_sampled(
            BranchTargetBuffer, vdispatch_trace, plan=plan
        )
        assert sampled.estimated_mpki == pytest.approx(full.mpki())
        assert sampled.replayed_records == len(vdispatch_trace)
        assert sampled.warm_checkpoint_hits == 0

    def test_estimate_tracks_full_mpki(self, vdispatch_trace):
        # BTB misprediction rate is stationary (no long learning
        # transient), which is the regime the SimPoint estimator
        # targets; see docs/ingestion.md for the accuracy caveats.
        full = simulate(BranchTargetBuffer(), vdispatch_trace)
        sampled = simulate_sampled(
            BranchTargetBuffer, vdispatch_trace,
            interval_records=1000, max_regions=4,
        )
        assert full.mpki() > 0
        relative_error = abs(
            sampled.estimated_mpki - full.mpki()
        ) / full.mpki()
        assert relative_error < 0.10

    def test_learning_predictor_estimates_steady_state(
        self, vdispatch_trace
    ):
        # A learning predictor's full-trace MPKI on a short trace is
        # dominated by its cold-start transient; the sampled estimate
        # reports the (lower) steady-state rate.  Both are small here —
        # the estimator stays within a tight absolute band even where
        # the relative error is meaningless.
        full = simulate(ITTAGE(), vdispatch_trace)
        sampled = simulate_sampled(
            ITTAGE, vdispatch_trace, interval_records=500, max_regions=4
        )
        assert sampled.estimated_mpki <= full.mpki()
        assert abs(sampled.estimated_mpki - full.mpki()) < 1.0

    def test_result_bookkeeping(self, vdispatch_trace):
        plan = simpoint_plan(vdispatch_trace, 500, max_regions=3)
        result = simulate_sampled(
            BranchTargetBuffer, vdispatch_trace, plan=plan
        )
        assert result.trace_name == vdispatch_trace.name
        assert result.predictor_name == BranchTargetBuffer().name
        assert result.full_records == len(vdispatch_trace)
        assert result.replayed_records == plan.replayed_records
        assert len(result.region_results) == len(plan.regions)
        assert len(result.region_mpki) == len(plan.regions)
        assert result.record_reduction == pytest.approx(
            len(vdispatch_trace) / plan.replayed_records
        )

    def test_estimate_is_weighted_region_combination(self, vdispatch_trace):
        plan = simpoint_plan(vdispatch_trace, 500, max_regions=3)
        result = simulate_sampled(
            BranchTargetBuffer, vdispatch_trace, plan=plan
        )
        combined = sum(
            region.weight * mpki
            for region, mpki in zip(plan.regions, result.region_mpki)
        )
        assert result.estimated_mpki == pytest.approx(combined)

    def test_deterministic(self, vdispatch_trace):
        first = simulate_sampled(
            ITTAGE, vdispatch_trace, interval_records=500, max_regions=3
        )
        second = simulate_sampled(
            ITTAGE, vdispatch_trace, interval_records=500, max_regions=3
        )
        assert first.estimated_mpki == second.estimated_mpki
        assert first.region_mpki == second.region_mpki

    def test_backends_agree(self, vdispatch_trace):
        scalar = simulate_sampled(
            ITTAGE, vdispatch_trace, interval_records=500, max_regions=3,
            backend="scalar",
        )
        columnar = simulate_sampled(
            ITTAGE, vdispatch_trace, interval_records=500, max_regions=3,
            backend="columnar",
        )
        assert scalar.estimated_mpki == columnar.estimated_mpki


class TestValidation:
    def test_plan_for_other_trace_rejected(
        self, vdispatch_trace, tiny_trace
    ):
        plan = simpoint_plan(tiny_trace, 4)
        with pytest.raises(ValueError, match="plan is for"):
            simulate_sampled(BranchTargetBuffer, vdispatch_trace, plan=plan)

    def test_non_plan_rejected(self, vdispatch_trace):
        with pytest.raises(TypeError, match="SamplingPlan"):
            simulate_sampled(
                BranchTargetBuffer, vdispatch_trace, plan="whole thing"
            )

    def test_unknown_backend_rejected(self, vdispatch_trace):
        with pytest.raises(ValueError, match="backend"):
            simulate_sampled(
                BranchTargetBuffer, vdispatch_trace, backend="quantum"
            )


class TestWarmupCheckpoints:
    def test_second_run_restores_warm_state(self, vdispatch_trace, tmp_path):
        kwargs = dict(
            interval_records=500, max_regions=3, warmup_intervals=1,
            checkpoint_dir=tmp_path,
        )
        cold = simulate_sampled(ITTAGE, vdispatch_trace, **kwargs)
        assert cold.warm_checkpoint_hits == 0
        warm = simulate_sampled(ITTAGE, vdispatch_trace, **kwargs)
        warmed_regions = sum(
            1 for r in simpoint_plan(
                vdispatch_trace, 500, max_regions=3
            ).regions if r.warmup
        )
        assert warm.warm_checkpoint_hits == warmed_regions
        # Resume is per-branch identical, so the estimate is too.
        assert warm.estimated_mpki == cold.estimated_mpki
        assert warm.region_mpki == cold.region_mpki

    def test_checkpoints_keyed_on_predictor_config(
        self, vdispatch_trace, tmp_path
    ):
        kwargs = dict(
            interval_records=500, max_regions=3, checkpoint_dir=tmp_path,
        )
        simulate_sampled(ITTAGE, vdispatch_trace, **kwargs)
        # A different predictor must not hit ITTAGE's warm checkpoints.
        other = simulate_sampled(BranchTargetBuffer, vdispatch_trace, **kwargs)
        assert other.warm_checkpoint_hits == 0

    def test_no_warmup_writes_no_checkpoints(self, vdispatch_trace, tmp_path):
        simulate_sampled(
            BranchTargetBuffer, vdispatch_trace, interval_records=500,
            max_regions=3, warmup_intervals=0, checkpoint_dir=tmp_path,
        )
        assert list(tmp_path.glob("*.ckpt.json")) == []

    @pytest.mark.usefixtures("compiled_cores")
    def test_columnar_keeps_its_backend(self, vdispatch_trace, tmp_path):
        """``backend="columnar"`` reaches every region call: the cold
        pass (checkpointing) and the warm resume replay ITTAGE on its
        core with no warning, and the estimate equals the scalar
        backend's."""
        kwargs = dict(
            interval_records=500, max_regions=3, warmup_intervals=1,
        )
        scalar = simulate_sampled(ITTAGE, vdispatch_trace, **kwargs)
        for run in ("cold", "warm"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                columnar = simulate_sampled(
                    ITTAGE, vdispatch_trace, backend="columnar",
                    checkpoint_dir=tmp_path, **kwargs,
                )
            assert columnar.estimated_mpki == scalar.estimated_mpki, run
            assert columnar.region_mpki == scalar.region_mpki, run
        assert columnar.warm_checkpoint_hits > 0
