"""Tests for the post-hoc analysis tools."""

import numpy as np
import pytest

from repro.core import BLBP
from repro.predictors import BranchTargetBuffer, ITTAGE
from repro.registry import make_indirect
from repro.sim import simulate
from repro.sim.analysis import (
    format_branch_reports,
    format_learning_curve,
    learning_curve,
    per_branch_breakdown,
    steady_state_mpki,
)
from repro.sim.kernel import simulate_columnar_many
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace
from repro.workloads import VirtualDispatchSpec


@pytest.fixture(scope="module")
def trace():
    return VirtualDispatchSpec(
        name="analysis", seed=41, num_records=12000, num_types=4,
        determinism=0.96, filler_conditionals=10,
    ).generate()


class TestLearningCurve:
    def test_windows_cover_trace(self, trace):
        curve = learning_curve(ITTAGE(), trace, window=100)
        indirect = int(trace.indirect_mask().sum())
        assert len(curve.rates) == -(-indirect // 100)

    def test_rates_are_probabilities(self, trace):
        curve = learning_curve(BLBP(), trace, window=100)
        assert all(0.0 <= rate <= 1.0 for rate in curve.rates)

    def test_learner_improves_over_trace(self, trace):
        curve = learning_curve(ITTAGE(), trace, window=100)
        assert curve.rates[0] > curve.converged_rate()

    def test_warmup_detection(self, trace):
        curve = learning_curve(ITTAGE(), trace, window=100)
        warmup = curve.warmup_windows()
        assert 0 <= warmup <= len(curve.rates)

    def test_bad_window_rejected(self, trace):
        with pytest.raises(ValueError):
            learning_curve(ITTAGE(), trace, window=0)

    def test_format(self, trace):
        curve = learning_curve(ITTAGE(), trace, window=200)
        rendered = format_learning_curve(curve)
        assert "ITTAGE" in rendered


class TestPerBranchBreakdown:
    def test_counts_consistent(self, trace):
        reports = per_branch_breakdown(BranchTargetBuffer(), trace)
        total_execs = sum(report.executions for report in reports)
        assert total_execs == int(trace.indirect_mask().sum())

    def test_sorted_by_misses(self, trace):
        reports = per_branch_breakdown(BranchTargetBuffer(), trace)
        misses = [report.mispredictions for report in reports]
        assert misses == sorted(misses, reverse=True)

    def test_top_limits(self, trace):
        reports = per_branch_breakdown(BranchTargetBuffer(), trace, top=2)
        assert len(reports) == 2

    def test_polymorphic_branches_carry_btb_misses(self, trace):
        reports = per_branch_breakdown(BranchTargetBuffer(), trace)
        worst = reports[0]
        assert worst.distinct_targets > 1
        assert worst.miss_rate > 0.3

    def test_ties_keep_first_execution_order(self):
        records = [
            BranchRecord(pc, BranchType.INDIRECT_JUMP, True, target)
            for pc, target in [(0x5000, 0x9000), (0x4000, 0x9100)] * 3
        ]
        reports = per_branch_breakdown(
            BranchTargetBuffer(), Trace.from_records("ties", records)
        )
        assert [(r.pc, r.mispredictions) for r in reports] == [
            (0x5000, 1), (0x4000, 1),
        ]

    def test_format(self, trace):
        rendered = format_branch_reports(
            per_branch_breakdown(BranchTargetBuffer(), trace, top=3)
        )
        assert "execs" in rendered


class TestSteadyState:
    def test_steady_state_not_worse(self, trace):
        whole, steady = steady_state_mpki(ITTAGE, trace)
        assert steady <= whole * 1.05

    def test_bad_fraction_rejected(self, trace):
        with pytest.raises(ValueError):
            steady_state_mpki(ITTAGE, trace, warmup_fraction=1.0)


@pytest.fixture(params=["BLBP", "ITTAGE", "VPC", "BTB"])
def predictor_name(request):
    return request.param


class TestPinnedToSimulate:
    """The analysis tools count what :func:`simulate` counts, on a trace
    with calls and returns."""

    def test_breakdown_misses_are_the_engine_tally(
        self, callret_trace, predictor_name
    ):
        result = simulate(
            make_indirect(predictor_name), callret_trace, collect_per_pc=True
        )
        reports = per_branch_breakdown(
            make_indirect(predictor_name), callret_trace
        )
        assert {
            report.pc: report.mispredictions
            for report in reports if report.mispredictions
        } == result.mispredictions_by_pc
        assert sum(report.executions for report in reports) == (
            result.indirect_branches
        )

    def test_curve_misses_sum_to_the_engine_count(
        self, callret_trace, predictor_name
    ):
        window = 150
        result = simulate(make_indirect(predictor_name), callret_trace)
        curve = learning_curve(
            make_indirect(predictor_name), callret_trace, window=window
        )
        sizes = [window] * len(curve.rates)
        sizes[-1] = result.indirect_branches - window * (len(sizes) - 1)
        assert sum(
            round(rate * size) for rate, size in zip(curve.rates, sizes)
        ) == result.indirect_mispredictions

    @pytest.mark.parametrize("name", ["BLBP", "ITTAGE", "VPC"])
    def test_curve_windows_are_the_cores_windows(
        self, compiled_cores, callret_trace, name
    ):
        """Per window, the curve's misses are those of the compiled
        core's own per-branch predictions, so the driver makes the
        call sequence the cores replay."""
        window = 150
        sink = {}
        simulate_columnar_many(
            [make_indirect(name)], callret_trace, prediction_sinks=[sink]
        )
        targets = callret_trace.targets[sink["indirect_idx"]]
        missed = ~sink["valid"] | (sink["predictions"] != targets)
        windows = [
            missed[start:start + window]
            for start in range(0, len(missed), window)
        ]
        curve = learning_curve(make_indirect(name), callret_trace, window)
        assert curve.rates == [
            np.count_nonzero(misses) / len(misses) for misses in windows
        ]
