"""Unit and integration tests for hot-path simulation counters."""

import pytest

from repro.core import BLBP
from repro.sim import SimCounters, aggregate_profiles, format_counters
from repro.sim.engine import simulate
from repro.sim.runner import run_campaign
from repro.workloads import SwitchCaseSpec


def _trace(records=1200, seed=7):
    return SwitchCaseSpec(
        name="counters-trace", seed=seed, num_records=records
    ).generate()


class TestSimCounters:
    def test_defaults_zero(self):
        counters = SimCounters()
        assert counters.predictions == 0
        assert counters.elapsed_seconds == 0.0
        assert counters.throughput() == 0.0

    def test_merge_adds_fieldwise(self):
        a = SimCounters(predictions=3, fold_updates=10, predict_seconds=0.5)
        b = SimCounters(predictions=4, trained_bits=2, predict_seconds=0.25)
        a.merge(b)
        assert a.predictions == 7
        assert a.fold_updates == 10
        assert a.trained_bits == 2
        assert a.predict_seconds == pytest.approx(0.75)

    def test_dict_round_trip(self):
        counters = SimCounters(
            predictions=5, ibtb_probes=9, records=100, elapsed_seconds=2.0
        )
        clone = SimCounters.from_dict(counters.as_dict())
        assert clone == counters

    def test_from_dict_ignores_unknown_keys(self):
        counters = SimCounters.from_dict({"predictions": 2, "bogus": 99})
        assert counters.predictions == 2

    def test_throughput(self):
        counters = SimCounters(records=500, elapsed_seconds=2.0)
        assert counters.throughput() == pytest.approx(250.0)

    def test_harvest_from_blbp(self):
        predictor = BLBP()
        predictor.on_conditional(0x500, True)
        predictor.predict_target(0x1000)
        predictor.train(0x1000, 0x40_0000)
        counters = SimCounters()
        counters.harvest(predictor)
        assert counters.predictions >= 1
        assert counters.ibtb_probes >= 1

    def test_harvest_without_hook_is_noop(self):
        class Bare:
            pass

        counters = SimCounters(predictions=1)
        counters.harvest(Bare())
        assert counters.predictions == 1

    def test_aggregate_profiles_skips_none(self):
        total = aggregate_profiles(
            [{"predictions": 2}, None, {"predictions": 3, "records": 10}]
        )
        assert total.predictions == 5
        assert total.records == 10

    def test_format_counters_mentions_every_number(self):
        text = format_counters(
            SimCounters(predictions=1234, records=10, elapsed_seconds=0.5)
        )
        assert "1,234" in text
        assert "records/s" in text


#: The profile fields that are wall times, not event counts.
_TIMES = ("predict_seconds", "train_seconds", "conditional_seconds",
          "elapsed_seconds")


class TestEngineProfiling:
    """Each test profiles on every backend that can run here: a
    columnar lane is profiled on the cores, with the scalar run's event
    counts and phase times of 0 (its core makes no scalar calls)."""

    def test_unprofiled_result_has_no_profile(self, backends):
        for backend in backends:
            result = simulate(BLBP(), _trace(), backend=backend)
            assert result.profile is None

    def test_profiled_result_and_counters(self, backends):
        trace = _trace()
        events = {}
        for backend in backends:
            counters = SimCounters()
            result = simulate(
                BLBP(), trace, counters=counters, backend=backend
            )
            assert result.profile is not None
            assert counters.records == len(trace)
            assert counters.predictions == result.indirect_branches
            assert counters.conditionals == result.conditional_branches
            assert counters.fold_updates > 0
            assert counters.elapsed_seconds > 0.0
            phases = (counters.predict_seconds, counters.train_seconds,
                      counters.conditional_seconds)
            if backend == "scalar":
                assert counters.predict_seconds > 0.0
                assert counters.train_seconds > 0.0
            else:
                assert phases == (0.0, 0.0, 0.0)
            # The result's profile holds this cell's numbers exactly.
            assert result.profile == counters.as_dict()
            events[backend] = {
                key: value for key, value in result.profile.items()
                if key not in _TIMES
            }
        assert all(counts == events["scalar"] for counts in events.values())

    def test_counters_accumulate_across_runs(self, backends):
        trace = _trace()
        for backend in backends:
            counters = SimCounters()
            simulate(BLBP(), trace, counters=counters, backend=backend)
            simulate(BLBP(), trace, counters=counters, backend=backend)
            assert counters.records == 2 * len(trace)

    def test_profiling_does_not_change_results(self, backends):
        trace = _trace()
        plain = simulate(BLBP(), trace)
        for backend in backends:
            profiled = simulate(
                BLBP(), trace, counters=SimCounters(), backend=backend
            )
            profiled.profile = None
            assert profiled == plain, backend


class TestRunnerProfiling:
    def test_campaign_threads_counters_through_cells(self):
        counters = SimCounters()
        traces = [_trace(seed=1), _trace(seed=2)]
        traces[1].name = "counters-trace-2"
        campaign = run_campaign(
            traces, {"BLBP": BLBP}, counters=counters
        )
        total_records = sum(len(trace) for trace in traces)
        assert counters.records == total_records
        for per_trace in campaign.results.values():
            for result in per_trace.values():
                assert result.profile is not None
