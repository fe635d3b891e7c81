"""Tests for the memoized suite/campaign cache."""

import pytest

from repro.experiments.runcache import (
    clear_caches,
    get_campaign,
    get_suite_stats,
    get_suite_traces,
)
from repro.predictors import BranchTargetBuffer


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


class TestSuiteCache:
    def test_same_object_on_repeat(self):
        first = get_suite_traces(scale=0.2)
        second = get_suite_traces(scale=0.2)
        assert first is second

    def test_different_scale_different_cache(self):
        small = get_suite_traces(scale=0.2)
        other = get_suite_traces(scale=0.25)
        assert small is not other

    def test_cbp4_suite_supported(self):
        traces = get_suite_traces(scale=0.2, suite="cbp4")
        assert len(traces) == 20

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            get_suite_traces(scale=0.2, suite="mystery")

    def test_stats_align_with_traces(self):
        traces = get_suite_traces(scale=0.2)
        stats = get_suite_stats(scale=0.2)
        assert len(stats) == len(traces)
        assert stats[0].name == traces[0].name


class TestCampaignCache:
    def test_campaign_cached_by_names(self):
        factories = {"BTB": BranchTargetBuffer}
        first = get_campaign(factories, scale=0.2)
        second = get_campaign(factories, scale=0.2)
        assert first is second

    def test_campaign_has_all_traces(self):
        campaign = get_campaign({"BTB": BranchTargetBuffer}, scale=0.2)
        assert len(campaign.traces()) == 88


class TestCampaignCacheFactoryIdentity:
    """Regression: cache keys must include factory identity, not just
    the predictor name — two configs under one name must not alias."""

    def test_different_factories_same_name_not_aliased(self):
        import functools

        from repro.predictors import BranchTargetBuffer as BTBClass

        small = functools.partial(BTBClass, num_entries=16)
        large = functools.partial(BTBClass, num_entries=32768)
        first = get_campaign({"BTB": small}, scale=0.2)
        second = get_campaign({"BTB": large}, scale=0.2)
        assert first is not second
        # The configurations genuinely differ, so at least one trace
        # must score differently; aliasing would make them all equal.
        diffs = [
            trace
            for trace in first.traces()
            if first.mpki_of(trace, "BTB") != second.mpki_of(trace, "BTB")
        ]
        assert diffs

    def test_distinct_closures_get_distinct_slots(self):
        first = get_campaign({"BTB": lambda: BranchTargetBuffer()}, scale=0.2)
        second = get_campaign({"BTB": lambda: BranchTargetBuffer()}, scale=0.2)
        assert first is not second

    def test_same_class_factory_still_hits_cache(self):
        first = get_campaign({"BTB": BranchTargetBuffer}, scale=0.2)
        second = get_campaign({"BTB": BranchTargetBuffer}, scale=0.2)
        assert first is second

    def test_repro_jobs_env_uses_parallel_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = get_campaign({"BTB": BranchTargetBuffer}, scale=0.2)
        clear_caches()
        monkeypatch.delenv("REPRO_JOBS")
        serial = get_campaign({"BTB": BranchTargetBuffer}, scale=0.2)
        assert parallel.traces() == serial.traces()
        for trace in serial.traces():
            assert parallel.results[trace]["BTB"] == serial.results[trace]["BTB"]

    def test_bad_repro_jobs_raises(self, monkeypatch):
        """A malformed REPRO_JOBS fails loudly, as in every other entry
        point, instead of quietly running serial."""
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            get_campaign({"BTB": BranchTargetBuffer}, scale=0.2)
