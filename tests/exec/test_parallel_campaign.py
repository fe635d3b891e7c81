"""End-to-end tests for ``run_campaign_parallel``.

The load-bearing guarantee: a parallel campaign is cell-for-cell
*identical* to a serial one — same cells, same MPKI, same every-field
results — regardless of worker count, completion order, or resume
state.  The property test drives that across generated workloads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import (
    CollectingSink,
    resolve_jobs,
    run_campaign_parallel,
)
from repro.predictors import ITTAGE, BranchTargetBuffer, TwoBitBTB
from repro.sim.runner import run_campaign
from repro.workloads import SwitchCaseSpec, VirtualDispatchSpec


def _campaigns_identical(serial, parallel):
    assert parallel.traces() == serial.traces()
    assert parallel.predictors() == serial.predictors()
    for trace in serial.traces():
        for predictor in serial.predictors():
            assert (
                parallel.results[trace][predictor]
                == serial.results[trace][predictor]
            ), (trace, predictor)


class TestParallelSerialEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        records=st.integers(min_value=200, max_value=1500),
        determinism=st.floats(min_value=0.7, max_value=0.99),
        jobs=st.integers(min_value=2, max_value=4),
    )
    def test_parallel_equals_serial_property(self, seed, records,
                                             determinism, jobs):
        traces = [
            VirtualDispatchSpec(
                name="vd-prop", seed=seed, num_records=records,
                num_types=4, num_sites=2, determinism=determinism,
            ).generate(),
            SwitchCaseSpec(
                name="sw-prop", seed=seed + 1, num_records=records,
                num_cases=8, determinism=determinism,
            ).generate(),
        ]
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        serial = run_campaign(traces, factories)
        parallel = run_campaign_parallel(traces, factories, jobs=jobs)
        _campaigns_identical(serial, parallel)

    def test_identical_on_stateful_predictor(self, vdispatch_trace,
                                             interpreter_trace):
        traces = [vdispatch_trace, interpreter_trace]
        factories = {"ITTAGE": ITTAGE, "BTB": BranchTargetBuffer}
        serial = run_campaign(traces, factories)
        parallel = run_campaign_parallel(traces, factories, jobs=2)
        _campaigns_identical(serial, parallel)

    def test_identical_with_warmup_and_ras_depth(self, vdispatch_trace):
        factories = {"BTB": BranchTargetBuffer}
        serial = run_campaign([vdispatch_trace], factories,
                              ras_depth=8, warmup_records=100)
        parallel = run_campaign_parallel(
            [vdispatch_trace], factories, jobs=2,
            ras_depth=8, warmup_records=100,
        )
        _campaigns_identical(serial, parallel)


class TestProgressBridging:
    def test_serial_progress_callback(self, tiny_trace):
        seen = []
        run_campaign_parallel(
            [tiny_trace], {"BTB": BranchTargetBuffer}, jobs=1,
            progress=lambda trace, name, mpki, index, total: seen.append(
                (trace, name, index, total)
            ),
        )
        assert seen == [("tiny", "BTB", 0, 1)]

    def test_extended_progress_callback(self, tiny_trace, vdispatch_trace):
        seen = []

        def progress(trace, name, mpki, index, total):
            seen.append((index, total))

        run_campaign_parallel(
            [tiny_trace, vdispatch_trace], {"BTB": BranchTargetBuffer},
            jobs=2, progress=progress,
        )
        assert sorted(index for index, _ in seen) == [0, 1]
        assert all(total == 2 for _, total in seen)

    def test_progress_combines_with_events(self, tiny_trace):
        seen = []
        sink = CollectingSink()
        run_campaign_parallel(
            [tiny_trace], {"BTB": BranchTargetBuffer}, jobs=1,
            progress=lambda *args: seen.append(args), events=sink,
        )
        assert len(seen) == 1
        assert "cell_finish" in sink.kinds()


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1

    def test_clamped_to_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)


class TestCacheDir:
    def test_explicit_cache_dir_keeps_spills(self, tiny_trace, tmp_path):
        spill = tmp_path / "spill"
        run_campaign_parallel(
            [tiny_trace], {"BTB": BranchTargetBuffer}, jobs=2,
            cache_dir=spill,
        )
        assert list(spill.glob("*.trace"))

    def test_resume_via_journal_path(self, tiny_trace, vdispatch_trace,
                                     tmp_path):
        journal_path = tmp_path / "campaign.jsonl"
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        traces = [tiny_trace, vdispatch_trace]
        first = run_campaign_parallel(
            traces, factories, jobs=1, journal_path=journal_path,
        )
        sink = CollectingSink()
        resumed = run_campaign_parallel(
            traces, factories, jobs=2, journal_path=journal_path,
            events=sink,
        )
        assert len(sink.of_kind("cell_skipped")) == 4
        assert sink.of_kind("cell_finish") == []
        _campaigns_identical(first, resumed)
