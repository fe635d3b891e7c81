"""Tests for cell execution: retries, timeouts, fallback, journaling."""

import functools
import os
import sys
import threading
import time

import pytest

from repro.exec.events import CollectingSink
from repro.exec.journal import Journal, load_journal
from repro.exec.plan import plan_campaign
from repro.exec.pool import (
    CellFailedError,
    CellTimeout,
    _Execution,
    _Runner,
    _RunnerDown,
    _Scheduler,
    _UnitFailed,
    execute_plan,
    run_cell,
)
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.sim.metrics import SimulationResult
from repro.sim.runner import run_campaign


def _flaky_factory(marker_path, failures):
    """Fail the first ``failures`` constructions, then succeed.

    Attempt state lives in a file so it survives crossing process
    boundaries; ``functools.partial`` over this module-level function
    stays picklable.
    """
    from pathlib import Path

    marker = Path(marker_path)
    attempts = len(marker.read_text().splitlines()) if marker.exists() else 0
    with open(marker, "a") as handle:
        handle.write("attempt\n")
    if attempts < failures:
        raise RuntimeError(f"transient failure {attempts + 1}")
    return BranchTargetBuffer()


def _counted_warning_factory(marker_path):
    """Raise a ``RuntimeWarning`` (as a warnings filter set to ``error``
    would), logging each construction attempt to ``marker_path``."""
    with open(marker_path, "a") as handle:
        handle.write("attempt\n")
    raise RuntimeWarning("columnar backend falling back")


def _slow_factory(delay):
    time.sleep(delay)
    return BranchTargetBuffer()


def _exit_in_child(parent_pid):
    """Kill any worker process that builds this predictor."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return BranchTargetBuffer()


class TestRunCell:
    def test_runs_one_cell_to_a_result(self, tiny_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path,
        )
        plan.spill()  # run_cell outside execute_plan attaches the spill
        index, result, duration = run_cell(plan.cells[0])
        assert index == 0
        assert result.trace_name == "tiny"
        assert result.predictor_name == "BTB"
        assert duration >= 0

    def test_timeout_raises_cell_timeout(self, tiny_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace],
            {"slow": functools.partial(_slow_factory, 5.0)},
            cache_dir=tmp_path,
        )
        plan.spill()  # run_cell outside execute_plan attaches the spill
        with pytest.raises(CellTimeout):
            run_cell(plan.cells[0], timeout=0.2)

    def test_nested_deadline_rearms_outer_timer(self):
        """An inner deadline finishing early must not disarm an outer one.

        ``_deadline`` used to restore only the SIGALRM *handler*; the
        displaced itimer stayed cancelled, so an enclosing timeout never
        fired and a hung caller ran forever.  The fix re-arms the outer
        timer with its remaining time on exit.
        """
        import signal

        from repro.exec.pool import _deadline

        fired = []

        def _outer(signum, frame):
            fired.append(time.monotonic())

        previous_handler = signal.signal(signal.SIGALRM, _outer)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.6)
            with _deadline(0.1):
                pass  # finishes well before its own deadline
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            assert remaining > 0, "outer itimer was silently cancelled"
            assert remaining <= 0.6
            deadline = time.monotonic() + 5.0
            while not fired and time.monotonic() < deadline:
                time.sleep(0.02)
            assert fired, "outer deadline never fired"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)

    def test_nested_deadline_inner_still_fires(self):
        """Re-arming the outer timer must not break the inner deadline."""
        import signal

        from repro.exec.pool import _deadline

        def _outer(signum, frame):  # pragma: no cover - must not fire
            raise AssertionError("outer timer fired inside inner window")

        previous_handler = signal.signal(signal.SIGALRM, _outer)
        try:
            signal.setitimer(signal.ITIMER_REAL, 30.0)
            with pytest.raises(CellTimeout):
                with _deadline(0.1):
                    time.sleep(5.0)
            remaining, _ = signal.getitimer(signal.ITIMER_REAL)
            assert remaining > 0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)


class TestExecutePlanSerial:
    def test_matches_serial_runner(self, tiny_trace, vdispatch_trace,
                                   tmp_path):
        traces = [tiny_trace, vdispatch_trace]
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path)
        campaign = execute_plan(plan, jobs=1)
        serial = run_campaign(traces, factories)
        assert campaign.results == serial.results

    def test_journal_written_per_cell(self, tiny_trace, vdispatch_trace,
                                      tmp_path):
        plan = plan_campaign(
            [tiny_trace, vdispatch_trace], {"BTB": BranchTargetBuffer},
            cache_dir=tmp_path,
        )
        journal_path = tmp_path / "journal.jsonl"
        campaign = execute_plan(plan, jobs=1, journal_path=journal_path)
        journaled = load_journal(journal_path)
        assert set(journaled) == {("tiny", "BTB"), ("vd-test", "BTB")}
        assert journaled[("tiny", "BTB")] == campaign.results["tiny"]["BTB"]


class TestExecutePlanParallel:
    def test_matches_serial_runner(self, tiny_trace, vdispatch_trace,
                                   switchcase_trace, tmp_path):
        traces = [tiny_trace, vdispatch_trace, switchcase_trace]
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path)
        campaign = execute_plan(plan, jobs=2)
        serial = run_campaign(traces, factories)
        assert campaign.results == serial.results

    def test_unpicklable_factory_falls_back_to_serial(self, tiny_trace,
                                                      tmp_path):
        entries = 64

        def closure_factory():
            return BranchTargetBuffer(num_entries=entries)

        plan = plan_campaign(
            [tiny_trace], {"closure": closure_factory}, cache_dir=tmp_path,
        )
        sink = CollectingSink()
        campaign = execute_plan(plan, jobs=2, events=sink)
        fallback = sink.of_kind("fallback")
        assert fallback and "picklable" in fallback[0].message
        assert ("tiny", "closure") in [
            (r.trace_name, r.predictor_name)
            for per in campaign.results.values() for r in per.values()
        ]

    def test_retry_in_workers(self, tiny_trace, tmp_path):
        marker = tmp_path / "attempts"
        factories = {
            "flaky": functools.partial(_flaky_factory, str(marker), 1)
        }
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        campaign = execute_plan(plan, jobs=2, events=sink, retries=2,
                                backoff=0.01)
        assert "tiny" in campaign.results
        assert len(sink.of_kind("cell_retry")) == 1


class TestFailureLadder:
    """Every runner kind goes through the one retry / unfuse ladder."""

    def test_retries_then_succeeds(self, tiny_trace, tmp_path, runner_kind):
        marker = tmp_path / "attempts"
        factories = {
            "flaky": functools.partial(_flaky_factory, str(marker), 2)
        }
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        campaign = execute_plan(plan, events=sink, retries=2, backoff=0.01,
                                **runner_kind)
        reference = run_campaign([tiny_trace], {"flaky": BranchTargetBuffer})
        assert campaign.results == reference.results
        assert len(sink.of_kind("cell_retry")) == 2
        assert sink.of_kind("fallback") == []
        assert sink.of_kind("campaign_end")[0].retries == 2

    def test_retry_budget_exhaustion_raises(self, tiny_trace, tmp_path,
                                            runner_kind):
        marker = tmp_path / "attempts"
        factories = {
            "doomed": functools.partial(_flaky_factory, str(marker), 99)
        }
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        with pytest.raises(CellFailedError, match="doomed"):
            execute_plan(plan, events=sink, retries=1, backoff=0.01,
                         **runner_kind)
        assert len(sink.of_kind("cell_retry")) == 1
        assert len(sink.of_kind("cell_failed")) == 1
        assert sink.of_kind("fallback") == []

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("fuse", [False, True])
    def test_warning_as_error_fails_without_retry(self, tiny_trace, tmp_path,
                                                  jobs, fuse):
        """A warning raised as an error recurs on every attempt: the
        campaign fails on the first, solo or fused, with no retry and no
        unfusing, and the warning is the failure's cause."""
        marker = tmp_path / "attempts"
        factories = {
            "BTB": BranchTargetBuffer,
            "warns": functools.partial(_counted_warning_factory, str(marker)),
        }
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        with pytest.raises(CellFailedError, match="1 attempt") as failed:
            execute_plan(plan, jobs=jobs, fuse=fuse, events=sink, retries=2,
                         backoff=0.01)
        assert isinstance(failed.value.__cause__, RuntimeWarning)
        assert marker.read_text().count("attempt") == 1
        assert sink.of_kind("cell_retry") == []
        assert sink.of_kind("fallback") == []
        assert len(sink.of_kind("cell_failed")) == 1

    def test_retry_keeps_serial_journal_order(self, tiny_trace,
                                              vdispatch_trace, tmp_path):
        """A retried cell re-runs before the cells after it, so the
        serial journal is byte-identical to a run that never failed."""
        traces = [tiny_trace, vdispatch_trace]
        clean = tmp_path / "clean.jsonl"
        execute_plan(
            plan_campaign(traces, {"BTB": BranchTargetBuffer,
                                   "flaky": BranchTargetBuffer},
                          cache_dir=tmp_path / "a"),
            journal_path=clean, fuse=False,
        )
        factories = {
            "BTB": BranchTargetBuffer,
            "flaky": functools.partial(
                _flaky_factory, str(tmp_path / "attempts"), 1
            ),
        }
        retried = tmp_path / "retried.jsonl"
        sink = CollectingSink()
        execute_plan(
            plan_campaign(traces, factories, cache_dir=tmp_path / "b"),
            journal_path=retried, fuse=False, events=sink, backoff=0.01,
        )
        assert len(sink.of_kind("cell_retry")) == 1
        assert retried.read_bytes() == clean.read_bytes()

    def test_timeout_retries_then_fails_in_process(self, tiny_trace,
                                                   tmp_path):
        """The in-process runner keeps the SIGALRM deadline: a hung cell
        times out on every attempt and ends in CellFailedError."""
        plan = plan_campaign(
            [tiny_trace],
            {"slow": functools.partial(_slow_factory, 5.0)},
            cache_dir=tmp_path,
        )
        sink = CollectingSink()
        started = time.monotonic()
        with pytest.raises(CellFailedError, match="CellTimeout") as failed:
            execute_plan(plan, jobs=1, timeout=0.2, retries=1,
                         backoff=0.01, events=sink)
        assert time.monotonic() - started < 4.0
        assert isinstance(failed.value.__cause__, CellTimeout)
        assert len(sink.of_kind("cell_retry")) == 1
        assert len(sink.of_kind("cell_failed")) == 1

    def test_worker_death_degrades_to_in_process(self, tiny_trace,
                                                 vdispatch_trace, tmp_path):
        traces = [tiny_trace, vdispatch_trace]
        factories = {
            "BTB": functools.partial(_exit_in_child, os.getpid())
        }
        plan = plan_campaign(traces, factories, cache_dir=tmp_path)
        sink = CollectingSink()
        campaign = execute_plan(plan, jobs=2, events=sink)
        assert len(sink.of_kind("fallback")) == 1
        assert "worker pool broke" in sink.of_kind("fallback")[0].message
        assert sink.of_kind("node_down") == []
        assert campaign.results == run_campaign(traces, factories).results


class _FakeRunner(_Runner):
    """Fails each cell's first attempt; may go down after some units."""

    def __init__(self, node, seen, lock, lifetime=None):
        self.node = node
        self.seen = seen
        self.lock = lock
        self.lifetime = lifetime

    def run(self, unit, timeout):
        if self.lifetime is not None:
            if self.lifetime == 0:
                raise _RunnerDown(f"{self.node} gone")
            self.lifetime -= 1
        with self.lock:
            first = unit.index not in self.seen
            self.seen.add(unit.index)
        if first:
            raise _UnitFailed("first attempt fails")
        result = SimulationResult(unit.trace_name, unit.predictor_name,
                                  1000, 10, unit.index)
        return [(unit.index, result, 0.0)]


class TestSchedulerStress:
    def test_threads_lose_and_duplicate_nothing(self, tiny_trace, tmp_path):
        """Eight runner threads, two of which go down, retry every cell
        once under a tiny switch interval: every cell is recorded once
        and every retry is counted."""
        cells = 60
        factories = {f"p{i}": BranchTargetBuffer for i in range(cells)}
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        state = _Execution(plan, sink, None)
        seen, lock = set(), threading.Lock()
        runners = [
            _FakeRunner(f"n{i}", seen, lock, lifetime=3 if i < 2 else None)
            for i in range(8)
        ]
        scheduler = _Scheduler(state, list(plan.cells), None, 1, 0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(target=scheduler.run, args=(runners,))
            driver.start()
            driver.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not driver.is_alive()
        assert state.completed == cells
        assert sorted(r.indirect_mispredictions
                      for r in state.results.values()) == list(range(cells))
        assert len(sink.of_kind("cell_finish")) == cells
        assert state.retries == cells
        assert len(sink.of_kind("cell_retry")) == cells
        assert len(sink.of_kind("node_down")) == 2
        assert not scheduler.queue


    def test_idle_runner_takes_over_a_downed_runners_unit(self, tiny_trace,
                                                          tmp_path):
        """A runner out of work waits while others still have a unit in
        flight, so a unit requeued by a runner going down runs on it
        instead of degrading the campaign."""

        class Quick(_Runner):
            def run(self, unit, timeout):
                time.sleep(0.05)
                result = SimulationResult(unit.trace_name,
                                          unit.predictor_name, 1000, 10, 1)
                return [(unit.index, result, 0.0)]

        class Doomed(_Runner):
            node = "doomed"

            def run(self, unit, timeout):
                time.sleep(0.3)
                raise _RunnerDown("gone")

        factories = {"a": BranchTargetBuffer, "b": BranchTargetBuffer}
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        state = _Execution(plan, sink, None)
        _Scheduler(state, list(plan.cells), None, 1, 0.0).run(
            [Quick(), Doomed()]
        )
        assert state.completed == 2
        assert len(sink.of_kind("node_down")) == 1


class TestResume:
    def test_journaled_cells_are_skipped(self, tiny_trace, vdispatch_trace,
                                         tmp_path):
        traces = [tiny_trace, vdispatch_trace]
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path)
        journal_path = tmp_path / "journal.jsonl"

        # Pre-seed the journal with two cells carrying sentinel values a
        # real simulation could never produce; if the executor
        # re-simulated them, the sentinels would be overwritten.
        sentinel_a = SimulationResult("tiny", "BTB", 123, 45, 44)
        sentinel_b = SimulationResult("vd-test", "2bit", 456, 78, 77)
        with Journal(journal_path) as journal:
            journal.append(sentinel_a)
            journal.append(sentinel_b)

        sink = CollectingSink()
        campaign = execute_plan(plan, jobs=1, journal_path=journal_path,
                                events=sink)
        assert campaign.results["tiny"]["BTB"] == sentinel_a
        assert campaign.results["vd-test"]["2bit"] == sentinel_b
        assert len(sink.of_kind("cell_skipped")) == 2
        assert len(sink.of_kind("cell_finish")) == 2
        # The journal now covers the whole campaign for the next resume.
        assert len(load_journal(journal_path)) == 4

    def test_fully_journaled_campaign_runs_nothing(self, tiny_trace,
                                                   tmp_path):
        factories = {"BTB": BranchTargetBuffer}
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        journal_path = tmp_path / "journal.jsonl"
        execute_plan(plan, jobs=1, journal_path=journal_path)

        sink = CollectingSink()
        resumed = execute_plan(plan, jobs=1, journal_path=journal_path,
                               events=sink)
        assert sink.of_kind("cell_finish") == []
        assert len(sink.of_kind("cell_skipped")) == 1
        assert resumed.results["tiny"]["BTB"].trace_name == "tiny"

    def test_journal_from_other_campaign_ignored(self, tiny_trace,
                                                 tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        with Journal(journal_path) as journal:
            journal.append(SimulationResult("elsewhere", "BTB", 1, 1, 1))
        plan = plan_campaign(
            [tiny_trace], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path,
        )
        sink = CollectingSink()
        campaign = execute_plan(plan, jobs=1, journal_path=journal_path,
                                events=sink)
        assert sink.of_kind("cell_skipped") == []
        assert "elsewhere" not in campaign.results
