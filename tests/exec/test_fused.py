"""Tests for fused campaign execution: grouping, spills, timeouts, fallback."""

import functools
import time

import pytest

from repro.exec.events import CELL_FINISH, CELL_START, FALLBACK, CollectingSink
from repro.exec.journal import load_journal
from repro.exec.plan import (
    FusedCellSpec,
    PlanError,
    fuse_cells,
    plan_campaign,
)
from repro.exec.pool import CellTimeout, execute_plan, run_cell, run_fused_cell
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.sim.runner import run_campaign
from repro.trace.source import MaterializedSource


def _cells(tiny_trace, vdispatch_trace, tmp_path, factories=None):
    factories = factories or {
        "BTB": BranchTargetBuffer,
        "2bit": TwoBitBTB,
    }
    plan = plan_campaign(
        [tiny_trace, vdispatch_trace], factories, cache_dir=tmp_path,
    )
    return plan


def _slow_factory(delay):
    time.sleep(delay)
    return BranchTargetBuffer()


def _flaky_factory(marker_path, failures):
    """Fail the first ``failures`` constructions (file-backed counter)."""
    from pathlib import Path

    marker = Path(marker_path)
    attempts = len(marker.read_text().splitlines()) if marker.exists() else 0
    with open(marker, "a") as handle:
        handle.write("attempt\n")
    if attempts < failures:
        raise RuntimeError(f"transient failure {attempts + 1}")
    return BranchTargetBuffer()


class TestFuseCells:
    def test_groups_adjacent_same_trace_cells(
        self, tiny_trace, vdispatch_trace, tmp_path
    ):
        plan = _cells(tiny_trace, vdispatch_trace, tmp_path)
        units = fuse_cells(plan.cells)
        assert len(units) == 2
        for unit in units:
            assert isinstance(unit, FusedCellSpec)
            assert unit.size == 2
        # Member order is plan order — journal byte-identity depends on it.
        assert [c.index for unit in units for c in unit.cells] == [0, 1, 2, 3]

    def test_single_cell_stays_bare(self, tiny_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path
        )
        units = fuse_cells(plan.cells)
        assert units == [plan.cells[0]]

    def test_veto_breaks_the_run(self, tiny_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace],
            {"a": BranchTargetBuffer, "b": TwoBitBTB,
             "c": BranchTargetBuffer},
            cache_dir=tmp_path,
        )
        vetoed = plan.cells[1]
        units = fuse_cells(plan.cells, fusable=lambda c: c is not vetoed)
        # The veto splits the run: nothing left adjacent to fuse.
        assert units == plan.cells

    def test_incompatible_cells_do_not_fuse(self, tiny_trace, tmp_path):
        import dataclasses

        plan = plan_campaign(
            [tiny_trace],
            {"a": BranchTargetBuffer, "b": TwoBitBTB},
            cache_dir=tmp_path,
        )
        cells = [
            plan.cells[0],
            dataclasses.replace(plan.cells[1], warmup_records=99),
        ]
        assert fuse_cells(cells) == cells

    def test_fused_spec_validates_members(self, tiny_trace, tmp_path):
        import dataclasses

        plan = plan_campaign(
            [tiny_trace],
            {"a": BranchTargetBuffer, "b": TwoBitBTB},
            cache_dir=tmp_path,
        )
        with pytest.raises(PlanError):
            FusedCellSpec(cells=(plan.cells[0],))
        with pytest.raises(PlanError):
            FusedCellSpec(cells=(
                plan.cells[0],
                dataclasses.replace(plan.cells[1], ras_depth=7),
            ))


class TestSpillReuse:
    def test_replan_rewrites_no_spills(self, tiny_trace, vdispatch_trace,
                                       tmp_path):
        """Resuming into the same cache_dir performs zero spill writes."""
        factories = {"BTB": BranchTargetBuffer}
        plan_campaign([tiny_trace, vdispatch_trace], factories,
                      cache_dir=tmp_path)
        spills = sorted(tmp_path.glob("*.trace"))
        assert spills
        stamps = [path.stat().st_mtime_ns for path in spills]
        plan_campaign([tiny_trace, vdispatch_trace], factories,
                      cache_dir=tmp_path)
        assert [p.stat().st_mtime_ns for p in spills] == stamps

    def test_spill_trace_reports_writes(self, tiny_trace, vdispatch_trace,
                                        tmp_path):
        path = tmp_path / "t.trace"
        assert MaterializedSource(tiny_trace).spill(path) is True
        assert MaterializedSource(tiny_trace).spill(path) is False
        # content changed
        assert MaterializedSource(vdispatch_trace).spill(path) is True


class TestFusedTimeout:
    def test_deadline_scales_with_group_size(self, tiny_trace, tmp_path):
        """A group of N is not spuriously killed at a single-cell budget."""
        delay = 0.3
        budget = 0.4  # one slow cell fits; three do not, unless scaled
        factories = {
            name: functools.partial(_slow_factory, delay)
            for name in ("s1", "s2", "s3")
        }
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        [group] = fuse_cells(plan.cells)
        assert group.size == 3
        outcomes = run_fused_cell(group, timeout=budget)
        assert [index for index, _, _ in outcomes] == [0, 1, 2]

    def test_single_cell_budget_still_enforced(self, tiny_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace],
            {"slow": functools.partial(_slow_factory, 5.0)},
            cache_dir=tmp_path,
        )
        with pytest.raises(CellTimeout):
            run_cell(plan.cells[0], timeout=0.2)


class TestFusedExecution:
    def test_run_fused_cell_matches_run_cell(self, tiny_trace,
                                             vdispatch_trace, tmp_path):
        plan = _cells(tiny_trace, vdispatch_trace, tmp_path)
        [g1, g2] = fuse_cells(plan.cells)
        fused = {
            index: result
            for group in (g1, g2)
            for index, result, _ in run_fused_cell(group)
        }
        for cell in plan.cells:
            index, solo, _ = run_cell(cell)
            assert fused[index] == solo

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_execute_plan_fused_equals_unfused(
        self, tiny_trace, vdispatch_trace, tmp_path, jobs
    ):
        traces = [tiny_trace, vdispatch_trace]
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path)
        fused = execute_plan(plan, jobs=jobs, fuse=True)
        unfused = execute_plan(plan, jobs=jobs, fuse=False)
        serial = run_campaign(traces, factories)
        assert fused.results == unfused.results == serial.results

    def test_events_carry_group_size(self, tiny_trace, vdispatch_trace,
                                     tmp_path):
        plan = _cells(tiny_trace, vdispatch_trace, tmp_path)
        sink = CollectingSink()
        execute_plan(plan, jobs=1, events=sink, fuse=True)
        starts = [e for e in sink.events if e.kind == CELL_START]
        assert len(starts) == 4
        assert all(event.group == 2 for event in starts)
        sink_solo = CollectingSink()
        execute_plan(plan, jobs=1, events=sink_solo, fuse=False)
        solo_starts = [e for e in sink_solo.events if e.kind == CELL_START]
        assert all(event.group == 0 for event in solo_starts)

    def test_fused_group_falls_back_to_solo_members(self, tiny_trace,
                                                    tmp_path, runner_kind):
        # The flaky member fails both fused attempts; the group then
        # degrades to solo cells, where the third construction succeeds.
        marker = tmp_path / "attempts"
        factories = {
            "ok": BranchTargetBuffer,
            "flaky": functools.partial(_flaky_factory, str(marker), 2),
        }
        plan = plan_campaign([tiny_trace], factories, cache_dir=tmp_path)
        sink = CollectingSink()
        campaign = execute_plan(plan, events=sink, retries=1, backoff=0.01,
                                fuse=True, **runner_kind)
        reference = run_campaign(
            [tiny_trace], {"ok": BranchTargetBuffer,
                           "flaky": BranchTargetBuffer},
        )
        assert campaign.results == reference.results
        assert len(sink.of_kind("cell_retry")) == 1
        assert len(sink.of_kind(FALLBACK)) == 1
        assert sink.of_kind("cell_failed") == []
        assert len(sink.of_kind(CELL_FINISH)) == 2

    def test_unfused_members_keep_serial_journal_order(
        self, tiny_trace, vdispatch_trace, tmp_path
    ):
        """Unfused members run before the next group, so the serial
        journal is byte-identical to a run that never failed."""
        traces = [tiny_trace, vdispatch_trace]
        clean = tmp_path / "clean.jsonl"
        execute_plan(
            plan_campaign(traces, {"ok": BranchTargetBuffer,
                                   "flaky": BranchTargetBuffer},
                          cache_dir=tmp_path / "a"),
            journal_path=clean,
        )
        factories = {
            "ok": BranchTargetBuffer,
            "flaky": functools.partial(
                _flaky_factory, str(tmp_path / "attempts"), 2
            ),
        }
        unfused = tmp_path / "unfused.jsonl"
        sink = CollectingSink()
        execute_plan(
            plan_campaign(traces, factories, cache_dir=tmp_path / "b"),
            journal_path=unfused, events=sink, retries=1, backoff=0.01,
        )
        assert len(sink.of_kind(FALLBACK)) == 1
        assert unfused.read_bytes() == clean.read_bytes()

    def test_fused_checkpointing_writes_per_cell_journal(
        self, vdispatch_trace, tmp_path
    ):
        factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}
        plan = plan_campaign([vdispatch_trace], factories,
                             cache_dir=tmp_path)
        journal_path = tmp_path / "campaign.jsonl"
        campaign = execute_plan(
            plan, jobs=1, journal_path=journal_path,
            checkpoint_every=1000, fuse=True,
        )
        entries = load_journal(journal_path)
        assert len(entries) == 2  # one journal entry per member cell
        rerun = execute_plan(
            plan, jobs=1, journal_path=journal_path,
            checkpoint_every=1000, fuse=True,
        )
        assert rerun.results == campaign.results
