"""Mid-cell checkpointing in the execution engine.

Journal-level resume skips *finished* cells; these tests cover the new
layer below it: a cell that died mid-trace resumes from its last
snapshot, announced by a ``cell_resume`` event, and the finished
campaign (results, journal contents) is indistinguishable from one that
never died.
"""

import json
from pathlib import Path

import pytest

from repro.core import BLBP
from repro.exec.events import CELL_RESUME, CollectingSink
from repro.exec.plan import checkpoint_name, plan_campaign
from repro.exec.pool import execute_plan, run_cell
from repro.predictors import ITTAGE, BranchTargetBuffer
from repro.sim.checkpoint import load_checkpoint
from repro.sim.engine import simulate
from repro.trace.stream import read_trace
from repro.workloads.suite import suite88_specs

_SCALE = 0.02
_EVERY = 500


@pytest.fixture(scope="module")
def traces():
    return [entry.generate() for entry in suite88_specs(_SCALE)[:2]]


def _flat(campaign):
    return {
        (trace, predictor): (
            result.indirect_branches,
            result.indirect_mispredictions,
        )
        for trace, per_trace in campaign.results.items()
        for predictor, result in per_trace.items()
    }


def _plant_partial_checkpoint(spec, checkpoint_dir, stop_after=2):
    """Simulate a kill: leave a genuine mid-trace checkpoint on disk."""

    class _Killed(Exception):
        pass

    path = checkpoint_dir / checkpoint_name(spec)
    seen = []

    def sink(checkpoint):
        seen.append(checkpoint)
        if len(seen) >= stop_after:
            raise _Killed

    predictor = spec.factory.build()
    trace = read_trace(spec.trace_path)
    with pytest.raises(_Killed):
        simulate(
            predictor, trace,
            checkpoint_every=_EVERY,
            checkpoint_path=str(path),
            on_checkpoint=sink,
        )
    assert path.exists()
    return path


class TestCheckpointName:
    def test_sanitizes_and_disambiguates(self):
        from repro.exec.plan import CellSpec, FactoryRef

        spec = CellSpec(
            index=7,
            trace_name="suite/trace: weird name!",
            predictor_name="BLBP (tuned)",
            trace_path="x",
            factory=FactoryRef(obj=BranchTargetBuffer),
        )
        name = checkpoint_name(spec)
        assert name.startswith("0007-")
        assert name.endswith(".ckpt.json")
        assert "/" not in name and " " not in name and ":" not in name


class TestFullRunWithCheckpointing:
    def test_results_identical_and_no_leftover_files(self, traces, tmp_path):
        factories = {"BLBP": BLBP, "BTB": BranchTargetBuffer}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path / "c")
        baseline = execute_plan(plan, jobs=1)

        journal = tmp_path / "run.jsonl"
        plan2 = plan_campaign(traces, factories, cache_dir=tmp_path / "c2")
        checkpointed = execute_plan(
            plan2, jobs=1, journal_path=journal, checkpoint_every=_EVERY
        )
        assert _flat(checkpointed) == _flat(baseline)
        leftovers = list(Path(str(journal) + ".ckpt").glob("*.ckpt.json"))
        assert leftovers == []

    def test_plan_object_not_mutated(self, traces, tmp_path):
        plan = plan_campaign(
            traces[:1], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path / "c"
        )
        execute_plan(
            plan, jobs=1,
            journal_path=tmp_path / "j.jsonl",
            checkpoint_every=_EVERY,
        )
        assert all(cell.checkpoint_path is None for cell in plan.cells)


class TestMidCellResume:
    def test_killed_cell_resumes_and_matches_baseline(self, traces, tmp_path):
        factories = {"BLBP": BLBP, "ITTAGE": ITTAGE}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path / "c")
        plan.spill()  # the planted checkpoint reads the spill
        baseline = execute_plan(plan, jobs=1)

        journal = tmp_path / "resumed.jsonl"
        checkpoint_dir = Path(str(journal) + ".ckpt")
        checkpoint_dir.mkdir()
        planted = _plant_partial_checkpoint(plan.cells[0], checkpoint_dir)
        cursor = load_checkpoint(planted).cursor
        assert 0 < cursor < plan.cells[0].records

        sink = CollectingSink()
        resumed = execute_plan(
            plan, jobs=1, journal_path=journal,
            events=sink, checkpoint_every=_EVERY,
        )
        resumes = sink.of_kind(CELL_RESUME)
        assert [event.index for event in resumes] == [0]
        assert resumes[0].trace == plan.cells[0].trace_name
        assert _flat(resumed) == _flat(baseline)
        assert not planted.exists()

    def test_journal_tail_identical_after_mid_cell_resume(
        self, traces, tmp_path
    ):
        factories = {"BLBP": BLBP}
        plan = plan_campaign(traces, factories, cache_dir=tmp_path / "c")
        plan.spill()  # the planted checkpoint reads the spill

        clean_journal = tmp_path / "clean.jsonl"
        execute_plan(
            plan, jobs=1, journal_path=clean_journal, checkpoint_every=_EVERY
        )

        killed_journal = tmp_path / "killed.jsonl"
        checkpoint_dir = Path(str(killed_journal) + ".ckpt")
        checkpoint_dir.mkdir()
        _plant_partial_checkpoint(plan.cells[0], checkpoint_dir)
        execute_plan(
            plan, jobs=1, journal_path=killed_journal, checkpoint_every=_EVERY
        )

        clean = [
            json.loads(line)
            for line in clean_journal.read_text().splitlines()
        ]
        resumed = [
            json.loads(line)
            for line in killed_journal.read_text().splitlines()
        ]
        assert resumed == clean

    def test_stale_checkpoint_for_other_trace_restarts_cleanly(
        self, traces, tmp_path
    ):
        factories = {"BTB": BranchTargetBuffer}
        plan = plan_campaign(traces[:1], factories, cache_dir=tmp_path / "c")
        baseline = execute_plan(plan, jobs=1)

        journal = tmp_path / "stale.jsonl"
        checkpoint_dir = Path(str(journal) + ".ckpt")
        checkpoint_dir.mkdir()
        # A checkpoint whose trace name does not match the cell's.
        other_plan = plan_campaign(
            traces[1:2], factories, cache_dir=tmp_path / "c2"
        )
        other_plan.spill()  # the planted checkpoint reads the spill
        planted = _plant_partial_checkpoint(other_plan.cells[0], checkpoint_dir)
        target = checkpoint_dir / checkpoint_name(plan.cells[0])
        planted.rename(target)

        resumed = execute_plan(
            plan, jobs=1, journal_path=journal, checkpoint_every=_EVERY
        )
        assert _flat(resumed) == _flat(baseline)

    def test_corrupt_checkpoint_restarts_cleanly(self, traces, tmp_path):
        factories = {"BTB": BranchTargetBuffer}
        plan = plan_campaign(traces[:1], factories, cache_dir=tmp_path / "c")
        baseline = execute_plan(plan, jobs=1)

        journal = tmp_path / "corrupt.jsonl"
        checkpoint_dir = Path(str(journal) + ".ckpt")
        checkpoint_dir.mkdir()
        bad = checkpoint_dir / checkpoint_name(plan.cells[0])
        bad.write_text("{ definitely not a checkpoint")

        resumed = execute_plan(
            plan, jobs=1, journal_path=journal, checkpoint_every=_EVERY
        )
        assert _flat(resumed) == _flat(baseline)

    def test_out_of_range_ibtb_checkpoint_restarts_cleanly(
        self, traces, tmp_path
    ):
        """A snapshot that parses but fails ``load_state`` validation
        (IBTB region indices past the region array) is dropped, and the
        retry restarts the trace from record zero."""
        plan = plan_campaign(traces[:1], {"BLBP": BLBP},
                             cache_dir=tmp_path / "c")
        plan.spill()  # the planted checkpoint reads the spill
        baseline = execute_plan(plan, jobs=1)

        journal = tmp_path / "bad-ibtb.jsonl"
        checkpoint_dir = Path(str(journal) + ".ckpt")
        checkpoint_dir.mkdir()
        planted = _plant_partial_checkpoint(plan.cells[0], checkpoint_dir)
        document = json.loads(planted.read_text())
        for bucket in document["predictor"]["ibtb"]["sets"]:
            bucket["regions"] = [999] * len(bucket["regions"])
        planted.write_text(json.dumps(document))

        resumed = execute_plan(
            plan, jobs=1, journal_path=journal, checkpoint_every=_EVERY
        )
        assert _flat(resumed) == _flat(baseline)

    def test_run_cell_discards_checkpoint_on_success(self, traces, tmp_path):
        import dataclasses

        plan = plan_campaign(
            traces[:1], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path / "c"
        )
        plan.spill()  # run_cell outside execute_plan attaches the spill
        path = tmp_path / "one.ckpt.json"
        spec = dataclasses.replace(
            plan.cells[0], checkpoint_every=_EVERY, checkpoint_path=str(path)
        )
        run_cell(spec)
        assert not path.exists()
