"""Checkpointed simulation: equivalence, atomicity, and tolerance.

The contract under test: a simulation that checkpoints, dies, and
resumes produces results per-branch identical to one that never
stopped — and a checkpoint file is an optimization, never a source of
truth (missing/corrupt files restart the trace instead of failing).
"""

import dataclasses
import json
import os

import pytest

from repro.common.state import StateError
from repro.core import BLBP
from repro.predictors import ITTAGE
from repro.sim.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    SimulationCheckpoint,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.counters import SimCounters
from repro.sim.engine import simulate, simulate_many
from repro.workloads.suite import suite88_specs

_SCALE = 0.02  # 2000-record traces: fast, but several checkpoint spans


@pytest.fixture(scope="module")
def trace():
    return suite88_specs(_SCALE)[0].generate()


def _collect(predictor, trace, every=500, backend="scalar", **kwargs):
    """Run with an in-memory checkpoint sink; return (result, snapshots)."""
    grabbed = []
    result = simulate(
        predictor, trace, checkpoint_every=every,
        on_checkpoint=grabbed.append, backend=backend, **kwargs,
    )
    return result, grabbed


def _hashes(snapshots):
    return [snapshot.checkpoint_hash() for snapshot in snapshots]


class TestCheckpointedRunEquivalence:
    """Each test runs on every backend that can run here; a columnar
    run replays its spans on the cores and matches the scalar oracle
    snapshot for snapshot."""

    def test_checkpointing_does_not_change_results(self, trace, backends):
        plain = simulate(BLBP(), trace)
        _, reference = _collect(BLBP(), trace)
        for backend in backends:
            checkpointed, grabbed = _collect(BLBP(), trace, backend=backend)
            assert grabbed, "expected mid-trace checkpoints"
            assert (
                checkpointed.indirect_mispredictions
                == plain.indirect_mispredictions
            ), backend
            assert checkpointed.mpki() == pytest.approx(plain.mpki())
            assert _hashes(grabbed) == _hashes(reference), backend

    def test_end_state_identical_with_and_without_checkpointing(
        self, trace, backends
    ):
        a = BLBP()
        simulate(a, trace)
        for backend in backends:
            b = BLBP()
            _collect(b, trace, backend=backend)
            assert a.state_hash() == b.state_hash(), backend

    def test_resume_from_every_checkpoint_matches(self, trace, backends):
        plain = simulate(BLBP(), trace)
        end_hash_predictor = BLBP()
        _, grabbed = _collect(end_hash_predictor, trace)
        for checkpoint in grabbed:
            # Round-trip through JSON: resume must survive a process hop.
            revived = SimulationCheckpoint.from_state(
                json.loads(json.dumps(checkpoint.state_dict()))
            )
            for backend in backends:
                fresh = BLBP()
                resumed = simulate(
                    fresh, trace, resume_from=revived, backend=backend
                )
                assert resumed == plain, (
                    f"{backend} diverged resuming from cursor "
                    f"{checkpoint.cursor}"
                )
                assert fresh.state_hash() == end_hash_predictor.state_hash()

    def test_resume_preserves_warmup_accounting(self, trace, backends):
        plain = simulate(BLBP(), trace, warmup_records=700)
        # Grab a checkpoint from inside the warmup zone.
        _, reference = _collect(BLBP(), trace, warmup_records=700)
        for backend in backends:
            _, grabbed = _collect(
                BLBP(), trace, backend=backend, warmup_records=700
            )
            assert _hashes(grabbed) == _hashes(reference), backend
            early = grabbed[0]
            assert early.skip > 0, "checkpoint should land inside warmup"
            resumed = simulate(
                BLBP(), trace, warmup_records=700, resume_from=early,
                backend=backend,
            )
            assert resumed.indirect_branches == plain.indirect_branches
            assert (
                resumed.indirect_mispredictions
                == plain.indirect_mispredictions
            ), backend

    def test_ittage_resume_matches(self, trace, backends):
        plain = simulate(ITTAGE(), trace)
        _, reference = _collect(ITTAGE(), trace)
        for backend in backends:
            _, grabbed = _collect(ITTAGE(), trace, backend=backend)
            assert _hashes(grabbed) == _hashes(reference), backend
            revived = SimulationCheckpoint.from_state(grabbed[-1].state_dict())
            resumed = simulate(
                ITTAGE(), trace, resume_from=revived, backend=backend
            )
            assert resumed == plain, backend


class TestResumeValidation:
    def test_wrong_trace_rejected(self, trace):
        _, grabbed = _collect(BLBP(), trace)
        other = suite88_specs(_SCALE)[1].generate()
        with pytest.raises(ValueError, match="trace"):
            simulate(BLBP(), other, resume_from=grabbed[0])

    def test_wrong_predictor_rejected(self, trace):
        _, grabbed = _collect(BLBP(), trace)
        with pytest.raises(ValueError, match="predictor"):
            simulate(ITTAGE(), trace, resume_from=grabbed[0])

    def test_negative_interval_rejected(self, trace):
        with pytest.raises(ValueError, match=">= 0"):
            simulate(BLBP(), trace, checkpoint_every=-1)
        with pytest.raises(ValueError, match=">= 0"):
            simulate_many([], trace, checkpoint_every=-1)

    def test_interval_without_sink_rejected(self, trace):
        with pytest.raises(ValueError, match="checkpoint_path"):
            simulate(BLBP(), trace, checkpoint_every=100)


class TestNegativeCountsRejected:
    """A negative count replays wrongly instead of failing (a negative
    ``skip`` never reaches zero, so nothing after the resume point would
    be counted); loading must refuse it so the cell restarts."""

    @pytest.mark.parametrize(
        "key",
        [
            "cursor",
            "skip",
            "indirect",
            "mispredictions",
            "returns",
            "return_mispredictions",
            "conditionals",
        ],
    )
    def test_negative_count_restarts_the_cell(self, trace, tmp_path, key):
        _, grabbed = _collect(BLBP(), trace)
        state = grabbed[0].state_dict()
        state[key] = -1
        with pytest.raises(StateError, match=key):
            SimulationCheckpoint.from_state(state)
        path = tmp_path / "cell.ckpt.json"
        path.write_text(json.dumps(state))
        assert load_checkpoint(path) is None

    def test_negative_by_pc_count_rejected(self, trace):
        _, grabbed = _collect(BLBP(), trace)
        state = grabbed[0].state_dict()
        state["by_pc"] = {"4096": -1}
        with pytest.raises(StateError, match="by_pc"):
            SimulationCheckpoint.from_state(state)


class TestProfiledCheckpointing:
    """``counters=`` composes with resume and checkpointing, on every
    backend that can run here."""

    def test_profiled_resume_matches_uninterrupted_run(self, trace, backends):
        reference = BLBP()
        plain = simulate(reference, trace)
        _, grabbed = _collect(BLBP(), trace)
        checkpoint = grabbed[len(grabbed) // 2]
        for backend in backends:
            counters = SimCounters()
            predictor = BLBP()
            resumed = simulate(
                predictor, trace, resume_from=checkpoint, counters=counters,
                backend=backend,
            )
            assert dataclasses.replace(resumed, profile=None) == plain
            assert predictor.state_hash() == reference.state_hash()
            # The profile covers only the records this process replayed.
            assert resumed.profile["records"] == len(trace) - checkpoint.cursor
            assert counters.records == len(trace) - checkpoint.cursor

    def test_profiled_snapshots_match_unprofiled(self, trace, backends):
        plain, plain_snapshots = _collect(BLBP(), trace)
        for backend in backends:
            snapshots = []
            profiled = simulate(
                BLBP(), trace, checkpoint_every=500,
                on_checkpoint=snapshots.append, counters=SimCounters(),
                backend=backend,
            )
            assert profiled.profile["records"] == len(trace)
            assert dataclasses.replace(profiled, profile=None) == plain
            assert _hashes(snapshots) == _hashes(plain_snapshots), backend


class TestCheckpointFiles:
    def test_save_load_roundtrip(self, trace, tmp_path):
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        save_checkpoint(grabbed[0], path)
        loaded = load_checkpoint(path)
        assert loaded is not None
        assert loaded.checkpoint_hash() == grabbed[0].checkpoint_hash()

    def test_missing_file_loads_as_none(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") is None

    def test_corrupt_file_loads_as_none(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert load_checkpoint(path) is None

    def test_truncated_file_loads_as_none(self, trace, tmp_path):
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        save_checkpoint(grabbed[0], path)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert load_checkpoint(path) is None

    def test_save_leaves_no_temp_droppings(self, trace, tmp_path):
        _, grabbed = _collect(BLBP(), trace)
        path = tmp_path / "cell.ckpt.json"
        for checkpoint in grabbed:
            save_checkpoint(checkpoint, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.ckpt.json"]

    def test_discard_is_idempotent(self, tmp_path):
        path = tmp_path / "cell.ckpt.json"
        path.write_text("{}")
        discard_checkpoint(path)
        discard_checkpoint(path)  # second call: file already gone
        assert not path.exists()

    def test_engine_writes_and_file_resumes(self, trace, tmp_path):
        path = tmp_path / "cell.ckpt.json"
        plain = simulate(BLBP(), trace)
        simulate(BLBP(), trace, checkpoint_every=800, checkpoint_path=str(path))
        # The last mid-trace checkpoint stays on disk (the engine does
        # not delete it; the exec layer owns the lifecycle).
        loaded = load_checkpoint(path)
        assert loaded is not None and 0 < loaded.cursor < len(trace)
        resumed = simulate(BLBP(), trace, resume_from=loaded)
        assert (
            resumed.indirect_mispredictions == plain.indirect_mispredictions
        )


def test_default_interval_is_sane():
    assert DEFAULT_CHECKPOINT_INTERVAL >= 10_000
