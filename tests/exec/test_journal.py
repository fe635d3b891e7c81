"""Tests for the JSONL campaign journal."""

import json

import pytest

from repro.exec.journal import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    load_journal,
    result_from_json,
    result_to_json,
)
from repro.sim.metrics import SimulationResult


def _result(trace="t", predictor="p", misses=3):
    return SimulationResult(
        trace_name=trace,
        predictor_name=predictor,
        total_instructions=10_000,
        indirect_branches=100,
        indirect_mispredictions=misses,
        return_branches=7,
        return_mispredictions=1,
        conditional_branches=450,
        mispredictions_by_pc={0x1000: 2, 0x2040: 1},
    )


class TestSerialization:
    def test_round_trip_preserves_every_field(self):
        original = _result()
        rebuilt = result_from_json(result_to_json(original))
        assert rebuilt == original

    def test_pc_keys_restored_as_ints(self):
        payload = json.loads(json.dumps(result_to_json(_result())))
        rebuilt = result_from_json(payload)
        assert rebuilt.mispredictions_by_pc == {0x1000: 2, 0x2040: 1}

    def test_version_mismatch_rejected(self):
        payload = result_to_json(_result())
        payload["v"] = JOURNAL_VERSION + 1
        with pytest.raises(JournalError, match="version"):
            result_from_json(payload)


class TestJournalFile:
    def test_missing_file_is_empty_journal(self, tmp_path):
        assert load_journal(tmp_path / "absent.jsonl") == {}

    def test_append_then_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB", 1))
            journal.append(_result("b", "BTB", 2))
        loaded = load_journal(path)
        assert set(loaded) == {("a", "BTB"), ("b", "BTB")}
        assert loaded[("b", "BTB")].indirect_mispredictions == 2

    def test_append_survives_reopen(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB"))
        with Journal(path) as journal:
            journal.append(_result("b", "BTB"))
        assert len(load_journal(path)) == 2

    def test_truncated_final_line_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB"))
            journal.append(_result("b", "BTB"))
        torn = path.read_text()[:-20]  # SIGKILL mid-write
        path.write_text(torn)
        loaded = load_journal(path)
        assert set(loaded) == {("a", "BTB")}

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB"))
        path.write_text("garbage{{\n" + path.read_text())
        with pytest.raises(JournalError, match="corrupt"):
            load_journal(path)

    def test_later_entry_wins_for_same_cell(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB", misses=1))
            journal.append(_result("a", "BTB", misses=9))
        assert load_journal(path)[("a", "BTB")].indirect_mispredictions == 9

    def test_append_after_torn_final_line(self, tmp_path):
        """A resumed writer cuts the torn line off before appending, so
        the next line is not glued onto the fragment."""
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB"))
            journal.append(_result("b", "BTB"))
        path.write_text(path.read_text()[:-20])  # SIGKILL mid-write
        with Journal(path) as journal:
            journal.append(_result("b", "BTB"))
            journal.append(_result("c", "BTB"))
        assert set(load_journal(path)) == {
            ("a", "BTB"), ("b", "BTB"), ("c", "BTB"),
        }

    def test_commit_writes_a_units_lines_together(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path) as journal:
            journal.append(_result("a", "BTB"))
            journal.append(_result("a", "2bit"))
            assert path.read_text() == ""
            journal.commit()
            assert len(path.read_text().splitlines()) == 2

    def test_closed_journal_refuses_append(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.close()
        with pytest.raises(JournalError):
            journal.append(_result())
