"""Mergeable-journal tests: shard merging is order-invariant and the
canonical output is byte-identical to a single-node serial journal."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.merge import (
    ShardedJournal,
    canonical_journal_bytes,
    load_shards,
    merge_journals,
    parse_shard_lines,
    shards_dir,
    write_canonical_journal,
)
from repro.exec.journal import (
    Journal,
    JournalError,
    result_to_json,
)
from repro.sim.metrics import SimulationResult


def _result(i: int, node: str = "") -> SimulationResult:
    return SimulationResult(
        trace_name=f"trace-{i}",
        predictor_name=f"pred-{i % 3}",
        total_instructions=10_000 + i,
        indirect_branches=800 + i,
        indirect_mispredictions=40 + i,
        return_branches=120,
        return_mispredictions=6,
        conditional_branches=3_000,
        node=node,
    )


def _key(result: SimulationResult):
    return (result.trace_name, result.predictor_name)


def _shard_line(result: SimulationResult, node: str) -> str:
    return json.dumps(result_to_json(result, node=node))


class TestCanonicalBytes:
    def test_matches_serial_journal_bytes(self, tmp_path):
        results = [_result(i) for i in range(4)]
        path = tmp_path / "serial.jsonl"
        journal = Journal(path)
        for result in results:
            journal.append(result)
        journal.close()
        keys = [_key(result) for result in results]
        merged = canonical_journal_bytes(
            keys, {_key(result): result for result in results}
        )
        assert merged == path.read_bytes()

    def test_node_field_stripped(self):
        result = _result(0, node="node7")
        merged = canonical_journal_bytes(
            [_key(result)], {_key(result): result}
        )
        assert b"node7" not in merged

    def test_missing_cells_skipped(self):
        results = {_key(_result(0)): _result(0)}
        merged = canonical_journal_bytes(
            [_key(_result(0)), ("absent", "cell")], results
        )
        assert merged.count(b"\n") == 1


class TestMergeProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        cells=st.integers(min_value=1, max_value=12),
        nodes=st.integers(min_value=1, max_value=4),
        assignment=st.data(),
    )
    def test_any_arrival_order_merges_identically(
        self, cells, nodes, assignment
    ):
        """The backbone property: shard partition and arrival order do
        not change the merged bytes."""
        results = [_result(i) for i in range(cells)]
        keys = [_key(result) for result in results]
        expected = canonical_journal_bytes(
            keys, {_key(result): result for result in results}
        )
        owner = [
            assignment.draw(
                st.integers(min_value=0, max_value=nodes - 1),
                label=f"owner[{i}]",
            )
            for i in range(cells)
        ]
        shards = [
            [
                _shard_line(result, f"node{n}")
                for i, result in enumerate(results)
                if owner[i] == n
            ]
            for n in range(nodes)
        ]
        order = assignment.draw(st.permutations(shards), label="arrival")
        assert merge_journals(keys, order) == expected

    @settings(max_examples=10, deadline=None)
    @given(duplicated=st.integers(min_value=0, max_value=5))
    def test_duplicate_cell_from_retried_node(self, duplicated):
        """A unit re-run after its node died mid-ack shows up in two
        shards; determinism makes the copies identical, so merging
        keeps exactly one."""
        results = [_result(i) for i in range(6)]
        keys = [_key(result) for result in results]
        expected = canonical_journal_bytes(
            keys, {_key(result): result for result in results}
        )
        shard_a = [_shard_line(result, "node0") for result in results[:4]]
        shard_b = [_shard_line(result, "node1") for result in results[4:]]
        shard_b.append(_shard_line(results[duplicated], "node1"))
        assert merge_journals(keys, [shard_a, shard_b]) == expected
        assert merge_journals(keys, [shard_b, shard_a]) == expected


class TestShardEdgeCases:
    def test_empty_node_shard(self):
        results = [_result(i) for i in range(3)]
        keys = [_key(result) for result in results]
        shards = [[_shard_line(result, "node0") for result in results], []]
        expected = canonical_journal_bytes(
            keys, {_key(result): result for result in results}
        )
        assert merge_journals(keys, shards) == expected

    def test_truncated_final_line_dropped(self):
        results = [_result(i) for i in range(3)]
        lines = [_shard_line(result, "node0") for result in results]
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # torn final write
        parsed = parse_shard_lines(lines)
        assert len(parsed) == 2
        assert _key(results[2]) not in parsed

    def test_interior_corruption_raises(self):
        results = [_result(i) for i in range(3)]
        lines = [_shard_line(result, "node0") for result in results]
        lines[0] = "{broken"
        with pytest.raises(JournalError, match="corrupt shard line"):
            parse_shard_lines(lines)

    def test_parsed_entries_carry_node(self):
        parsed = parse_shard_lines([_shard_line(_result(0), "node3")])
        assert next(iter(parsed.values())).node == "node3"


class TestShardedJournalRoundTrip:
    def test_routes_entries_per_node(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with ShardedJournal(path) as journal:
            journal.append(_result(0), node="node0")
            journal.append(_result(1), node="node1")
            journal.append(_result(2), node="node0")
        files = sorted(p.name for p in shards_dir(path).glob("*.jsonl"))
        assert files == ["node0.jsonl", "node1.jsonl"]
        loaded = load_shards(path)
        assert len(loaded) == 3
        assert loaded[_key(_result(1))].node == "node1"

    def test_append_after_torn_shard_line(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with ShardedJournal(path) as journal:
            journal.append(_result(0), node="node0")
            journal.append(_result(1), node="node0")
        shard = shards_dir(path) / "node0.jsonl"
        shard.write_text(shard.read_text()[:-20])  # SIGKILL mid-write
        with ShardedJournal(path) as journal:
            journal.append(_result(1), node="node0")
            journal.append(_result(2), node="node0")
        assert len(load_shards(path)) == 3

    def test_hostile_node_name_sanitized(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with ShardedJournal(path) as journal:
            journal.append(_result(0), node="../../etc/passwd")
        names = [p.name for p in shards_dir(path).glob("*.jsonl")]
        assert names == [".._.._etc_passwd.jsonl"]

    def test_write_canonical_retires_shards(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        results = [_result(i) for i in range(2)]
        with ShardedJournal(path) as journal:
            for index, result in enumerate(results):
                journal.append(result, node=f"node{index}")
        write_canonical_journal(
            path,
            [_key(result) for result in results],
            load_shards(path),
        )
        assert not shards_dir(path).exists()
        assert path.read_bytes() == canonical_journal_bytes(
            [_key(result) for result in results],
            {_key(result): result for result in results},
        )
