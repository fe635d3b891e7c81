"""Tests for the RPTRACE2 zero-copy spill format and the TraceCache."""

from __future__ import annotations

import hashlib
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.trace.plane import (
    TraceCache,
    attach_trace,
    read_header_v2,
    spilled_hash,
    trace_content_hash,
    write_trace_v2,
)
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace, read_trace, write_trace


CHAMPSIM_FIXTURE = (
    Path(__file__).parent.parent / "fixtures" / "ingest" / "mini.champsim.txt"
)

#: sha256 of ``repro import mini.champsim.txt``; changes only with the
#: spill format.
MINI_TRACE_SHA256 = (
    "aad92a9e953f8c165b8cba23b65d870ea7bcec93297f93c4b6df2d73ef86c8dd"
)


def _columns_equal(left: Trace, right: Trace) -> bool:
    return all(
        np.array_equal(getattr(left, column), getattr(right, column))
        for column in ("pcs", "types", "takens", "targets", "gaps")
    )


class TestRoundTrip:
    def test_v2_round_trip(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_v2(tiny_trace, path)
        loaded = attach_trace(path)
        assert loaded.name == tiny_trace.name
        assert _columns_equal(tiny_trace, loaded)

    def test_write_trace_defaults_to_v2(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(tiny_trace, path)
        assert path.read_bytes()[:8] == b"RPTRACE2"
        assert _columns_equal(tiny_trace, read_trace(path))

    def test_attach_is_memmap_backed(self, callret_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_v2(callret_trace, path)
        loaded = attach_trace(path)
        for column in (loaded.pcs, loaded.types, loaded.targets, loaded.gaps):
            backing = column if column.base is None else column.base
            assert isinstance(backing, np.memmap)
        assert loaded.takens.dtype == bool

    def test_empty_trace(self, tmp_path):
        empty = Trace.from_records("empty", [])
        path = tmp_path / "e.trace"
        write_trace_v2(empty, path)
        loaded = attach_trace(path)
        assert len(loaded) == 0 and loaded.name == "empty"

    def test_non_ascii_name(self, tmp_path):
        record = BranchRecord(0x10, BranchType.DIRECT_JUMP, True, 0x20, 1)
        trace = Trace.from_records("trače-ü", [record])
        path = tmp_path / "u.trace"
        write_trace_v2(trace, path)
        assert attach_trace(path).name == "trače-ü"

    def test_column_offsets_are_aligned(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_v2(tiny_trace, path)
        header = read_header_v2(path)
        for entry in header["columns"]:
            assert entry["offset"] % 64 == 0

    def test_not_a_trace_file_raises(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a trace")
        with pytest.raises(ValueError):
            attach_trace(path)
        with pytest.raises(ValueError):
            read_trace(path)


class TestFormatPins:
    def test_imported_trace_bytes(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "mini.trace"
        assert main(["import", str(CHAMPSIM_FIXTURE), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == MINI_TRACE_SHA256


class TestConcurrentSpills:
    def test_write_does_not_claim_fixed_tmp_name(self, tiny_trace, tmp_path):
        """Staging must use a unique sibling, not ``<name>.tmp``."""
        path = tmp_path / "t.trace"
        decoy = tmp_path / "t.trace.tmp"
        decoy.write_bytes(b"another writer's staging bytes")
        write_trace_v2(tiny_trace, path)
        assert decoy.read_bytes() == b"another writer's staging bytes"
        assert _columns_equal(tiny_trace, attach_trace(path))

    def test_concurrent_spills_of_one_path(self, callret_trace, tmp_path):
        """Writers spilling one path never fail or publish a torn file
        (as when two processes plan into one ``cache_dir``)."""
        path = tmp_path / "t.trace"
        barrier = threading.Barrier(4)
        errors = []

        def spill_repeatedly():
            barrier.wait()
            for _ in range(50):
                try:
                    write_trace_v2(callret_trace, path)
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(exc)

        writers = [threading.Thread(target=spill_repeatedly) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for writer in writers:
                writer.start()
            for writer in writers:
                writer.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        assert errors == []
        assert _columns_equal(callret_trace, attach_trace(path))
        assert [entry.name for entry in tmp_path.iterdir()] == ["t.trace"]


class TestContentHash:
    def test_hash_matches_header(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        returned = write_trace_v2(tiny_trace, path)
        assert returned == trace_content_hash(tiny_trace)
        assert spilled_hash(path) == returned

    def test_hash_changes_with_contents(self, tiny_trace):
        other = Trace(
            name=tiny_trace.name,
            pcs=tiny_trace.pcs,
            types=tiny_trace.types,
            takens=tiny_trace.takens,
            targets=tiny_trace.targets + np.uint64(4),
            gaps=tiny_trace.gaps,
        )
        assert trace_content_hash(other) != trace_content_hash(tiny_trace)

    def test_hash_changes_with_name(self, tiny_trace):
        renamed = Trace(
            name="other",
            pcs=tiny_trace.pcs,
            types=tiny_trace.types,
            takens=tiny_trace.takens,
            targets=tiny_trace.targets,
            gaps=tiny_trace.gaps,
        )
        assert trace_content_hash(renamed) != trace_content_hash(tiny_trace)

    def test_spilled_hash_none_for_missing(self, tmp_path):
        assert spilled_hash(tmp_path / "missing.trace") is None


class TestTraceCache:
    def test_hit_returns_same_object(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_v2(tiny_trace, path)
        cache = TraceCache(capacity=2)
        first = cache.get(path)
        second = cache.get(path)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_rewrite_invalidates(self, tiny_trace, callret_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace_v2(tiny_trace, path)
        cache = TraceCache(capacity=2)
        cache.get(path)
        write_trace_v2(callret_trace, path)
        reloaded = cache.get(path)
        assert reloaded.name == callret_trace.name
        assert cache.misses == 2
        assert len(cache) == 1  # stale generation evicted, not retained

    def test_lru_eviction(self, tiny_trace, tmp_path):
        paths = []
        for i in range(3):
            path = tmp_path / f"{i}.trace"
            write_trace_v2(tiny_trace, path)
            paths.append(path)
        cache = TraceCache(capacity=2)
        for path in paths:
            cache.get(path)
        assert len(cache) == 2
        cache.get(paths[0])  # evicted -> miss again
        assert cache.misses == 4

    def test_same_tick_same_size_rewrite_invalidates(
        self, tiny_trace, tmp_path
    ):
        """A rewrite the stat key cannot see must still miss.

        Same record count and name give an identical file size, and the
        mtime is pinned back to the original's, simulating a coarse-
        granularity filesystem where a rewrite lands within one tick.
        Only the header content-hash check can catch this.
        """
        import os

        path = tmp_path / "t.trace"
        write_trace_v2(tiny_trace, path)
        stat = os.stat(path)
        cache = TraceCache(capacity=2)
        cache.get(path)
        shifted = Trace(
            name=tiny_trace.name,
            pcs=tiny_trace.pcs,
            types=tiny_trace.types,
            takens=tiny_trace.takens,
            targets=tiny_trace.targets + np.uint64(4),
            gaps=tiny_trace.gaps,
        )
        write_trace_v2(shifted, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (
            stat.st_size, stat.st_mtime_ns,
        )  # the stat key really is blind to this rewrite
        reloaded = cache.get(path)
        assert np.array_equal(reloaded.targets, shifted.targets)
        assert cache.misses == 2
        assert len(cache) == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceCache(capacity=0)
