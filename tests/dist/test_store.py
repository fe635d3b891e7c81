"""Content-addressed trace store tests (the node side of shipping)."""

import pytest

from repro.dist.store import StoreError, TraceStore, trace_file_hash
from repro.trace.plane import spilled_hash
from repro.trace.source import MaterializedSource


@pytest.fixture
def spill(tiny_trace, tmp_path):
    path = tmp_path / "tiny.trace"
    MaterializedSource(tiny_trace).spill(path)
    return path


@pytest.fixture
def store(tmp_path):
    return TraceStore(tmp_path / "store")


class TestTraceFileHash:
    def test_v2_spill_uses_recorded_hash(self, spill):
        assert trace_file_hash(spill) == spilled_hash(spill)

    def test_headerless_file_raises(self, tmp_path):
        path = tmp_path / "legacy.bin"
        path.write_bytes(b"bytes without an RPTRACE2 header")
        assert spilled_hash(path) is None
        with pytest.raises(StoreError, match="not an RPTRACE2"):
            trace_file_hash(path)


class TestChunkedIngest:
    def test_single_chunk_publish(self, store, spill):
        content_hash = trace_file_hash(spill)
        path = store.add_chunk(content_hash, spill.read_bytes(), last=True)
        assert path is not None and path.exists()
        assert store.has(content_hash)
        assert store.resolve(content_hash) == path

    def test_multi_chunk_accumulates_invisibly(self, store, spill):
        content_hash = trace_file_hash(spill)
        data = spill.read_bytes()
        middle = len(data) // 2
        assert store.add_chunk(content_hash, data[:middle], last=False) is None
        assert not store.has(content_hash)  # partial is invisible
        path = store.add_chunk(content_hash, data[middle:], last=True)
        assert path.read_bytes() == data

    def test_corrupt_transfer_rejected_and_not_stored(self, store, spill):
        content_hash = trace_file_hash(spill)
        with pytest.raises(StoreError, match="hash mismatch"):
            store.add_chunk(content_hash, b"corrupted bytes", last=True)
        assert not store.has(content_hash)

    def test_flipped_column_byte_rejected_and_not_stored(
        self, store, spill
    ):
        """A shipped spill whose columns no longer hash to its key (the
        header still claims the key) never reaches the store."""
        from repro.trace.plane import read_header_v2

        content_hash = trace_file_hash(spill)
        data = bytearray(spill.read_bytes())
        gaps = next(
            entry for entry in read_header_v2(spill)["columns"]
            if entry["name"] == "gaps"
        )
        data[gaps["offset"]] ^= 0x01
        with pytest.raises(StoreError, match="hash mismatch"):
            store.add_chunk(content_hash, bytes(data), last=True)
        assert not store.has(content_hash)
        assert list(store.root.iterdir()) == []

    def test_reship_of_present_trace_is_a_noop(self, store, spill):
        content_hash = trace_file_hash(spill)
        data = spill.read_bytes()
        store.add_chunk(content_hash, data, last=True)
        before = store.path_for(content_hash).stat().st_mtime_ns
        path = store.add_chunk(content_hash, b"ignored", last=True)
        assert path == store.path_for(content_hash)
        assert path.stat().st_mtime_ns == before
        assert path.read_bytes() == data

    def test_resolve_missing_raises(self, store):
        with pytest.raises(StoreError, match="not in store"):
            store.resolve("ab" * 32)


class TestStoreLifecycle:
    def test_ingest_dedupes_by_content(self, store, spill, tmp_path):
        first = store.ingest(spill)
        copy = tmp_path / "copy.trace"
        copy.write_bytes(spill.read_bytes())
        second = store.ingest(copy)
        assert first == second
        assert store.stored_hashes() == [trace_file_hash(spill)]

    def test_checkpoint_dir_under_root(self, store):
        ckpt = store.checkpoint_dir()
        assert ckpt.is_dir()
        assert ckpt.parent == store.root

    def test_clear_empties_but_keeps_root(self, store, spill):
        store.ingest(spill)
        store.clear()
        assert store.stored_hashes() == []
        assert store.root.is_dir()
