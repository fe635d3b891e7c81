"""Tests for the TraceSource provenance layer."""

import numpy as np
import pytest

from repro.trace.ingest import write_champsim_trace
from repro.trace.plane import read_header_v2, trace_content_hash
from repro.trace.source import (
    FileSource,
    MaterializedSource,
    SampledSource,
    SourceError,
    TraceSource,
    WorkloadSource,
    as_source,
)
from repro.trace.stream import Trace, read_trace, write_trace
from repro.workloads import VirtualDispatchSpec


class _CountingSpec:
    """A workload-spec double that counts generate() calls."""

    name = "counting"

    def __init__(self, trace: Trace) -> None:
        self._trace = trace
        self.calls = 0

    def generate(self) -> Trace:
        self.calls += 1
        return self._trace


def _renamed(trace: Trace, name: str) -> Trace:
    return Trace(
        name, trace.pcs, trace.types, trace.takens, trace.targets,
        trace.gaps,
    )


class TestAsSource:
    def test_source_passes_through(self, tiny_trace):
        source = MaterializedSource(tiny_trace)
        assert as_source(source) is source

    def test_trace_wraps(self, tiny_trace):
        source = as_source(tiny_trace)
        assert isinstance(source, MaterializedSource)
        assert source.trace() is tiny_trace

    def test_spec_wraps(self, tiny_trace):
        source = as_source(_CountingSpec(_renamed(tiny_trace, "counting")))
        assert isinstance(source, WorkloadSource)

    def test_suite_entry_wraps(self):
        from repro.workloads.suite import suite88_specs

        entry = suite88_specs(0.02)[0]
        source = as_source(entry)
        assert source.name == entry.name

    def test_garbage_rejected(self):
        with pytest.raises(SourceError, match="cannot interpret"):
            as_source(42)


class TestMaterializedSource:
    def test_identity(self, tiny_trace):
        source = MaterializedSource(tiny_trace)
        assert source.name == tiny_trace.name
        assert len(source) == len(tiny_trace)
        assert source.content_hash() == trace_content_hash(tiny_trace)

    def test_release_keeps_trace(self, tiny_trace):
        source = MaterializedSource(tiny_trace)
        source.release()
        assert source.trace() is tiny_trace


class TestWorkloadSource:
    def test_lazy_and_memoized(self, tiny_trace):
        spec = _CountingSpec(_renamed(tiny_trace, "counting"))
        source = WorkloadSource(spec)
        assert spec.calls == 0
        source.trace()
        source.trace()
        assert spec.calls == 1

    def test_release_regenerates(self, tiny_trace):
        spec = _CountingSpec(_renamed(tiny_trace, "counting"))
        source = WorkloadSource(spec)
        source.trace()
        source.release()
        source.trace()
        assert spec.calls == 2

    def test_name_without_generation(self, tiny_trace):
        spec = _CountingSpec(_renamed(tiny_trace, "counting"))
        source = WorkloadSource(spec)
        assert source.name == "counting"
        assert spec.calls == 0

    def test_name_mismatch_rejected(self, tiny_trace):
        spec = _CountingSpec(tiny_trace)  # generates a non-"counting" name
        with pytest.raises(SourceError, match="must match"):
            WorkloadSource(spec).trace()

    def test_non_spec_rejected(self):
        with pytest.raises(SourceError, match="not a workload spec"):
            WorkloadSource(object())

    def test_matches_eager_generation(self):
        spec = VirtualDispatchSpec(
            name="vd", num_records=500, num_types=4, num_sites=2, seed=11,
        )
        eager = spec.generate()
        lazy = WorkloadSource(spec).trace()
        assert trace_content_hash(lazy) == trace_content_hash(eager)


class TestFileSource:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SourceError, match="does not exist"):
            FileSource(tmp_path / "nope.trace")

    def test_rptrace2_header_answers_identity_lazily(
        self, tiny_trace, tmp_path
    ):
        path = tmp_path / "t.trace"
        write_trace(tiny_trace, path)
        source = FileSource(path)
        # Name, length, and hash all come from the header...
        assert source.name == tiny_trace.name
        assert len(source) == len(tiny_trace)
        assert source.content_hash() == trace_content_hash(tiny_trace)
        # ... without having materialized the columns.
        assert source._trace is None

    def test_rename_invalidates_header_hash(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(tiny_trace, path)
        source = FileSource(path, name="other")
        header_hash = read_header_v2(path)["content_hash"]
        assert source.content_hash() != header_hash
        assert source.content_hash() == trace_content_hash(
            _renamed(tiny_trace, "other")
        )

    def test_ingested_format(self, tiny_trace, tmp_path):
        path = tmp_path / "t.champsim.txt"
        write_champsim_trace(tiny_trace, path)
        source = FileSource(path)
        np.testing.assert_array_equal(source.trace().pcs, tiny_trace.pcs)


class TestSpill:
    def test_spill_writes_then_skips(self, tiny_trace, tmp_path):
        source = MaterializedSource(tiny_trace)
        path = tmp_path / "t.trace"
        assert source.spill(path) is True
        stamp = path.stat().st_mtime_ns
        assert source.spill(path) is False
        assert path.stat().st_mtime_ns == stamp

    def test_spill_bytes_match_direct_write(self, tiny_trace, tmp_path):
        direct = tmp_path / "direct.trace"
        write_trace(tiny_trace, direct)
        via_source = tmp_path / "source.trace"
        MaterializedSource(tiny_trace).spill(via_source)
        assert direct.read_bytes() == via_source.read_bytes()

    def test_stale_spill_rewritten(self, tiny_trace, tmp_path):
        path = tmp_path / "t.trace"
        write_trace(_renamed(tiny_trace, "old"), path)
        assert MaterializedSource(tiny_trace).spill(path) is True
        assert read_trace(path).name == tiny_trace.name


class TestSampledSource:
    def test_name_encodes_parameters(self, vdispatch_trace):
        source = SampledSource(
            vdispatch_trace, interval_records=500, regions=3
        )
        assert source.name == f"{vdispatch_trace.name}~s3x500"

    def test_materializes_measured_windows(self, vdispatch_trace):
        source = SampledSource(
            vdispatch_trace, interval_records=500, regions=3
        )
        plan = source.plan()
        sampled = source.trace()
        assert len(sampled) == plan.measured_records
        # The first sampled record is the first region's start record.
        first = plan.regions[0]
        assert sampled[0].pc == vdispatch_trace[first.start].pc

    def test_wraps_any_source(self, vdispatch_trace):
        nested = SampledSource(
            MaterializedSource(vdispatch_trace), interval_records=500
        )
        assert isinstance(nested.base, TraceSource)
        assert len(nested) > 0

    def test_validation(self, vdispatch_trace):
        with pytest.raises(SourceError, match="interval_records"):
            SampledSource(vdispatch_trace, interval_records=0)
        with pytest.raises(SourceError, match="regions"):
            SampledSource(vdispatch_trace, regions=0)
        with pytest.raises(SourceError, match="warmup_intervals"):
            SampledSource(vdispatch_trace, warmup_intervals=-1)
