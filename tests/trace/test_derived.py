"""Tests for the derived plane, including the RAS differential property.

The derived plane re-implements the return-address-stack contract
without importing ``repro.sim`` (layering), so these tests pin the two
implementations together: precomputed RAS outcomes must equal a live
:class:`ReturnAddressStack` replay over arbitrary generated traces —
including deep recursion and call/return workloads, where overflow and
underflow actually happen.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.ras import ReturnAddressStack
from repro.trace import derived as derived_module
from repro.trace.derived import (
    cached_derived,
    compute_derived,
    derived_path_for,
    load_or_compute_derived,
    read_derived,
    write_derived,
)
from repro.trace.plane import trace_content_hash, write_trace_v2
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace
from repro.workloads import (
    CallReturnSpec,
    RecursiveSpec,
    generate_callret,
    generate_recursive,
)

_CALL_TYPES = (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL)


def _live_ras_outcomes(trace: Trace, depth: int):
    """Replay the real ReturnAddressStack exactly as the engine does."""
    predictions = []
    correct = []
    ras = ReturnAddressStack(depth)
    for record in trace.records():
        if record.branch_type is BranchType.RETURN:
            prediction = ras.predict()
            ras.pop()
            predictions.append(prediction)
            correct.append(prediction == record.target)
        elif record.branch_type in _CALL_TYPES:
            ras.push(record.pc + 4)
    return predictions, correct


def _assert_ras_equivalent(trace: Trace, depth: int) -> None:
    plane = compute_derived(trace, depth)
    live_preds, live_ok = _live_ras_outcomes(trace, depth)
    assert [
        prediction if valid else None
        for prediction, valid in zip(
            plane.return_preds.tolist(), plane.return_pred_valid.tolist()
        )
    ] == live_preds
    assert [bool(flag) for flag in plane.return_ok] == live_ok
    assert len(plane.return_idx) == len(live_preds)


def _recompute_after_barrier(barrier, spill_path: str) -> None:
    """Worker for the two-process cache-write collision test."""
    from repro.trace.stream import read_trace

    trace = read_trace(spill_path)
    barrier.wait()
    load_or_compute_derived(trace, spill_path, 32)


@st.composite
def branch_records(draw):
    branch_type = draw(st.sampled_from(list(BranchType)))
    # Only conditionals may be not-taken; BranchRecord enforces this.
    taken = draw(st.booleans()) if branch_type.is_conditional else True
    return BranchRecord(
        pc=draw(st.integers(min_value=0, max_value=(1 << 32) - 1)),
        branch_type=branch_type,
        taken=taken,
        target=draw(st.integers(min_value=0, max_value=(1 << 32) - 1)),
        inst_gap=draw(st.integers(min_value=0, max_value=20)),
    )


class TestRasDifferential:
    @given(
        records=st.lists(branch_records(), max_size=120),
        depth=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_live_ras_on_arbitrary_traces(self, records, depth):
        trace = Trace.from_records("hyp", records)
        _assert_ras_equivalent(trace, depth)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           depth=st.sampled_from([1, 2, 8, 32]))
    @settings(max_examples=12, deadline=None)
    def test_matches_live_ras_on_recursive_workloads(self, seed, depth):
        # Deep recursion overflows a shallow RAS: the drop-oldest rule
        # and underflow predictions both get exercised for real.
        trace = generate_recursive(
            RecursiveSpec(name="rec", seed=seed, num_records=1500, max_depth=16)
        )
        _assert_ras_equivalent(trace, depth)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           depth=st.sampled_from([1, 4, 32]))
    @settings(max_examples=12, deadline=None)
    def test_matches_live_ras_on_callret_workloads(self, seed, depth):
        trace = generate_callret(
            CallReturnSpec(name="cr", seed=seed, num_records=1500)
        )
        _assert_ras_equivalent(trace, depth)


class TestDerivedStructure:
    def test_indirect_arrays(self, tiny_trace):
        plane = compute_derived(tiny_trace, 32)
        mask = tiny_trace.indirect_mask()
        assert np.array_equal(plane.indirect_idx, np.flatnonzero(mask))
        assert np.array_equal(plane.indirect_pcs, tiny_trace.pcs[mask])
        assert np.array_equal(plane.indirect_targets, tiny_trace.targets[mask])

    def test_conditional_bitstream(self, vdispatch_trace):
        plane = compute_derived(vdispatch_trace, 32)
        expected = vdispatch_trace.takens[vdispatch_trace.types == 0]
        assert plane.conditionals == len(expected)
        assert np.array_equal(plane.conditional_outcomes(), expected)

    def test_empty_trace(self):
        plane = compute_derived(Trace.from_records("empty", []), 32)
        assert plane.records == 0
        assert plane.conditionals == 0
        assert len(plane.indirect_idx) == 0

    def test_bad_ras_depth_rejected(self, tiny_trace):
        with pytest.raises(ValueError):
            compute_derived(tiny_trace, 0)


class TestDiskCache:
    def test_round_trip(self, callret_trace, tmp_path):
        plane = compute_derived(callret_trace, 32)
        path = tmp_path / "t.plane"
        write_derived(plane, path)
        loaded = read_derived(path)
        assert loaded.trace_name == plane.trace_name
        assert loaded.ras_depth == 32
        assert loaded.content_hash == plane.content_hash
        assert loaded.conditionals == plane.conditionals
        for column in (
            "indirect_idx", "indirect_pcs", "indirect_targets", "cond_idx",
            "cond_bits", "return_idx", "return_preds", "return_pred_valid",
            "return_ok",
        ):
            assert np.array_equal(getattr(loaded, column), getattr(plane, column))

    def test_extra_columns_are_ignored(self, callret_trace, tmp_path,
                                       monkeypatch):
        """A plane file with columns this version no longer reads (older
        planes carried a per-PC grouping) still attaches."""
        plane = compute_derived(callret_trace, 32)
        plane.pc_order = np.argsort(plane.indirect_pcs, kind="stable")
        monkeypatch.setattr(
            derived_module, "_COLUMNS",
            derived_module._COLUMNS + (("pc_order", "<i8"),),
        )
        path = tmp_path / "old.plane"
        write_derived(plane, path)
        monkeypatch.undo()
        loaded = read_derived(path)
        assert not hasattr(loaded, "pc_order")
        assert np.array_equal(loaded.return_ok, plane.return_ok)
        assert np.array_equal(loaded.indirect_pcs, plane.indirect_pcs)

    def test_load_or_compute_writes_then_reuses(self, callret_trace, tmp_path):
        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        cache_path = derived_path_for(spill, 32)
        assert not cache_path.exists()
        first = load_or_compute_derived(callret_trace, spill, 32)
        assert cache_path.exists()
        stamp = cache_path.stat().st_mtime_ns
        second = load_or_compute_derived(callret_trace, spill, 32)
        assert cache_path.stat().st_mtime_ns == stamp  # no rewrite
        assert np.array_equal(first.return_preds, second.return_preds)

    def test_depths_cached_separately(self, callret_trace, tmp_path):
        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        load_or_compute_derived(callret_trace, spill, 2)
        load_or_compute_derived(callret_trace, spill, 32)
        assert derived_path_for(spill, 2).exists()
        assert derived_path_for(spill, 32).exists()
        assert derived_path_for(spill, 2) != derived_path_for(spill, 32)

    def test_stale_cache_recomputed(self, callret_trace, tiny_trace, tmp_path):
        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        cache_path = derived_path_for(spill, 32)
        # Plant a plane for a different trace under the same cache name.
        write_derived(compute_derived(tiny_trace, 32), cache_path)
        plane = load_or_compute_derived(callret_trace, spill, 32)
        assert plane.trace_name == callret_trace.name
        assert plane.content_hash == trace_content_hash(callret_trace)

    def test_write_does_not_claim_fixed_tmp_name(
        self, callret_trace, tmp_path
    ):
        """Staging must use a unique sibling, not ``<name>.tmp``.

        With a fixed staging name, two writers racing on the same cache
        path truncate each other's partial file and one publishes a torn
        plane.  A foreign ``.tmp`` file standing in for the other
        writer's staging file must survive the write untouched.
        """
        path = tmp_path / "t.plane"
        decoy = tmp_path / "t.plane.tmp"
        decoy.write_bytes(b"another writer's staging bytes")
        write_derived(compute_derived(callret_trace, 32), path)
        assert decoy.read_bytes() == b"another writer's staging bytes"
        assert read_derived(path).trace_name == callret_trace.name

    def test_concurrent_recompute_publishes_valid_plane(
        self, callret_trace, tmp_path
    ):
        """Two processes recomputing the same plane never tear the file."""
        import multiprocessing

        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(2)
        workers = [
            context.Process(
                target=_recompute_after_barrier, args=(barrier, str(spill))
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        plane = read_derived(derived_path_for(spill, 32))
        assert plane.trace_name == callret_trace.name
        assert plane.content_hash == trace_content_hash(callret_trace)

    def test_damaged_cache_recomputed(self, callret_trace, tmp_path):
        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        cache_path = derived_path_for(spill, 32)
        cache_path.write_bytes(b"garbage, not a derived plane")
        plane = load_or_compute_derived(callret_trace, spill, 32)
        assert plane.trace_name == callret_trace.name
        # And the damaged file was replaced with a good one.
        assert read_derived(cache_path).trace_name == callret_trace.name


class TestCachedDerived:
    """The worker cache must not serve a plane of a rewritten spill."""

    @pytest.fixture
    def rewritten(self, callret_trace, tmp_path, monkeypatch):
        """Spill trace A, cache its plane, then rewrite the same path
        with a same-name, same-length trace B and pin the mtime back, so
        the ``(path, size, mtime_ns)`` key cannot see the rewrite."""
        import os

        from repro.trace import plane as plane_module
        from repro.trace.plane import TraceCache

        monkeypatch.setattr(plane_module, "_worker_cache", TraceCache())
        other = CallReturnSpec(
            name=callret_trace.name, seed=11, num_records=len(callret_trace),
            filler_conditionals=6,
        ).generate()
        assert trace_content_hash(other) != trace_content_hash(callret_trace)
        spill = tmp_path / "t.trace"
        traces = TraceCache(capacity=2)
        write_trace_v2(callret_trace, spill)
        before = os.stat(spill)
        cached_derived(spill, traces.get(spill), 32)
        write_trace_v2(other, spill)
        os.utime(spill, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(spill)
        assert (after.st_size, after.st_mtime_ns) == (
            before.st_size, before.st_mtime_ns,
        )
        trace = traces.get(spill)
        assert trace_content_hash(trace) == trace_content_hash(other)
        return trace, cached_derived(spill, trace, 32)

    def test_same_stat_rewrite_gets_the_new_plane(self, rewritten):
        trace, plane = rewritten
        fresh = compute_derived(trace, 32)
        assert plane.content_hash == fresh.content_hash
        assert np.array_equal(plane.return_ok, fresh.return_ok)
        assert np.array_equal(plane.return_preds, fresh.return_preds)

    @pytest.mark.usefixtures("compiled_cores")
    def test_columnar_run_on_the_rewrite_matches_scalar(self, rewritten):
        from repro.core import BLBP
        from repro.sim.engine import simulate

        trace, plane = rewritten
        columnar = simulate(BLBP(), trace, backend="columnar", derived=plane)
        scalar = simulate(BLBP(), trace)
        assert columnar.indirect_mispredictions == scalar.indirect_mispredictions


class TestOneSpillCache:
    """A spill's derived planes live in its worker TraceCache entry."""

    @pytest.fixture
    def worker_cache(self, monkeypatch):
        from repro.trace import plane as plane_module
        from repro.trace.plane import TraceCache

        cache = TraceCache(capacity=1)
        monkeypatch.setattr(plane_module, "_worker_cache", cache)
        return cache

    def test_same_stat_rewrite_gets_new_trace_and_plane(
        self, worker_cache, callret_trace, tmp_path
    ):
        import os

        from repro.trace.plane import cached_trace

        other = CallReturnSpec(
            name=callret_trace.name, seed=11, num_records=len(callret_trace),
            filler_conditionals=6,
        ).generate()
        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        before = os.stat(spill)
        first = cached_derived(spill, cached_trace(spill), 32)
        write_trace_v2(other, spill)
        os.utime(spill, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert os.stat(spill).st_size == before.st_size

        trace = cached_trace(spill)
        plane = cached_derived(spill, trace, 32)
        assert trace_content_hash(trace) == trace_content_hash(other)
        assert plane is not first
        assert plane.content_hash == trace_content_hash(other)
        assert np.array_equal(
            plane.return_preds, compute_derived(other, 32).return_preds
        )

    def test_plane_memoized_in_the_trace_entry(
        self, worker_cache, callret_trace, tmp_path
    ):
        from repro.trace.plane import cached_entry, cached_trace

        spill = tmp_path / "t.trace"
        write_trace_v2(callret_trace, spill)
        trace = cached_trace(spill)
        plane = cached_derived(spill, trace, 32)
        assert cached_derived(spill, trace, 32) is plane
        assert cached_entry(spill).planes == {32: plane}

    def test_evicting_a_trace_drops_its_planes(
        self, worker_cache, callret_trace, tiny_trace, tmp_path
    ):
        from repro.trace.plane import cached_entry, cached_trace

        first, second = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace_v2(callret_trace, first)
        write_trace_v2(tiny_trace, second)
        plane = cached_derived(first, cached_trace(first), 32)
        cached_derived(second, cached_trace(second), 32)  # evicts ``first``
        assert len(worker_cache) == 1
        assert cached_entry(first).planes == {}
        again = cached_derived(first, cached_trace(first), 32)
        assert again is not plane
        assert again.content_hash == plane.content_hash
