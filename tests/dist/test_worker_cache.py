"""The worker's in-memory result cache: identical cells never re-run.

Results are keyed by (trace content hash, factory fingerprint, replay
parameters) — so a repeated unit (retry, or the next search generation
re-evaluating a surviving configuration) is served from memory, fused
units run only their uncached members, the backend is deliberately
excluded from the key (scalar and columnar results are bit-identical),
and profiled or checkpointed cells are never cached.
"""

from __future__ import annotations

import io
import random

import pytest

from repro.core import BLBP
from repro.dist import protocol
from repro.dist.store import TraceStore, trace_file_hash
from repro.dist.worker import DistWorker, _cell_cache_key
from repro.exec.journal import result_from_json
from repro.exec.plan import plan_campaign
from repro.predictors.ittage import ITTAGE
from repro.predictors.vpc import VPCPredictor
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace


def _trace(seed: int = 0, count: int = 300) -> Trace:
    rng = random.Random(seed)
    pcs = [0x4000, 0x4008, 0x4040]
    targets = [0x10_0000, 0x10_0040, 0x11_0000]
    records = []
    for _ in range(count):
        if rng.random() < 0.4:
            records.append(
                BranchRecord(0x900, BranchType.CONDITIONAL,
                             rng.random() < 0.5, 0x910, inst_gap=1)
            )
        else:
            records.append(
                BranchRecord(rng.choice(pcs), BranchType.INDIRECT_JUMP,
                             True, rng.choice(targets), inst_gap=2)
            )
    return Trace.from_records(f"cache-{seed}", records)


def _wires(tmp_path, factories):
    """Wire cells for one trace × the given factories, plus the store
    holding the spilled trace."""
    trace = _trace()
    plan = plan_campaign([trace], factories, cache_dir=tmp_path / "spill")
    plan.spill()
    store = TraceStore(tmp_path / "store")
    wires = []
    for spec in plan.cells:
        content_hash = trace_file_hash(spec.trace_path)
        store.ingest(spec.trace_path)
        wires.append(protocol.cell_to_wire(spec, content_hash))
    return store, wires


def _worker(store) -> DistWorker:
    return DistWorker(io.BytesIO(), io.BytesIO(), store, node="test-node")


def _run_unit(worker, wires, fused=False):
    """Drive one run_unit; return {index: SimulationResult}."""
    worker.writer = io.BytesIO()
    worker._handle_run_unit(
        {"t": "run_unit", "cells": wires, "fused": fused}
    )
    messages = [
        protocol.decode(line + b"\n")
        for line in worker.writer.getvalue().splitlines()
    ]
    assert messages[-1]["t"] == "unit_done", messages[-1]
    return {
        message["index"]: result_from_json(message["result"])
        for message in messages
        if message["t"] == "cell_done"
    }


class TestResultCache:
    def test_repeated_unit_serves_from_cache(self, tmp_path, monkeypatch):
        store, wires = _wires(tmp_path, {"BLBP": BLBP})
        worker = _worker(store)
        first = _run_unit(worker, wires)
        assert worker.cache_hits == 0

        def refuse(spec, timeout=None):
            raise AssertionError("re-simulated a cached cell")

        monkeypatch.setattr("repro.dist.worker.run_cell", refuse)
        second = _run_unit(worker, wires)
        assert worker.cache_hits == 1
        assert second == first

    def test_backend_excluded_from_key(self, tmp_path):
        """A cell simulated under one backend answers for the other —
        scalar and columnar results are bit-identical by construction."""
        store, wires = _wires(tmp_path, {"BLBP": BLBP})
        (wire,) = wires
        columnar_wire = dict(wire, backend="columnar")
        assert _cell_cache_key(wire) == _cell_cache_key(columnar_wire)
        worker = _worker(store)
        scalar = _run_unit(worker, [wire])
        columnar = _run_unit(worker, [columnar_wire])
        assert worker.cache_hits == 1
        assert columnar == scalar

    def test_parameter_changes_miss(self, tmp_path):
        store, wires = _wires(tmp_path, {"BLBP": BLBP})
        (wire,) = wires
        assert _cell_cache_key(wire) != _cell_cache_key(
            dict(wire, warmup=100)
        )
        assert _cell_cache_key(wire) != _cell_cache_key(
            dict(wire, ras_depth=16)
        )
        worker = _worker(store)
        _run_unit(worker, [wire])
        _run_unit(worker, [dict(wire, warmup=100)])
        assert worker.cache_hits == 0

    def test_profiled_and_checkpointed_cells_uncached(self, tmp_path):
        store, wires = _wires(tmp_path, {"BLBP": BLBP})
        (wire,) = wires
        assert _cell_cache_key(dict(wire, profile=True)) is None
        assert _cell_cache_key(dict(wire, checkpoint_every=100)) is None
        worker = _worker(store)
        profiled = dict(wire, profile=True)
        _run_unit(worker, [profiled])
        _run_unit(worker, [profiled])
        assert worker.cache_hits == 0
        assert not worker._results

    def test_fused_unit_runs_only_uncached_members(
        self, tmp_path, monkeypatch
    ):
        factories = {
            "BLBP": BLBP, "ITTAGE": ITTAGE, "VPC": VPCPredictor,
        }
        store, wires = _wires(tmp_path, factories)
        assert len(wires) == 3
        reference = _run_unit(_worker(store), wires, fused=True)

        worker = _worker(store)
        primed = _run_unit(worker, [wires[0]])
        ran = []

        def spy_run_cell(spec, timeout=None):
            from repro.exec.pool import run_cell
            ran.append(spec.predictor_name)
            return run_cell(spec, timeout)

        def spy_run_fused(fused_spec, timeout=None):
            from repro.exec.pool import run_fused_cell
            ran.extend(
                spec.predictor_name for spec in fused_spec.cells
            )
            return run_fused_cell(fused_spec, timeout)

        monkeypatch.setattr("repro.dist.worker.run_cell", spy_run_cell)
        monkeypatch.setattr(
            "repro.dist.worker.run_fused_cell", spy_run_fused
        )
        results = _run_unit(worker, wires, fused=True)
        assert worker.cache_hits == 1
        assert wires[0]["predictor"] not in ran
        assert sorted(ran) == sorted(
            wire["predictor"] for wire in wires[1:]
        )
        # Served + fresh members merge into the reference unit, in order.
        assert results == reference
        assert results[wires[0]["index"]] == primed[wires[0]["index"]]

    def test_cache_hit_takes_requesting_cell_identity(self, tmp_path):
        """The cached counters are content-determined; the display
        identity follows the requesting cell."""
        store, wires = _wires(tmp_path, {"BLBP": BLBP})
        (wire,) = wires
        worker = _worker(store)
        _run_unit(worker, [wire])
        renamed = dict(wire, trace="aliased-trace")
        # Same content hash, same factory: a hit despite the new name.
        results = _run_unit(worker, [renamed])
        assert worker.cache_hits == 1
        (result,) = results.values()
        assert result.trace_name == "aliased-trace"

    def test_stats_report_cache_counters(self, tmp_path):
        store, wires = _wires(tmp_path, {"BLBP": BLBP})
        worker = _worker(store)
        _run_unit(worker, wires)
        _run_unit(worker, wires)
        worker.writer = io.BytesIO()
        worker._handle_stats({"t": "stats"})
        (message,) = [
            protocol.decode(line + b"\n")
            for line in worker.writer.getvalue().splitlines()
        ]
        assert message["result_cache_hits"] == 1
        assert message["result_cache_size"] == 1
