"""The worker's side of the wire, over in-memory streams.

* A ``run_unit`` reply is one write and one flush: every ``cell_done``
  in member order, then ``unit_done``.  Replies written one message at
  a time stall on the coordinator's delayed ACK (Nagle's algorithm).
* A malformed request line (not JSON, no ``"t"`` tag, longer than
  ``MAX_LINE_BYTES``) is answered with ``error`` and the worker keeps
  serving: the next ``ping`` still gets its ``pong``.
"""

from __future__ import annotations

import io

import pytest

from repro.dist import protocol
from repro.dist.store import TraceStore, trace_file_hash
from repro.dist.worker import MAX_LINE_BYTES, DistWorker
from repro.exec.plan import plan_campaign
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.predictors.ittage import ITTAGE
from repro.workloads import VirtualDispatchSpec


class _CountingWriter(io.BytesIO):
    """A byte sink that counts writes and keeps what each flush pushed."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0
        self.flushed: list = []
        self._mark = 0

    def write(self, data) -> int:
        self.writes += 1
        return super().write(data)

    def flush(self) -> None:
        value = self.getvalue()
        self.flushed.append(value[self._mark:])
        self._mark = len(value)
        super().flush()


def _messages(data: bytes):
    return [protocol.decode(line + b"\n") for line in data.splitlines()]


@pytest.fixture
def unit(tmp_path):
    """A store holding one spilled trace and the unit's three wire
    cells (one per predictor)."""
    trace = VirtualDispatchSpec(
        name="vd-wire", seed=5, num_records=400, num_types=4,
        num_sites=2, determinism=0.9,
    ).generate()
    factories = {
        "BTB": BranchTargetBuffer, "2bit": TwoBitBTB, "ITTAGE": ITTAGE,
    }
    plan = plan_campaign([trace], factories, cache_dir=tmp_path / "spill")
    store = TraceStore(tmp_path / "store")
    wires = []
    for spec in plan.cells:
        store.ingest(spec.trace_path)
        wires.append(
            protocol.cell_to_wire(spec, trace_file_hash(spec.trace_path))
        )
    assert len(wires) == 3
    return store, wires


def _run(worker: DistWorker, wires, fused=True) -> _CountingWriter:
    worker.writer = _CountingWriter()
    worker._handle_run_unit({"t": "run_unit", "cells": wires, "fused": fused})
    return worker.writer


class TestOneWritePerReply:
    def test_fused_unit_is_one_flush_in_member_order(self, unit):
        store, wires = unit
        writer = _run(DistWorker(io.BytesIO(), io.BytesIO(), store), wires)
        assert writer.writes == 1
        (reply,) = writer.flushed
        messages = _messages(reply)
        assert [m["t"] for m in messages] == ["cell_done"] * 3 + [
            "unit_done"
        ]
        assert [m["index"] for m in messages[:3]] == [
            wire["index"] for wire in wires
        ]
        assert messages[-1]["cells"] == 3

    def test_cached_unit_is_one_flush(self, unit):
        store, wires = unit
        worker = DistWorker(io.BytesIO(), io.BytesIO(), store)
        _run(worker, wires)
        writer = _run(worker, wires)
        assert worker.cache_hits == 3
        assert writer.writes == 1
        (reply,) = writer.flushed
        assert [m["t"] for m in _messages(reply)] == ["cell_done"] * 3 + [
            "unit_done"
        ]

    def test_failed_unit_is_one_flush(self, unit):
        store, wires = unit
        missing = [dict(wire, hash="0" * 64) for wire in wires]
        writer = _run(DistWorker(io.BytesIO(), io.BytesIO(), store), missing)
        assert writer.writes == 1
        (reply,) = writer.flushed
        (message,) = _messages(reply)
        assert message["t"] == "unit_failed"


def _serve(tmp_path, payload: bytes):
    """Serve ``payload`` then a ``ping``; return the worker's replies."""
    reader = io.BytesIO(payload + protocol.encode({"t": "ping"}))
    writer = io.BytesIO()
    DistWorker(reader, writer, TraceStore(tmp_path / "store"),
               node="n").serve()
    return _messages(writer.getvalue())


class TestMalformedLines:
    @pytest.mark.parametrize(
        "line",
        [b"not json\n", b'{"x": 1}\n', b"[1, 2]\n", b"\xff\xfe\n"],
        ids=["not-json", "no-tag", "not-object", "not-utf8"],
    )
    def test_bad_line_answers_error_and_keeps_serving(self, tmp_path, line):
        error, pong = _serve(tmp_path, line)
        assert error["t"] == "error"
        assert "request" not in error
        assert pong == {"t": "pong", "node": "n"}

    def test_oversized_line_is_discarded_whole(self, tmp_path):
        line = b'{"t": "ping", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        error, pong = _serve(tmp_path, line)
        assert error == {"t": "error", "error": "message line too long"}
        assert pong["t"] == "pong"

    def test_line_at_the_cap_is_served(self, tmp_path):
        ping = protocol.encode({"t": "ping"})
        line = ping[:-1] + b" " * (MAX_LINE_BYTES - len(ping)) + b"\n"
        assert len(line) == MAX_LINE_BYTES
        first, second = _serve(tmp_path, line)
        assert first["t"] == second["t"] == "pong"

    def test_unknown_tag_names_the_request(self, tmp_path):
        error, pong = _serve(tmp_path, b'{"t": "bogus"}\n')
        assert error["t"] == "error"
        assert error["request"] == "bogus"
        assert pong["t"] == "pong"


class _ResetReader:
    def readline(self, limit=-1):
        raise ConnectionResetError("connection reset by peer")


class _BrokenWriter(io.BytesIO):
    def write(self, data) -> int:
        raise BrokenPipeError("broken pipe")


class TestVanishedCoordinator:
    def test_reset_while_reading_ends_the_session(self, tmp_path):
        writer = io.BytesIO()
        DistWorker(_ResetReader(), writer, TraceStore(tmp_path / "store"),
                   node="n").serve()
        assert writer.getvalue() == b""

    @pytest.mark.parametrize("tag", ["ping", "shutdown"])
    def test_broken_pipe_on_reply_ends_the_session(self, tmp_path, tag):
        reader = io.BytesIO(
            protocol.encode({"t": tag}) + protocol.encode({"t": "ping"})
        )
        DistWorker(reader, _BrokenWriter(), TraceStore(tmp_path / "store"),
                   node="n").serve()
        assert reader.read() == protocol.encode({"t": "ping"})
