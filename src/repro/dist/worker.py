"""The distributed worker: one node of a campaign pool.

``python -m repro.dist.worker`` runs a single-threaded job loop
speaking the :mod:`repro.dist.protocol` over one of two transports:

* ``--port N`` — listen on a TCP socket (``0`` = ephemeral) and accept
  one coordinator connection.  The chosen address is announced on
  stdout as ``dist worker listening on HOST:PORT`` — the line
  :class:`~repro.dist.pool.NodePool` parses after spawning the process.
* ``--stdio`` — speak the protocol over stdin/stdout.  This is the SSH
  transport: ``ssh host python -m repro.dist.worker --stdio`` gives the
  coordinator a remote worker with zero listening ports, and the CI
  shim runs the identical command locally.

Received spills live in a content-addressed :class:`TraceStore`
(``--store``, default a fresh temporary directory), so repeated
campaigns against a long-lived worker never re-ship a trace.  Finished
cell results are likewise cached in memory, keyed by ``(trace content
hash, factory fingerprint, replay parameters)``, so repeated search
generations (or retried units) never re-simulate an identical cell on
the same node — fused units serve cached members and run only the
remainder.  Cells
execute through the *same* entry points the in-process pool uses —
:func:`repro.exec.pool.run_cell` / :func:`run_fused_cell` — which is
what keeps distributed results (and therefore merged journals)
bit-identical to local execution: there is exactly one execution path.

The loop is deliberately synchronous: jobs run on the main thread so
the per-cell ``SIGALRM`` deadline machinery works unchanged, and the
coordinator owns all retry/reschedule policy — a worker that hits an
error reports ``unit_failed`` and keeps serving.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import socket
import sys
import tempfile
import time
import uuid
from collections import OrderedDict
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from repro.dist import protocol
from repro.dist.store import StoreError, TraceStore
from repro.exec.journal import result_to_json
from repro.exec.plan import CellSpec, FusedCellSpec, checkpoint_name
from repro.exec.pool import run_cell, run_fused_cell
from repro.sim.metrics import SimulationResult

#: Upper bound on one received protocol line (mirrors the serve limit;
#: trace chunks are the largest messages and stay well under this).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Bound on the worker's in-memory result cache (entries, LRU).  Results
#: are tiny (a handful of counters plus an optional per-PC dict), so the
#: cap is about predictability, not memory pressure.
RESULT_CACHE_CAPACITY = 1024


def _cell_cache_key(raw: Dict[str, Any]) -> Optional[Tuple[str, ...]]:
    """Cache identity of a wire cell, or ``None`` if uncacheable.

    Keyed by everything that determines the cell's result: the trace
    *content* hash, the factory fingerprint (its canonical wire form —
    dotted path or pickle payload — which pins the predictor
    configuration), and the replay parameters.  The backend is
    deliberately excluded: scalar and columnar results are bit-identical,
    so a cell simulated under one backend answers for the other.
    Profiled cells (results carry timings) and checkpointed cells
    (mid-trace state on disk) are never cached.
    """
    if bool(raw.get("profile", False)) or int(raw.get("checkpoint_every", 0)):
        return None
    try:
        fingerprint = json.dumps(raw["factory"], sort_keys=True)
    except (KeyError, TypeError, ValueError):
        return None
    return (
        str(raw.get("hash", "")),
        fingerprint,
        str(int(raw.get("ras_depth", 32))),
        str(int(raw.get("warmup", 0))),
    )


class _Disconnect(Exception):
    """The coordinator went away; the worker session is over."""


class DistWorker:
    """One node's job loop over a pair of binary streams."""

    def __init__(
        self,
        reader: BinaryIO,
        writer: BinaryIO,
        store: TraceStore,
        node: Optional[str] = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.store = store
        self.node = node or f"node-{uuid.uuid4().hex[:8]}"
        self.cells_run = 0
        self.units_run = 0
        self.traces_received = 0
        self.cache_hits = 0
        #: LRU of finished cell results keyed by :func:`_cell_cache_key`,
        #: so repeated generations of a search (or retried units) never
        #: re-simulate an identical cell on this node.
        self._results: "OrderedDict[Tuple[str, ...], SimulationResult]" = (
            OrderedDict()
        )

    # -- plumbing ------------------------------------------------------

    def _send(self, *messages: Dict[str, Any]) -> None:
        """Write ``messages`` in order with one write and one flush."""
        try:
            self.writer.write(b"".join(map(protocol.encode, messages)))
            self.writer.flush()
        except (BrokenPipeError, OSError) as exc:
            raise _Disconnect(str(exc)) from exc

    def _readline(self) -> bytes:
        try:
            return self.reader.readline(MAX_LINE_BYTES)
        except OSError as exc:
            raise _Disconnect(str(exc)) from exc

    def _recv(self) -> Dict[str, Any]:
        """The next request; :class:`DistProtocolError` if malformed."""
        line = self._readline()
        if not line:
            raise _Disconnect("coordinator closed the stream")
        if len(line) == MAX_LINE_BYTES and not line.endswith(b"\n"):
            # Drop the rest of the oversized line so the next read
            # starts at a message boundary.
            while line and not line.endswith(b"\n"):
                line = self._readline()
            raise protocol.DistProtocolError("message line too long")
        return protocol.decode(line)

    # -- handlers ------------------------------------------------------

    def _handle_hello(self, message: Dict[str, Any]) -> None:
        self._send(
            {
                "t": "welcome",
                "protocol": protocol.PROTOCOL_VERSION,
                "node": self.node,
                "pid": os.getpid(),
                "cpus": os.cpu_count() or 1,
                "store": str(self.store.root),
            }
        )

    def _handle_has_trace(self, message: Dict[str, Any]) -> None:
        content_hash = protocol.require_hash(message)
        self._send(
            {
                "t": "trace_state",
                "hash": content_hash,
                "present": self.store.has(content_hash),
            }
        )

    def _handle_put_trace(self, message: Dict[str, Any]) -> None:
        content_hash = protocol.require_hash(message)
        data = protocol.chunk_data(message)
        last = bool(message.get("last", True))
        path = self.store.add_chunk(content_hash, data, last)
        if last:
            self.traces_received += 1
            self._send(
                {
                    "t": "trace_state",
                    "hash": content_hash,
                    "present": True,
                    "bytes": path.stat().st_size if path else 0,
                }
            )

    def _build_cells(self, message: Dict[str, Any]) -> List[CellSpec]:
        raw_cells = message.get("cells")
        if not isinstance(raw_cells, list) or not raw_cells:
            raise protocol.DistProtocolError(
                "'cells' must be a non-empty array"
            )
        cells = []
        for raw in raw_cells:
            content_hash = protocol.require_hash(raw)
            trace_path = str(self.store.resolve(content_hash))
            checkpoint_path = None
            if int(raw.get("checkpoint_every", 0)) > 0:
                spec_for_name = protocol.cell_from_wire(raw, trace_path)
                checkpoint_path = str(
                    self.store.checkpoint_dir()
                    / checkpoint_name(spec_for_name)
                )
            cells.append(
                protocol.cell_from_wire(raw, trace_path, checkpoint_path)
            )
        return cells

    def _serve_cached(
        self, spec: CellSpec, cached: SimulationResult
    ) -> SimulationResult:
        """A fresh result copy for ``spec`` from a cached identical cell.

        The cached counters are content-determined; only the display
        identity (trace/predictor names) follows the requesting cell.
        """
        return dataclasses.replace(
            cached,
            trace_name=spec.trace_name,
            predictor_name=spec.predictor_name,
            mispredictions_by_pc=dict(cached.mispredictions_by_pc),
        )

    def _handle_run_unit(self, message: Dict[str, Any]) -> None:
        timeout = message.get("timeout")
        timeout = float(timeout) if timeout else None
        try:
            cells = self._build_cells(message)
            keys = [_cell_cache_key(raw) for raw in message["cells"]]
            outcomes: List[Tuple[int, SimulationResult, float]] = []
            pending: List[Tuple[CellSpec, Optional[Tuple[str, ...]]]] = []
            for spec, key in zip(cells, keys):
                cached = self._results.get(key) if key is not None else None
                if cached is not None:
                    self._results.move_to_end(key)
                    self.cache_hits += 1
                    served = time.perf_counter()
                    result = self._serve_cached(spec, cached)
                    outcomes.append(
                        (spec.index, result, time.perf_counter() - served)
                    )
                else:
                    pending.append((spec, key))
            fused = bool(message.get("fused", False)) and len(pending) > 1
            if fused:
                fresh = run_fused_cell(
                    FusedCellSpec(
                        cells=tuple(spec for spec, _ in pending)
                    ),
                    timeout,
                )
            else:
                fresh = [run_cell(spec, timeout) for spec, _ in pending]
            for (spec, key), (index, result, duration) in zip(
                pending, fresh
            ):
                if key is not None:
                    self._results[key] = result
                    self._results.move_to_end(key)
                    while len(self._results) > RESULT_CACHE_CAPACITY:
                        self._results.popitem(last=False)
                outcomes.append((index, result, duration))
            outcomes.sort(key=lambda outcome: outcome[0])
        except _Disconnect:
            raise
        except BaseException as exc:  # noqa: BLE001 - coordinator retries
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            failed = {"t": "unit_failed", "message": repr(exc)}
            if isinstance(exc, Warning):
                failed["warning"] = [type(exc).__name__, str(exc)]
            self._send(failed)
            return
        self.units_run += 1
        self.cells_run += len(outcomes)
        # One write for the whole reply: no cell_done waits on the
        # coordinator's ACK of the one before it.
        self._send(
            *(
                {
                    "t": "cell_done",
                    "index": index,
                    "result": result_to_json(result),
                    "duration": duration,
                }
                for index, result, duration in outcomes
            ),
            {"t": "unit_done", "cells": len(outcomes)},
        )

    def _handle_stats(self, message: Dict[str, Any]) -> None:
        self._send(
            {
                "t": "stats",
                "node": self.node,
                "units": self.units_run,
                "cells": self.cells_run,
                "traces_received": self.traces_received,
                "traces_stored": len(self.store.stored_hashes()),
                "result_cache_hits": self.cache_hits,
                "result_cache_size": len(self._results),
            }
        )

    # -- loop ----------------------------------------------------------

    def serve(self) -> None:
        """Handle messages until shutdown or disconnect."""
        handlers = {
            "hello": self._handle_hello,
            "has_trace": self._handle_has_trace,
            "put_trace": self._handle_put_trace,
            "run_unit": self._handle_run_unit,
            "stats": self._handle_stats,
        }
        while True:
            tag = None
            try:
                message = self._recv()
                tag = message["t"]
                if tag == "ping":
                    self._send({"t": "pong", "node": self.node})
                    continue
                if tag == "shutdown":
                    self._send({"t": "bye", "node": self.node})
                    return
                handler = handlers.get(tag)
                if handler is None:
                    raise protocol.DistProtocolError(
                        f"unknown message type {tag!r}"
                    )
                handler(message)
            except _Disconnect:
                return
            except (protocol.DistProtocolError, StoreError) as exc:
                # Malformed lines and contract violations are
                # answerable; the session lives.
                extra = {"request": tag} if tag is not None else {}
                try:
                    self._send(protocol.error_message(str(exc), **extra))
                except _Disconnect:
                    return


def _serve_stdio(store: TraceStore, node: Optional[str]) -> int:
    worker = DistWorker(
        sys.stdin.buffer, sys.stdout.buffer, store, node=node
    )
    worker.serve()
    return 0


def _serve_socket(
    host: str, port: int, store: TraceStore, node: Optional[str]
) -> int:
    listener = socket.create_server((host, port))
    bound_host, bound_port = listener.getsockname()[:2]
    # Parsed by NodePool right after spawn: keep this line's shape stable.
    print(f"dist worker listening on {bound_host}:{bound_port}", flush=True)
    connection, _ = listener.accept()
    listener.close()
    protocol.set_nodelay(connection)
    try:
        reader = connection.makefile("rb")
        writer = connection.makefile("wb")
        worker = DistWorker(reader, writer, store, node=node)
        worker.serve()
    finally:
        connection.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.dist.worker",
        description="distributed campaign worker node",
    )
    transport = parser.add_mutually_exclusive_group()
    transport.add_argument(
        "--port", type=int, default=None,
        help="listen on a TCP port (0 = ephemeral, announced on stdout)",
    )
    transport.add_argument(
        "--stdio", action="store_true",
        help="speak the job protocol over stdin/stdout (the SSH transport)",
    )
    parser.add_argument(
        "--store", default=None,
        help="content-addressed trace store directory "
             "(default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--node", default=None,
        help="node identity reported to the coordinator (default: random)",
    )
    args = parser.parse_args(argv)

    store_dir = args.store or tempfile.mkdtemp(prefix="repro-dist-")
    store = TraceStore(Path(store_dir))
    if args.stdio or args.port is None:
        return _serve_stdio(store, args.node)
    return _serve_socket("127.0.0.1", args.port, store, args.node)


if __name__ == "__main__":
    sys.exit(main())
