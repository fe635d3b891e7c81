"""Live sockets: no delayed-ACK stall between coordinator and node.

With Nagle's algorithm on, a small reply written after an
unacknowledged one waits for the peer's delayed ACK, about 40 ms on
Linux.  A unit's reply is several small messages, so every unit used
to pay that wait.  Both ends of a :class:`NodePool` socket set
``TCP_NODELAY``, and the worker writes each reply at once.
"""

from __future__ import annotations

import queue
import socket
import statistics
import threading
import time

from repro.dist import NodePool, protocol
from repro.dist import worker as worker_module
from repro.dist.store import TraceStore, trace_file_hash
from repro.exec.plan import plan_campaign
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.predictors.ittage import ITTAGE
from repro.workloads import SwitchCaseSpec

#: Units timed by the overhead test: enough that Linux's quick-ACK
#: start of a connection cannot hide a stall in the median.
UNITS = 40

#: Median coordinator-side overhead allowed per unit.  It is about
#: 1 ms without a stall and over 40 ms with one.
OVERHEAD_BOUND_S = 0.015


def _nodelay(sock: socket.socket) -> int:
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


def test_coordinator_socket_sets_nodelay():
    with NodePool(nodes=1) as pool:
        (client,) = pool.nodes
        assert _nodelay(client.sock) != 0


def test_worker_connection_sets_nodelay(tmp_path, monkeypatch):
    announced: "queue.Queue[str]" = queue.Queue()
    seen = []

    class _Probe:
        """Stands in for DistWorker: records its stream's socket."""

        def __init__(self, reader, writer, store, node=None):
            probe = socket.fromfd(
                reader.fileno(), socket.AF_INET, socket.SOCK_STREAM
            )
            with probe:
                seen.append(_nodelay(probe))

        def serve(self):
            pass

    monkeypatch.setattr(worker_module, "DistWorker", _Probe)
    monkeypatch.setattr(
        worker_module, "print",
        lambda line, **_: announced.put(line), raising=False,
    )
    server = threading.Thread(
        target=worker_module._serve_socket,
        args=("127.0.0.1", 0, TraceStore(tmp_path / "store"), "probe"),
        daemon=True,
    )
    server.start()
    line = announced.get(timeout=10)
    host, _, port = line.rpartition(" ")[2].rpartition(":")
    with socket.create_connection((host, int(port)), timeout=10):
        server.join(timeout=10)
    assert not server.is_alive()
    assert seen and seen[0] != 0


def test_unit_round_trip_has_no_stall(tmp_path):
    trace = SwitchCaseSpec(
        name="sw-wire", seed=3, num_records=200, num_cases=6,
        determinism=0.9,
    ).generate()
    factories = {
        "BTB": BranchTargetBuffer, "2bit": TwoBitBTB, "ITTAGE": ITTAGE,
    }
    plan = plan_campaign([trace], factories, cache_dir=tmp_path / "spill")
    plan.spill()
    path = plan.cells[0].trace_path
    content_hash = trace_file_hash(path)
    wires = [protocol.cell_to_wire(spec, content_hash) for spec in plan.cells]
    overheads = []
    with NodePool(nodes=1) as pool:
        (client,) = pool.nodes
        client.ensure_trace(content_hash, path)
        for _ in range(UNITS):
            started = time.perf_counter()
            outcomes = client.run_unit(wires, fused=True, timeout=None)
            wall = time.perf_counter() - started
            assert len(outcomes) == len(wires)
            overheads.append(wall - sum(d for _, _, d in outcomes))
    median = statistics.median(overheads)
    assert median < OVERHEAD_BOUND_S, (
        f"median per-unit overhead {median * 1e3:.1f} ms over "
        f"{UNITS} units (bound {OVERHEAD_BOUND_S * 1e3:.0f} ms)"
    )
