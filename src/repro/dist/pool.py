"""Campaign pools: local processes, socket worker nodes, SSH nodes.

A :class:`Pool` is *where cells run*: it supplies the runners that the
one campaign scheduler (:class:`repro.exec.pool._Scheduler`) pulls
execution units for.  The scheduler owns retries, unfusing, requeues,
events, and recording; a pool only says where units go:

* :class:`LocalPool` — one in-process runner for ``jobs == 1``, else
  ``jobs`` slots over one ``ProcessPoolExecutor``;
* :class:`NodePool` — N spawned worker processes
  (``python -m repro.dist.worker --port 0``), each speaking the
  newline-delimited-JSON job protocol over its own TCP socket;
* :class:`SSHPool` — the same worker protocol over stdin/stdout of a
  process launched from a configurable command template (``ssh {host}
  …`` in production; CI exercises the identical code with a localhost
  shim template).

Each node is a runner with its own scheduler thread pulling from the
shared queue, so a fast node takes more of the campaign.  Traces ship
by content hash into each node's :class:`~repro.dist.store.TraceStore`
— at most one transfer per (trace, node) per campaign, and zero when
the node already holds the hash from an earlier run.  A node that dies
mid-unit is announced (``node_down``), its in-flight unit reschedules
on surviving nodes without charging the cells' retry budget, and a
pool whose nodes are *all* gone degrades to in-process execution — the
same ladder every pool shares.
"""

from __future__ import annotations

import builtins
import dataclasses
import os
import shlex
import socket
import subprocess
import sys
import time
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Dict, List, Optional, Sequence, Tuple, Union

from repro.dist import protocol
from repro.dist.store import trace_file_hash
from repro.exec.events import NODE_UP
from repro.exec.journal import result_from_json
from repro.exec.plan import ExecutionUnit, FusedCellSpec
from repro.exec.pool import (
    Outcomes,
    _InProcessRunner,
    _member_cells,
    _PoolDegraded,
    _require_picklable,
    _Runner,
    _RunnerDown,
    _Scheduler,
    _SlotRunner,
    _UnitFailed,
)

#: Maximum bytes of one protocol line read from a node.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Seconds to wait for a spawned local worker to announce its port.
SPAWN_TIMEOUT = 30.0


class PoolError(RuntimeError):
    """A pool could not be constructed or probed."""


class NodeError(_RunnerDown):
    """A worker node died or broke protocol; its work reschedules."""


class Pool(ABC):
    """Where campaign cells execute.  See module docstring."""

    #: Local pools keep the classic coordinator-side behavior
    #: (mid-trace checkpoint files, plain journal); distributed pools
    #: journal into per-node shards and canonicalize on completion.
    local = False
    name = "pool"

    #: Whether units run in this process (factories need not pickle).
    in_process = False

    def execute(
        self,
        state,
        units: Sequence[ExecutionUnit],
        *,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.1,
        checkpoint_every: int = 0,
    ) -> None:
        """Run ``units`` on this pool's runners, recording into ``state``.

        Raises :class:`repro.exec.pool._PoolDegraded` when the pool
        itself (not a cell) is unusable — the executor then finishes the
        remaining cells in-process.
        """
        units = list(units)
        if not self.in_process:
            _require_picklable(units)
        scheduler = _Scheduler(state, units, timeout, retries, backoff)
        with self._runners(state, checkpoint_every) as runners:
            scheduler.run(runners)

    @abstractmethod
    def _runners(self, state, checkpoint_every: int):
        """Context manager yielding this pool's runners for one
        :meth:`execute`."""

    @abstractmethod
    def describe(self) -> List[Dict[str, Any]]:
        """One probe row per node (``repro nodes``)."""

    def close(self) -> None:
        """Release workers/connections; idempotent."""

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalPool(Pool):
    """The single-machine path behind the :class:`Pool` interface.

    ``LocalPool(jobs=n)`` is exactly ``execute_plan(jobs=n)``: one
    in-process runner for ``jobs == 1``, otherwise ``jobs`` slots over
    one ``ProcessPoolExecutor`` — same scheduler, same events, same
    journal bytes, same fallback ladder.
    """

    local = True
    name = "local"

    def __init__(self, jobs: Optional[int] = None) -> None:
        from repro.exec import resolve_jobs

        self.jobs = resolve_jobs(jobs)
        self.in_process = self.jobs == 1

    @contextmanager
    def _runners(self, state, checkpoint_every: int):
        if self.in_process:
            yield [_InProcessRunner()]
            return
        try:
            executor = ProcessPoolExecutor(max_workers=self.jobs)
        except (OSError, ValueError) as exc:
            raise _PoolDegraded(f"process pool failed to start: {exc!r}")
        with executor:
            # Start the workers now, while this is the only thread:
            # forking under the slot threads could copy a held lock.
            try:
                executor.submit(int).result()
            except Exception as exc:  # noqa: BLE001 - any failure degrades
                raise _PoolDegraded(f"process pool failed to start: {exc!r}")
            yield [_SlotRunner(executor) for _ in range(self.jobs)]

    def describe(self) -> List[Dict[str, Any]]:
        return [
            {
                "node": "local",
                "transport": (
                    "in-process" if self.in_process else "process-pool"
                ),
                "pid": os.getpid(),
                "cpus": os.cpu_count() or 1,
                "jobs": self.jobs,
            }
        ]


# -- coordinator-side node handle -------------------------------------


def _warning(raised: Sequence[str]) -> Warning:
    """A worker's ``[class name, text]`` warning, rebuilt: the builtin
    warning class of that name, else :class:`Warning`."""
    name, text = raised
    kind = getattr(builtins, str(name), Warning)
    if not (isinstance(kind, type) and issubclass(kind, Warning)):
        kind = Warning
    return kind(str(text))


class _NodeClient(_Runner):
    """The coordinator's handle for one worker node, and its runner."""

    def __init__(
        self,
        reader: BinaryIO,
        writer: BinaryIO,
        transport: str,
        process: Optional[subprocess.Popen] = None,
        sock: Optional[socket.socket] = None,
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.transport = transport
        self.process = process
        self.sock = sock
        self.dead = False
        #: Content hashes this node is known to hold.
        self.shipped: set = set()
        #: hash → put_trace transfers this campaign (dedup accounting).
        self.transfers: Dict[str, int] = {}
        #: Per-campaign settings, set by the pool before each execute:
        #: the interval stamped on cells that carry none, and the
        #: trace path → content hash memo shared by the pool's nodes.
        self.checkpoint_every = 0
        self.hashes: Dict[str, str] = {}
        self.node = ""
        self.pid = 0
        self.cpus = 0
        self._handshake()

    # -- wire ----------------------------------------------------------

    def _send(self, message: Dict[str, Any]) -> None:
        try:
            self.writer.write(protocol.encode(message))
            self.writer.flush()
        except (BrokenPipeError, OSError, ValueError) as exc:
            raise NodeError(f"node {self.node or '?'} send failed: {exc}")

    def _recv(self) -> Dict[str, Any]:
        try:
            line = self.reader.readline(MAX_LINE_BYTES)
        except (OSError, ValueError) as exc:
            raise NodeError(f"node {self.node or '?'} read failed: {exc}")
        if not line:
            raise NodeError(f"node {self.node or '?'} closed the stream")
        try:
            return protocol.decode(line)
        except protocol.DistProtocolError as exc:
            raise NodeError(f"node {self.node or '?'} broke protocol: {exc}")

    def _expect(self, tag: str) -> Dict[str, Any]:
        message = self._recv()
        if message["t"] == "error":
            raise NodeError(
                f"node {self.node or '?'} error: {message.get('error')}"
            )
        if message["t"] != tag:
            raise NodeError(
                f"node {self.node or '?'} sent {message['t']!r}, "
                f"expected {tag!r}"
            )
        return message

    def _handshake(self) -> None:
        self._send({"t": "hello", "protocol": protocol.PROTOCOL_VERSION})
        welcome = self._expect("welcome")
        if welcome.get("protocol") != protocol.PROTOCOL_VERSION:
            raise NodeError(
                f"worker speaks protocol {welcome.get('protocol')!r}, "
                f"coordinator speaks {protocol.PROTOCOL_VERSION}"
            )
        self.node = str(welcome.get("node", ""))
        self.pid = int(welcome.get("pid", 0) or 0)
        self.cpus = int(welcome.get("cpus", 0) or 0)

    # -- operations ----------------------------------------------------

    def ensure_trace(self, content_hash: str, path: str) -> None:
        """Make ``content_hash`` resident on the node (ship at most once)."""
        if content_hash in self.shipped:
            return
        self._send({"t": "has_trace", "hash": content_hash})
        state = self._expect("trace_state")
        if not state.get("present"):
            import base64

            data = Path(path).read_bytes()
            chunk = protocol.TRACE_CHUNK_BYTES
            offsets = range(0, len(data), chunk) if data else [0]
            for offset in offsets:
                piece = data[offset:offset + chunk]
                self._send(
                    {
                        "t": "put_trace",
                        "hash": content_hash,
                        "data": base64.b64encode(piece).decode("ascii"),
                        "last": offset + chunk >= len(data),
                    }
                )
            self._expect("trace_state")
            self.transfers[content_hash] = (
                self.transfers.get(content_hash, 0) + 1
            )
        self.shipped.add(content_hash)

    def run_unit(
        self,
        wire_cells: List[Dict[str, Any]],
        fused: bool,
        timeout: Optional[float],
    ) -> List[Tuple[int, Any, float]]:
        """Execute one unit; returns ``(index, result, duration)`` rows.

        Raises :class:`_UnitFailed` for worker-reported cell failures
        (retryable at the coordinator) and :class:`NodeError` when the
        node itself is gone.
        """
        self._send(protocol.unit_to_wire(wire_cells, fused, timeout))
        outcomes: List[Tuple[int, Any, float]] = []
        while True:
            message = self._recv()
            tag = message["t"]
            if tag == "cell_done":
                outcomes.append(
                    (
                        int(message["index"]),
                        result_from_json(message["result"]),
                        float(message.get("duration", 0.0)),
                    )
                )
            elif tag == "unit_done":
                return outcomes
            elif tag == "unit_failed":
                failure = _UnitFailed(
                    str(message.get("message", "unit failed"))
                )
                if "warning" in message:
                    # A warning raised as an error: the scheduler fails
                    # the unit at once, as it does for a local runner.
                    raise failure from _warning(message["warning"])
                raise failure
            elif tag == "error":
                raise _UnitFailed(str(message.get("error", "node error")))
            else:
                raise NodeError(
                    f"node {self.node} sent {tag!r} during run_unit"
                )

    def _trace_hash(self, path: str) -> str:
        if path not in self.hashes:
            self.hashes[path] = trace_file_hash(path)
        return self.hashes[path]

    def prepare(self, unit: ExecutionUnit) -> None:
        for spec in _member_cells(unit):
            path = spec.trace_path
            self.ensure_trace(self._trace_hash(path), path)

    def run(self, unit: ExecutionUnit, timeout: Optional[float]) -> Outcomes:
        cells = _member_cells(unit)
        wire_cells = []
        for spec in cells:
            wire = protocol.cell_to_wire(
                spec, self._trace_hash(spec.trace_path)
            )
            if self.checkpoint_every and not wire["checkpoint_every"]:
                wire["checkpoint_every"] = self.checkpoint_every
            wire_cells.append(wire)
        outcomes = self.run_unit(
            wire_cells, fused=isinstance(unit, FusedCellSpec), timeout=timeout
        )
        if {index for index, _, _ in outcomes} != {s.index for s in cells}:
            # The node acknowledged the unit without all its members:
            # a unit failure, so the cells re-run.
            raise _UnitFailed(
                f"node {self.node} returned {len(outcomes)} of "
                f"{len(cells)} unit cells"
            )
        return [
            (index, dataclasses.replace(result, node=self.node), seconds)
            for index, result, seconds in outcomes
        ]

    def stats(self) -> Dict[str, Any]:
        self._send({"t": "stats"})
        return self._expect("stats")

    def close(self) -> None:
        if not self.dead:
            try:
                self._send({"t": "shutdown"})
                self._recv()  # bye (best effort)
            except NodeError:
                pass
            self.dead = True
        for stream in (self.writer, self.reader):
            try:
                stream.close()
            except OSError:
                pass
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
        if self.process is not None:
            try:
                self.process.terminate()
            except OSError:
                pass
            try:
                self.process.wait(timeout=5)
            except (subprocess.TimeoutExpired, OSError):
                try:
                    self.process.kill()
                except OSError:
                    pass
            # A socket node's stdout carried only its address line.
            for pipe in (self.process.stdin, self.process.stdout):
                if pipe is not None:
                    try:
                        pipe.close()
                    except OSError:
                        pass


class _RemotePool(Pool):
    """Shared machinery of the socket and SSH backends."""

    def __init__(self) -> None:
        self._clients: List[_NodeClient] = []

    @property
    def nodes(self) -> List[_NodeClient]:
        return self._clients

    @contextmanager
    def _runners(self, state, checkpoint_every: int):
        clients = [client for client in self._clients if not client.dead]
        if not clients:
            raise _PoolDegraded(f"{self.name} pool has no live worker nodes")
        hashes: Dict[str, str] = {}
        for client in clients:
            client.checkpoint_every = checkpoint_every
            client.hashes = hashes
            state.emit(
                NODE_UP,
                node=client.node,
                message=f"{client.transport} pid={client.pid} "
                        f"cpus={client.cpus}",
            )
        yield clients

    def describe(self) -> List[Dict[str, Any]]:
        rows = []
        for client in self._clients:
            row: Dict[str, Any] = {
                "node": client.node,
                "transport": client.transport,
                "pid": client.pid,
                "cpus": client.cpus,
                "alive": not client.dead,
            }
            if not client.dead:
                try:
                    stats = client.stats()
                    row.update(
                        units=stats.get("units", 0),
                        cells=stats.get("cells", 0),
                        traces_stored=stats.get("traces_stored", 0),
                    )
                except NodeError:
                    client.dead = True
                    row["alive"] = False
            rows.append(row)
        return rows

    def transfer_counts(self) -> Dict[str, Dict[str, int]]:
        """node → content hash → times shipped (dedup accounting)."""
        return {
            client.node: dict(client.transfers)
            for client in self._clients
        }

    def close(self) -> None:
        for client in self._clients:
            client.close()
        self._clients = []


def _worker_env() -> Dict[str, str]:
    """The spawned worker's environment, with ``repro`` importable.

    The coordinator may itself run via ``PYTHONPATH=src``; make that
    arrangement explicit for children whatever way ``repro`` was
    imported here.
    """
    import repro

    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


class NodePool(_RemotePool):
    """N local worker processes, each on its own TCP socket.

    The multi-process scale-out backend: workers are spawned from this
    interpreter (``sys.executable -m repro.dist.worker --port 0``), the
    announced ephemeral port is read from each worker's stdout, and the
    job protocol runs over per-node sockets.  ``store_dir`` persists
    the nodes' content-addressed trace stores across pools (reuse means
    zero shipping on the next campaign); the default is a temporary
    store per worker, cleaned up by the OS.
    """

    name = "nodes"

    def __init__(
        self,
        nodes: int = 2,
        store_dir: Optional[Union[str, Path]] = None,
        python: Optional[str] = None,
    ) -> None:
        super().__init__()
        if nodes < 1:
            raise PoolError(f"NodePool needs >= 1 node, got {nodes}")
        python = python or sys.executable
        env = _worker_env()
        try:
            for index in range(nodes):
                self._clients.append(
                    self._spawn(index, python, env, store_dir)
                )
        except BaseException:
            self.close()
            raise

    def _spawn(
        self,
        index: int,
        python: str,
        env: Dict[str, str],
        store_dir: Optional[Union[str, Path]],
    ) -> _NodeClient:
        # The caller's warning filters travel with it, so ``python -W
        # error::RuntimeWarning`` fails a node's columnar fallback too.
        command = [python, *(f"-W{option}" for option in sys.warnoptions)]
        command += [
            "-m", "repro.dist.worker",
            "--port", "0", "--node", f"node{index}",
        ]
        if store_dir is not None:
            store = Path(store_dir) / f"node{index}"
            store.mkdir(parents=True, exist_ok=True)
            command += ["--store", str(store)]
        process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            address = self._read_address(process)
            sock = socket.create_connection(address, timeout=SPAWN_TIMEOUT)
            sock.settimeout(None)
            protocol.set_nodelay(sock)
            client = _NodeClient(
                sock.makefile("rb"),
                sock.makefile("wb"),
                transport="socket",
                process=process,
                sock=sock,
            )
            return client
        except BaseException:
            try:
                process.kill()
                process.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                pass
            process.stdout.close()
            raise

    @staticmethod
    def _read_address(process: subprocess.Popen) -> Tuple[str, int]:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        line = ""
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if line or process.poll() is not None:
                break
        if "listening on" not in line:
            raise PoolError(
                f"worker failed to announce its address (got {line!r})"
            )
        host, _, port = line.strip().rpartition(" ")[2].rpartition(":")
        return host, int(port)


class SSHPool(_RemotePool):
    """Worker nodes launched through a command template.

    ``template`` is formatted per host with ``{host}``, ``{python}``,
    and ``{node}``, then run as a subprocess whose stdin/stdout carry
    the job protocol — for the default template that subprocess is
    ``ssh``, and the worker runs on the remote machine with no listening
    ports or extra daemons.  Any template producing a process that
    speaks the worker protocol on stdio works; CI substitutes a
    localhost shim (``{python} -m repro.dist.worker --stdio …``) to
    exercise the exact transport without sshd.
    """

    name = "ssh"

    #: Production template: remote worker over plain ssh.
    DEFAULT_TEMPLATE = (
        "ssh -o BatchMode=yes {host} "
        "{python} -m repro.dist.worker --stdio --node {node}"
    )

    #: CI/localhost shim: the identical stdio transport, no sshd needed.
    LOCAL_TEMPLATE = "{python} -m repro.dist.worker --stdio --node {node}"

    def __init__(
        self,
        hosts: Sequence[str],
        template: str = DEFAULT_TEMPLATE,
        python: str = "python3",
    ) -> None:
        super().__init__()
        hosts = list(hosts)
        if not hosts:
            raise PoolError("SSHPool needs at least one host")
        env = _worker_env()
        try:
            for index, host in enumerate(hosts):
                command = shlex.split(
                    template.format(
                        host=host, python=python, node=f"{host}-{index}"
                    )
                )
                process = subprocess.Popen(
                    command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                    env=env,
                )
                self._clients.append(
                    _NodeClient(
                        process.stdout,
                        process.stdin,
                        transport=f"stdio:{host}",
                        process=process,
                    )
                )
        except BaseException:
            self.close()
            raise


#: Environment variable selecting the default distributed node count.
NODES_ENV = "REPRO_NODES"


def resolve_pool(pool: Optional[Pool] = None) -> Optional[Pool]:
    """Resolve the campaign pool: explicit object, else ``REPRO_NODES``.

    Returns ``None`` (``execute_plan`` then runs ``LocalPool(jobs)``)
    when neither is given.  ``REPRO_NODES=n`` with ``n >= 1`` spawns a
    fresh :class:`NodePool` of n local workers — the caller that
    triggered the resolution owns (and must close) it.  A non-integer
    value raises rather than silently running locally.
    """
    if pool is not None:
        return pool
    raw = os.environ.get(NODES_ENV)
    if raw is None:
        return None
    try:
        nodes = int(raw)
    except ValueError:
        raise ValueError(
            f"{NODES_ENV} must be an integer, got {raw!r}"
        ) from None
    if nodes < 1:
        return None
    return NodePool(nodes=nodes)


__all__ = [
    "LocalPool",
    "NODES_ENV",
    "NodeError",
    "NodePool",
    "Pool",
    "PoolError",
    "SSHPool",
    "resolve_pool",
]
