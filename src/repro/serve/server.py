"""The prediction server: asyncio TCP, thousands of hosted sessions.

Architecture (see ``docs/serving.md`` for the full lifecycle):

* **Connections** speak the newline-delimited JSON protocol of
  :mod:`repro.serve.protocol`.  The read loop never blocks on
  execution: each ``events`` message is submitted to a shard batcher
  and its response future is appended to a per-connection writer queue,
  so many messages — across connections and sessions — are in flight
  at once and can coalesce into one micro-batch.  The writer task
  resolves futures in FIFO order, preserving per-connection response
  order under pipelining.
* **Shards**: sessions are sharded across ``workers`` micro-batchers by
  a hash of the session id, so one session's events always land in the
  same batcher (order preserved) while load spreads across shards.
* **The session manager** owns the resident set: an LRU capped at
  ``max_resident``.  Opening or touching a session beyond the cap
  evicts the least-recently-used idle session to the state directory
  as an atomic checkpoint; the next event for an evicted session
  transparently rehydrates it (``state_hash`` verified on reload).
* **Drain and restart**: ``drain`` (or SIGTERM/SIGINT) flushes every
  batcher and checkpoints every resident session, so a restarted
  server with the same ``--state-dir`` resumes every session
  bit-identically — clients re-``open``, learn the server's cursor
  from the ``opened`` response, and continue streaming from there.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import signal
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.state import canonical_json
from repro.registry import RegistryError, indirect_names
from repro.serve import protocol
from repro.serve.batcher import (
    DEFAULT_BATCH_WINDOW,
    DEFAULT_MAX_BATCH_EVENTS,
    MicroBatcher,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.session import PredictorSession, SessionError
from repro.trace.plane import atomic_write_bytes

#: Default resident-session cap.
DEFAULT_MAX_RESIDENT = 1024

#: Default number of shard batchers.
DEFAULT_WORKERS = 4

_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]")


class SessionStore:
    """Atomic session checkpoints in one state directory.

    File names are built from a sanitized session id plus a short hash
    of the full id, so arbitrary ids map to unique, filesystem-safe
    paths.  Writes go through the trace plane's atomic-write helper;
    loads are strict — a damaged or hash-mismatched checkpoint raises
    instead of silently resurrecting wrong state.  Closing a session
    deletes its file (no stale checkpoints survive a clean close).
    """

    SUFFIX = ".session.json"

    def __init__(self, state_dir: Union[str, Path]) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)

    def path_for(self, session_id: str) -> Path:
        digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()[:12]
        stem = _SAFE_ID.sub("_", session_id)[:48] or "session"
        return self.state_dir / f"{stem}-{digest}{self.SUFFIX}"

    def save(self, session: PredictorSession) -> Path:
        path = self.path_for(session.session_id)
        atomic_write_bytes(
            path, canonical_json(session.checkpoint()).encode("utf-8")
        )
        return path

    def load(self, session_id: str) -> Optional[Dict[str, Any]]:
        """The raw checkpoint document for ``session_id``, or ``None``."""
        path = self.path_for(session_id)
        if not path.exists():
            return None
        try:
            with open(path, "r") as handle:
                return json.load(handle)
        except (OSError, ValueError) as exc:
            raise SessionError(
                f"unreadable session checkpoint {path.name}: {exc}"
            ) from exc

    def delete(self, session_id: str) -> None:
        try:
            self.path_for(session_id).unlink()
        except OSError:
            pass

    def count(self) -> int:
        """Checkpoint files currently on disk."""
        return sum(1 for _ in self.state_dir.glob(f"*{self.SUFFIX}"))


class SessionManager:
    """The resident set: LRU-capped, spillable, rehydratable."""

    def __init__(
        self,
        store: SessionStore,
        max_resident: int = DEFAULT_MAX_RESIDENT,
        metrics: Optional[ServerMetrics] = None,
        ras_depth: int = 32,
    ) -> None:
        if max_resident < 1:
            raise ValueError(f"max_resident must be >= 1, got {max_resident}")
        self.store = store
        self.max_resident = max_resident
        self.metrics = metrics or ServerMetrics()
        self.ras_depth = ras_depth
        self._resident: "Dict[str, PredictorSession]" = {}
        self._pending: Dict[str, int] = {}
        self._idle: Dict[str, asyncio.Event] = {}

    # -- lifecycle ------------------------------------------------------

    def open(
        self, session_id: str, predictor_key: str, warmup_records: int = 0
    ) -> Dict[str, Any]:
        """Open (or resume) a session; returns the ``opened`` payload."""
        if session_id in self._resident:
            raise SessionError(f"session {session_id!r} is already open")
        checkpoint = self.store.load(session_id)
        if checkpoint is not None:
            stored_key = checkpoint.get("predictor_key")
            if stored_key != predictor_key:
                raise SessionError(
                    f"session {session_id!r} was checkpointed with predictor "
                    f"{stored_key!r}, not {predictor_key!r}"
                )
            session = PredictorSession.from_checkpoint(checkpoint)
            resumed = True
            self.metrics.sessions_resumed += 1
        else:
            if predictor_key not in indirect_names():
                raise SessionError(
                    f"unknown predictor {predictor_key!r}; run "
                    f"`python -m repro registry` to list registered "
                    f"predictor keys"
                )
            session = PredictorSession(
                session_id,
                predictor_key,
                warmup_records=warmup_records,
                ras_depth=self.ras_depth,
            )
            resumed = False
            self.metrics.sessions_opened += 1
        self._admit(session)
        return {
            "session": session_id,
            "predictor": predictor_key,
            "resumed": resumed,
            "events": session.cursor,
        }

    def get(self, session_id: str) -> PredictorSession:
        """The live session, transparently rehydrated if evicted."""
        session = self._resident.get(session_id)
        if session is not None:
            # LRU touch: re-insert at the most-recent end.
            del self._resident[session_id]
            self._resident[session_id] = session
            return session
        checkpoint = self.store.load(session_id)
        if checkpoint is None:
            raise SessionError(
                f"unknown session {session_id!r} (never opened, or already "
                f"closed)"
            )
        session = PredictorSession.from_checkpoint(checkpoint)
        self.metrics.sessions_rehydrated += 1
        self._admit(session)
        return session

    def close(self, session_id: str) -> Dict[str, Any]:
        """Finalize a session; returns the ``closed`` payload."""
        started = time.perf_counter()
        session = self.get(session_id)
        result = session.result()
        payload = {
            "session": session_id,
            "predictor": session.predictor_key,
            "state_hash": session.state_hash(),
            "result": {
                "events": session.cursor,
                "total_instructions": session.total_instructions,
                "indirect_branches": result.indirect_branches,
                "indirect_mispredictions": result.indirect_mispredictions,
                "return_branches": result.return_branches,
                "return_mispredictions": result.return_mispredictions,
                "conditional_branches": result.conditional_branches,
                "mpki": result.mpki(),
            },
        }
        self._resident.pop(session_id, None)
        self._pending.pop(session_id, None)
        self._idle.pop(session_id, None)
        # Stale-file hygiene: a cleanly closed session leaves no
        # checkpoint behind.
        self.store.delete(session_id)
        self.metrics.sessions_closed += 1
        self.metrics.close_seconds += time.perf_counter() - started
        return payload

    # -- in-flight accounting (eviction safety) -------------------------

    def acquire(self, session_id: str) -> None:
        """Mark one in-flight event run (blocks eviction)."""
        self._pending[session_id] = self._pending.get(session_id, 0) + 1
        event = self._idle.get(session_id)
        if event is not None:
            event.clear()

    def release(self, session_id: str) -> None:
        remaining = self._pending.get(session_id, 0) - 1
        if remaining > 0:
            self._pending[session_id] = remaining
        else:
            self._pending.pop(session_id, None)
            event = self._idle.get(session_id)
            if event is not None:
                event.set()

    async def wait_idle(self, session_id: str) -> None:
        """Wait until ``session_id`` has no in-flight event runs."""
        while self._pending.get(session_id, 0) > 0:
            event = self._idle.setdefault(session_id, asyncio.Event())
            event.clear()
            await event.wait()

    # -- eviction and drain ---------------------------------------------

    def _admit(self, session: PredictorSession) -> None:
        self._resident[session.session_id] = session
        # The session being admitted is about to be handed to the caller
        # (which steps it before any ``acquire``), so the sweep must not
        # evict it: an eviction here would orphan the live object and
        # leave a stale checkpoint on disk.
        self.evict_over_capacity(protect=session.session_id)

    def evict_over_capacity(self, protect: Optional[str] = None) -> int:
        """Evict least-recently-used idle sessions down to the cap."""
        evicted = 0
        while len(self._resident) > self.max_resident:
            victim_id = next(
                (
                    sid
                    for sid in self._resident
                    if sid != protect and self._pending.get(sid, 0) == 0
                ),
                None,
            )
            if victim_id is None:
                break  # everything is in flight; soft cap
            self.evict(victim_id)
            evicted += 1
        return evicted

    def evict(self, session_id: str) -> None:
        """Checkpoint one resident session to disk and drop it."""
        session = self._resident.pop(session_id)
        self.store.save(session)
        self.metrics.sessions_evicted += 1

    def drain_to_disk(self) -> int:
        """Checkpoint every resident session (kept resident); count."""
        for session in self._resident.values():
            self.store.save(session)
        return len(self._resident)

    # -- reporting ------------------------------------------------------

    def resident_count(self) -> int:
        return len(self._resident)

    def session_stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-resident-session metrics for the stats endpoint."""
        return {
            sid: {
                "predictor": session.predictor_key,
                "events": session.cursor,
                "mpki": round(session.mpki(), 4),
            }
            for sid, session in self._resident.items()
        }


class PredictionServer:
    """The asyncio TCP server hosting checkpointed predictor sessions."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        state_dir: Union[str, Path] = "serve-state",
        max_resident: int = DEFAULT_MAX_RESIDENT,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch_events: int = DEFAULT_MAX_BATCH_EVENTS,
        workers: int = DEFAULT_WORKERS,
        ras_depth: int = 32,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.host = host
        self.port = port
        self.metrics = ServerMetrics()
        self.store = SessionStore(state_dir)
        self.manager = SessionManager(
            self.store,
            max_resident=max_resident,
            metrics=self.metrics,
            ras_depth=ras_depth,
        )
        self.batchers = [
            MicroBatcher(batch_window, max_batch_events, self.metrics)
            for _ in range(workers)
        ]
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping = asyncio.Event()
        self._connections: "set[asyncio.Task]" = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> int:
        """Bind and start serving; returns the actual port.

        The compiled replay cores are resolved first, before the server
        listens: with a warm cache that is one file check and a
        ``dlopen``, and a cache without a library for the current C
        sources (a new host, an edited core) compiles it here, once,
        instead of inside the first BLBP or ITTAGE step, where the
        compile would hold the event loop and every connection on it.
        """
        from repro.sim import native

        native.available()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_until_stopped(self, install_signals: bool = True) -> int:
        """Run until ``shutdown``/SIGTERM/SIGINT; drain; sessions saved."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._stopping.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
        await self._stopping.wait()
        return await self.stop()

    async def drain(self) -> int:
        """Flush every batcher and checkpoint every resident session."""
        for batcher in self.batchers:
            batcher.flush()
        return self.manager.drain_to_disk()

    async def stop(self) -> int:
        """Stop serving: close listeners, drain, checkpoint. Returns the
        number of sessions checkpointed."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        saved = await self.drain()
        for batcher in self.batchers:
            await batcher.close()
        return saved

    # -- connection handling --------------------------------------------

    def _shard(self, session_id: str) -> MicroBatcher:
        return self.batchers[
            zlib.crc32(session_id.encode("utf-8")) % len(self.batchers)
        ]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        responses: "asyncio.Queue[Optional[asyncio.Future]]" = asyncio.Queue()
        writer_task = asyncio.get_running_loop().create_task(
            self._write_responses(responses, writer)
        )
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # pragma: no cover - oversized line
                    await self._enqueue_ready(
                        responses,
                        protocol.error_message("message line too long"),
                    )
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                stop = await self._dispatch(line, responses)
                if stop:
                    break
        except (ConnectionResetError, asyncio.CancelledError):
            # Server stop cancels connection tasks; absorb the
            # cancellation so the task finishes cleanly (a task left in
            # the cancelled state makes asyncio's stream machinery log
            # spurious errors at close).
            if task is not None:
                task.uncancel()
        finally:
            try:
                await responses.put(None)
                await writer_task
            except asyncio.CancelledError:  # pragma: no cover
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                OSError,
                asyncio.CancelledError,
            ):  # pragma: no cover
                pass
            self._connections.discard(task)

    async def _write_responses(
        self,
        responses: "asyncio.Queue[Optional[asyncio.Future]]",
        writer: asyncio.StreamWriter,
    ) -> None:
        """Resolve response futures in FIFO order; write each line."""
        while True:
            future = await responses.get()
            if future is None:
                return
            try:
                payload = await future
            except asyncio.CancelledError:
                return
            except Exception as exc:  # execution failure -> error reply
                payload = protocol.error_message(str(exc))
            try:
                writer.write(protocol.encode(payload))
                await writer.drain()
            except (ConnectionResetError, OSError):
                return

    async def _enqueue_ready(
        self, responses: "asyncio.Queue", payload: Dict[str, Any]
    ) -> None:
        future = asyncio.get_running_loop().create_future()
        future.set_result(payload)
        await responses.put(future)

    async def _dispatch(
        self, line: bytes, responses: "asyncio.Queue"
    ) -> bool:
        """Handle one message line; returns True to end the connection."""
        try:
            message = protocol.decode(line)
            tag = message["t"]
            if tag == "events":
                session_id = protocol.require_session_id(message)
                events = protocol.parse_events(message.get("events"))
                session = self.manager.get(session_id)
                self.manager.acquire(session_id)
                future = asyncio.get_running_loop().create_task(
                    self._run_events(session_id, session, events)
                )
                await responses.put(future)
                return False
            if tag == "open":
                session_id = protocol.require_session_id(message)
                predictor_key = message.get("predictor")
                if not isinstance(predictor_key, str):
                    raise protocol.ProtocolError(
                        "open needs a string 'predictor' registry key"
                    )
                warmup = message.get("warmup", 0)
                if not isinstance(warmup, int) or warmup < 0:
                    raise protocol.ProtocolError(
                        f"warmup must be a non-negative int, got {warmup!r}"
                    )
                payload = self.manager.open(session_id, predictor_key, warmup)
                payload["t"] = "opened"
                await self._enqueue_ready(responses, payload)
                return False
            if tag == "close":
                session_id = protocol.require_session_id(message)
                future = asyncio.get_running_loop().create_task(
                    self._run_close(session_id)
                )
                await responses.put(future)
                return False
            if tag == "hello":
                await self._enqueue_ready(
                    responses,
                    {
                        "t": "welcome",
                        "protocol": protocol.PROTOCOL_VERSION,
                        "predictors": indirect_names(),
                        "workers": len(self.batchers),
                        "max_resident": self.manager.max_resident,
                    },
                )
                return False
            if tag == "stats":
                payload = self.stats(
                    include_sessions=bool(message.get("sessions"))
                )
                await self._enqueue_ready(responses, payload)
                return False
            if tag == "drain":
                saved = await self.drain()
                await self._enqueue_ready(
                    responses, {"t": "drained", "sessions": saved}
                )
                return False
            if tag == "shutdown":
                await self._enqueue_ready(
                    responses, {"t": "stopping", "sessions":
                                self.manager.resident_count()}
                )
                self._stopping.set()
                return True
            raise protocol.ProtocolError(f"unknown message type {tag!r}")
        except (protocol.ProtocolError, SessionError, RegistryError) as exc:
            self.metrics.protocol_errors += 1
            await self._enqueue_ready(
                responses, protocol.error_message(str(exc))
            )
            return False

    async def _run_events(
        self,
        session_id: str,
        session: PredictorSession,
        events: List[protocol.Event],
    ) -> Dict[str, Any]:
        try:
            outputs = await self._shard(session_id).submit(session, events)
        finally:
            self.manager.release(session_id)
        return {
            "t": "out",
            "session": session_id,
            "events": session.cursor,
            # Tuples encode as JSON arrays.
            "out": outputs,
        }

    async def _run_close(self, session_id: str) -> Dict[str, Any]:
        # Wait out any in-flight event runs so close sees final state.
        await self.manager.wait_idle(session_id)
        payload = self.manager.close(session_id)
        payload["t"] = "closed"
        return payload

    # -- stats ----------------------------------------------------------

    def stats(self, include_sessions: bool = False) -> Dict[str, Any]:
        payload = self.metrics.as_dict()
        payload["t"] = "stats"
        payload["sessions"]["resident"] = self.manager.resident_count()
        payload["sessions"]["on_disk"] = self.store.count()
        payload["max_resident"] = self.manager.max_resident
        payload["workers"] = len(self.batchers)
        if include_sessions:
            payload["per_session"] = self.manager.session_stats()
        return payload


__all__ = [
    "DEFAULT_MAX_RESIDENT",
    "DEFAULT_WORKERS",
    "PredictionServer",
    "SessionManager",
    "SessionStore",
]
