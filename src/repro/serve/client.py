"""Client library and load driver for the prediction server.

:class:`ServeClient` is the simple lockstep client — one request, one
response — used by tests, scripts, and interactive poking.  The load
driver (:func:`drive_load`, also ``python -m repro.serve.client``)
is the throughput instrument: it multiplexes many sessions over a few
connections with **windowed pipelining** (up to ``window`` event
messages in flight per connection), which is what lets the server
coalesce events from different sessions into fused micro-batches.

Load streams are deterministic: session ``i`` replays the events of a
:class:`~repro.workloads.vdispatch.VirtualDispatchSpec` trace seeded by
``i % distinct_streams``, so (a) a re-run drives byte-identical traffic,
(b) sessions sharing a stream exercise the server's cross-session
fusion, and (c) any slice ``[offset, offset+count)`` of a session's
stream can be re-derived later — the serve-smoke script uses that to
stream half, kill the server, and resume the rest after a restart.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.protocol import Event, ProtocolError

#: Default predictor rotation for driven sessions.
DEFAULT_PREDICTORS = ("BLBP", "ITTAGE", "BTB")


class ClientError(RuntimeError):
    """The server answered with an error, or the connection broke."""


class ServeClient:
    """A lockstep (request → response) protocol client."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one message, await one response; raise on ``error``."""
        self._writer.write(protocol.encode(message))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ClientError("server closed the connection")
        response = protocol.decode(line)
        if response.get("t") == "error":
            raise ClientError(response.get("error", "unknown server error"))
        return response

    async def hello(self) -> Dict[str, Any]:
        return await self.request({"t": "hello"})

    async def open(
        self,
        session_id: str,
        predictor: str,
        warmup: int = 0,
    ) -> Dict[str, Any]:
        return await self.request(
            {
                "t": "open",
                "session": session_id,
                "predictor": predictor,
                "warmup": warmup,
            }
        )

    async def events(
        self, session_id: str, events: Sequence[Event]
    ) -> Dict[str, Any]:
        return await self.request(
            {
                "t": "events",
                "session": session_id,
                "events": [list(event) for event in events],
            }
        )

    async def close_session(self, session_id: str) -> Dict[str, Any]:
        return await self.request({"t": "close", "session": session_id})

    async def stats(self, sessions: bool = False) -> Dict[str, Any]:
        return await self.request({"t": "stats", "sessions": sessions})

    async def drain(self) -> Dict[str, Any]:
        return await self.request({"t": "drain"})

    async def shutdown(self) -> Dict[str, Any]:
        return await self.request({"t": "shutdown"})

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


# ----------------------------------------------------------------------
# Deterministic load streams
# ----------------------------------------------------------------------


def stream_for(
    stream_index: int, num_events: int, mean_gap: float = 8.0
) -> List[Event]:
    """The deterministic event stream for one stream index.

    Derived from a virtual-dispatch workload trace (indirect calls,
    filler conditionals, instruction gaps), so driven sessions exercise
    the same predictor machinery as the batch suite.

    The stream holds at least ``num_events`` events, not exactly that
    many: the generator emits whole dispatch iterations (12 events each
    with these settings) and stops at the first that reaches
    ``num_events``, so ``stream_for(1, 832)`` has 840.  The streams are
    pinned by digest (``benchmarks/perf/golden.json``), so the overshoot
    stays.
    """
    from repro.workloads.vdispatch import VirtualDispatchSpec

    spec = VirtualDispatchSpec(
        name=f"serve-load-{stream_index}",
        seed=0xC0FFEE + stream_index,
        num_records=num_events,
        num_sites=4,
        num_types=4,
        determinism=0.85,
        mean_gap=mean_gap,
        filler_conditionals=6,
    )
    return protocol.trace_events(spec.generate())


def session_plan(
    sessions: int,
    predictors: Sequence[str] = DEFAULT_PREDICTORS,
    distinct_streams: int = 16,
) -> List[Tuple[str, str, int]]:
    """The driven fleet: ``(session_id, predictor_key, stream_index)``.

    Stream indices repeat every ``distinct_streams`` sessions — sessions
    sharing a stream are the server's fusion candidates.
    """
    distinct = max(1, min(distinct_streams, sessions))
    return [
        (
            f"load-{index:05d}",
            predictors[index % len(predictors)],
            index % distinct,
        )
        for index in range(sessions)
    ]


# ----------------------------------------------------------------------
# The windowed-pipelining load driver
# ----------------------------------------------------------------------


async def _drive_connection(
    host: str,
    port: int,
    assigned: List[Tuple[str, str, List[Event]]],
    chunk: int,
    window: int,
    do_open: bool,
    do_close: bool,
    warmup: int,
    outcome: Dict[str, Any],
) -> None:
    """Drive one connection's share of the fleet.

    Writes up to ``window`` event messages ahead of the responses read
    back; responses arrive in request order, so a deque of expected
    session ids keeps the accounting straight.
    """
    reader, writer = await asyncio.open_connection(
        host, port, limit=protocol.MAX_LINE_BYTES
    )
    try:
        client = ServeClient(reader, writer)
        if do_open:
            for session_id, predictor, _ in assigned:
                opened = await client.open(
                    session_id, predictor, warmup=warmup
                )
                if opened["resumed"]:
                    outcome["resumed"] += 1

        in_flight: "deque[Tuple[str, int]]" = deque()

        async def read_one() -> None:
            line = await reader.readline()
            if not line:
                raise ClientError("server closed the connection mid-stream")
            response = protocol.decode(line)
            if response.get("t") == "error":
                raise ClientError(response["error"])
            session_id, sent = in_flight.popleft()
            outcome["events"] += sent
            for entry in response["out"]:
                if entry is not None:
                    outcome["predictions"] += 1
                    if not entry[1]:
                        outcome["mispredictions"] += 1

        # Interleave sessions round-robin so chunks from different
        # sessions are simultaneously in flight (fusion fodder).
        queues: "deque[Tuple[str, deque]]" = deque()
        for session_id, _, events in assigned:
            chunks: deque = deque(
                events[start : start + chunk]
                for start in range(0, len(events), chunk)
            )
            if chunks:
                queues.append((session_id, chunks))

        while queues:
            session_id, chunks = queues.popleft()
            chunk_events = chunks.popleft()
            if chunks:
                queues.append((session_id, chunks))
            writer.write(
                protocol.encode(
                    {
                        "t": "events",
                        "session": session_id,
                        "events": [list(event) for event in chunk_events],
                    }
                )
            )
            in_flight.append((session_id, len(chunk_events)))
            if len(in_flight) >= window:
                await writer.drain()
                await read_one()
        await writer.drain()
        while in_flight:
            await read_one()

        if do_close:
            for session_id, _, _ in assigned:
                closed = await client.close_session(session_id)
                outcome["closed"][session_id] = {
                    "state_hash": closed["state_hash"],
                    "mpki": closed["result"]["mpki"],
                    "events": closed["result"]["events"],
                }
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


async def drive_load(
    host: str,
    port: int,
    sessions: int = 50,
    events_per_session: int = 200,
    predictors: Sequence[str] = DEFAULT_PREDICTORS,
    chunk: int = 64,
    window: int = 16,
    connections: int = 8,
    distinct_streams: int = 16,
    offset: int = 0,
    count: Optional[int] = None,
    do_open: bool = True,
    do_close: bool = True,
    warmup: int = 0,
) -> Dict[str, Any]:
    """Drive ``sessions`` concurrent sessions; return throughput stats.

    ``offset``/``count`` select a slice of every session's deterministic
    stream (default: all of it), which is how a driver resumes sessions
    against a restarted server: run once with the first half, restart,
    run again with ``offset`` at the cut and ``do_open`` resuming.
    """
    plan = session_plan(sessions, predictors, distinct_streams)
    streams: Dict[int, List[Event]] = {}
    for _, _, stream_index in plan:
        if stream_index not in streams:
            streams[stream_index] = stream_for(
                stream_index, events_per_session
            )
    stop = (
        events_per_session
        if count is None
        else min(offset + count, events_per_session)
    )

    connections = max(1, min(connections, sessions))
    shares: List[List[Tuple[str, str, List[Event]]]] = [
        [] for _ in range(connections)
    ]
    for index, (session_id, predictor, stream_index) in enumerate(plan):
        events = streams[stream_index][offset:stop]
        shares[index % connections].append((session_id, predictor, events))

    outcome: Dict[str, Any] = {
        "events": 0,
        "predictions": 0,
        "mispredictions": 0,
        "resumed": 0,
        "closed": {},
    }
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _drive_connection(
                host, port, share, chunk, window,
                do_open, do_close, warmup, outcome,
            )
            for share in shares
            if share
        )
    )
    elapsed = time.perf_counter() - started
    outcome.update(
        {
            "sessions": sessions,
            "connections": connections,
            "chunk": chunk,
            "window": window,
            "distinct_streams": min(max(1, distinct_streams), sessions),
            "predictors": list(predictors),
            "elapsed_seconds": round(elapsed, 4),
            "events_per_second": round(outcome["events"] / elapsed, 2)
            if elapsed > 0
            else 0.0,
        }
    )
    return outcome


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.client",
        description="load driver for the repro prediction server",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--sessions", type=int, default=50)
    parser.add_argument("--events", type=int, default=200,
                        help="events per session (default 200)")
    parser.add_argument(
        "--predictors", default=",".join(DEFAULT_PREDICTORS),
        help="comma list of registry keys to rotate across sessions",
    )
    parser.add_argument("--chunk", type=int, default=64,
                        help="events per message (default 64)")
    parser.add_argument("--window", type=int, default=16,
                        help="messages in flight per connection")
    parser.add_argument("--connections", type=int, default=8)
    parser.add_argument("--distinct-streams", type=int, default=16,
                        help="distinct event streams across the fleet")
    parser.add_argument("--offset", type=int, default=0,
                        help="start each session's stream at this event")
    parser.add_argument("--count", type=int, default=None,
                        help="events per session to send (default: rest)")
    parser.add_argument("--no-close", dest="close", action="store_false",
                        help="leave sessions open (for drain/resume tests)")
    parser.add_argument("--warmup", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="print the full outcome as JSON")
    args = parser.parse_args(argv)

    outcome = asyncio.run(
        drive_load(
            args.host,
            args.port,
            sessions=args.sessions,
            events_per_session=args.events,
            predictors=[p.strip() for p in args.predictors.split(",")],
            chunk=args.chunk,
            window=args.window,
            connections=args.connections,
            distinct_streams=args.distinct_streams,
            offset=args.offset,
            count=args.count,
            do_close=args.close,
            warmup=args.warmup,
        )
    )
    if args.json:
        print(json.dumps(outcome, indent=2, sort_keys=True))
    else:
        print(
            f"{outcome['sessions']} sessions, {outcome['events']} events in "
            f"{outcome['elapsed_seconds']}s "
            f"({outcome['events_per_second']} events/s, "
            f"{outcome['mispredictions']}/{outcome['predictions']} "
            f"mispredictions)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
