"""The serve wire protocol: newline-delimited JSON messages.

One message per line, UTF-8 JSON, ``\\n``-terminated.  Every message is
an object with a ``"t"`` type tag.  The protocol is deliberately small —
seven request types, one response shape each — and is specified in full
in ``docs/serving.md``; this module is the single source of truth for
encoding, decoding, and validation on both ends.

Client → server requests:

* ``{"t": "hello"}`` — protocol handshake.
* ``{"t": "open", "session": id, "predictor": key, "warmup": n}`` —
  create (or resume) a predictor session.  ``predictor`` is a
  :mod:`repro.registry` key; ``warmup`` (optional, default 0) is the
  number of leading records whose mispredictions are not counted.
* ``{"t": "events", "session": id, "events": [[pc, bt, taken, target,
  gap], ...]}`` — stream branch events.  Each event is a compact
  5-element array (``bt`` is the integer :class:`~repro.trace.record.
  BranchType`; ``gap`` is the non-branch instruction gap).
* ``{"t": "close", "session": id}`` — finish a session: returns its
  final metrics and ``state_hash`` and deletes its on-disk checkpoint.
* ``{"t": "stats"}`` — server statistics (the ``/stats`` endpoint).
* ``{"t": "drain"}`` — checkpoint every live session to the state dir.
* ``{"t": "shutdown"}`` — drain, then stop the server.

Server → client responses:

* ``{"t": "welcome", "protocol": 1, ...}``
* ``{"t": "opened", "session": id, "resumed": bool, "events": cursor}``
* ``{"t": "out", "session": id, "events": cursor, "out": [...]}`` —
  one entry per submitted event: ``null`` for events that carry no
  prediction (conditionals and direct branches), else ``[prediction,
  correct]`` where ``prediction`` may be ``null`` (a cold predictor or
  empty RAS) and ``correct`` is 0/1.
* ``{"t": "closed", "session": id, "state_hash": h, "result": {...}}``
* ``{"t": "stats", ...}`` / ``{"t": "drained", "sessions": n}`` /
  ``{"t": "error", "error": msg, ...}``
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence, Tuple

#: Version of the wire protocol; sent in ``welcome`` and checked by the
#: client.  Bump only for changes that break existing clients.
PROTOCOL_VERSION = 1

#: Upper bound on one encoded message line (the asyncio reader limit).
#: 4 MiB comfortably holds tens of thousands of events per message.
MAX_LINE_BYTES = 4 * 1024 * 1024

#: Valid integer branch-type values (``repro.trace.record.BranchType``).
_BRANCH_TYPES = frozenset(range(6))

#: Event addresses are 64-bit, like ``Trace``'s ``uint64`` pc and target
#: columns; a wider one would fail inside the predictor mid-step.
_ADDRESS_LIMIT = 1 << 64


class ProtocolError(ValueError):
    """A malformed or out-of-contract protocol message."""


def encode(message: Dict[str, Any]) -> bytes:
    """Encode one message as a compact JSON line (with trailing newline)."""
    return (
        json.dumps(message, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Decode one received line into a message dict.

    Raises:
        ProtocolError: when the line is not a JSON object or has no
            ``"t"`` type tag.
    """
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(message).__name__}"
        )
    tag = message.get("t")
    if not isinstance(tag, str):
        raise ProtocolError("message has no string 't' type tag")
    return message


#: One parsed branch event: ``(pc, branch_type, taken, target, gap)``.
Event = Tuple[int, int, bool, int, int]


def _check_address(field: str, value: Any) -> None:
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or not 0 <= value < _ADDRESS_LIMIT
    ):
        raise ProtocolError(
            f"event {field} must be an int in [0, 2**64), got {value!r}"
        )


def parse_event(raw: Any) -> Event:
    """Validate and normalize one wire event array.

    Raises:
        ProtocolError: when the event is not a well-formed 5-element
            ``[pc, branch_type, taken, target, gap]`` array.
    """
    if not isinstance(raw, (list, tuple)) or len(raw) != 5:
        raise ProtocolError(
            f"event must be a [pc, type, taken, target, gap] array, "
            f"got {raw!r}"
        )
    pc, branch_type, taken, target, gap = raw
    _check_address("pc", pc)
    if isinstance(branch_type, (list, dict)) or (
        branch_type not in _BRANCH_TYPES
    ):
        raise ProtocolError(f"unknown branch type {branch_type!r}")
    if not isinstance(taken, (bool, int)):
        raise ProtocolError(f"event taken must be a bool, got {taken!r}")
    _check_address("target", target)
    if not isinstance(gap, int) or isinstance(gap, bool) or gap < 0:
        raise ProtocolError(
            f"event gap must be a non-negative int, got {gap!r}"
        )
    return int(pc), int(branch_type), bool(taken), int(target), int(gap)


def parse_events(raw: Any) -> List[Event]:
    """Validate a full ``events`` payload (a non-empty array of events).

    One pass: an entry that JSON decoding makes well-formed, exact-type
    (int addresses, type and gap, bool ``taken``) is accepted inline;
    any other goes to :func:`parse_event`, so every accepted value and
    every error is the per-entry parser's.
    """
    if not isinstance(raw, list) or not raw:
        raise ProtocolError("'events' must be a non-empty array")
    events: List[Event] = []
    append = events.append
    for entry in raw:
        if type(entry) is list and len(entry) == 5:
            pc, branch_type, taken, target, gap = entry
            if (
                type(pc) is int and 0 <= pc < _ADDRESS_LIMIT
                and type(branch_type) is int and branch_type in _BRANCH_TYPES
                and type(taken) is bool
                and type(target) is int and 0 <= target < _ADDRESS_LIMIT
                and type(gap) is int and gap >= 0
            ):
                append((pc, branch_type, taken, target, gap))
                continue
        append(parse_event(entry))
    return events


def trace_events(trace) -> List[Event]:
    """A :class:`~repro.trace.stream.Trace` as a list of wire events.

    The canonical bridge between the batch world and the serve world:
    streaming these events through a session reproduces ``simulate`` on
    the trace bit-for-bit.
    """
    return [
        (int(pc), int(bt), bool(tk), int(tg), int(gap))
        for pc, bt, tk, tg, gap in zip(
            trace.pcs.tolist(),
            trace.types.tolist(),
            trace.takens.tolist(),
            trace.targets.tolist(),
            trace.gaps.tolist(),
        )
    ]


def require_session_id(message: Dict[str, Any]) -> str:
    """Extract and validate the ``session`` field of a message."""
    session_id = message.get("session")
    if not isinstance(session_id, str) or not session_id:
        raise ProtocolError("message needs a non-empty string 'session' id")
    if len(session_id) > 256:
        raise ProtocolError("session id longer than 256 characters")
    return session_id


def error_message(error: str, **extra: Any) -> Dict[str, Any]:
    """Build an ``error`` response."""
    message: Dict[str, Any] = {"t": "error", "error": error}
    message.update(extra)
    return message


__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "Event",
    "ProtocolError",
    "decode",
    "encode",
    "error_message",
    "parse_event",
    "parse_events",
    "require_session_id",
    "trace_events",
]
