"""The distributed job protocol: newline-delimited JSON over a stream.

One message per line, UTF-8 JSON, ``\\n``-terminated, with a ``"t"``
type tag — the same framing discipline as the serve wire protocol
(:mod:`repro.serve.protocol`), reused here for the coordinator ↔ worker
job channel.  The transport is any byte stream: a TCP socket
(:class:`~repro.dist.pool.NodePool`) or a launched process's
stdin/stdout (:class:`~repro.dist.pool.SSHPool`); the protocol is
identical on both.

Coordinator → worker requests:

* ``{"t": "hello", "protocol": 1}`` — handshake.
* ``{"t": "ping"}`` — liveness probe (``repro nodes``).
* ``{"t": "has_trace", "hash": h}`` — is spill ``h`` in the node's
  content-addressed store?
* ``{"t": "put_trace", "hash": h, "data": b64, "last": bool}`` — ship
  one chunk of a spill file; ``last`` completes (and verifies) it.
* ``{"t": "run_unit", "cells": [...], "fused": bool, "timeout": s}`` —
  execute one scheduling unit (a solo cell or a fused group).
* ``{"t": "stats"}`` — worker statistics.
* ``{"t": "shutdown"}`` — finish and exit.

Worker → coordinator responses:

* ``{"t": "welcome", "protocol": 1, "node": id, "pid": n, "cpus": n}``
* ``{"t": "pong"}``
* ``{"t": "trace_state", "hash": h, "present": bool, "bytes": n}``
* per ``run_unit``: one ``{"t": "cell_done", "index": i, "result":
  {...}, "duration": s}`` per member cell (in member order), then
  ``{"t": "unit_done", "cells": n}``, all in one write; or
  ``{"t": "unit_failed", "message": m}`` when the unit raised (the
  coordinator owns retries), with ``"warning": [class name, text]``
  when what it raised was a warning turned into an error.
* ``{"t": "stats", ...}`` / ``{"t": "bye"}`` / ``{"t": "error", ...}``;
  a malformed request line (not JSON, no ``"t"`` tag, over the line
  cap) is answered with ``error`` and the worker keeps serving.

Cells travel as plain dicts (:func:`cell_to_wire` /
:func:`cell_from_wire`): the trace is referenced **by content hash**
(resolved against the node's :class:`~repro.dist.store.TraceStore`, so
each distinct spill crosses the wire at most once per node), and the
factory travels as its ``module:qualname`` string when importable or a
base64 pickle otherwise.  Results reuse the journal serialization
(:func:`repro.exec.journal.result_to_json`), which is what keeps a
merged distributed journal byte-identical to a single-node one.
"""

from __future__ import annotations

import base64
import pickle
import socket
from typing import Any, Dict, List, Optional

from repro.exec.plan import CellSpec, FactoryRef, PlanError

# The framing (compact-JSON encode, type-tag-validating decode) is the
# serve protocol's, verbatim — one wire discipline across subsystems.
from repro.serve.protocol import ProtocolError as _FramingError
from repro.serve.protocol import decode as _decode
from repro.serve.protocol import encode  # noqa: F401  (re-exported)

#: Version of the job protocol; sent in ``welcome`` and checked by the
#: coordinator.  Bump only for changes that break existing workers.
PROTOCOL_VERSION = 1

#: Spill bytes shipped per ``put_trace`` chunk (base64 inflates by 4/3,
#: keeping encoded lines well under the serve layer's 4 MiB line cap).
TRACE_CHUNK_BYTES = 1 << 20


class DistProtocolError(ValueError):
    """A malformed or out-of-contract job-protocol message."""


def set_nodelay(sock: socket.socket) -> None:
    """Turn off Nagle's algorithm on one end of a job-protocol socket.

    Both ends call this.  Every exchange is a small request answered
    by small replies, so with Nagle on, a reply written after an
    unacknowledged one waits for the peer's delayed ACK: about 40 ms
    on Linux, as long as a typical unit runs.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def decode(line: bytes) -> Dict[str, Any]:
    """Decode one job-protocol line (serve framing, dist error type)."""
    try:
        return _decode(line)
    except _FramingError as exc:
        raise DistProtocolError(str(exc)) from exc


def factory_to_wire(factory: FactoryRef) -> Dict[str, str]:
    """A :class:`FactoryRef` as a wire dict (dotted path or pickle)."""
    if factory.dotted is not None:
        return {"dotted": factory.dotted}
    try:
        blob = pickle.dumps(factory.obj)
    except Exception as exc:  # noqa: BLE001 - pickle raises many types
        raise DistProtocolError(
            f"factory cannot cross the node boundary: {exc!r}"
        ) from exc
    return {"pickle": base64.b64encode(blob).decode("ascii")}


def factory_from_wire(payload: Dict[str, str]) -> FactoryRef:
    """Rebuild a :class:`FactoryRef` from :func:`factory_to_wire`."""
    if not isinstance(payload, dict):
        raise DistProtocolError(f"factory must be an object, got {payload!r}")
    if "dotted" in payload:
        return FactoryRef(dotted=payload["dotted"])
    if "pickle" in payload:
        try:
            obj = pickle.loads(base64.b64decode(payload["pickle"]))
        except Exception as exc:  # noqa: BLE001
            raise DistProtocolError(
                f"factory pickle failed to load: {exc!r}"
            ) from exc
        return FactoryRef(obj=obj)
    raise DistProtocolError("factory needs a 'dotted' or 'pickle' key")


def cell_to_wire(spec: CellSpec, trace_hash: str) -> Dict[str, Any]:
    """A :class:`CellSpec` as a wire dict, trace referenced by hash."""
    return {
        "index": spec.index,
        "trace": spec.trace_name,
        "predictor": spec.predictor_name,
        "hash": trace_hash,
        "factory": factory_to_wire(spec.factory),
        "ras_depth": spec.ras_depth,
        "warmup": spec.warmup_records,
        "records": spec.records,
        "profile": bool(spec.profile),
        "checkpoint_every": spec.checkpoint_every,
        "backend": spec.backend,
    }


def cell_from_wire(
    payload: Dict[str, Any],
    trace_path: str,
    checkpoint_path: Optional[str] = None,
) -> CellSpec:
    """Rebuild a :class:`CellSpec` against node-local paths.

    ``trace_path`` is the node's content-addressed store path for the
    cell's trace hash; ``checkpoint_path`` a node-local file when
    mid-trace checkpointing is on.
    """
    try:
        return CellSpec(
            index=int(payload["index"]),
            trace_name=str(payload["trace"]),
            predictor_name=str(payload["predictor"]),
            trace_path=trace_path,
            factory=factory_from_wire(payload["factory"]),
            ras_depth=int(payload.get("ras_depth", 32)),
            warmup_records=int(payload.get("warmup", 0)),
            records=int(payload.get("records", 0)),
            profile=bool(payload.get("profile", False)),
            checkpoint_every=int(payload.get("checkpoint_every", 0)),
            checkpoint_path=checkpoint_path,
            backend=str(payload.get("backend", "scalar")),
        )
    except (KeyError, TypeError, ValueError, PlanError) as exc:
        raise DistProtocolError(f"malformed wire cell: {exc!r}") from exc


def require_hash(message: Dict[str, Any]) -> str:
    """Extract and validate the ``hash`` field of a trace message."""
    value = message.get("hash")
    if not isinstance(value, str) or not value:
        raise DistProtocolError("message needs a non-empty string 'hash'")
    if len(value) > 128 or not all(c in "0123456789abcdef" for c in value):
        raise DistProtocolError(f"implausible content hash {value!r}")
    return value


def chunk_data(message: Dict[str, Any]) -> bytes:
    """Decode the base64 ``data`` field of a ``put_trace`` chunk."""
    raw = message.get("data", "")
    if not isinstance(raw, str):
        raise DistProtocolError("'data' must be a base64 string")
    try:
        return base64.b64decode(raw, validate=True)
    except Exception as exc:  # noqa: BLE001 - binascii.Error et al.
        raise DistProtocolError(f"undecodable chunk data: {exc}") from exc


def error_message(error: str, **extra: Any) -> Dict[str, Any]:
    """Build an ``error`` response."""
    message: Dict[str, Any] = {"t": "error", "error": error}
    message.update(extra)
    return message


def unit_to_wire(
    cells: List[Dict[str, Any]],
    fused: bool,
    timeout: Optional[float],
) -> Dict[str, Any]:
    """Build a ``run_unit`` request."""
    return {
        "t": "run_unit",
        "cells": cells,
        "fused": bool(fused),
        **({"timeout": timeout} if timeout else {}),
    }


__all__ = [
    "DistProtocolError",
    "PROTOCOL_VERSION",
    "TRACE_CHUNK_BYTES",
    "cell_from_wire",
    "cell_to_wire",
    "chunk_data",
    "decode",
    "encode",
    "error_message",
    "factory_from_wire",
    "factory_to_wire",
    "require_hash",
    "set_nodelay",
    "unit_to_wire",
]
