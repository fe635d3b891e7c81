"""The versioned snapshot/restore protocol every stateful component speaks.

Three methods, one contract (see ``docs/checkpointing.md``):

* ``state_dict() -> dict`` — a JSON-ready, self-describing snapshot of
  the component's *architectural* state: every bit a hardware
  implementation would latch.  Derived caches (memoized hashes, the
  IBTB candidate cache, pending fold batches) are flushed or excluded —
  they are recomputable and must not leak into the snapshot.
* ``load_state(d)`` — restore a freshly constructed component (same
  configuration) from a snapshot.  Geometry mismatches raise
  :class:`StateError` instead of silently corrupting tables.
* ``state_hash() -> str`` — a canonical SHA-256 over the snapshot, for
  cross-process determinism checks and golden fixtures.  Two predictors
  that would behave identically on every future branch hash equal —
  including a restored predictor versus one that was never suspended.

Snapshots use only JSON scalar types plus one structured value: NumPy
arrays travel as ``{"__ndarray__": <base64>, "dtype", "shape"}`` via
:func:`encode_array`/:func:`decode_array`, which keeps checkpoint files
plain JSON while preserving dtype and shape exactly.

Every ``state_dict`` carries an envelope — ``{"v": <protocol version>,
"kind": "<ClassName>", ...}`` — validated by :func:`check_state` on
load.  Bump :data:`STATE_PROTOCOL_VERSION` only for changes that make
old snapshots unreadable; adding a predictor or a field to a *new*
``kind`` is not a version bump.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any, Dict, List

import numpy as np

#: Version of the snapshot envelope itself (not of any one predictor).
STATE_PROTOCOL_VERSION = 1


class StateError(ValueError):
    """A snapshot could not be produced, validated, or restored."""


def encode_array(array: np.ndarray) -> Dict[str, Any]:
    """Encode a NumPy array as a JSON-ready dict preserving dtype/shape."""
    contiguous = np.ascontiguousarray(array)
    return {
        "__ndarray__": base64.b64encode(contiguous.tobytes()).decode("ascii"),
        "dtype": str(contiguous.dtype),
        "shape": list(contiguous.shape),
    }


def decode_array(payload: Dict[str, Any]) -> np.ndarray:
    """Decode :func:`encode_array` output back into a writable array."""
    try:
        raw = base64.b64decode(payload["__ndarray__"])
        array = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
        return array.reshape(payload["shape"]).copy()
    except (KeyError, TypeError, ValueError) as exc:
        raise StateError(f"malformed array payload: {exc}") from exc


def _reject_unencodable(value: Any) -> Any:
    raise StateError(
        f"state dicts must be JSON-ready; cannot serialize "
        f"{type(value).__name__} ({value!r}) — encode arrays with "
        f"encode_array() and convert NumPy scalars with int()/float()"
    )


def canonical_json(state: Dict[str, Any]) -> str:
    """The canonical serialization hashes and checkpoints are built on:
    sorted keys, no whitespace, NaN rejected, non-JSON types rejected."""
    try:
        return json.dumps(
            state,
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
            default=_reject_unencodable,
        )
    except ValueError as exc:
        if isinstance(exc, StateError):
            raise
        raise StateError(f"state dict is not canonically serializable: {exc}") from exc


class CanonicalText:
    """One value's canonical JSON, rendered ahead of time.

    A state view handed to :func:`hash_state` may carry one in place of
    a large value whose text it can render faster than ``json.dumps``
    walks it (BLBP's IBTB sets).  :func:`canonical_json` refuses it:
    snapshots stay plain JSON.
    """

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


#: Bytes that JSON writes unescaped inside a string: printable ASCII
#: but the quote and the backslash.
_UNESCAPED = bytes(range(0x20, 0x7F)).replace(b'"', b"").replace(b"\\", b"")

_NESTED = frozenset((dict, list, tuple, CanonicalText))


def _hollow(value: Any, marker: str, parts: List[tuple]) -> Any:
    """``value`` with every array payload and :class:`CanonicalText`
    replaced by the placeholder ``marker + <index>``; ``parts[index]``
    holds the bytes the placeholder's JSON stands for.

    A module-level function, so a walk leaves no reference cycle (and
    no garbage holding the blobs) behind.
    """
    kind = type(value)
    if kind is dict:
        hollow = {}
        for key, item in value.items():
            if key == "__ndarray__" and type(item) is str:
                blob = item.encode("utf-8")
                if not blob.translate(None, _UNESCAPED):
                    parts.append((b'"', blob, b'"'))
                    item = f"{marker}{len(parts) - 1}"
            elif type(item) in _NESTED:
                item = _hollow(item, marker, parts)
            hollow[key] = item
        return hollow
    if kind is CanonicalText:
        parts.append((value.text.encode("utf-8"),))
        return f"{marker}{len(parts) - 1}"
    if (kind is list or kind is tuple) and any(
        type(item) in _NESTED for item in value
    ):
        return [_hollow(item, marker, parts) for item in value]
    return value


def hash_state(state: Dict[str, Any]) -> str:
    """SHA-256 hex digest of the canonical serialization of ``state``.

    The digest is that of ``canonical_json(state)``, but the large
    strings never pass through ``json.dumps``: a skeleton with indexed
    placeholders in their place is serialized instead, and its pieces
    and the array payloads (and any :class:`CanonicalText`) are fed to
    SHA-256 in document order.
    """
    salt = 0
    while True:
        marker = f"\x00part{salt}:"
        parts: List[tuple] = []
        pieces = canonical_json(_hollow(state, marker, parts)).split(
            json.dumps(marker)[:-1]
        )
        # Each placeholder splits once.  A string or key of the state's
        # own whose JSON holds the marker text splits too; then another
        # marker is tried.
        if len(pieces) == len(parts) + 1:
            break
        salt += 1
    digest = hashlib.sha256(pieces[0].encode("utf-8"))
    for piece in pieces[1:]:
        index, _, rest = piece.partition('"')
        for chunk in parts[int(index)]:
            digest.update(chunk)
        digest.update(rest.encode("utf-8"))
    return digest.hexdigest()


def dataclass_fingerprint(config: Any) -> str:
    """Stable hash of a (frozen) configuration dataclass.

    Predictor snapshots embed this so ``load_state`` can reject a
    snapshot taken under a different configuration instead of silently
    loading geometry-compatible but semantically different state.
    """
    import dataclasses

    return hash_state(dataclasses.asdict(config))


def check_state(state: Any, kind: str) -> Dict[str, Any]:
    """Validate a snapshot's envelope; return it for chaining.

    Raises:
        StateError: when ``state`` is not a dict, names a different
            component ``kind``, or carries an unsupported protocol
            version.
    """
    if not isinstance(state, dict):
        raise StateError(
            f"expected a state dict for {kind}, got {type(state).__name__}"
        )
    found = state.get("kind")
    if found != kind:
        raise StateError(f"state kind mismatch: expected {kind!r}, got {found!r}")
    version = state.get("v")
    if version != STATE_PROTOCOL_VERSION:
        raise StateError(
            f"unsupported state version {version!r} for {kind} "
            f"(this build speaks v{STATE_PROTOCOL_VERSION})"
        )
    return state


def require(condition: bool, message: str) -> None:
    """Geometry/invariant guard for ``load_state`` implementations."""
    if not condition:
        raise StateError(message)


class Stateful:
    """Mixin declaring the protocol; ``state_hash`` comes for free.

    ``__slots__`` is empty so slotted classes can inherit without
    growing a ``__dict__``.
    """

    __slots__ = ()

    def state_dict(self) -> Dict[str, Any]:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement state_dict()"
        )

    def load_state(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not implement load_state()"
        )

    def hash_view(self) -> Dict[str, Any]:
        """What :meth:`state_hash` hashes: :meth:`state_dict`, or a view
        of it that may carry :class:`CanonicalText`."""
        return self.state_dict()

    def state_hash(self) -> str:
        """Canonical hash of :meth:`state_dict` (see :func:`hash_state`)."""
        return hash_state(self.hash_view())


__all__ = [
    "STATE_PROTOCOL_VERSION",
    "CanonicalText",
    "StateError",
    "Stateful",
    "canonical_json",
    "check_state",
    "dataclass_fingerprint",
    "decode_array",
    "encode_array",
    "hash_state",
    "require",
]
