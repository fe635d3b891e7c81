"""The zero-copy trace plane: aligned column files and the per-worker cache.

A campaign simulates the same immutable trace under many predictors, often
from many worker processes at once.  Trace spills (``RPTRACE2``) store
each column as raw little-endian bytes at a 64-byte-aligned offset, so
workers attach them with ``np.memmap``: the page cache holds one physical
copy of the columns however many processes read them, and attaching is
O(header).  :func:`write_columns` and :func:`read_columns` are the
layout's only writer and reader::

    magic | <I header_len | JSON header | pad | column bytes ...

The JSON header (sorted keys) carries the file's own fields plus a column
table of ``{name, dtype, offset, bytes}`` entries.  A spill's header holds
the trace name, record count and SHA-256 content hash (the planner skips
re-spilling a matching trace); ``takens`` is stored as ``u1`` and viewed
as ``bool`` on attach, which keeps the view zero-copy.

:class:`TraceCache` fronts :func:`attach_trace` with a small LRU keyed by
``(path, size, mtime_ns)``, so a worker maps each spill once however many
cells reference it.  An entry also holds the trace's derived planes by RAS
depth, so a plane leaves the cache with its trace.  :func:`cached_trace`
uses a module-level instance as the per-worker-process cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace.stream import Trace


def atomic_write_bytes(
    path: Union[str, Path],
    *parts: Any,
    verify: Optional[Callable[[str], None]] = None,
) -> None:
    """Atomically publish the concatenated buffers ``parts`` at ``path``.

    The bytes land via a uniquely named temp sibling, an fsync, and
    ``os.replace`` — readers only ever see a complete file, concurrent
    writers of one path cannot tear each other's staging file, and a
    process killed mid-write leaves the previous version intact.
    ``verify``, if given, is called with the staged path before the
    rename; whatever it raises aborts the publish.
    """
    path = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", dir=path.parent
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            for part in parts:
                handle.write(part)
            handle.flush()
            os.fsync(handle.fileno())
        if verify is not None:
            verify(temp_name)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


_ALIGNMENT = 64

#: ``(name, on-disk dtype, values)`` — one column of a column file.
Column = Tuple[str, str, np.ndarray]


def _pad_to(offset: int) -> int:
    remainder = offset % _ALIGNMENT
    return offset if remainder == 0 else offset + (_ALIGNMENT - remainder)


def write_columns(
    path: Union[str, Path], magic: bytes, header: dict, columns: Sequence[Column]
) -> None:
    """Atomically publish ``header`` and ``columns`` (in order) at ``path``."""
    arrays = [
        (name, dtype, np.ascontiguousarray(values, dtype=np.dtype(dtype)))
        for name, dtype, values in columns
    ]
    prefix = len(magic) + 4
    # Offsets feed the header's length and the header's length feeds the
    # offsets, so re-measure from zero offsets until they are stable.
    offsets = [0] * len(arrays)
    while True:
        table = [
            {"name": name, "dtype": dtype, "offset": offset, "bytes": array.nbytes}
            for (name, dtype, array), offset in zip(arrays, offsets)
        ]
        encoded = json.dumps({**header, "columns": table}, sort_keys=True).encode()
        cursor, settled = prefix + len(encoded), []
        for _, _, array in arrays:
            cursor = _pad_to(cursor)
            settled.append(cursor)
            cursor += array.nbytes
        if settled == offsets:
            break
        offsets = settled

    parts: List[Any] = [magic, len(encoded).to_bytes(4, "little"), encoded]
    cursor = prefix + len(encoded)
    for offset, (_, _, array) in zip(offsets, arrays):
        parts += [bytes(offset - cursor), array]
        cursor = offset + array.nbytes
    atomic_write_bytes(path, *parts)


def _read_header(path: Union[str, Path], magic: bytes) -> dict:
    with open(path, "rb") as handle:
        if handle.read(len(magic)) != magic:
            raise ValueError(f"{path} has no {magic.decode()} magic")
        header_len = int.from_bytes(handle.read(4), "little")
        return json.loads(handle.read(header_len).decode("utf-8"))


def read_columns(
    path: Union[str, Path], magic: bytes
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """The header and columns of a ``magic`` column file, zero-copy.

    Each column is a read-only ``np.memmap`` view over the page cache,
    keyed by name.  Raises ``ValueError`` for a file of another format or
    a column whose byte count is not a whole number of its dtype.
    """
    header = _read_header(path, magic)
    columns = {}
    for entry in header["columns"]:
        dtype = np.dtype(entry["dtype"])
        count, misaligned = divmod(entry["bytes"], dtype.itemsize)
        if misaligned:
            raise ValueError(f"{path}: column {entry['name']} byte count misaligned")
        columns[entry["name"]] = (
            np.memmap(
                path, dtype=dtype, mode="r", offset=entry["offset"], shape=(count,)
            )
            if count
            else np.empty(0, dtype=dtype)
        )
    return header, columns


MAGIC_V2 = b"RPTRACE2"

#: Column storage order and fixed on-disk dtypes (explicitly little-endian,
#: so spills are portable and hashes machine-independent).
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "<u8"),
    ("types", "u1"),
    ("takens", "u1"),
    ("targets", "<u8"),
    ("gaps", "<u4"),
)


def _trace_columns(trace: Trace) -> List[Column]:
    """The trace's columns in storage order and their on-disk dtypes."""
    return [
        (name, dtype, np.ascontiguousarray(getattr(trace, name), dtype=np.dtype(dtype)))
        for name, dtype in _COLUMNS
    ]


def _content_hash(name: str, columns: Sequence[Column]) -> str:
    digest = hashlib.sha256(name.encode("utf-8") + b"\x00")
    for _, _, array in columns:
        digest.update(array)
    return digest.hexdigest()


def record_nbytes() -> int:
    """On-disk bytes per record across all spill columns.

    The basis for spill-size estimates (``repro simulate --dry-run``)
    without writing anything: header and alignment padding are a small
    constant on top.
    """
    return sum(np.dtype(dtype).itemsize for _, dtype in _COLUMNS)


def trace_content_hash(trace: Trace) -> str:
    """SHA-256 over the trace name and canonical column bytes.

    Stable across machines and NumPy versions: columns are hashed in their
    fixed little-endian storage dtypes, not native memory layout.
    """
    return _content_hash(trace.name, _trace_columns(trace))


def write_trace_v2(
    trace: Trace,
    path: Union[str, Path],
    content_hash: Optional[str] = None,
) -> str:
    """Spill ``trace`` to ``path`` in the RPTRACE2 zero-copy format.

    Returns the content hash recorded in the header (computed here unless
    the caller already has it).  The write is atomic, so concurrent
    attachers never see a torn spill.
    """
    columns = _trace_columns(trace)
    if content_hash is None:
        content_hash = _content_hash(trace.name, columns)
    header = {
        "version": 2,
        "name": trace.name,
        "records": len(trace),
        "content_hash": content_hash,
    }
    write_columns(path, MAGIC_V2, header, columns)
    return content_hash


def read_header_v2(path: Union[str, Path]) -> Optional[dict]:
    """The RPTRACE2 JSON header of ``path``, or ``None`` if it is not v2."""
    try:
        return _read_header(path, MAGIC_V2)
    except (OSError, ValueError):
        return None


def spilled_hash(path: Union[str, Path]) -> Optional[str]:
    """Content hash recorded in an existing spill, or ``None``.

    ``None`` means the file is missing, damaged, or not a spill — callers
    should treat it as "must rewrite".
    """
    value = (read_header_v2(path) or {}).get("content_hash")
    return value if isinstance(value, str) else None


def attach_trace(path: Union[str, Path]) -> Trace:
    """Attach an RPTRACE2 spill with ``np.memmap`` — zero column copies.

    The returned :class:`Trace` holds read-only views over the page cache;
    every worker attaching the same file shares one physical copy of the
    column data.
    """
    header, columns = read_columns(path, MAGIC_V2)
    records = int(header["records"])
    for name, _ in _COLUMNS:
        found = len(columns.get(name, ()))
        if found != records:
            raise ValueError(
                f"{path}: column {name} has {found} records, expected {records}"
            )
    return Trace(
        name=header["name"],
        pcs=columns["pcs"],
        types=columns["types"],
        # bool and u1 share an itemsize, so the view (unlike an astype) is free.
        takens=columns["takens"].view(np.bool_),
        targets=columns["targets"],
        gaps=columns["gaps"],
    )


@dataclass
class CachedSpill:
    """One :class:`TraceCache` entry: an attached spill and what hangs off it."""

    trace: Trace
    #: The header content hash at attach time, re-checked on every hit.
    content_hash: Optional[str]
    #: Derived planes by RAS depth (:func:`repro.trace.derived.cached_derived`).
    planes: Dict[int, Any] = field(default_factory=dict)


_CacheKey = Tuple[str, int, int]

#: Attached traces one worker keeps (:func:`cached_trace`).
TRACE_CACHE_CAPACITY = 8


class TraceCache:
    """A small LRU of attached spills, keyed by ``(path, size, mtime_ns)``.

    A spill rewritten in place gets a new mtime, which misses the cache
    and evicts the stale entry.  The stat key alone is not airtight: with
    coarse mtime granularity a same-size rewrite can land within one tick.
    Every hit therefore re-reads the spill's JSON header (O(header),
    page-cached) and compares its content hash against the one captured
    at attach time; a mismatch evicts the stale entry and re-attaches.
    """

    def __init__(self, capacity: int = TRACE_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[_CacheKey, CachedSpill]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, path: Union[str, Path]) -> CachedSpill:
        """The live entry for ``path``, attaching the spill on a miss."""
        path = Path(path)
        stat = os.stat(path)
        key = (str(path), stat.st_size, stat.st_mtime_ns)
        cached = self._entries.get(key)
        if cached is not None:
            if spilled_hash(path) == cached.content_hash:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            del self._entries[key]
        self.misses += 1
        # Drop stale generations of the same file before admitting the new
        # one, so a rewritten spill cannot pin two mappings.
        for stale in [k for k in self._entries if k[0] == key[0]]:
            del self._entries[stale]
        # Hash before attaching: a rewrite in between then fails the next
        # hit's re-check instead of pinning the new hash to old columns.
        recorded = spilled_hash(path)
        cached = self._entries[key] = CachedSpill(attach_trace(path), recorded)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return cached

    def get(self, path: Union[str, Path]) -> Trace:
        return self.entry(path).trace

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Per-process cache used by execution workers.
_worker_cache = TraceCache()


def cached_entry(path: Union[str, Path]) -> CachedSpill:
    """The per-worker-process :class:`TraceCache` entry for ``path``."""
    return _worker_cache.entry(path)


def cached_trace(path: Union[str, Path]) -> Trace:
    """Attach ``path`` through the per-worker-process :class:`TraceCache`."""
    return _worker_cache.get(path)
