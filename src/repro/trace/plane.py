"""The zero-copy trace plane: the spill format and the per-worker cache.

A campaign simulates the same immutable trace under many predictors, often
from many worker processes at once.  Trace spills (``RPTRACE2``) store
each column as raw little-endian bytes at a 64-byte-aligned offset, so
workers attach them with ``np.memmap``: the page cache holds one physical
copy of the columns however many processes read them, and attaching is
O(header).  :func:`write_trace_v2` and :func:`attach_trace` are the
format's only writer and reader::

    RPTRACE2 | <I header_len | JSON header | pad | column bytes ...

The JSON header (sorted keys) holds the trace name, record count and
SHA-256 content hash (a spill whose hash matches is not rewritten) plus a
column table of ``{name, dtype, offset, bytes}`` entries; ``takens`` is
stored as ``u1`` and viewed as ``bool`` on attach, which keeps the view
zero-copy.

:class:`TraceCache` fronts :func:`attach_trace` with a small LRU keyed by
``(path, size, mtime_ns)``, so a worker maps each spill once however many
cells reference it.  An entry also holds the trace's derived planes by RAS
depth, so a plane leaves the cache with its trace.  :func:`cached_trace`
uses a module-level instance as the per-worker-process cache, and
:func:`resident_traces` lets an in-process campaign serve traces it holds
in memory through the same cache, by the path they would be spilled to.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

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


MAGIC_V2 = b"RPTRACE2"

_ALIGNMENT = 64

#: Column storage order and fixed on-disk dtypes (explicitly little-endian,
#: so spills are portable and hashes machine-independent).
_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("pcs", "<u8"),
    ("types", "u1"),
    ("takens", "u1"),
    ("targets", "<u8"),
    ("gaps", "<u4"),
)


def _pad_to(offset: int) -> int:
    remainder = offset % _ALIGNMENT
    return offset if remainder == 0 else offset + (_ALIGNMENT - remainder)


def _trace_columns(trace: Trace) -> List[np.ndarray]:
    """The trace's columns in storage order and on-disk dtypes."""
    return [
        np.ascontiguousarray(getattr(trace, name), dtype=np.dtype(dtype))
        for name, dtype in _COLUMNS
    ]


def _content_hash(name: str, columns: Sequence[np.ndarray]) -> str:
    digest = hashlib.sha256(name.encode("utf-8") + b"\x00")
    for array in columns:
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
    arrays = _trace_columns(trace)
    if content_hash is None:
        content_hash = _content_hash(trace.name, arrays)
    header = {
        "version": 2,
        "name": trace.name,
        "records": len(trace),
        "content_hash": content_hash,
    }
    prefix = len(MAGIC_V2) + 4
    # Offsets feed the header's length and the header's length feeds the
    # offsets, so re-measure from zero offsets until they are stable.
    offsets = [0] * len(arrays)
    while True:
        table = [
            {"name": name, "dtype": dtype, "offset": offset, "bytes": array.nbytes}
            for (name, dtype), array, offset in zip(_COLUMNS, arrays, offsets)
        ]
        encoded = json.dumps({**header, "columns": table}, sort_keys=True).encode()
        cursor, settled = prefix + len(encoded), []
        for array in arrays:
            cursor = _pad_to(cursor)
            settled.append(cursor)
            cursor += array.nbytes
        if settled == offsets:
            break
        offsets = settled

    parts: List[Any] = [MAGIC_V2, len(encoded).to_bytes(4, "little"), encoded]
    cursor = prefix + len(encoded)
    for offset, array in zip(offsets, arrays):
        parts += [bytes(offset - cursor), array]
        cursor = offset + array.nbytes
    atomic_write_bytes(path, *parts)
    return content_hash


def _read_header(path: Union[str, Path]) -> dict:
    with open(path, "rb") as handle:
        if handle.read(len(MAGIC_V2)) != MAGIC_V2:
            raise ValueError(f"{path} has no {MAGIC_V2.decode()} magic")
        header_len = int.from_bytes(handle.read(4), "little")
        return json.loads(handle.read(header_len).decode("utf-8"))


def read_header_v2(path: Union[str, Path]) -> Optional[dict]:
    """The RPTRACE2 JSON header of ``path``, or ``None`` if it is not v2."""
    try:
        return _read_header(path)
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
    column data.  Raises ``ValueError`` for a file of another format, a
    column whose byte count is not a whole number of its dtype, or one
    whose length is not the header's record count.
    """
    header = _read_header(path)
    records = int(header["records"])
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
    """One :class:`TraceCache` entry: a trace and what hangs off it."""

    trace: Trace
    #: The header content hash at attach time, re-checked on every hit
    #: (for a resident trace, the hash its owner computed).
    content_hash: Optional[str]
    #: Derived planes by RAS depth (:func:`repro.trace.derived.cached_derived`).
    planes: Dict[int, Any] = field(default_factory=dict)


_CacheKey = Tuple[str, int, int]

#: The size/mtime slots of a resident trace's cache key (no file backs it).
_RESIDENT = -1

#: Entries one worker keeps (:func:`cached_trace`).
TRACE_CACHE_CAPACITY = 8


class TraceCache:
    """A small LRU of attached spills, keyed by ``(path, size, mtime_ns)``.

    A spill rewritten in place gets a new mtime, which misses the cache
    and evicts the stale entry.  The stat key alone is not airtight: with
    coarse mtime granularity a same-size rewrite can land within one tick.
    Every hit therefore re-reads the spill's JSON header (O(header),
    page-cached) and compares its content hash against the one captured
    at attach time; a mismatch evicts the stale entry and re-attaches.

    Inside a :meth:`resident` block, a path can instead name an in-memory
    trace: its entry (and derived planes) lives in the same LRU, and no
    file need exist.
    """

    def __init__(self, capacity: int = TRACE_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[_CacheKey, CachedSpill]" = OrderedDict()
        self._resident: Dict[str, Tuple[Trace, str]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, path: Union[str, Path]) -> CachedSpill:
        """The live entry for ``path``, attaching the spill on a miss."""
        path = Path(path)
        resident = self._resident.get(str(path))
        if resident is not None:
            key = (str(path), _RESIDENT, _RESIDENT)
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            trace, content_hash = resident
            # A new Trace over the same columns: what the engine memoizes
            # on a trace (its scalar columns) then leaves with this entry
            # instead of staying on the caller's trace.
            view = Trace(
                trace.name, trace.pcs, trace.types, trace.takens,
                trace.targets, trace.gaps,
            )
            return self._admit(key, CachedSpill(view, content_hash))
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
        self._drop(key[0])
        # Hash before attaching: a rewrite in between then fails the next
        # hit's re-check instead of pinning the new hash to old columns.
        recorded = spilled_hash(path)
        return self._admit(key, CachedSpill(attach_trace(path), recorded))

    def _admit(self, key: _CacheKey, cached: CachedSpill) -> CachedSpill:
        self._entries[key] = cached
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return cached

    def _drop(self, path: str) -> None:
        for stale in [key for key in self._entries if key[0] == path]:
            del self._entries[stale]

    def get(self, path: Union[str, Path]) -> Trace:
        return self.entry(path).trace

    @contextmanager
    def resident(self, traces: Dict[str, Tuple[Trace, str]]) -> Iterator[None]:
        """Serve in-memory traces by path for the duration of the block.

        ``traces`` maps a spill path to ``(trace, content hash)``.  Inside
        the block :meth:`entry` answers those paths from memory, whether
        or not a spill exists there.  On exit every entry of those paths
        leaves the cache, so nothing here outlives the block.  A path
        already resident (a nested block) stays with its outer block.
        """
        added = [path for path in traces if path not in self._resident]
        for path in added:
            self._resident[path] = traces[path]
        try:
            yield
        finally:
            for path in added:
                del self._resident[path]
                self._drop(path)

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


def resident_traces(traces: Dict[str, Tuple[Trace, str]]):
    """:meth:`TraceCache.resident` on the per-worker-process cache."""
    return _worker_cache.resident(traces)
