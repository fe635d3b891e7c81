"""The zero-copy trace plane: raw column spills and the per-worker map cache.

A campaign simulates the same immutable trace under many predictors, often
from many worker processes at once.  The ``RPTRACE1`` format (``np.save``
per column) forces every reader to *decode* the file into fresh heap
arrays — each worker pays the copy again for every cell.  The ``RPTRACE2``
format written here stores each column as raw little-endian bytes at a
64-byte-aligned offset, so workers can attach the file with ``np.memmap``:
the kernel page cache holds one physical copy of the columns no matter how
many processes (or cells per process) read them, and attaching is O(header).

Layout::

    b"RPTRACE2" | <I header_len | JSON header | pad | column bytes ...

The JSON header carries the trace name, record count, a SHA-256 content
hash (used by the planner to skip re-spilling identical traces), and a
column table of ``{name, dtype, offset, bytes}`` entries.  Columns are
stored in fixed little-endian dtypes (``<u8``/``u1``/``<u4``); ``takens``
is stored as ``u1`` and viewed as ``bool`` on attach, which keeps the view
zero-copy.

:class:`TraceCache` fronts :func:`attach_trace` with a small LRU keyed by
``(path, size, mtime_ns)`` so a worker maps each spill file once no matter
how many cells reference it; a rewritten spill is re-attached and the
stale entry dropped — detected by the stat key, or, when a same-size
rewrite lands within one mtime tick, by the header content hash checked
on every hit.  :func:`cached_trace` uses a module-level instance as the
per-worker-process cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.trace.stream import Trace


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Atomically publish ``data`` at ``path``.

    The bytes land via a temp sibling in the same directory, an fsync,
    and ``os.replace`` — readers only ever see a complete file, and a
    process killed mid-write leaves the previous version intact.  Shared
    by the trace plane, simulation checkpoints, and the serve layer's
    session-eviction checkpoints.
    """
    path = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", dir=path.parent
    )
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
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


def _column_bytes(trace: Trace) -> Dict[str, bytes]:
    """Each column as its canonical on-disk (little-endian) byte string."""
    raw = {}
    for name, dtype in _COLUMNS:
        column = getattr(trace, name)
        raw[name] = np.ascontiguousarray(column, dtype=np.dtype(dtype)).tobytes()
    return raw


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
    digest = hashlib.sha256()
    digest.update(trace.name.encode("utf-8"))
    digest.update(b"\x00")
    for name, _ in _COLUMNS:
        digest.update(_column_bytes(trace)[name])
    return digest.hexdigest()


def _pad_to(offset: int, alignment: int = _ALIGNMENT) -> int:
    remainder = offset % alignment
    return offset if remainder == 0 else offset + (alignment - remainder)


def write_trace_v2(
    trace: Trace,
    path: Union[str, Path],
    content_hash: Optional[str] = None,
) -> str:
    """Spill ``trace`` to ``path`` in the RPTRACE2 zero-copy format.

    Returns the content hash recorded in the header (computed here unless
    the caller already has it).  The write is atomic: a sibling temp file
    is renamed into place, so concurrent attachers never see a torn spill.
    """
    path = Path(path)
    raw = _column_bytes(trace)
    if content_hash is None:
        digest = hashlib.sha256()
        digest.update(trace.name.encode("utf-8"))
        digest.update(b"\x00")
        for name, _ in _COLUMNS:
            digest.update(raw[name])
        content_hash = digest.hexdigest()

    # The header length feeds back into column offsets, and offsets feed
    # back into the header; padding the serialized header to the alignment
    # boundary makes the fixed point trivial.
    table = []
    header_stub = {
        "version": 2,
        "name": trace.name,
        "records": len(trace),
        "content_hash": content_hash,
        "columns": table,
    }
    prefix = len(MAGIC_V2) + 4
    # First pass with zero offsets to measure the header, second pass with
    # real offsets; the padded header length is identical in both passes
    # only if offset digit counts match, so re-measure until stable.
    offsets = {name: 0 for name, _ in _COLUMNS}
    while True:
        table.clear()
        for name, dtype in _COLUMNS:
            table.append(
                {
                    "name": name,
                    "dtype": dtype,
                    "offset": offsets[name],
                    "bytes": len(raw[name]),
                }
            )
        encoded = json.dumps(header_stub, sort_keys=True).encode("utf-8")
        data_start = _pad_to(prefix + len(encoded))
        cursor = data_start
        new_offsets = {}
        for name, _ in _COLUMNS:
            cursor = _pad_to(cursor)
            new_offsets[name] = cursor
            cursor += len(raw[name])
        if new_offsets == offsets:
            break
        offsets = new_offsets

    temp = path.with_name(path.name + ".tmp")
    with open(temp, "wb") as handle:
        handle.write(MAGIC_V2)
        handle.write(struct.pack("<I", len(encoded)))
        handle.write(encoded)
        handle.write(b"\x00" * (data_start - prefix - len(encoded)))
        cursor = data_start
        for name, _ in _COLUMNS:
            aligned = _pad_to(cursor)
            handle.write(b"\x00" * (aligned - cursor))
            handle.write(raw[name])
            cursor = aligned + len(raw[name])
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return content_hash


def read_header_v2(path: Union[str, Path]) -> Optional[dict]:
    """The RPTRACE2 JSON header of ``path``, or ``None`` if it is not v2."""
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC_V2))
            if magic != MAGIC_V2:
                return None
            (header_len,) = struct.unpack("<I", handle.read(4))
            return json.loads(handle.read(header_len).decode("utf-8"))
    except (OSError, ValueError, struct.error):
        return None


def spilled_hash(path: Union[str, Path]) -> Optional[str]:
    """Content hash recorded in an existing spill, or ``None``.

    ``None`` means the file is missing, damaged, or pre-v2 — callers should
    treat it as "must rewrite".
    """
    header = read_header_v2(path)
    if header is None:
        return None
    value = header.get("content_hash")
    return value if isinstance(value, str) else None


def attach_trace(path: Union[str, Path]) -> Trace:
    """Attach an RPTRACE2 spill with ``np.memmap`` — zero column copies.

    The returned :class:`Trace` holds read-only views over the page cache;
    every worker attaching the same file shares one physical copy of the
    column data.
    """
    path = Path(path)
    header = read_header_v2(path)
    if header is None:
        raise ValueError(f"{path} is not an RPTRACE2 trace file")
    records = int(header["records"])
    columns = {}
    for entry in header["columns"]:
        dtype = np.dtype(entry["dtype"])
        expected = records * dtype.itemsize
        if entry["bytes"] != expected:
            raise ValueError(
                f"{path}: column {entry['name']} has {entry['bytes']} bytes, "
                f"expected {expected}"
            )
        if records:
            column = np.memmap(
                path, mode="r", dtype=dtype, offset=entry["offset"], shape=(records,)
            )
        else:
            column = np.empty(0, dtype=dtype)
        columns[entry["name"]] = column
    # bool and u1 share an itemsize, so the view (unlike an astype) is free.
    columns["takens"] = columns["takens"].view(np.bool_)
    return Trace(
        name=header["name"],
        pcs=columns["pcs"],
        types=columns["types"],
        takens=columns["takens"],
        targets=columns["targets"],
        gaps=columns["gaps"],
    )


_CacheKey = Tuple[str, int, int]

#: Attached traces one worker keeps (:func:`cached_trace`).
TRACE_CACHE_CAPACITY = 8


class TraceCache:
    """A small LRU of attached traces, keyed by ``(path, size, mtime_ns)``.

    One instance lives per worker process (:func:`cached_trace`), so a
    trace referenced by many fused or sequential cells is mapped exactly
    once per worker.  A spill rewritten in place gets a new mtime, which
    misses the cache and evicts the stale mapping.

    The stat key alone is not airtight: on filesystems with coarse mtime
    granularity a same-size rewrite can land within one tick and leave
    size and mtime_ns unchanged.  Every hit therefore re-reads the
    spill's JSON header (O(header), page-cached) and compares the
    recorded content hash against the one captured at attach time; a
    mismatch evicts the stale mapping and re-attaches.  Legacy v1 spills
    carry no header hash, so for them the stat key is the only guard.
    """

    def __init__(self, capacity: int = TRACE_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[_CacheKey, Tuple[Trace, Optional[str]]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, path: Union[str, Path]) -> Trace:
        path = Path(path)
        stat = os.stat(path)
        key = (str(path), stat.st_size, stat.st_mtime_ns)
        cached = self._entries.get(key)
        if cached is not None:
            trace, attached_hash = cached
            if spilled_hash(path) == attached_hash:
                self._entries.move_to_end(key)
                self.hits += 1
                return trace
            del self._entries[key]
        self.misses += 1
        # Drop stale generations of the same file before admitting the new
        # one, so a rewritten spill cannot pin two mappings.
        for stale in [k for k in self._entries if k[0] == key[0]]:
            del self._entries[stale]
        # read_trace dispatches on magic: v2 spills attach zero-copy, v1
        # spills decode through the legacy reader but still get cached.
        from repro.trace.stream import read_trace

        trace = read_trace(path)
        self._entries[key] = (trace, spilled_hash(path))
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return trace

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Per-process cache used by execution workers.
_worker_cache = TraceCache()


def cached_trace(path: Union[str, Path]) -> Trace:
    """Attach ``path`` through the per-worker-process :class:`TraceCache`."""
    return _worker_cache.get(path)
