"""Node-side content-addressed storage for shipped trace spills.

Every worker node keeps received ``RPTRACE2`` spills in one directory,
keyed by content hash — ``<store>/<hash>.trace``.  Content addressing is
what makes trace shipping dedup-free by construction:

* the coordinator asks ``has_trace`` before shipping, so a spill that
  reached the node in *any* earlier campaign is never re-sent;
* two plan cells (or two whole campaigns) whose traces are identical
  resolve to one file, however they were named;
* a partially received spill is invisible — chunks accumulate in memory
  and the final file appears atomically, only once its columns re-hash
  to the key it was shipped under, so a coordinator killed mid-ship can
  simply re-send and a corrupted transfer never lands.

The store also hands out node-local mid-trace checkpoint paths
(``<store>/ckpt/``), keeping every file a worker writes under one
disposable root.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Dict, Optional, Union

from repro.trace.plane import (
    atomic_write_bytes,
    attach_trace,
    spilled_hash,
    trace_content_hash,
)


class StoreError(RuntimeError):
    """A spill could not be stored or verified."""


def trace_file_hash(path: Union[str, Path]) -> str:
    """The content hash identifying a spill file for shipping.

    ``RPTRACE2`` spills carry it in their header (one header read);
    any other file raises :class:`StoreError`.
    """
    recorded = spilled_hash(path)
    if recorded is None:
        raise StoreError(f"{path} is not an RPTRACE2 trace spill")
    return recorded


def _verify_spill(path: Union[str, Path], content_hash: str) -> None:
    """Raise unless ``path`` is a spill whose header and columns hash to
    ``content_hash``."""
    try:
        actual = trace_content_hash(attach_trace(path))
        recorded = spilled_hash(path)
    except Exception as exc:  # noqa: BLE001 - a damaged file fails many ways
        actual = recorded = f"nothing ({exc})"
    if actual != content_hash or recorded != content_hash:
        raise StoreError(
            f"shipped trace hash mismatch: expected {content_hash}, "
            f"columns hash to {actual}, header records {recorded}"
        )


class TraceStore:
    """A directory of spill files keyed by content hash."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: hash → accumulated chunks of an in-flight ``put_trace``.
        self._partial: Dict[str, bytearray] = {}

    def path_for(self, content_hash: str) -> Path:
        return self.root / f"{content_hash}.trace"

    def checkpoint_dir(self) -> Path:
        path = self.root / "ckpt"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def has(self, content_hash: str) -> bool:
        return self.path_for(content_hash).exists()

    def resolve(self, content_hash: str) -> Path:
        """The on-disk path for ``content_hash``; raises when absent."""
        path = self.path_for(content_hash)
        if not path.exists():
            raise StoreError(f"trace {content_hash} not in store {self.root}")
        return path

    def add_chunk(
        self, content_hash: str, data: bytes, last: bool
    ) -> Optional[Path]:
        """Accumulate one shipped chunk; publish the file on ``last``.

        Returns the stored path once complete, ``None`` while partial.
        A completed spill is verified before it is published — its
        columns are attached and re-hashed, and both that hash and the
        one its header records must equal the key it was shipped under —
        so a corrupted transfer can never poison the store.
        """
        if self.has(content_hash):
            # Already present (e.g. a concurrent campaign shipped it);
            # drop the redundant bytes but honour the exchange.
            self._partial.pop(content_hash, None)
            return self.path_for(content_hash) if last else None
        buffer = self._partial.setdefault(content_hash, bytearray())
        buffer.extend(data)
        if not last:
            return None
        del self._partial[content_hash]
        path = self.path_for(content_hash)
        atomic_write_bytes(
            path, buffer, verify=lambda staged: _verify_spill(staged, content_hash)
        )
        return path

    def ingest(self, source: Union[str, Path]) -> Path:
        """Copy a local spill file into the store (tests, local shims)."""
        content_hash = trace_file_hash(source)
        path = self.path_for(content_hash)
        if not path.exists():
            atomic_write_bytes(path, Path(source).read_bytes())
        return path

    def stored_hashes(self) -> list:
        return sorted(
            entry.stem for entry in self.root.glob("*.trace")
        )

    def clear(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True, exist_ok=True)
        self._partial.clear()


__all__ = ["StoreError", "TraceStore", "trace_file_hash"]
