"""Mergeable campaign journals: per-node shards → one canonical file.

A distributed campaign journals each finished cell into a *shard* —
``<journal>.shards/<node>.jsonl``, one file per worker node, appended in
arrival order with the cell's ``node`` identity.  Shards are what makes
distribution crash-safe without coordination: every commit is one
flushed write of a unit's whole lines to a file no other node touches,
so any subset of nodes (or the coordinator itself) can die at any byte
and leave at most one torn final line per shard, which the next writer
of that shard cuts off before appending.

On successful completion the shards are **merged** into the canonical
journal at ``<journal>``: every plan cell's entry re-serialized in plan
order *without* the node field — byte-identical to the journal a
single-node serial run writes.  The merge is a pure function of the
entry set, so shard arrival order, node count, retried duplicates, and
torn final lines all collapse to the same canonical bytes (property-
tested in ``tests/dist/test_merge.py``).

An interrupted distributed run leaves shards behind; the executor folds
them into the resume set (:func:`load_shards`) on the next run — under
any backend, including plain serial — so no finished cell is ever
re-simulated.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, IO, Iterable, List, Optional, Union

from repro.exec.journal import (
    JournalError,
    open_for_append,
    result_from_json,
    result_to_json,
)
from repro.exec.plan import CellKey
from repro.sim.metrics import SimulationResult
from repro.trace.plane import atomic_write_bytes

#: Characters allowed in a shard filename derived from a node id.
_SAFE = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


def shards_dir(journal_path: Union[str, Path]) -> Path:
    """The per-node shard directory belonging to ``journal_path``."""
    return Path(str(journal_path) + ".shards")


def _shard_name(node: str) -> str:
    cleaned = "".join(c if c in _SAFE else "_" for c in (node or "local"))
    return f"{cleaned[:80] or 'local'}.jsonl"


class ShardedJournal:
    """A journal writer that routes each entry to its node's shard.

    Drop-in for :class:`repro.exec.journal.Journal` (``append(result,
    node=...)`` / ``commit()`` / ``close()``): the execution engine does
    not know it is writing shards.  A commit writes each touched shard's
    pending lines in one write and fsyncs that shard once.  Entries carry
    their node identity on disk; the canonical merge strips it again.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.directory = shards_dir(path)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handles: Dict[str, IO[str]] = {}
        self._pending: Dict[str, List[str]] = {}

    def append(self, result: SimulationResult, node: str = "") -> None:
        self._pending.setdefault(node, []).append(
            json.dumps(result_to_json(result, node=node)) + "\n"
        )

    def commit(self) -> None:
        """Write, flush and fsync every shard line appended since the
        last commit."""
        for node, lines in self._pending.items():
            handle = self._handles.get(node)
            if handle is None:
                handle = open_for_append(self.directory / _shard_name(node))
                self._handles[node] = handle
            handle.write("".join(lines))
            handle.flush()
            os.fsync(handle.fileno())
        self._pending.clear()

    def close(self) -> None:
        self.commit()
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()

    def __enter__(self) -> "ShardedJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_shard_lines(
    lines: List[str], origin: str = "<shard>"
) -> Dict[CellKey, SimulationResult]:
    """Parse one shard's lines into a result map (last entry wins).

    The tolerance contract matches :func:`repro.exec.journal.
    load_journal`: a torn **final** line (killed writer) is dropped,
    interior corruption raises.  Duplicate cells — a unit re-run after
    its node died mid-acknowledgement — overwrite; simulation is
    deterministic, so duplicates are identical and which one survives
    cannot matter.
    """
    results: Dict[CellKey, SimulationResult] = {}
    for line_number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            result = result_from_json(json.loads(line))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if line_number == len(lines) - 1:
                break  # torn final write from a killed run
            raise JournalError(
                f"{origin}:{line_number + 1}: corrupt shard line ({exc})"
            ) from exc
        results[(result.trace_name, result.predictor_name)] = result
    return results


def load_shards(
    journal_path: Union[str, Path],
) -> Dict[CellKey, SimulationResult]:
    """Read every shard of ``journal_path`` into one result map.

    Shards are read in sorted filename order; since any duplicated cell
    carries identical results (deterministic simulation), the merge is
    order-insensitive in every way that matters.
    """
    results: Dict[CellKey, SimulationResult] = {}
    directory = shards_dir(journal_path)
    if not directory.is_dir():
        return results
    for shard in sorted(directory.glob("*.jsonl")):
        lines = shard.read_text(encoding="utf-8").splitlines()
        results.update(parse_shard_lines(lines, origin=str(shard)))
    return results


def canonical_journal_bytes(
    plan_keys: Iterable[CellKey],
    results: Dict[CellKey, SimulationResult],
) -> bytes:
    """The canonical journal for ``plan_keys``: plan order, no node.

    Exactly the bytes a single-node serial run of the same plan writes:
    one line per cell in plan order, serialized through the same
    :func:`result_to_json` path with no node attribution.  Cells absent
    from ``results`` (an incomplete campaign) are simply not emitted —
    the canonical journal of a partial run is the partial prefix set.
    """
    lines = [
        json.dumps(result_to_json(results[key])) + "\n"
        for key in plan_keys
        if key in results
    ]
    return "".join(lines).encode("utf-8")


def merge_journals(
    plan_keys: Iterable[CellKey],
    shard_lines: Iterable[List[str]],
    base: Optional[Dict[CellKey, SimulationResult]] = None,
) -> bytes:
    """Merge per-node shard line-lists into canonical journal bytes.

    ``base`` carries entries that predate the shards (a canonical
    journal being resumed); shard entries win over base entries for the
    same cell (they are identical by determinism, so this is a no-op in
    value terms).  The output is invariant under any permutation of
    ``shard_lines`` — the hypothesis property pinning this is the
    backbone of the distributed-journal guarantee.
    """
    results: Dict[CellKey, SimulationResult] = dict(base or {})
    for lines in shard_lines:
        results.update(parse_shard_lines(lines))
    return canonical_journal_bytes(plan_keys, results)


def write_canonical_journal(
    journal_path: Union[str, Path],
    plan_keys: Iterable[CellKey],
    results: Dict[CellKey, SimulationResult],
) -> Path:
    """Atomically publish the canonical journal and retire the shards.

    The canonical file lands first (atomic replace), the shard files —
    now fully absorbed — are deleted after; a crash between the two
    steps leaves harmless duplicates that the next load deduplicates.
    """
    journal_path = Path(journal_path)
    atomic_write_bytes(
        journal_path, canonical_journal_bytes(plan_keys, results)
    )
    directory = shards_dir(journal_path)
    if directory.is_dir():
        for shard in directory.glob("*.jsonl"):
            try:
                shard.unlink()
            except OSError:
                pass
        try:
            directory.rmdir()
        except OSError:
            pass
    return journal_path


__all__ = [
    "ShardedJournal",
    "canonical_journal_bytes",
    "load_shards",
    "merge_journals",
    "parse_shard_lines",
    "shards_dir",
    "write_canonical_journal",
]
