"""JSONL checkpointing of completed campaign cells.

A campaign that dies twenty minutes in should not owe the machine those
twenty minutes again.  The executor appends every finished
:class:`~repro.sim.metrics.SimulationResult` to a journal — one JSON
object per line — and on restart :func:`load_journal` replays it into a
``(trace, predictor) → result`` map so finished cells are skipped.

Lines are group-committed: the executor appends the member cells of one
execution unit (a fused group or a solo cell), then :meth:`Journal.commit`
writes them in one write, flushes and fsyncs once.  A process killed at
any point loses at most the unit that had not committed, whose cells the
resumed run simply re-simulates.

The format is deliberately dumb: self-describing JSON lines with a
version tag, append-only, no footer.  A process killed mid-write leaves
at most one truncated final line, which the loader tolerates and
drops, and which the next writer cuts off before appending; every
earlier line is intact because each commit ends with a flush.
Journals from a different format version are rejected loudly rather
than silently mis-merged.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, IO, List, Optional, Union

from repro.exec.plan import CellKey
from repro.sim.metrics import SimulationResult

#: Format tag written into every line; bump on incompatible change.
JOURNAL_VERSION = 1


class JournalError(ValueError):
    """A journal file exists but cannot be used."""


def result_to_json(
    result: SimulationResult, node: Optional[str] = None
) -> dict:
    """A JSON-ready dict capturing every field of ``result``.

    ``node`` attributes the entry to a distributed worker; it is only
    written when explicitly passed and truthy, so the *canonical*
    serialization (no ``node``) of a distributed cell is byte-identical
    to the line a single-node run would write.
    """
    return {
        "v": JOURNAL_VERSION,
        "trace": result.trace_name,
        "predictor": result.predictor_name,
        "total_instructions": result.total_instructions,
        "indirect_branches": result.indirect_branches,
        "indirect_mispredictions": result.indirect_mispredictions,
        "return_branches": result.return_branches,
        "return_mispredictions": result.return_mispredictions,
        "conditional_branches": result.conditional_branches,
        # JSON keys are strings; PCs are re-int'ed on load.
        "mispredictions_by_pc": {
            str(pc): count
            for pc, count in result.mispredictions_by_pc.items()
        },
        **({"profile": result.profile} if result.profile else {}),
        **({"node": node} if node else {}),
    }


def result_from_json(payload: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`result_to_json`."""
    version = payload.get("v")
    if version != JOURNAL_VERSION:
        raise JournalError(
            f"journal line has version {version!r}, expected {JOURNAL_VERSION}"
        )
    return SimulationResult(
        trace_name=payload["trace"],
        predictor_name=payload["predictor"],
        total_instructions=payload["total_instructions"],
        indirect_branches=payload["indirect_branches"],
        indirect_mispredictions=payload["indirect_mispredictions"],
        return_branches=payload.get("return_branches", 0),
        return_mispredictions=payload.get("return_mispredictions", 0),
        conditional_branches=payload.get("conditional_branches", 0),
        mispredictions_by_pc={
            int(pc): count
            for pc, count in payload.get("mispredictions_by_pc", {}).items()
        },
        profile=payload.get("profile"),
        node=payload.get("node", ""),
    )


def load_journal(path: Union[str, Path]) -> Dict[CellKey, SimulationResult]:
    """Read a journal into a ``(trace, predictor) → result`` map.

    A missing file is an empty journal (first run).  A truncated or
    garbled **final** line — the signature of a killed process — is
    dropped; corruption anywhere earlier, or a version mismatch, raises
    :class:`JournalError` because silently skipping interior cells
    would re-simulate some cells and not others unpredictably.
    """
    path = Path(path)
    results: Dict[CellKey, SimulationResult] = {}
    if not path.exists():
        return results
    lines = path.read_text(encoding="utf-8").splitlines()
    for line_number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            result = result_from_json(payload)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if line_number == len(lines) - 1:
                break  # torn final write from an interrupted run
            raise JournalError(
                f"{path}:{line_number + 1}: corrupt journal line ({exc})"
            ) from exc
        results[(result.trace_name, result.predictor_name)] = result
    return results


def open_for_append(path: Union[str, Path]) -> IO[str]:
    """Open a journal (or shard) file for appending whole lines.

    A torn final line — a write cut short — is truncated first: the
    loader drops it anyway, and a line appended after it would be glued
    onto the fragment, corrupting both.
    """
    try:
        with open(path, "rb+") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    handle.seek(0)
                    handle.truncate(handle.read().rfind(b"\n") + 1)
    except FileNotFoundError:
        pass
    return open(path, "a", encoding="utf-8")


class Journal:
    """An append-only journal writer (use as a context manager).

    :meth:`append` serializes one result into the pending batch and
    :meth:`commit` makes the batch durable: one write, one flush, one
    fsync, so it survives a subsequent SIGKILL.  :meth:`close` commits
    whatever is still pending.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[IO[str]] = open_for_append(self.path)
        self._pending: List[str] = []

    def append(self, result: SimulationResult, node: str = "") -> None:
        if self._handle is None:
            raise JournalError(f"journal {self.path} is closed")
        self._pending.append(
            json.dumps(result_to_json(result, node=node)) + "\n"
        )

    def commit(self) -> None:
        """Write, flush and fsync every line appended since the last commit."""
        if self._handle is None or not self._pending:
            return
        self._handle.write("".join(self._pending))
        self._pending.clear()
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self.commit()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


__all__ = [
    "JOURNAL_VERSION",
    "Journal",
    "JournalError",
    "load_journal",
    "open_for_append",
    "result_from_json",
    "result_to_json",
]
