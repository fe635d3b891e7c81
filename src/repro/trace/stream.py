"""The :class:`Trace` container and its binary serialization.

Traces are held in memory as parallel NumPy arrays (column-major) rather
than lists of record objects: the simulation engine iterates millions of
records, and attribute access on dataclasses dominates runtime otherwise.
Record-object views are still available for tests and tooling.

On disk a trace is an ``RPTRACE2`` spill (:mod:`repro.trace.plane`): raw
little-endian column bytes at aligned offsets, which workers attach with
``np.memmap`` — zero-copy, shared through the page cache.
:func:`write_trace` and :func:`read_trace` are this module's names for
that writer and reader.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.trace.record import BranchRecord, BranchType


class Trace:
    """An immutable branch trace with column-oriented storage.

    Columns:
        pcs, targets: uint64 arrays.
        types: uint8 array of :class:`BranchType` values.
        takens: bool array.
        gaps: uint32 array of non-branch instruction gaps.
    """

    __slots__ = ("name", "pcs", "types", "takens", "targets", "gaps", "_scalars")

    def __init__(
        self,
        name: str,
        pcs: np.ndarray,
        types: np.ndarray,
        takens: np.ndarray,
        targets: np.ndarray,
        gaps: np.ndarray,
    ) -> None:
        length = len(pcs)
        for column, label in (
            (types, "types"),
            (takens, "takens"),
            (targets, "targets"),
            (gaps, "gaps"),
        ):
            if len(column) != length:
                raise ValueError(
                    f"column {label} has length {len(column)}, expected {length}"
                )
        self.name = name
        self.pcs = np.ascontiguousarray(pcs, dtype=np.uint64)
        self.types = np.ascontiguousarray(types, dtype=np.uint8)
        self.takens = np.ascontiguousarray(takens, dtype=bool)
        self.targets = np.ascontiguousarray(targets, dtype=np.uint64)
        self.gaps = np.ascontiguousarray(gaps, dtype=np.uint32)
        self._scalars = None

    @classmethod
    def from_records(cls, name: str, records: Sequence[BranchRecord]) -> "Trace":
        """Build a trace from record objects (convenient in tests)."""
        return cls(
            name=name,
            pcs=np.array([r.pc for r in records], dtype=np.uint64),
            types=np.array([int(r.branch_type) for r in records], dtype=np.uint8),
            takens=np.array([r.taken for r in records], dtype=bool),
            targets=np.array([r.target for r in records], dtype=np.uint64),
            gaps=np.array([r.inst_gap for r in records], dtype=np.uint32),
        )

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, index: int) -> BranchRecord:
        return BranchRecord(
            pc=int(self.pcs[index]),
            branch_type=BranchType(int(self.types[index])),
            taken=bool(self.takens[index]),
            target=int(self.targets[index]),
            inst_gap=int(self.gaps[index]),
        )

    def records(self) -> Iterator[BranchRecord]:
        """Iterate record objects (slow path; for tests and tooling)."""
        for index in range(len(self)):
            yield self[index]

    def total_instructions(self) -> int:
        """All simulated instructions: branches plus the gaps between them."""
        return int(self.gaps.sum()) + len(self)

    def count_of(self, branch_type: BranchType) -> int:
        """Dynamic executions of ``branch_type`` in this trace."""
        return int(np.count_nonzero(self.types == int(branch_type)))

    def scalar_columns(self):
        """``(pcs, types, takens, targets)`` as plain Python lists, memoized.

        The per-branch interpreter loop is dominated by NumPy scalar boxing
        unless the columns are extracted up front; memoizing the extraction
        lets every predictor fused onto this trace share one copy.
        """
        cached = self._scalars
        if cached is None:
            cached = (
                self.pcs.tolist(),
                self.types.tolist(),
                self.takens.tolist(),
                self.targets.tolist(),
            )
            self._scalars = cached
        return cached

    def indirect_mask(self) -> np.ndarray:
        """Boolean mask of records the indirect predictor must handle."""
        return (self.types == int(BranchType.INDIRECT_JUMP)) | (
            self.types == int(BranchType.INDIRECT_CALL)
        )

    def head(self, n: int) -> "Trace":
        """A new trace containing the first ``n`` records."""
        return Trace(
            name=self.name,
            pcs=self.pcs[:n],
            types=self.types[:n],
            takens=self.takens[:n],
            targets=self.targets[:n],
            gaps=self.gaps[:n],
        )

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, records={len(self)}, "
            f"instructions={self.total_instructions()})"
        )


def write_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Spill ``trace`` to ``path`` (RPTRACE2; see ``repro.trace.plane``)."""
    from repro.trace.plane import write_trace_v2

    write_trace_v2(trace, path)


def read_trace(path: Union[str, Path]) -> Trace:
    """Attach an RPTRACE2 spill (:func:`repro.trace.plane.attach_trace`)."""
    from repro.trace.plane import attach_trace

    return attach_trace(path)


def concatenate(name: str, traces: Iterable[Trace]) -> Trace:
    """Concatenate traces end-to-end into one trace named ``name``."""
    traces = list(traces)
    if not traces:
        raise ValueError("cannot concatenate zero traces")
    return Trace(
        name=name,
        pcs=np.concatenate([t.pcs for t in traces]),
        types=np.concatenate([t.types for t in traces]),
        takens=np.concatenate([t.takens for t in traces]),
        targets=np.concatenate([t.targets for t in traces]),
        gaps=np.concatenate([t.gaps for t in traces]),
    )
