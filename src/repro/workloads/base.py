"""Shared machinery for workload generators.

:class:`TraceBuilder` accumulates branch records column-wise (appending
to Python lists, converting to NumPy arrays once) so generating a
100k-record trace stays cheap.  :class:`AddressAllocator` hands out
plausible, non-overlapping code addresses so traces look like real
programs (distinct functions in distinct regions, 4-byte instruction
alignment) — which matters, because BLBP predicts target *bits* and the
bit-level structure of the address space is part of the problem.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.common.hashing import stable_hash64
from repro.trace.record import BranchType
from repro.trace.stream import Trace

#: Base of the synthetic text segment.  Real x86-64 binaries load around
#: this address; using it keeps target bit patterns realistic.
TEXT_BASE = 0x0000_0000_0040_0000


#: Branch type codes as plain ints: the builder appends one per record,
#: and ``int()`` of an ``IntEnum`` member is not free.
_CONDITIONAL = int(BranchType.CONDITIONAL)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_DIRECT_CALL = int(BranchType.DIRECT_CALL)
_DIRECT_JUMP = int(BranchType.DIRECT_JUMP)
_RETURN = int(BranchType.RETURN)


class TraceBuilder:
    """Column-wise accumulator for branch records."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._pcs: List[int] = []
        self._types: List[int] = []
        self._takens: List[bool] = []
        self._targets: List[int] = []
        self._gaps: List[int] = []

    def branch(
        self,
        pc: int,
        branch_type: int,
        taken: bool,
        target: int,
        gap: int = 0,
    ) -> None:
        """Append one dynamic branch execution (``branch_type`` is a
        :class:`BranchType` or its int code)."""
        self._pcs.append(pc)
        self._types.append(int(branch_type))
        self._takens.append(taken)
        self._targets.append(target)
        self._gaps.append(gap)

    def conditional(self, pc: int, taken: bool, target: int, gap: int = 0) -> None:
        """Append a conditional branch."""
        # The most frequent record, so appended here rather than via branch().
        self._pcs.append(pc)
        self._types.append(_CONDITIONAL)
        self._takens.append(taken)
        self._targets.append(target)
        self._gaps.append(gap)

    def indirect_call(self, pc: int, target: int, gap: int = 0) -> None:
        """Append an indirect call."""
        self.branch(pc, _INDIRECT_CALL, True, target, gap)

    def indirect_jump(self, pc: int, target: int, gap: int = 0) -> None:
        """Append an indirect jump."""
        self.branch(pc, _INDIRECT_JUMP, True, target, gap)

    def direct_call(self, pc: int, target: int, gap: int = 0) -> None:
        """Append a direct call."""
        self.branch(pc, _DIRECT_CALL, True, target, gap)

    def direct_jump(self, pc: int, target: int, gap: int = 0) -> None:
        """Append a direct jump."""
        self.branch(pc, _DIRECT_JUMP, True, target, gap)

    def ret(self, pc: int, target: int, gap: int = 0) -> None:
        """Append a procedure return."""
        self.branch(pc, _RETURN, True, target, gap)

    def __len__(self) -> int:
        return len(self._pcs)

    def build(self) -> Trace:
        """Freeze the accumulated records into an immutable Trace."""
        return Trace(
            name=self.name,
            pcs=np.array(self._pcs, dtype=np.uint64),
            types=np.array(self._types, dtype=np.uint8),
            takens=np.array(self._takens, dtype=bool),
            targets=np.array(self._targets, dtype=np.uint64),
            gaps=np.array(self._gaps, dtype=np.uint32),
        )


class AddressAllocator:
    """Hands out non-overlapping, 4-byte-aligned code addresses.

    ``function()`` reserves a function-sized region and returns its entry
    point; ``site()`` returns successive instruction addresses inside the
    most recently allocated function.
    """

    def __init__(self, base: int = TEXT_BASE, function_size: int = 0x200) -> None:
        if base % 4 != 0:
            raise ValueError(f"base {base:#x} is not 4-byte aligned")
        if function_size % 4 != 0 or function_size <= 0:
            raise ValueError(f"bad function size {function_size:#x}")
        self._next = base
        self._function_size = function_size
        self._site_cursor = base
        self._count = 0

    def function(self) -> int:
        """Reserve a new function region; return its entry address.

        Entries are deterministically jittered within their region so
        their low-order address bits vary, as in real binaries — this
        matters for bit-level target prediction, where perfectly-aligned
        entries would leave most predicted bits constant.
        """
        region = self._next
        self._next += self._function_size
        self._count += 1
        jitter_slots = self._function_size // 8  # keep room for sites
        entry = region + 4 * (stable_hash64(self._count) % jitter_slots)
        self._site_cursor = entry
        return entry

    def site(self) -> int:
        """Next instruction address within the current function."""
        address = self._site_cursor
        self._site_cursor += 4
        if self._site_cursor >= self._next:
            raise RuntimeError("function region exhausted; allocate a new one")
        return address


@dataclass
class WorkloadSpec(abc.ABC):
    """Base class for workload specifications.

    Every concrete spec is a frozen bag of parameters plus a seed; the
    corresponding ``generate_*`` function turns it into a :class:`Trace`
    deterministically.
    """

    name: str
    seed: int
    num_records: int

    def rng(self) -> np.random.Generator:
        """The seeded generator all randomness in this workload flows from."""
        return np.random.default_rng(self.seed)

    @abc.abstractmethod
    def generate(self) -> Trace:
        """Produce the trace for this spec."""


def draw_gap(rng: np.random.Generator, mean_gap: float) -> int:
    """Draw a non-branch instruction gap (geometric-ish, mean ``mean_gap``)."""
    if mean_gap <= 0:
        return 0
    return int(rng.geometric(1.0 / (mean_gap + 1.0)) - 1)
