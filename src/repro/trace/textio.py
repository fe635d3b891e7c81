"""Text (CSV) trace interchange format.

The binary RPTRACE2 spill (:mod:`repro.trace.plane`) is for caching;
this module adds a human-readable interchange format so users can
import branch traces produced by *other* tools (a Pin tool, a QEMU
plugin, a CBP-trace converter) and run this library's predictors on
them.

Format: one record per line, comma-separated::

    pc,type,taken,target,gap

with ``pc``/``target`` in hex (0x-prefixed or bare), ``type`` either
the integer BranchType value or its name (case-insensitive:
``conditional``, ``direct_jump``, ``direct_call``, ``indirect_jump``,
``indirect_call``, ``return``), ``taken`` as 0/1, and ``gap`` a decimal
instruction count.  Lines starting with ``#`` and blank lines are
ignored.  A ``# name: <trace name>`` header line names the trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

import numpy as np

from repro.trace.record import BranchType
from repro.trace.stream import Trace

_TYPE_NAMES = {bt.name.lower(): int(bt) for bt in BranchType}


def _parse_int(token: str, line_number: int, what: str) -> int:
    # pc/target are documented as hex whether or not they carry an "0x"
    # prefix; base 16 accepts both spellings (a bare "ff" used to fall
    # through to int(token, 0) and raise, and a bare "10" misparsed as
    # decimal ten).
    token = token.strip()
    try:
        return int(token, 16)
    except ValueError:
        raise ValueError(
            f"line {line_number}: bad {what} {token!r}"
        ) from None


def _parse_gap(token: str, line_number: int) -> int:
    # Gaps are decimal instruction counts, unlike the hex pc/target.
    token = token.strip()
    try:
        return int(token, 10)
    except ValueError:
        raise ValueError(
            f"line {line_number}: bad gap {token!r}"
        ) from None


def _parse_type(token: str, line_number: int) -> int:
    token = token.strip().lower()
    if token in _TYPE_NAMES:
        return _TYPE_NAMES[token]
    try:
        value = int(token)
        BranchType(value)  # validates
        return value
    except ValueError:
        raise ValueError(
            f"line {line_number}: unknown branch type {token!r}; expected "
            f"one of {sorted(_TYPE_NAMES)} or 0..5"
        ) from None


def read_text_trace(path: Union[str, Path], name: str = None) -> Trace:
    """Parse a CSV trace file into a :class:`Trace`."""
    path = Path(path)
    pcs: List[int] = []
    types: List[int] = []
    takens: List[bool] = []
    targets: List[int] = []
    gaps: List[int] = []
    trace_name = name or path.stem

    with open(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line[1:].strip().lower().startswith("name:") and name is None:
                    trace_name = line.split(":", 1)[1].strip()
                continue
            fields = line.split(",")
            if len(fields) != 5:
                raise ValueError(
                    f"line {line_number}: expected 5 fields "
                    f"(pc,type,taken,target,gap), got {len(fields)}"
                )
            pc = _parse_int(fields[0], line_number, "pc")
            branch_type = _parse_type(fields[1], line_number)
            taken_token = fields[2].strip()
            if taken_token not in ("0", "1"):
                raise ValueError(
                    f"line {line_number}: taken must be 0 or 1, "
                    f"got {taken_token!r}"
                )
            taken = taken_token == "1"
            if branch_type != int(BranchType.CONDITIONAL) and not taken:
                raise ValueError(
                    f"line {line_number}: non-conditional branches must be "
                    f"taken"
                )
            target = _parse_int(fields[3], line_number, "target")
            gap = _parse_gap(fields[4], line_number)
            if gap < 0:
                raise ValueError(f"line {line_number}: negative gap {gap}")
            pcs.append(pc)
            types.append(branch_type)
            takens.append(taken)
            targets.append(target)
            gaps.append(gap)

    if not pcs:
        raise ValueError(f"{path} contains no records")
    return Trace(
        name=trace_name,
        pcs=np.array(pcs, dtype=np.uint64),
        types=np.array(types, dtype=np.uint8),
        takens=np.array(takens, dtype=bool),
        targets=np.array(targets, dtype=np.uint64),
        gaps=np.array(gaps, dtype=np.uint32),
    )


def write_text_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a :class:`Trace` in the CSV interchange format."""
    path = Path(path)
    with open(path, "w") as handle:
        handle.write(f"# name: {trace.name}\n")
        handle.write("# pc,type,taken,target,gap\n")
        for record in trace.records():
            handle.write(
                f"{record.pc:#x},{record.branch_type.name.lower()},"
                f"{int(record.taken)},{record.target:#x},{record.inst_gap}\n"
            )
