"""Ingestion adapters: external branch-trace formats → :class:`Trace`.

The 88-workload suite is synthetic; real workloads (whose branch
predictability differs — see PAPERS.md) arrive as trace files produced
by *other* tools.  This module converts two common textual shapes into
the repository's canonical :class:`~repro.trace.stream.Trace`, building
on the interchange conventions of :mod:`repro.trace.textio`:

**ChampSim/CBP-style** (``format="champsim"``) — one branch per line,
whitespace-separated, as emitted by ChampSim branch tracers and CBP
trace converters::

    <pc> <target> <taken> <type> [gap]

with ``pc``/``target`` in hex (bare or ``0x``-prefixed), ``taken`` as
``0``/``1`` or ``N``/``T``, ``type`` a ChampSim branch class
(``BRANCH_CONDITIONAL``, ``BRANCH_DIRECT_JUMP``, ``BRANCH_INDIRECT``,
``BRANCH_DIRECT_CALL``, ``BRANCH_INDIRECT_CALL``, ``BRANCH_RETURN`` —
case-insensitive, the ``BRANCH_`` prefix optional, this library's own
type names also accepted), and ``gap`` an optional decimal count of
non-branch instructions since the previous branch (default 0).

**gem5-style** (``format="gem5"``) — ``key=value`` records in gem5's
debug-trace line shape, as produced by a ``--debug-flags=Branch``-style
dumper; lines without a ``pc=`` token (other debug output, stats
noise) are skipped rather than rejected::

    <tick>: <object>: ... pc=<hex> target=<hex> taken=<0|1> type=<class> [icount=<n>]

``type`` accepts gem5 control-flavor names (``CondCtrl``,
``UncondDirectCtrl``, ``UncondIndirectCtrl``, ``CallDirectCtrl``,
``CallIndirectCtrl``, ``ReturnCtrl`` and common shorthands).  When
``icount=`` carries a cumulative instruction count, per-record gaps are
derived from its deltas; an explicit ``gap=`` wins.

Both adapters honour ``# name: <trace name>`` header comments, validate
as :mod:`repro.trace.textio` does (non-conditional branches must be
taken, gaps non-negative), and report errors with line numbers.
:func:`detect_format` sniffs a file (magic bytes, extension, then first
data line) so CLI paths can ingest anything readable;
:func:`load_any_trace` is the one-call loader behind
:class:`~repro.trace.source.FileSource`, ``repro import``, and
``repro trace info``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.trace.plane import MAGIC_V2
from repro.trace.record import BranchType
from repro.trace.stream import Trace

#: Formats :func:`load_any_trace` understands.
FORMATS = ("rptrace", "csv", "champsim", "gem5")

_CHAMPSIM_TYPES: Dict[str, int] = {
    "conditional": int(BranchType.CONDITIONAL),
    "direct_jump": int(BranchType.DIRECT_JUMP),
    "indirect": int(BranchType.INDIRECT_JUMP),
    "indirect_jump": int(BranchType.INDIRECT_JUMP),
    "direct_call": int(BranchType.DIRECT_CALL),
    "indirect_call": int(BranchType.INDIRECT_CALL),
    "return": int(BranchType.RETURN),
}

_GEM5_TYPES: Dict[str, int] = {
    "condctrl": int(BranchType.CONDITIONAL),
    "cond": int(BranchType.CONDITIONAL),
    "unconddirectctrl": int(BranchType.DIRECT_JUMP),
    "directctrl": int(BranchType.DIRECT_JUMP),
    "direct": int(BranchType.DIRECT_JUMP),
    "uncondindirectctrl": int(BranchType.INDIRECT_JUMP),
    "indirectctrl": int(BranchType.INDIRECT_JUMP),
    "indirect": int(BranchType.INDIRECT_JUMP),
    "calldirectctrl": int(BranchType.DIRECT_CALL),
    "directcall": int(BranchType.DIRECT_CALL),
    "call": int(BranchType.DIRECT_CALL),
    "callindirectctrl": int(BranchType.INDIRECT_CALL),
    "indirectcall": int(BranchType.INDIRECT_CALL),
    "returnctrl": int(BranchType.RETURN),
    "return": int(BranchType.RETURN),
}

#: Canonical ChampSim class name per BranchType (for the writer).
_CHAMPSIM_NAMES = {
    int(BranchType.CONDITIONAL): "BRANCH_CONDITIONAL",
    int(BranchType.DIRECT_JUMP): "BRANCH_DIRECT_JUMP",
    int(BranchType.DIRECT_CALL): "BRANCH_DIRECT_CALL",
    int(BranchType.INDIRECT_JUMP): "BRANCH_INDIRECT",
    int(BranchType.INDIRECT_CALL): "BRANCH_INDIRECT_CALL",
    int(BranchType.RETURN): "BRANCH_RETURN",
}

_GEM5_NAMES = {
    int(BranchType.CONDITIONAL): "CondCtrl",
    int(BranchType.DIRECT_JUMP): "UncondDirectCtrl",
    int(BranchType.DIRECT_CALL): "CallDirectCtrl",
    int(BranchType.INDIRECT_JUMP): "UncondIndirectCtrl",
    int(BranchType.INDIRECT_CALL): "CallIndirectCtrl",
    int(BranchType.RETURN): "ReturnCtrl",
}


class IngestError(ValueError):
    """An external trace file could not be converted."""


class _Columns:
    """Column accumulator shared by the adapters."""

    def __init__(self) -> None:
        self.pcs: List[int] = []
        self.types: List[int] = []
        self.takens: List[bool] = []
        self.targets: List[int] = []
        self.gaps: List[int] = []

    def append(
        self,
        line_number: int,
        pc: int,
        branch_type: int,
        taken: bool,
        target: int,
        gap: int,
    ) -> None:
        if branch_type != int(BranchType.CONDITIONAL) and not taken:
            raise IngestError(
                f"line {line_number}: non-conditional branches must be taken"
            )
        if gap < 0:
            raise IngestError(f"line {line_number}: negative gap {gap}")
        self.pcs.append(pc)
        self.types.append(branch_type)
        self.takens.append(taken)
        self.targets.append(target)
        self.gaps.append(gap)

    def build(self, name: str, path: Path) -> Trace:
        if not self.pcs:
            raise IngestError(f"{path} contains no branch records")
        return Trace(
            name=name,
            pcs=np.array(self.pcs, dtype=np.uint64),
            types=np.array(self.types, dtype=np.uint8),
            takens=np.array(self.takens, dtype=bool),
            targets=np.array(self.targets, dtype=np.uint64),
            gaps=np.array(self.gaps, dtype=np.uint32),
        )


def _hex(token: str, line_number: int, what: str) -> int:
    try:
        return int(token, 16)
    except ValueError:
        raise IngestError(
            f"line {line_number}: bad {what} {token!r} (expected hex)"
        ) from None


def _taken(token: str, line_number: int) -> bool:
    lowered = token.lower()
    if lowered in ("1", "t", "taken"):
        return True
    if lowered in ("0", "n", "not_taken"):
        return False
    raise IngestError(
        f"line {line_number}: taken must be 0/1 or N/T, got {token!r}"
    )


def _header_name(line: str) -> Optional[str]:
    body = line[1:].strip()
    if body.lower().startswith("name:"):
        return body.split(":", 1)[1].strip()
    return None


def read_champsim_trace(
    path: Union[str, Path], name: Optional[str] = None
) -> Trace:
    """Parse a ChampSim/CBP-style branch-trace text file."""
    path = Path(path)
    columns = _Columns()
    trace_name = name or path.name.split(".")[0]
    with open(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = _header_name(line)
                if header and name is None:
                    trace_name = header
                continue
            fields = line.split()
            if len(fields) not in (4, 5):
                raise IngestError(
                    f"line {line_number}: expected 4 or 5 fields "
                    f"(pc target taken type [gap]), got {len(fields)}"
                )
            pc = _hex(fields[0], line_number, "pc")
            target = _hex(fields[1], line_number, "target")
            taken = _taken(fields[2], line_number)
            key = fields[3].lower()
            if key.startswith("branch_"):
                key = key[len("branch_"):]
            if key not in _CHAMPSIM_TYPES:
                raise IngestError(
                    f"line {line_number}: unknown branch class "
                    f"{fields[3]!r}; expected one of "
                    f"{sorted('BRANCH_' + k.upper() for k in _CHAMPSIM_TYPES)}"
                )
            gap = 0
            if len(fields) == 5:
                try:
                    gap = int(fields[4], 10)
                except ValueError:
                    raise IngestError(
                        f"line {line_number}: bad gap {fields[4]!r} "
                        "(expected decimal)"
                    ) from None
            columns.append(
                line_number, pc, _CHAMPSIM_TYPES[key], taken, target, gap
            )
    return columns.build(trace_name, path)


def write_champsim_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` in the ChampSim-style text format (round-trips)."""
    path = Path(path)
    with open(path, "w") as handle:
        handle.write(f"# name: {trace.name}\n")
        handle.write("# pc target taken type gap\n")
        for record in trace.records():
            handle.write(
                f"{record.pc:x} {record.target:x} {int(record.taken)} "
                f"{_CHAMPSIM_NAMES[int(record.branch_type)]} "
                f"{record.inst_gap}\n"
            )


def read_gem5_trace(
    path: Union[str, Path], name: Optional[str] = None
) -> Trace:
    """Parse a gem5-style branch debug trace.

    Only lines carrying a ``pc=`` token are treated as branch records;
    everything else (other debug flags, stats banners) is skipped, which
    lets raw interleaved gem5 logs ingest without pre-filtering.
    """
    path = Path(path)
    columns = _Columns()
    trace_name = name or path.name.split(".")[0]
    last_icount: Optional[int] = None
    with open(path) as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                header = _header_name(line)
                if header and name is None:
                    trace_name = header
                continue
            pairs = {}
            for token in line.split():
                key, sep, value = token.partition("=")
                if sep:
                    pairs[key.lower()] = value
            if "pc" not in pairs:
                continue  # interleaved non-branch debug output
            for required in ("target", "taken", "type"):
                if required not in pairs:
                    raise IngestError(
                        f"line {line_number}: branch record missing "
                        f"{required}= (has pc=)"
                    )
            pc = _hex(pairs["pc"].replace("0x", ""), line_number, "pc")
            target = _hex(
                pairs["target"].replace("0x", ""), line_number, "target"
            )
            taken = _taken(pairs["taken"], line_number)
            key = pairs["type"].lower()
            if key not in _GEM5_TYPES:
                raise IngestError(
                    f"line {line_number}: unknown control flavor "
                    f"{pairs['type']!r}; expected one of "
                    f"{sorted(set(_GEM5_NAMES.values()))} or a shorthand"
                )
            gap = 0
            if "gap" in pairs:
                try:
                    gap = int(pairs["gap"], 10)
                except ValueError:
                    raise IngestError(
                        f"line {line_number}: bad gap {pairs['gap']!r}"
                    ) from None
            elif "icount" in pairs:
                try:
                    icount = int(pairs["icount"], 10)
                except ValueError:
                    raise IngestError(
                        f"line {line_number}: bad icount {pairs['icount']!r}"
                    ) from None
                if last_icount is not None:
                    delta = icount - last_icount
                    if delta < 1:
                        raise IngestError(
                            f"line {line_number}: icount went backwards "
                            f"({last_icount} -> {icount})"
                        )
                    # delta counts instructions including the previous
                    # branch itself; the gap excludes branches.
                    gap = delta - 1
                last_icount = icount
            columns.append(
                line_number, pc, _GEM5_TYPES[key], taken, target, gap
            )
    return columns.build(trace_name, path)


def write_gem5_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write ``trace`` in the gem5-style key=value format (round-trips)."""
    path = Path(path)
    with open(path, "w") as handle:
        handle.write(f"# name: {trace.name}\n")
        tick = 0
        for record in trace.records():
            tick += 500 * (record.inst_gap + 1)
            handle.write(
                f"{tick}: system.cpu.branchPred: branch "
                f"pc=0x{record.pc:x} target=0x{record.target:x} "
                f"taken={int(record.taken)} "
                f"type={_GEM5_NAMES[int(record.branch_type)]} "
                f"gap={record.inst_gap}\n"
            )


def _first_data_line(path: Path) -> str:
    with open(path, errors="replace") as handle:
        for raw in handle:
            line = raw.strip()
            if line and not line.startswith("#"):
                return line
    return ""


def detect_format(path: Union[str, Path]) -> str:
    """Sniff the trace format of ``path`` (one of :data:`FORMATS`).

    Magic bytes decide binary spills; then filename hints
    (``.csv``, ``.champsim*``, ``.gem5*``); then the shape of the first
    data line.  Raises :class:`IngestError` when nothing matches.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            magic = handle.read(8)
    except OSError as exc:
        raise IngestError(f"cannot read {path}: {exc}") from None
    if magic == MAGIC_V2:
        return "rptrace"
    suffixes = [s.lower() for s in path.suffixes]
    if ".csv" in suffixes:
        return "csv"
    if any(s.startswith(".champsim") for s in suffixes):
        return "champsim"
    if any(s.startswith(".gem5") for s in suffixes):
        return "gem5"
    line = _first_data_line(path)
    if not line:
        raise IngestError(f"{path}: empty file, cannot detect trace format")
    if "pc=" in line:
        return "gem5"
    if line.count(",") == 4:
        return "csv"
    fields = line.split()
    if len(fields) in (4, 5):
        return "champsim"
    raise IngestError(
        f"{path}: unrecognized trace format (first data line {line!r}); "
        f"pass an explicit format from {FORMATS}"
    )


def load_any_trace(
    path: Union[str, Path],
    format: Optional[str] = None,
    name: Optional[str] = None,
) -> Trace:
    """Load a trace in any supported format (sniffed unless pinned)."""
    path = Path(path)
    format = format or detect_format(path)
    if format == "rptrace":
        from repro.trace.stream import read_trace

        trace = read_trace(path)
        if name is not None and name != trace.name:
            trace = Trace(
                name, trace.pcs, trace.types, trace.takens,
                trace.targets, trace.gaps,
            )
        return trace
    if format == "csv":
        from repro.trace.textio import read_text_trace

        return read_text_trace(path, name=name)
    if format == "champsim":
        return read_champsim_trace(path, name=name)
    if format == "gem5":
        return read_gem5_trace(path, name=name)
    raise IngestError(
        f"unknown trace format {format!r}; expected one of {FORMATS}"
    )


__all__ = [
    "FORMATS",
    "IngestError",
    "detect_format",
    "load_any_trace",
    "read_champsim_trace",
    "read_gem5_trace",
    "write_champsim_trace",
    "write_gem5_trace",
]
