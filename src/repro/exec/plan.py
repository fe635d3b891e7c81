"""Campaign planning: expand traces × factories into serializable cells.

A *plan* is the execution engine's unit of truth: one
:class:`CellSpec` per (trace, predictor) pair, in the same
deterministic order the serial runner would visit them.  Specs must
cross a process boundary cheaply, so they reference traces **by spill
path**: workers attach the ``RPTRACE2`` zero-copy format
(:mod:`repro.trace.plane`) with ``np.memmap`` instead of unpickling
multi-megabyte NumPy columns from every task message.

A trace the caller already holds in memory is not written at plan time:
the plan keeps it, with its content hash, as *resident* under the path
its spill would have.  An in-process run simulates it straight from
memory; :meth:`CampaignPlan.spill` writes it, once per plan, when a unit
is about to leave the process.  Sources that must be materialized
(workload specs, trace files, samples) are spilled at plan time, which
is what lets the plan release them.  A spill whose recorded content hash
already matches is left untouched, so resumed campaigns rewrite nothing
(and keep existing mappings and derived planes valid).

:func:`fuse_cells` groups contiguous cells that share a trace into
:class:`FusedCellSpec` units, which the pool layer runs as *one* pass
over the trace via :func:`repro.sim.engine.simulate_many` — journal
entries, events, and results stay per-cell.

Predictor factories are captured as :class:`FactoryRef`: importable
classes/functions travel as a ``module:qualname`` string (stable across
processes and journal restarts); anything else — closures, bound
configs — is carried as the callable itself, which the pool layer
pickles when it can and degrades to in-process execution when it
cannot.
"""

from __future__ import annotations

import importlib
import pickle
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.sim.runner import PredictorFactory
from repro.trace.source import MaterializedSource, TraceSource, as_source
from repro.trace.stream import Trace

#: What campaigns accept as a trace: an in-memory :class:`Trace`, any
#: :class:`~repro.trace.source.TraceSource`, or a workload spec with
#: ``.name``/``.generate()`` — all coerced via
#: :func:`repro.trace.source.as_source`.
TraceLike = Union[Trace, TraceSource, object]

#: (trace_name, predictor_name) — the identity of one campaign cell.
CellKey = Tuple[str, str]


class PlanError(ValueError):
    """A campaign could not be expanded into a valid plan."""


def _resolve_dotted(dotted: str) -> Callable:
    """Import ``module:qualname`` back into the object it names."""
    module_name, _, qualname = dotted.partition(":")
    obj = importlib.import_module(module_name)
    for attribute in qualname.split("."):
        obj = getattr(obj, attribute)
    return obj


@dataclass(frozen=True)
class FactoryRef:
    """A predictor factory in a process-portable form.

    Exactly one of ``dotted`` (an importable ``module:qualname``) or
    ``obj`` (the callable itself) is set.  ``dotted`` is preferred: it
    pickles as a short string and stays valid across interpreter
    restarts, which matters for resumed campaigns.
    """

    dotted: Optional[str] = None
    obj: Optional[Callable] = None

    @classmethod
    def from_callable(cls, factory: PredictorFactory) -> "FactoryRef":
        module = getattr(factory, "__module__", None)
        qualname = getattr(factory, "__qualname__", None)
        if module and qualname and "<" not in qualname:
            dotted = f"{module}:{qualname}"
            try:
                if _resolve_dotted(dotted) is factory:
                    return cls(dotted=dotted)
            except (ImportError, AttributeError):
                pass
        return cls(obj=factory)

    def build(self):
        """Construct a fresh predictor from this reference."""
        factory = _resolve_dotted(self.dotted) if self.dotted else self.obj
        if factory is None:
            raise PlanError("FactoryRef has neither dotted path nor object")
        return factory()

    def picklable(self) -> bool:
        """Whether this ref can cross a process boundary."""
        if self.dotted is not None:
            return True
        try:
            pickle.dumps(self.obj)
            return True
        except Exception:  # noqa: BLE001 - pickle raises many types
            return False


@dataclass(frozen=True)
class CellSpec:
    """One schedulable (trace, predictor) simulation."""

    #: Zero-based position in the plan (the deterministic merge order).
    index: int
    trace_name: str
    predictor_name: str
    #: RPTRACE2 spill file the worker attaches the trace from (for a
    #: resident trace, the path its spill gets when one is needed).
    trace_path: str
    factory: FactoryRef
    ras_depth: int = 32
    warmup_records: int = 0
    #: Branch records in the trace (for throughput/ETA accounting).
    records: int = 0
    #: Run the cell with hot-path profiling (counters + phase timings
    #: land on the result's ``profile`` field and in journal/events).
    profile: bool = False
    #: When > 0, the worker snapshots simulation state every this-many
    #: records into ``checkpoint_path`` so a killed/timed-out cell
    #: resumes mid-trace instead of restarting (see repro.sim.checkpoint).
    checkpoint_every: int = 0
    #: Per-cell checkpoint file (attached by the pool layer).
    checkpoint_path: Optional[str] = None
    #: Simulation backend (see :data:`repro.sim.engine.BACKENDS`):
    #: ``"scalar"`` retires branch-by-branch, ``"columnar"`` batches
    #: whole branch groups through :mod:`repro.sim.kernel` (bit-
    #: identical; unsupported predictors fall back to scalar).
    backend: str = "scalar"

    @property
    def key(self) -> CellKey:
        return (self.trace_name, self.predictor_name)


@dataclass(frozen=True)
class FusedCellSpec:
    """Several same-trace cells executed as one pass over the trace.

    Purely an *execution* grouping: the member cells keep their plan
    indices, keys, and per-cell journal/event identity.  Members share
    trace path, RAS depth, warmup, and checkpoint interval (enforced at
    construction), which is exactly what :func:`simulate_many` needs to
    issue every predictor its unfused call sequence in one pass.
    """

    cells: Tuple[CellSpec, ...]

    def __post_init__(self) -> None:
        if len(self.cells) < 2:
            raise PlanError("a fused cell needs at least two member cells")
        first = self.cells[0]
        for cell in self.cells[1:]:
            if (
                cell.trace_path != first.trace_path
                or cell.trace_name != first.trace_name
                or cell.ras_depth != first.ras_depth
                or cell.warmup_records != first.warmup_records
                or cell.checkpoint_every != first.checkpoint_every
                or cell.backend != first.backend
            ):
                raise PlanError(
                    f"cells ({first.trace_name}, {first.predictor_name}) and "
                    f"({cell.trace_name}, {cell.predictor_name}) cannot fuse: "
                    "trace/ras_depth/warmup/checkpoint settings differ"
                )

    @property
    def trace_name(self) -> str:
        return self.cells[0].trace_name

    @property
    def trace_path(self) -> str:
        return self.cells[0].trace_path

    @property
    def records(self) -> int:
        return self.cells[0].records

    @property
    def size(self) -> int:
        return len(self.cells)


#: What the pool layer schedules: a bare cell or a fused group.
ExecutionUnit = Union[CellSpec, "FusedCellSpec"]


def fuse_cells(
    cells: Iterable[CellSpec],
    fusable: Optional[Callable[[CellSpec], bool]] = None,
) -> List[ExecutionUnit]:
    """Group contiguous same-trace cells into :class:`FusedCellSpec`s.

    Only *adjacent* compatible cells fuse, which preserves plan order:
    recording a group's members in cell order keeps the serial journal
    byte-identical to an unfused run.  ``fusable`` can veto individual
    cells (profiled cells, cells with a pending checkpoint); a vetoed
    cell runs alone and breaks the current run of fusable cells.
    """
    units: List[ExecutionUnit] = []
    run: List[CellSpec] = []

    def flush() -> None:
        if len(run) >= 2:
            units.append(FusedCellSpec(cells=tuple(run)))
        elif run:
            units.append(run[0])
        run.clear()

    for cell in cells:
        if fusable is not None and not fusable(cell):
            flush()
            units.append(cell)
            continue
        if run and (
            cell.trace_path != run[-1].trace_path
            or cell.trace_name != run[-1].trace_name
            or cell.ras_depth != run[-1].ras_depth
            or cell.warmup_records != run[-1].warmup_records
            or cell.checkpoint_every != run[-1].checkpoint_every
            or cell.backend != run[-1].backend
        ):
            flush()
        run.append(cell)
    flush()
    return units


@dataclass
class CampaignPlan:
    """An ordered set of cells plus the spill directory they reference."""

    cells: List[CellSpec] = field(default_factory=list)
    cache_dir: Optional[Path] = None
    #: In-memory traces by spill path, each with its content hash
    #: memoized: nothing is written for them until :meth:`spill`.
    resident: Dict[str, TraceSource] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return len(self.cells)

    def keys(self) -> List[CellKey]:
        return [cell.key for cell in self.cells]

    def spill(self, paths: Optional[Iterable[str]] = None) -> int:
        """Write resident traces (all, or those at ``paths``) to disk.

        A trace whose file already holds its content hash is not written
        again, so spilling a plan twice writes each trace once.  Returns
        how many files were written.
        """
        if paths is None:
            paths = self.resident
        return sum(
            self.resident[path].spill(path)
            for path in paths
            if path in self.resident
        )


_UNSAFE_FILENAME = re.compile(r"[^A-Za-z0-9._-]+")


def _spill_name(index: int, trace_name: str) -> str:
    """A filesystem-safe, collision-free spill filename for a trace."""
    stem = _UNSAFE_FILENAME.sub("_", trace_name)[:80] or "trace"
    return f"{index:04d}-{stem}.trace"


def checkpoint_name(spec: "CellSpec") -> str:
    """A filesystem-safe, collision-free checkpoint filename for a cell.

    The plan index disambiguates cells whose sanitized names collide;
    the names keep the file greppable next to its journal.
    """
    trace = _UNSAFE_FILENAME.sub("_", spec.trace_name)[:60] or "trace"
    predictor = (
        _UNSAFE_FILENAME.sub("_", spec.predictor_name)[:40] or "predictor"
    )
    return f"{spec.index:04d}-{trace}-{predictor}.ckpt.json"


def plan_campaign(
    traces: Iterable[TraceLike],
    factories: Dict[str, PredictorFactory],
    cache_dir: Union[str, Path],
    ras_depth: int = 32,
    warmup_records: int = 0,
    profile: bool = False,
    backend: str = "scalar",
) -> CampaignPlan:
    """Expand a campaign into a :class:`CampaignPlan`.

    ``traces`` may mix in-memory :class:`Trace`s, lazy
    :class:`~repro.trace.source.TraceSource`s, and workload specs.  Each
    gets one spill path in ``cache_dir`` (created if needed) that all its
    cells point at.  An in-memory trace stays resident on the plan and is
    written only by :meth:`CampaignPlan.spill`; any other source is
    materialized, spilled and released here — a plan over workload
    sources produces byte-identical spills, cells, and journals to one
    over eagerly generated traces.  Cell order matches
    :func:`repro.sim.runner.run_campaign`: traces outermost, factories
    in dict order — so a merged parallel campaign is cell-for-cell
    identical to a serial one.

    Raises:
        PlanError: on duplicate trace names (they would alias one
            journal/result cell) or an empty factory map.
    """
    sources = [as_source(trace) for trace in traces]
    if not factories:
        raise PlanError("campaign needs at least one predictor factory")
    from repro.sim.engine import BACKENDS

    if backend not in BACKENDS:
        raise PlanError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    names = [source.name for source in sources]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:
        raise PlanError(
            f"duplicate trace names in campaign: {sorted(duplicates)}; "
            "cells are keyed by (trace, predictor) and would collide"
        )

    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    refs = {
        name: FactoryRef.from_callable(factory)
        for name, factory in factories.items()
    }

    cells: List[CellSpec] = []
    resident: Dict[str, TraceSource] = {}
    index = 0
    for trace_index, source in enumerate(sources):
        path = str(cache_dir / _spill_name(trace_index, source.name))
        if isinstance(source, MaterializedSource):
            source.content_hash()  # the hash its spill header would hold
            resident[path] = source
        else:
            source.spill(path)
        records = len(source)
        source.release()
        for predictor_name, ref in refs.items():
            cells.append(
                CellSpec(
                    index=index,
                    trace_name=source.name,
                    predictor_name=predictor_name,
                    trace_path=path,
                    factory=ref,
                    ras_depth=ras_depth,
                    warmup_records=warmup_records,
                    records=records,
                    profile=profile,
                    backend=backend,
                )
            )
            index += 1
    return CampaignPlan(cells=cells, cache_dir=cache_dir, resident=resident)


#: Estimated fixed spill overhead (RPTRACE2 magic + JSON header + column
#: alignment padding); the per-record columns dominate real spills.
SPILL_OVERHEAD_BYTES = 512


def plan_summary(
    traces: Iterable[TraceLike],
    factories: Dict[str, PredictorFactory],
    fuse: bool = True,
    profile: bool = False,
) -> Dict[str, int]:
    """What a campaign *would* plan, without spilling or executing.

    Backs ``repro simulate --dry-run`` / ``repro search --dry-run``:
    the cell count, scheduling-unit/fusion-group shape, the number of
    distinct traces a distributed pool would ship, and an estimate of
    total spill bytes (:func:`repro.trace.plane.record_nbytes` per
    record plus a fixed per-file overhead).  No files are written;
    sources with header metadata (e.g. RPTRACE2 files) are sized
    without decoding, others materialize once for the count.
    """
    from repro.trace.plane import record_nbytes

    traces = [as_source(trace) for trace in traces]
    names = {source.name for source in traces}
    cells = len(traces) * len(factories)
    # Mirrors fuse_cells over plan_campaign's trace-major order:
    # each trace's cells are adjacent and fuse into one group unless
    # fusion is off, profiling forces solo cells, or there is only one
    # factory (a "group" of one is just a solo cell).
    if fuse and not profile and len(factories) > 1:
        fused_groups = len(traces)
        units = len(traces)
    else:
        fused_groups = 0
        units = cells
    spill_bytes = sum(
        SPILL_OVERHEAD_BYTES + len(trace) * record_nbytes()
        for trace in traces
    )
    return {
        "traces": len(traces),
        "distinct_traces": len(names),
        "predictors": len(factories),
        "cells": cells,
        "units": units,
        "fused_groups": fused_groups,
        "estimated_spill_bytes": spill_bytes,
    }


__all__ = [
    "CellKey",
    "CellSpec",
    "CampaignPlan",
    "ExecutionUnit",
    "FactoryRef",
    "FusedCellSpec",
    "PlanError",
    "SPILL_OVERHEAD_BYTES",
    "TraceLike",
    "checkpoint_name",
    "fuse_cells",
    "plan_summary",
    "plan_campaign",
]
