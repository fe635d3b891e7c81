"""Trace provenance: where traces come from, behind one abstraction.

The paper's SPEC traces are simpoints — representative windows cut from
much longer executions (§4.2) — yet everything downstream of a trace
(campaign planning, distributed shipping, search scoring, serving) only
needs three things from it: a stable **name**, a **content hash** that
identifies its bytes, and the ability to **materialize** it into the
RPTRACE2 spill format workers attach zero-copy.  :class:`TraceSource`
captures exactly that contract, so synthetic generators, imported
external traces, and sampled slices of long traces all flow through the
same planning/spill/ship machinery:

* :class:`MaterializedSource` — an in-memory :class:`Trace` (what every
  existing call site passes); wrapping is free and behavior-preserving.
* :class:`WorkloadSource` — a :class:`~repro.workloads.base.WorkloadSpec`
  (or any object with ``.name`` and ``.generate()``), generated lazily
  and memoized; a campaign plan over workload sources spills byte-for-
  byte what the eager ``spec.generate()`` path spilled.
* :class:`FileSource` — an on-disk trace in any readable format
  (an RPTRACE2 spill, interchange CSV, or an ingested external format — see
  :mod:`repro.trace.ingest`).  For RPTRACE2 files the name, record
  count, and content hash come straight from the header, so identity
  questions never decode the columns.
* :class:`SampledSource` — any source wrapped with SimPoint-style
  region selection (:func:`repro.trace.sampling.simpoint_plan`); its
  materialized trace is the concatenation of the plan's representative
  windows.  For calibrated MPKI estimates, feed its ``plan`` to
  :func:`repro.sim.engine.simulate_sampled` instead of simulating the
  concatenation directly.

:func:`as_source` coerces any of the accepted inputs (``Trace``,
``WorkloadSpec``, an existing source) so call sites stay polymorphic.
"""

from __future__ import annotations

import abc
from pathlib import Path
from typing import Optional, Union

from repro.trace.plane import (
    read_header_v2,
    spilled_hash,
    trace_content_hash,
    write_trace_v2,
)
from repro.trace.stream import Trace


class SourceError(ValueError):
    """A trace source could not be resolved or materialized."""


class TraceSource(abc.ABC):
    """One provenance of a branch trace.

    Subclasses implement :meth:`_materialize`; the base class memoizes
    the materialized trace and derives identity (``content_hash``),
    size (``__len__``), and spilling from it.  Subclasses with cheaper
    identity metadata (e.g. an RPTRACE2 header) override the derived
    methods to stay lazy.
    """

    _trace: Optional[Trace] = None
    _hash: Optional[str] = None

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """The trace name (the identity campaigns key cells on)."""

    @abc.abstractmethod
    def _materialize(self) -> Trace:
        """Produce the trace (called at most once; memoized)."""

    def trace(self) -> Trace:
        """The materialized trace, memoized across calls."""
        if self._trace is None:
            # Memoize before the name check: sources that derive their
            # lazy name *from* the trace (e.g. a headerless FileSource)
            # resolve ``self.name`` through this memo.
            self._trace = trace = self._materialize()
            if trace.name != self.name:
                self._trace = None
                raise SourceError(
                    f"source {self.name!r} materialized a trace named "
                    f"{trace.name!r}; names are cell identity and must match"
                )
        return self._trace

    def content_hash(self) -> str:
        """SHA-256 identity of the trace (name + canonical column bytes).

        Matches :func:`repro.trace.plane.trace_content_hash` of the
        materialized trace, i.e. the hash recorded in RPTRACE2 spill
        headers and used by the distributed trace stores.
        """
        if self._hash is None:
            self._hash = trace_content_hash(self.trace())
        return self._hash

    def __len__(self) -> int:
        """Branch records in the trace."""
        return len(self.trace())

    def release(self) -> None:
        """Drop the memoized trace (sources stay re-materializable)."""
        self._trace = None

    def spill(self, path: Union[str, Path]) -> bool:
        """Materialize into an RPTRACE2 spill at ``path``, at most once.

        Keyed on the source content hash: an existing spill whose header
        hash matches is left byte-untouched (one header read), so resumed
        campaigns rewrite nothing and worker ``TraceCache`` mappings and
        derived planes stay valid.  Returns ``True`` if the file was
        (re)written.
        """
        path = Path(path)
        content_hash = self.content_hash()
        if path.exists() and spilled_hash(path) == content_hash:
            return False
        write_trace_v2(self.trace(), path, content_hash=content_hash)
        return True

    def __repr__(self) -> str:
        state = "materialized" if self._trace is not None else "lazy"
        return f"{type(self).__name__}(name={self.name!r}, {state})"


class MaterializedSource(TraceSource):
    """A source wrapping an already-in-memory :class:`Trace`."""

    def __init__(self, trace: Trace) -> None:
        self._trace = trace

    @property
    def name(self) -> str:
        return self._trace.name

    def _materialize(self) -> Trace:  # pragma: no cover - trace is eager
        return self._trace

    def release(self) -> None:
        """No-op: the wrapped trace *is* the source."""


class WorkloadSource(TraceSource):
    """A synthetic workload, generated lazily.

    Wraps anything with a ``name`` attribute and a ``generate()`` method
    returning a :class:`Trace` — a :class:`~repro.workloads.base.
    WorkloadSpec`, a :class:`~repro.workloads.suite.SuiteTrace`, or a
    test double.  Generation happens at most once, on first use;
    everything downstream (spill bytes, plans, journals) is identical to
    passing ``spec.generate()`` eagerly.
    """

    def __init__(self, spec) -> None:
        if not hasattr(spec, "generate") or not hasattr(spec, "name"):
            raise SourceError(
                f"{type(spec).__name__} is not a workload spec "
                "(needs .name and .generate())"
            )
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def _materialize(self) -> Trace:
        return self.spec.generate()


class FileSource(TraceSource):
    """An on-disk trace in any readable format.

    Formats: RPTRACE2 spills, the interchange CSV, and the
    ingestion formats of :mod:`repro.trace.ingest` (ChampSim-style,
    gem5-style) — dispatched by :func:`repro.trace.ingest.detect_format`
    unless ``format`` pins one.  For RPTRACE2 files, ``name``,
    ``len()``, and ``content_hash()`` are answered from the JSON header
    without decoding any column bytes.
    """

    def __init__(
        self,
        path: Union[str, Path],
        format: Optional[str] = None,
        name: Optional[str] = None,
    ) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise SourceError(f"trace file {self.path} does not exist")
        self.format = format
        self._name = name
        self._records: Optional[int] = None
        if name is None or format is None:
            header = read_header_v2(self.path)
            if header is not None:
                if name is None:
                    self._name = str(header["name"])
                self._records = int(header["records"])
                recorded = header.get("content_hash")
                # Only trust the header hash when the caller keeps the
                # recorded name — renaming changes the content hash.
                if name is None and isinstance(recorded, str):
                    self._hash = recorded

    @property
    def name(self) -> str:
        if self._name is None:
            self._name = self.trace().name
        return self._name

    def __len__(self) -> int:
        if self._records is None:
            self._records = len(self.trace())
        return self._records

    def _materialize(self) -> Trace:
        from repro.trace.ingest import load_any_trace

        return load_any_trace(self.path, format=self.format, name=self._name)


class SampledSource(TraceSource):
    """SimPoint-style sampled view of another source.

    Region selection follows :func:`repro.trace.sampling.simpoint_plan`:
    the base trace is cut into fixed-size intervals, each interval is
    summarized as a branch-mix feature vector, the intervals are
    clustered with k-medoids, and one representative (medoid) interval
    per cluster is kept, weighted by the instruction share of its
    cluster.

    The materialized trace is the concatenation of the representative
    windows (warm-up prefixes excluded), named
    ``{base}~s{regions}x{interval}`` — a cheap stand-in usable anywhere
    a trace is.  Direct simulation of that concatenation pays cold-start
    effects at every window seam and weighs windows by length, not by
    cluster share; for calibrated full-trace MPKI estimates use
    :func:`repro.sim.engine.simulate_sampled` with this source's
    :meth:`plan` (per-region warm-up, cluster-weighted combination).
    """

    def __init__(
        self,
        base: Union[Trace, TraceSource],
        interval_records: int = 5000,
        regions: int = 4,
        warmup_intervals: int = 1,
    ) -> None:
        if interval_records < 1:
            raise SourceError(
                f"interval_records must be >= 1, got {interval_records}"
            )
        if regions < 1:
            raise SourceError(f"regions must be >= 1, got {regions}")
        if warmup_intervals < 0:
            raise SourceError(
                f"warmup_intervals must be >= 0, got {warmup_intervals}"
            )
        self.base = as_source(base)
        self.interval_records = interval_records
        self.regions = regions
        self.warmup_intervals = warmup_intervals
        self._plan = None

    @property
    def name(self) -> str:
        return (
            f"{self.base.name}~s{self.regions}x{self.interval_records}"
        )

    def plan(self):
        """The :class:`~repro.trace.sampling.SamplingPlan`, memoized."""
        if self._plan is None:
            from repro.trace.sampling import simpoint_plan

            self._plan = simpoint_plan(
                self.base.trace(),
                self.interval_records,
                max_regions=self.regions,
                warmup_intervals=self.warmup_intervals,
            )
        return self._plan

    def _materialize(self) -> Trace:
        from repro.trace.sampling import window
        from repro.trace.stream import concatenate

        base = self.base.trace()
        plan = self.plan()
        windows = [
            window(base, region.start, region.length)
            for region in plan.regions
        ]
        sampled = concatenate(self.name, windows)
        return sampled


def as_source(obj: Union[Trace, TraceSource, object]) -> TraceSource:
    """Coerce ``obj`` into a :class:`TraceSource`.

    Accepts an existing source (returned unchanged), an in-memory
    :class:`Trace`, or a workload spec (``.name`` + ``.generate()``).
    """
    if isinstance(obj, TraceSource):
        return obj
    if isinstance(obj, Trace):
        return MaterializedSource(obj)
    if hasattr(obj, "generate") and hasattr(obj, "name"):
        return WorkloadSource(obj)
    raise SourceError(
        f"cannot interpret {type(obj).__name__} as a trace source "
        "(expected Trace, TraceSource, or a workload spec)"
    )


__all__ = [
    "FileSource",
    "MaterializedSource",
    "SampledSource",
    "SourceError",
    "TraceSource",
    "WorkloadSource",
    "as_source",
]
