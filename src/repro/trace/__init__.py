"""CBP-style branch-trace infrastructure.

The paper evaluates predictors on branch traces from the Championship
Branch Prediction (CBP) infrastructure: a stream of branch records, each
carrying the branch PC, its type, its outcome, its target, and the number
of non-branch instructions since the previous branch.  This package
defines that record format, an in-memory/on-disk trace container, and the
per-trace statistics the paper's Figures 1, 6, and 7 are computed from.
"""

from repro.trace.derived import (
    DerivedPlane,
    cached_derived,
    compute_derived,
)
from repro.trace.plane import (
    TraceCache,
    atomic_write_bytes,
    attach_trace,
    cached_trace,
    spilled_hash,
    trace_content_hash,
    write_trace_v2,
)
from repro.trace.ingest import (
    IngestError,
    detect_format,
    load_any_trace,
    read_champsim_trace,
    read_gem5_trace,
    write_champsim_trace,
    write_gem5_trace,
)
from repro.trace.record import BranchRecord, BranchType
from repro.trace.sampling import (
    SampledRegion,
    SamplingPlan,
    interval_features,
    kmedoids,
    representative_window,
    simpoint_plan,
    systematic_sample,
    window,
)
from repro.trace.source import (
    FileSource,
    MaterializedSource,
    SampledSource,
    SourceError,
    TraceSource,
    WorkloadSource,
    as_source,
)
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.stream import Trace, read_trace, write_trace

__all__ = [
    "BranchRecord",
    "BranchType",
    "Trace",
    "read_trace",
    "write_trace",
    "write_trace_v2",
    "atomic_write_bytes",
    "attach_trace",
    "cached_trace",
    "spilled_hash",
    "trace_content_hash",
    "TraceCache",
    "DerivedPlane",
    "compute_derived",
    "cached_derived",
    "TraceStats",
    "compute_stats",
    "IngestError",
    "detect_format",
    "load_any_trace",
    "read_champsim_trace",
    "read_gem5_trace",
    "write_champsim_trace",
    "write_gem5_trace",
    "SampledRegion",
    "SamplingPlan",
    "interval_features",
    "kmedoids",
    "representative_window",
    "simpoint_plan",
    "systematic_sample",
    "window",
    "TraceSource",
    "MaterializedSource",
    "WorkloadSource",
    "FileSource",
    "SampledSource",
    "SourceError",
    "as_source",
]
