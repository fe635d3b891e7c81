"""Memoized suite generation and campaign execution.

Several figures share the same expensive inputs — the generated
88-trace suite, its per-trace statistics, and the full 4-predictor
campaign.  Benchmarks run in one process (`pytest benchmarks/`), so a
process-level cache keyed on the scale factor lets Figure 8, Figure 9,
and the §5.1 headline all reuse a single campaign run instead of
tripling a multi-minute simulation.

Campaigns are keyed by predictor *name and factory identity* — two
different configurations registered under the same name occupy
different cache slots instead of silently aliasing (see
:func:`_factory_identity`).  When the ``REPRO_JOBS`` environment
variable requests more than one worker, campaigns run through the
parallel execution engine (:func:`repro.exec.run_campaign_parallel`),
which merges cells deterministically, so cached results are identical
either way.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from repro.predictors.base import IndirectBranchPredictor
from repro.sim.metrics import CampaignResult
from repro.sim.runner import run_campaign
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.stream import Trace
from repro.workloads.suite import build_cbp4_like_suite, env_scale, suite88_specs

_suite_cache: Dict[Tuple[str, float], List[Trace]] = {}
_stats_cache: Dict[Tuple[str, float], List[TraceStats]] = {}
_campaign_cache: Dict[Hashable, CampaignResult] = {}


def _resolve_scale(scale: Optional[float]) -> float:
    return env_scale() if scale is None else scale


def get_suite_traces(scale: Optional[float] = None, suite: str = "suite88") -> List[Trace]:
    """The generated trace suite, cached per (suite, scale)."""
    scale = _resolve_scale(scale)
    key = (suite, scale)
    if key not in _suite_cache:
        if suite == "suite88":
            _suite_cache[key] = [entry.generate() for entry in suite88_specs(scale)]
        elif suite == "cbp4":
            _suite_cache[key] = build_cbp4_like_suite(scale)
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return _suite_cache[key]


def get_suite_stats(scale: Optional[float] = None, suite: str = "suite88") -> List[TraceStats]:
    """Per-trace workload statistics, cached per (suite, scale)."""
    scale = _resolve_scale(scale)
    key = (suite, scale)
    if key not in _stats_cache:
        _stats_cache[key] = [
            compute_stats(trace) for trace in get_suite_traces(scale, suite)
        ]
    return _stats_cache[key]


def _factory_identity(factory: Callable) -> Hashable:
    """A hashable identity distinguishing factories beyond their name.

    Importable classes/functions map to their stable ``(module,
    qualname)``; ``functools.partial`` recurses into its pieces so two
    partials over different configs differ.  Anything opaque — lambdas,
    closures, bound methods of distinct objects — is keyed by the
    object itself: conservative (a re-created closure re-runs the
    campaign) but never lets two different configurations alias one
    cache entry.  The key holds a reference to the object, so its
    identity cannot be recycled by the allocator while cached.
    """
    if isinstance(factory, functools.partial):
        return (
            "partial",
            _factory_identity(factory.func),
            tuple(repr(arg) for arg in factory.args),
            tuple(sorted((k, repr(v)) for k, v in factory.keywords.items())),
        )
    module = getattr(factory, "__module__", None)
    qualname = getattr(factory, "__qualname__", None)
    if module and qualname and "<" not in qualname:
        return (module, qualname)
    try:
        hash(factory)
    except TypeError:
        _identity_keepalive.append(factory)
        return ("object", id(factory))
    return ("object", factory)


#: Unhashable factories referenced by id() in cache keys; kept alive so
#: their ids stay unique for the process lifetime.
_identity_keepalive: List[Callable] = []


def _campaign_key(
    suite: str,
    scale: float,
    factories: Dict[str, Callable[[], IndirectBranchPredictor]],
) -> Hashable:
    return (
        suite,
        scale,
        tuple(
            (name, _factory_identity(factories[name]))
            for name in sorted(factories)
        ),
    )


def get_campaign(
    factories: Dict[str, Callable[[], IndirectBranchPredictor]],
    scale: Optional[float] = None,
    suite: str = "suite88",
) -> CampaignResult:
    """A campaign over the cached suite, cached per (name, factory) set.

    With ``REPRO_JOBS`` set above 1, the campaign is executed by the
    parallel engine; results are deterministic and identical to the
    serial path, so the cache never mixes semantics.  A non-integer
    ``REPRO_JOBS`` raises ``ValueError`` (:func:`repro.exec.resolve_jobs`).
    """
    scale = _resolve_scale(scale)
    key = _campaign_key(suite, scale, factories)
    if key not in _campaign_cache:
        from repro.exec import resolve_jobs, run_campaign_parallel

        jobs = resolve_jobs()
        traces = get_suite_traces(scale, suite)
        if jobs > 1:
            _campaign_cache[key] = run_campaign_parallel(
                traces, factories, jobs=jobs
            )
        else:
            _campaign_cache[key] = run_campaign(traces, factories)
    return _campaign_cache[key]


def clear_caches() -> None:
    """Drop all cached suites and campaigns (tests use this)."""
    _suite_cache.clear()
    _stats_cache.clear()
    _campaign_cache.clear()
    _identity_keepalive.clear()
