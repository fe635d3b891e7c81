"""Batched candidate evaluation through the ``repro.exec`` pool.

Search throughput is bounded by simulation, so the evaluator treats a
whole candidate *generation* as one campaign: every (candidate, trace)
pair becomes one :class:`~repro.exec.plan.CellSpec` and the exec pool
schedules them all at once — B candidates × T traces cells per
generation instead of one simulation at a time.

Two costs are paid once, not per generation:

* **Trace spill.**  Tuning traces are spilled as ``RPTRACE2`` files
  (:meth:`~repro.trace.source.TraceSource.spill`) a single time at
  construction; every generation's cells point at the same files
  (``plan_campaign`` would re-spill per call, which is exactly what a
  thousand-generation search cannot afford).
* **Candidate scores.**  A per-evaluator memo keyed on
  ``(candidate key, trace subset)`` makes re-proposed candidates free —
  hill-climbing revisits its incumbent constantly, and successive
  halving re-scores survivors only at *larger* budgets.

Factories cross the process boundary as
``functools.partial(BLBP, config)`` — picklable because
:class:`BLBPConfig` is a frozen dataclass — so parallel generations
never degrade to the serial fallback.

The default tuning workload comes from
:func:`repro.experiments.runcache.get_suite_traces`, sharing the
process-level suite cache with the figure benchmarks.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core import BLBP
from repro.core.config import BLBPConfig
from repro.exec import resolve_jobs
from repro.exec.events import EventSink
from repro.exec.plan import CampaignPlan, CellSpec, FactoryRef, _spill_name
from repro.exec.pool import execute_plan
from repro.trace.source import as_source
from repro.trace.stream import Trace


class EvaluationError(RuntimeError):
    """A candidate generation could not be scored."""


@dataclass(frozen=True)
class Candidate:
    """One scoreable configuration with a stable identity.

    ``key`` is the canonical parameter string from
    :meth:`SearchSpace.candidate_key`; ``uid`` the short derived id used
    as the predictor name inside exec plans and journals.
    """

    key: str
    uid: str
    config: BLBPConfig
    params: Dict[str, object] = field(default_factory=dict, compare=False)


def make_candidate(space, params) -> "Candidate":
    """Build a :class:`Candidate` from a space assignment."""
    return Candidate(
        key=space.candidate_key(params),
        uid=space.candidate_id(params),
        config=space.to_config(params),
        params=dict(params),
    )


def config_candidate(label: str, config: BLBPConfig) -> "Candidate":
    """A candidate from an explicit config, keyed by a caller label.

    The sweep/ablation drivers name points by human label rather than
    by parameter assignment; the uid is hash-derived so it is always
    plan- and journal-safe whatever the label contains.
    """
    digest = hashlib.sha1(label.encode("utf-8")).hexdigest()
    return Candidate(
        key=label,
        uid=f"cand-{digest[:16]}",
        config=config,
        params={"label": label},
    )


class GenerationEvaluator:
    """Scores candidate generations as parallel campaigns.

    Use as a context manager (or call :meth:`close`) so a temporary
    spill directory is cleaned up; an explicit ``cache_dir`` is left in
    place for reuse across processes.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        jobs: Optional[int] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        events: Optional[EventSink] = None,
        ras_depth: int = 32,
        warmup_records: int = 0,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.1,
        fuse: bool = True,
        pool=None,
        backend: str = "scalar",
    ) -> None:
        sources = [as_source(trace) for trace in traces]
        if not sources:
            raise EvaluationError("evaluator needs at least one trace")
        names = [source.name for source in sources]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise EvaluationError(
                f"duplicate trace names: {sorted(duplicates)}"
            )
        self.jobs = resolve_jobs(jobs)
        self.events = events
        self.ras_depth = ras_depth
        self.warmup_records = warmup_records
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.fuse = fuse
        self.backend = backend
        # Resolve the campaign pool once for the evaluator's lifetime —
        # a search scores hundreds of generations, and an env-driven
        # NodePool must not respawn its workers per score() call.
        # Worker trace stores are content-addressed, so every
        # generation's cells reuse the spills shipped by the first.
        from repro.dist import resolve_pool

        self.pool = resolve_pool(pool)
        self._owns_pool = pool is None and self.pool is not None
        self._owns_dir = cache_dir is None
        self._dir = Path(
            tempfile.mkdtemp(prefix="repro-search-")
            if cache_dir is None
            else cache_dir
        )
        self._dir.mkdir(parents=True, exist_ok=True)
        # Spill every source exactly once; cells reference these paths
        # for the evaluator's whole lifetime.  Lazy sources (workload
        # specs, files, sampled views) materialize only here, then are
        # released.  A reused cache_dir whose spills already match by
        # content hash is left untouched.
        self._spilled: List[Tuple[str, str, int]] = []
        for index, source in enumerate(sources):
            path = self._dir / _spill_name(index, source.name)
            source.spill(path)
            self._spilled.append((source.name, str(path), len(source)))
            source.release()
        #: (candidate key, subset size) → mean MPKI over that subset.
        self._memo: Dict[Tuple[str, int], float] = {}
        #: Candidates actually simulated (memo misses), cumulative.
        self.evaluated = 0
        #: Individual (candidate, trace) cells simulated, cumulative.
        self.cells_run = 0

    # -- lifecycle -----------------------------------------------------

    @property
    def num_traces(self) -> int:
        return len(self._spilled)

    def subset_size(self, trace_fraction: float) -> int:
        """Deterministic subset size for a strategy's trace fraction."""
        if not 0.0 < trace_fraction <= 1.0:
            raise EvaluationError(
                f"trace_fraction must be in (0, 1], got {trace_fraction}"
            )
        return max(1, math.ceil(trace_fraction * self.num_traces))

    def close(self) -> None:
        if self._owns_pool and self.pool is not None:
            self.pool.close()
            self.pool = None
            self._owns_pool = False
        if self._owns_dir and self._dir.exists():
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "GenerationEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scoring -------------------------------------------------------

    def score(
        self,
        candidates: Sequence[Candidate],
        subset: Optional[int] = None,
    ) -> List[float]:
        """Mean MPKI per candidate over the first ``subset`` traces.

        Scores come back in candidate order.  Already-memoized
        candidates cost nothing; the rest are scored through one exec
        campaign (parallel when ``jobs > 1``), whose deterministic
        merge makes the returned scores independent of scheduling.
        """
        subset = self.num_traces if subset is None else subset
        if not 1 <= subset <= self.num_traces:
            raise EvaluationError(
                f"subset must be in [1, {self.num_traces}], got {subset}"
            )
        pending: List[Candidate] = []
        seen_uids = set()
        for candidate in candidates:
            if (candidate.key, subset) in self._memo:
                continue
            if candidate.uid in seen_uids:
                continue
            seen_uids.add(candidate.uid)
            pending.append(candidate)

        if pending:
            plan = self._plan(pending, subset)
            campaign = execute_plan(
                plan,
                jobs=self.jobs,
                events=self.events,
                timeout=self.timeout,
                retries=self.retries,
                backoff=self.backoff,
                fuse=self.fuse,
                pool=self.pool,
            )
            for candidate in pending:
                values = [
                    campaign.results[trace_name][candidate.uid].mpki()
                    for trace_name, _, _ in self._spilled[:subset]
                ]
                self._memo[(candidate.key, subset)] = sum(values) / len(
                    values
                )
            self.evaluated += len(pending)
            self.cells_run += len(plan.cells)

        return [
            self._memo[(candidate.key, subset)] for candidate in candidates
        ]

    def prime(self, key: str, subset: int, score: float) -> None:
        """Seed the memo from a journal so resumed runs skip simulation."""
        self._memo[(key, subset)] = score

    def _plan(
        self, candidates: Sequence[Candidate], subset: int
    ) -> CampaignPlan:
        cells: List[CellSpec] = []
        index = 0
        for trace_name, trace_path, records in self._spilled[:subset]:
            for candidate in candidates:
                cells.append(
                    CellSpec(
                        index=index,
                        trace_name=trace_name,
                        predictor_name=candidate.uid,
                        trace_path=trace_path,
                        factory=FactoryRef(
                            obj=functools.partial(BLBP, candidate.config)
                        ),
                        ras_depth=self.ras_depth,
                        warmup_records=self.warmup_records,
                        records=records,
                        backend=self.backend,
                    )
                )
                index += 1
        return CampaignPlan(cells=cells, cache_dir=self._dir)


def suite_evaluator(
    stride: int = 10,
    scale: Optional[float] = None,
    suite: str = "suite88",
    **kwargs,
) -> GenerationEvaluator:
    """An evaluator over a suite subsample from the shared run cache.

    ``get_suite_traces`` memoizes generated suites per (suite, scale),
    so a search and the figure benchmarks share one generation cost.
    """
    from repro.experiments.runcache import get_suite_traces

    traces = get_suite_traces(scale, suite)[:: max(1, stride)]
    return GenerationEvaluator(traces, **kwargs)


__all__ = [
    "Candidate",
    "EvaluationError",
    "GenerationEvaluator",
    "config_candidate",
    "make_candidate",
    "suite_evaluator",
]
