"""Hot-path observability: counters and phase timings for simulations.

The optimized BLBP hot path (fused weight tensor, batched incremental
folds, IBTB lookup caching) trades obviousness for speed; these counters
make its behaviour *observable* so a regression in work volume — e.g. a
fold that starts re-updating eagerly, or an IBTB cache that stops
hitting — shows up as numbers rather than as a silent slowdown.

:class:`SimCounters` accumulates

* **event counts** harvested from the predictor's ``sim_stats()`` hook
  (predictions, IBTB probes, trained weight bits, incremental fold
  updates) plus record/conditional counts from the simulation loop, and
* **phase wall times** (predict / train / conditional-push / total),
  measured only when profiling is requested — the fast path pays
  nothing.

One ``SimCounters`` may be threaded through many ``simulate`` calls to
aggregate a campaign; each cell's own numbers also land on its
:class:`~repro.sim.metrics.SimulationResult` ``profile`` dict, which is
what ``repro simulate --profile`` prints and the exec engine's journal
records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional

#: sim_stats() keys harvested into same-named counter attributes.
_STAT_KEYS = ("predictions", "ibtb_probes", "trained_bits", "fold_updates")


@dataclass
class SimCounters:
    """Cumulative event counts and phase timings for simulation runs.

    The three phase timers wrap the scalar driver's Python calls, which
    a lane on the compiled cores never makes: its phase times read 0,
    ``elapsed_seconds`` is its core replay's wall time, and its event
    counts equal the scalar run's."""

    #: Indirect-target predictions made (``predictor.sim_stats()``).
    predictions: int = 0
    #: IBTB candidate lookups issued.
    ibtb_probes: int = 0
    #: Individual weight bits adjusted by training.
    trained_bits: int = 0
    #: Incremental fold-update steps applied (one per interval per
    #: conditional outcome absorbed).
    fold_updates: int = 0
    #: Conditional branches replayed through the history.
    conditionals: int = 0
    #: Total trace records replayed.
    records: int = 0
    #: Wall time inside ``predict_target`` calls.
    predict_seconds: float = 0.0
    #: Wall time inside ``train`` calls.
    train_seconds: float = 0.0
    #: Wall time inside ``on_conditional`` calls.
    conditional_seconds: float = 0.0
    #: Wall time of the whole simulation loop.
    elapsed_seconds: float = 0.0

    def harvest(self, predictor) -> None:
        """Fold a predictor's ``sim_stats()`` into these counters.

        Predictors without the hook contribute nothing (every counter
        they cannot report stays at its current value).
        """
        stats_hook = getattr(predictor, "sim_stats", None)
        if stats_hook is None:
            return
        stats = stats_hook()
        for key in _STAT_KEYS:
            setattr(self, key, getattr(self, key) + int(stats.get(key, 0)))

    def merge(self, other: "SimCounters") -> None:
        """Add another counter set into this one (campaign aggregation)."""
        for spec in fields(self):
            setattr(
                self,
                spec.name,
                getattr(self, spec.name) + getattr(other, spec.name),
            )

    def throughput(self) -> float:
        """Records per second over the measured wall time (0 if untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.records / self.elapsed_seconds

    def as_dict(self) -> Dict[str, float]:
        """A flat JSON-serializable view (ints stay ints)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "SimCounters":
        """Rebuild from :meth:`as_dict` output (unknown keys ignored)."""
        known = {spec.name for spec in cls.__dataclass_fields__.values()}
        return cls(**{key: value for key, value in data.items() if key in known})


def aggregate_profiles(profiles: Iterable[Optional[Dict[str, float]]]) -> SimCounters:
    """Sum per-cell ``profile`` dicts (``None`` entries skipped)."""
    total = SimCounters()
    for profile in profiles:
        if profile:
            total.merge(SimCounters.from_dict(profile))
    return total


def format_counters(counters: SimCounters) -> str:
    """A small aligned table of counters for terminal output."""
    rows: List[tuple] = [
        ("records", f"{counters.records:,}"),
        ("conditionals", f"{counters.conditionals:,}"),
        ("predictions", f"{counters.predictions:,}"),
        ("ibtb probes", f"{counters.ibtb_probes:,}"),
        ("trained bits", f"{counters.trained_bits:,}"),
        ("fold updates", f"{counters.fold_updates:,}"),
        ("predict time", f"{counters.predict_seconds:.3f} s"),
        ("train time", f"{counters.train_seconds:.3f} s"),
        ("conditional time", f"{counters.conditional_seconds:.3f} s"),
        ("elapsed", f"{counters.elapsed_seconds:.3f} s"),
        ("throughput", f"{counters.throughput():,.0f} records/s"),
    ]
    label_width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{label_width}}  {value}" for label, value in rows)
