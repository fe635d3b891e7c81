"""Branch-prediction simulation engine (the CBP-infrastructure stand-in).

:func:`~repro.sim.engine.simulate` drives one indirect predictor over one
trace and returns :class:`~repro.sim.metrics.SimulationResult` with the
paper's metric — indirect-target mispredictions per kilo-instruction
(MPKI) — plus per-branch detail.  :mod:`repro.sim.runner` runs
campaigns (many traces × many predictors) and :mod:`repro.sim.report`
formats result tables.
"""

from repro.sim.checkpoint import (
    DEFAULT_CHECKPOINT_INTERVAL,
    SimulationCheckpoint,
    discard_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.sim.counters import SimCounters, aggregate_profiles, format_counters
from repro.sim.engine import (
    SampledSimulationResult,
    simulate,
    simulate_conditional,
    simulate_many,
    simulate_sampled,
)
from repro.sim.metrics import CampaignResult, SimulationResult
from repro.sim.performance import PipelineModel
from repro.sim.ras import ReturnAddressStack
from repro.sim.runner import PredictorFactory, ProgressCallback, run_campaign
from repro.sim.report import format_campaign, format_mpki_table

__all__ = [
    "simulate",
    "simulate_conditional",
    "simulate_many",
    "simulate_sampled",
    "SampledSimulationResult",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "SimulationCheckpoint",
    "discard_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "SimCounters",
    "aggregate_profiles",
    "format_counters",
    "SimulationResult",
    "CampaignResult",
    "PipelineModel",
    "ReturnAddressStack",
    "run_campaign",
    "PredictorFactory",
    "ProgressCallback",
    "format_campaign",
    "format_mpki_table",
]
