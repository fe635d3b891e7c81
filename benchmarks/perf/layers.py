"""The program's layers as the traced runs see them.

Two halves: *targets* name the public callables a traced run wraps (the
names the program looks up at run time, so wrapping them reroutes every
call), and the ``*_metrics`` functions turn the recorded spans into the
per-layer metrics listed in ``BENCHMARK.json``.

Per-layer times and counts are per *pass*: one campaign over the
workload's traces, or one serve round of every session.  A pass is the
same work on every commit, so the numbers compare across commits even
when a faster commit fits more passes into a run.

Which end-to-end metric each layer should move, on which workload, is
tabulated in ``README.md``.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List

import numpy as np

from spans import Span, Tracer, layer_times, perf

#: The compiled replay cores ``repro.sim.native.load`` hands out.
NATIVE_CORES = (
    "blbp_replay", "blbp_replay_many", "ittage_replay", "vpc_replay"
)

#: Predictors timed by the traced ``campaign-paper`` run's no-compiler
#: comparison (numpy columnar replay vs the scalar oracle).
NUMPY_COMPARED = ("BLBP", "ITTAGE", "VPC")

#: name -> unit of every per-layer metric, in reporting order.
PER_LAYER_UNITS: Dict[str, str] = {
    "exec.plan.busy_s": "s",
    "trace.plane.attach_s": "s",
    "trace.plane.attach_calls": "count",
    "trace.derived.busy_s": "s",
    "trace.derived.hit_ratio": "ratio",
    "sim.kernel.busy_s": "s",
    "sim.kernel.precompute_hit_ratio": "ratio",
    **{
        f"sim.native.{core}{suffix}": unit
        for core in NATIVE_CORES
        for suffix, unit in (("_s", "s"), ("_calls", "count"))
    },
    "sim.engine.scalar_lane_s": "s",
    "exec.journal.append_s": "s",
    "exec.journal.appends": "count",
    "exec.pool.self_s": "s",
    "dist.pool.ship_s": "s",
    "dist.pool.ship_bytes": "B",
    "dist.pool.run_unit_s": "s",
    "dist.pool.worker_busy_s": "s",
    "dist.pool.rpc_overhead_s": "s",
    "dist.pool.node_idle_s": "s",
    "dist.pool.efficiency": "ratio",
    "dist.merge.busy_s": "s",
    "serve.protocol.decode_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.protocol.messages": "count",
    "serve.batcher.wait_s": "s",
    "serve.batcher.wait_p99_ms": "ms",
    "serve.batcher.drain_s": "s",
    "serve.batcher.batches": "count",
    "serve.batcher.mean_sessions_per_batch": "count",
    "serve.batcher.fused_share": "ratio",
    "serve.session.step_fused_s": "s",
    "serve.session.step_solo_s": "s",
    "serve.server.cpu_s": "s",
    "serve.server.unattributed_s": "s",
    "client.cpu_share": "ratio",
    **{f"sim.kernel.numpy_over_scalar.{name}": "x" for name in NUMPY_COMPARED},
    "trace.layer_coverage": "ratio",
    "trace_overhead": "ratio",
}


# ----------------------------------------------------------------------
# Targets
# ----------------------------------------------------------------------


def _trace_name(position: int):
    return lambda args: args[position].name


def _precompute_probe(tracer: Tracer, shared_precompute):
    """Time ``shared_precompute`` and mark whether it reused an entry.

    Identity against the last two returned entries -- the capacity of
    the kernel's own cache -- is what "returned an existing entry"
    means; holding more would keep evicted fold tables alive.
    """
    recent: deque = deque(maxlen=2)

    def hit(args, entry) -> Dict[str, bool]:
        reused = any(entry is seen for seen in recent)
        if not reused:
            recent.append(entry)
        return {"hit": reused}

    return tracer.timed(
        "sim.kernel.precompute", shared_precompute,
        ident=_trace_name(0), data=hit,
    )


def _native_loader(tracer: Tracer, load):
    """``native.load`` handing out timed replay cores."""
    default = "blbp_replay"

    def traced_load(*args, **kwargs):
        core = load(*args, **kwargs)
        if core is None:
            return None
        name = args[0] if args else kwargs.get("name", default)
        return tracer.timed(f"sim.native.{name}", core)

    return traced_load


def campaign_targets(tracer: Tracer) -> List[tuple]:
    """Wrappers for an in-process campaign (``execute_plan(jobs=1)``)."""
    import repro.exec.pool as pool
    import repro.sim.kernel as kernel
    import repro.sim.native as native
    import repro.trace.derived as derived
    from repro.exec.journal import Journal

    def timed(name, ident=None):
        return lambda original: tracer.timed(name, original, ident=ident)

    return [
        (pool, "cached_trace",
         timed("trace.plane.attach", lambda args: Path(args[0]).name)),
        (pool, "cached_derived", timed("trace.derived.cached", _trace_name(1))),
        (derived, "compute_derived",
         timed("trace.derived.compute", _trace_name(0))),
        (kernel, "compute_derived",
         timed("trace.derived.compute", _trace_name(0))),
        (pool, "simulate_many",
         timed("sim.engine.simulate_many", _trace_name(1))),
        (kernel, "simulate_columnar_many",
         timed("sim.kernel.columnar_many", _trace_name(1))),
        (kernel, "shared_precompute",
         lambda original: _precompute_probe(tracer, original)),
        (native, "load", lambda original: _native_loader(tracer, original)),
        (Journal, "append",
         timed("exec.journal.append", lambda args: args[1].trace_name)),
    ]


def dist_targets(tracer: Tracer) -> List[tuple]:
    """Wrappers for the coordinator side of a ``NodePool`` campaign."""
    import repro.dist.merge as merge
    from repro.dist.pool import _NodeClient

    def timed(name, ident=None):
        return lambda original: tracer.timed(name, original, ident=ident)

    return [
        (_NodeClient, "ensure_trace",
         timed("dist.pool.ship", lambda args: Path(args[2]).name)),
        (_NodeClient, "run_unit", timed("dist.pool.run_unit")),
        (merge.ShardedJournal, "append",
         timed("dist.merge.append", lambda args: args[1].trace_name)),
        (merge, "write_canonical_journal", timed("dist.merge.canonical")),
    ]


def serve_targets(tracer: Tracer) -> List[tuple]:
    """Wrappers installed inside a traced prediction-server process."""
    import repro.serve.batcher as batcher
    import repro.serve.protocol as protocol
    from repro.serve.session import PredictorSession

    submitted: Dict[int, float] = {}

    def make_submit(submit):
        async def traced_submit(self, session, events):
            submitted[id(events)] = perf()
            return await submit(self, session, events)

        return traced_submit

    def make_drain(drain_batch):
        def batch_shape(args, result):
            items = args[0]
            return {"sessions": len({id(item.session) for item in items})}

        timed = tracer.timed(
            "serve.batcher.drain", drain_batch, data=batch_shape
        )

        def traced_drain(items, metrics=None):
            # The wait of every drained item ends where the drain starts.
            now = perf()
            for item in items:
                began = submitted.pop(id(item.events), None)
                if began is not None:
                    tracer.record(
                        "serve.batcher.wait", began, now,
                        ident=item.session.session_id,
                    )
            return timed(items, metrics)

        return traced_drain

    def timed(name, ident=None, data=None):
        return lambda original: tracer.timed(
            name, original, ident=ident, data=data
        )

    return [
        (protocol, "decode", timed("serve.protocol.decode")),
        (protocol, "parse_events", timed("serve.protocol.parse_events")),
        (protocol, "encode", timed("serve.protocol.encode")),
        (batcher.MicroBatcher, "submit", make_submit),
        (batcher, "drain_batch", make_drain),
        (batcher, "step_sessions_fused",
         timed("serve.session.step_fused",
               data=lambda args, result: {"sessions": len(args[0])})),
        (PredictorSession, "step_events",
         timed("serve.session.step_solo", lambda args: args[0].session_id)),
    ]


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def empty_layers() -> Dict[str, float]:
    """Every per-layer metric at zero (layers a workload never runs)."""
    return {name: 0.0 for name in PER_LAYER_UNITS}


def _children(spans: Iterable[Span]) -> Dict[int, List[str]]:
    children: Dict[int, List[str]] = {}
    for _, parent, name, _, _, _, _ in spans:
        children.setdefault(parent, []).append(name)
    return children


def campaign_metrics(
    spans: List[Span], passes: int, wall: float
) -> Dict[str, float]:
    """Per-layer metrics of in-process campaign passes.

    ``wall`` is the summed wall time of the traced passes; coverage is
    the share of it that named layers below the scheduler account for
    (``exec.pool.self_s`` is the scheduler's own remainder).
    """
    times = layer_times(spans)
    metrics = empty_layers()
    children = _children(spans)
    cached = [span for span in spans if span[2] == "trace.derived.cached"]
    derived_hits = sum(
        1 for span in cached
        if "trace.derived.compute" not in children.get(span[0], ())
    )
    probes = [span for span in spans if span[2] == "sim.kernel.precompute"]
    metrics.update(
        {
            "exec.plan.busy_s": times["exec.plan"].total / passes,
            "trace.plane.attach_s": times["trace.plane.attach"].total / passes,
            "trace.plane.attach_calls": times["trace.plane.attach"].calls / passes,
            "trace.derived.busy_s": (
                times["trace.derived.cached"].self
                + times["trace.derived.compute"].self
            ) / passes,
            "trace.derived.hit_ratio": (
                derived_hits / len(cached) if cached else 0.0
            ),
            "sim.kernel.busy_s": (
                times["sim.kernel.columnar_many"].self
                + times["sim.kernel.precompute"].self
            ) / passes,
            "sim.kernel.precompute_hit_ratio": (
                sum(1 for span in probes if span[6]["hit"]) / len(probes)
                if probes else 0.0
            ),
            "sim.engine.scalar_lane_s": (
                times["sim.engine.simulate_many"].self / passes
            ),
            "exec.journal.append_s": times["exec.journal.append"].total / passes,
            "exec.journal.appends": times["exec.journal.append"].calls / passes,
            "exec.pool.self_s": times["exec.execute_plan"].self / passes,
        }
    )
    for core in NATIVE_CORES:
        entry = times[f"sim.native.{core}"]
        metrics[f"sim.native.{core}_s"] = entry.total / passes
        metrics[f"sim.native.{core}_calls"] = entry.calls / passes
    below_scheduler = sum(
        entry.self
        for name, entry in times.items()
        if name not in ("bench.pass", "exec.execute_plan")
    )
    metrics["trace.layer_coverage"] = below_scheduler / wall if wall else 0.0
    return metrics


def dist_metrics(
    spans: List[Span],
    passes: int,
    execute_wall: float,
    worker_busy: float,
    nodes: int,
    ship_bytes: int,
) -> Dict[str, float]:
    """Per-layer metrics of traced ``NodePool`` passes (coordinator view).

    ``worker_busy`` sums the workers' own ``cell_finish`` durations, so
    ``run_unit - worker_busy`` is what the round trip costs beyond the
    simulation, and ``nodes * wall - worker_busy`` is node idle time.
    """
    times = layer_times(spans)
    metrics = empty_layers()
    run_unit = times["dist.pool.run_unit"].total
    capacity = nodes * execute_wall
    metrics.update(
        {
            "exec.plan.busy_s": times["exec.plan"].total / passes,
            "exec.pool.self_s": times["exec.execute_plan"].self / passes,
            "dist.pool.ship_s": times["dist.pool.ship"].total / passes,
            "dist.pool.ship_bytes": ship_bytes / passes,
            "dist.pool.run_unit_s": run_unit / passes,
            "dist.pool.worker_busy_s": worker_busy / passes,
            "dist.pool.rpc_overhead_s": (run_unit - worker_busy) / passes,
            "dist.pool.node_idle_s": (capacity - worker_busy) / passes,
            "dist.pool.efficiency": worker_busy / capacity if capacity else 0.0,
            "dist.merge.busy_s": (
                times["dist.merge.append"].total
                + times["dist.merge.canonical"].total
            ) / passes,
            # The node threads' time in shipping and running units.
            "trace.layer_coverage": (
                (times["dist.pool.ship"].total + run_unit) / capacity
                if capacity else 0.0
            ),
        }
    )
    return metrics


def serve_metrics(
    spans: List[Span],
    rounds: int,
    server_cpu: float,
    client_cpu_share: float,
) -> Dict[str, float]:
    """Per-layer metrics of traced serve rounds (server-side spans)."""
    times = layer_times(spans)
    metrics = empty_layers()
    waits = [
        (span[4] - span[3]) * 1000.0
        for span in spans if span[2] == "serve.batcher.wait"
    ]
    drains = [span for span in spans if span[2] == "serve.batcher.drain"]
    batch_sessions = sum(span[6]["sessions"] for span in drains)
    fused_sessions = sum(
        span[6]["sessions"]
        for span in spans if span[2] == "serve.session.step_fused"
    )
    decode = (
        times["serve.protocol.decode"].total
        + times["serve.protocol.parse_events"].total
    )
    encode = times["serve.protocol.encode"].total
    drain = times["serve.batcher.drain"].total
    metrics.update(
        {
            "serve.protocol.decode_s": decode / rounds,
            "serve.protocol.encode_s": encode / rounds,
            "serve.protocol.messages": times["serve.protocol.decode"].calls / rounds,
            "serve.batcher.wait_s": sum(waits) / 1000.0 / rounds,
            "serve.batcher.wait_p99_ms": percentile(waits, 99),
            "serve.batcher.drain_s": drain / rounds,
            "serve.batcher.batches": len(drains) / rounds,
            "serve.batcher.mean_sessions_per_batch": (
                batch_sessions / len(drains) if drains else 0.0
            ),
            "serve.batcher.fused_share": (
                fused_sessions / batch_sessions if batch_sessions else 0.0
            ),
            "serve.session.step_fused_s": (
                times["serve.session.step_fused"].total / rounds
            ),
            "serve.session.step_solo_s": (
                times["serve.session.step_solo"].total / rounds
            ),
            "serve.server.cpu_s": server_cpu / rounds,
            "serve.server.unattributed_s": (
                server_cpu - decode - encode - drain
            ) / rounds,
            "client.cpu_share": client_cpu_share,
        }
    )
    covered = decode + encode + drain
    metrics["trace.layer_coverage"] = covered / server_cpu if server_cpu else 0.0
    return metrics


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0
