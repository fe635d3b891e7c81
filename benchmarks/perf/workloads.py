"""The benchmark's four workloads, each chosen by what drives its cost.

* ``campaign-paper`` -- the paper's own campaign: the Table 2 roster
  (BTB, VPC, ITTAGE, BLBP) over a suite sample, columnar and fused.  The
  compiled ``vpc_replay`` core dominates it, so a VPC-kernel change shows
  here and nowhere else.
* ``campaign-ablation`` -- the same call over the nine-lane BLBP-ablation
  plus ITTAGE u-reset roster.  Nine lanes share one precompute per trace
  and the compiled cores are a small share, so derived-plane and
  shared-precompute work dominate: the shape of a ``repro search``
  generation.
* ``serve-sessions`` -- ``python -m repro serve`` in a child process,
  driven in a closed loop (callers wait for predictions) over two
  connections.  Chunks stay below the columnar threshold, so this is the
  per-event scalar step, micro-batching and the NDJSON protocol, with
  every kernel layer bypassed.
* ``dist-campaign`` -- a campaign on a two-node ``NodePool`` with the CLI
  default roster on the scalar backend: ship, queue, run, merge, with the
  scalar retirement loop in the workers and no columnar layer at all.

Every workload is generated from a seed: seed 0 is the published suite
(or the published serve load streams); any other seed replaces each
suite spec's seed.  A run sets up (several times, reporting the median),
warms up, then repeats *passes* of identical work until ``seconds`` of
passes have been measured, and reports host times at their best
observation across passes (see ``best_pass_seconds``).  It then checks
its outputs: every pass must produce the same journal (or session
digests), which must match the committed golden digest for seeds 0 and
1 or, for any other seed, the scalar oracle on a seed-chosen sample of
cells.

A traced run alternates untraced and traced passes: traced passes feed
the per-layer metrics, and the rate ratio between the two kinds is the
tracing overhead.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import warnings
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.events import (
    CELL_FAILED,
    CELL_FINISH,
    CELL_RETRY,
    CELL_START,
    FALLBACK,
    NODE_DOWN,
)

import layers
from spans import NULL, Span, Tracer, perf, read_spans, within

HERE = Path(__file__).resolve().parent

#: Set-ups per untraced run; the reported ``setup_s`` is their median.
#: The first comes before the passes and the rest between them, so that
#: one slow burst of the host moves at most one of them.
SETUP_REPEATS = 5

#: Trace records the scalar oracle replays, per run, to verify a seed
#: that has no committed golden digest.
ORACLE_RECORDS = 20000

#: Seconds to wait for a spawned server to announce its port.
SPAWN_TIMEOUT = 60.0

#: The serve load's shape: events per message (below the server's
#: 256-event columnar threshold), messages in flight per connection, and
#: connections (one per CPU of a 2-CPU host, the server taking the other).
SERVE_CHUNK = 64
SERVE_WINDOW = 16
SERVE_CONNECTIONS = 2


@dataclass(frozen=True)
class CampaignConfig:
    """A suite campaign: which roster, which traces, which backend."""

    roster: str
    stride: int
    scale: float
    backend: str = "columnar"
    #: > 0 runs every pass on a fresh ``NodePool`` of this many nodes.
    nodes: int = 0


@dataclass(frozen=True)
class ServeConfig:
    """A serve load: sessions per round = streams x roster size."""

    streams: int = 32
    events: int = 800


WORKLOADS: Dict[str, Any] = {
    "campaign-paper": CampaignConfig("paper", stride=4, scale=0.125),
    "campaign-ablation": CampaignConfig("ablation", stride=2, scale=0.25),
    "serve-sessions": ServeConfig(),
    "dist-campaign": CampaignConfig(
        "dist", stride=4, scale=0.5, backend="scalar", nodes=2
    ),
}

#: Lanes the columnar backend must replay through a kernel (asserted
#: before timing).  The paper roster's BTB has no kernel: it is the
#: scalar lane ``sim.engine.scalar_lane_s`` measures.
COLUMNAR_LANES = {
    "paper": ("VPC", "ITTAGE", "BLBP"),
    "ablation": None,  # every lane
    "dist": (),
}


@dataclass
class RunResult:
    """What one run reports: metrics, what it attempted and what failed."""

    metrics: Dict[str, float]
    #: Operations run (cells, events messages) plus output checks made.
    attempted: int
    failures: List[str]
    notes: Dict[str, Any] = field(default_factory=dict)
    #: The traced run's spans (empty for untraced runs).
    spans: List[Span] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def _reseed(base: int, seed: int) -> int:
    digest = hashlib.sha256(f"{base}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def suite_traces(stride: int, scale: float, seed: int) -> list:
    """The suite sample for ``seed`` (0 = the published suite)."""
    from repro.workloads.suite import suite88_specs

    entries = suite88_specs(scale)[::stride]
    if seed:
        entries = [
            dataclasses.replace(
                entry,
                spec=dataclasses.replace(
                    entry.spec, seed=_reseed(entry.spec.seed, seed)
                ),
            )
            for entry in entries
        ]
    return [entry.generate() for entry in entries]


def roster(name: str) -> Dict[str, Callable]:
    from repro.experiments.configs import predictor_factories

    if name == "paper":
        return predictor_factories()
    if name == "ablation":
        from benchmarks.bench_columnar import ablation_factories

        return ablation_factories()
    if name == "dist":
        table2 = predictor_factories()
        return {key: table2[key] for key in ("BTB", "ITTAGE", "BLBP")}
    raise ValueError(f"unknown roster {name!r}")


def serve_streams(config: ServeConfig, seed: int) -> Dict[int, list]:
    """Stream ``s`` of seed ``n`` is ``stream_for(n * streams + s)``."""
    from repro.serve.client import stream_for

    return {
        stream: stream_for(seed * config.streams + stream, config.events)
        for stream in range(config.streams)
    }


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _proc_status_mb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no {key}")


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat", "r") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _self_peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _golden_digest(golden: Optional[dict], config, seed: int) -> Optional[str]:
    """The committed digest for ``seed``, if golden covers this config."""
    if not golden:
        return None
    if golden.get("config") != dataclasses.asdict(config):
        raise ValueError(
            "golden digests were computed for another workload "
            f"configuration ({golden.get('config')}); regenerate them "
            "with run.py --write-golden"
        )
    return golden.get("digests", {}).get(str(seed))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------


class UnitClock:
    """Event sink: per-trace unit latency, failures, worker busy time.

    A unit is one trace through every lane (one fused group).  Its
    latency runs from the first ``cell_start`` to the last
    ``cell_finish`` event for the trace.
    """

    FAILURE_KINDS = (CELL_RETRY, CELL_FAILED, FALLBACK, NODE_DOWN)

    def __init__(self, expect_node: bool) -> None:
        self.expect_node = expect_node
        self.started: Dict[str, float] = {}
        self.finished: Dict[str, float] = {}
        self.cells = 0
        self.failures: List[str] = []
        self.worker_busy = 0.0

    def __call__(self, event) -> None:
        now = perf()
        if event.kind == CELL_START:
            self.started.setdefault(event.trace, now)
        elif event.kind == CELL_FINISH:
            self.finished[event.trace] = now
            self.cells += 1
            self.worker_busy += event.duration
            if self.expect_node and not event.node:
                self.failures.append(
                    f"cell ({event.trace}, {event.predictor}) finished "
                    "without a node"
                )
        elif event.kind in self.FAILURE_KINDS:
            self.failures.append(f"{event.kind}: {event.message}")

    def unit_seconds(self) -> Dict[str, float]:
        return {
            trace: self.finished[trace] - self.started[trace]
            for trace in self.finished
        }


@dataclass
class Pass:
    wall: float
    journal: bytes
    clock: UnitClock
    traced: bool = False
    worker_peak_mb: float = 0.0
    ship_bytes: int = 0


def best_units(passes: List[Pass]) -> Dict[str, float]:
    """Each trace unit's fastest latency (seconds) across ``passes``."""
    units = [p.clock.unit_seconds() for p in passes]
    return {trace: min(u[trace] for u in units) for trace in units[0]}


def best_pass_seconds(passes: List[Pass], nodes: int) -> float:
    """A pass's wall time with each of its parts at its best observation.

    A shared host has slow bursts from a fraction of a second to minutes
    long, in which all code runs up to a third slower.  The fastest
    observation of each small unit of work is far steadier than any
    statistic of whole passes, so a pass is split into its trace units,
    run ``nodes`` at a time, and the remainder (planning, scheduling,
    shipping, merging), and each part is taken at its minimum across
    passes.
    """
    share = max(1, nodes)
    rest = min(
        p.wall - sum(p.clock.unit_seconds().values()) / share for p in passes
    )
    return sum(best_units(passes).values()) / share + rest


def campaign_pass(
    traces: list,
    factories: Dict[str, Callable],
    config: CampaignConfig,
    root: Path,
    tracer=NULL,
    pool=None,
) -> Pass:
    """One campaign over ``traces``: plan, execute, journal.

    Every pass spills into a fresh directory, so no pass reuses the
    spills, derived planes or trace mappings of an earlier one: each is
    the campaign a user starts.
    """
    from repro.exec import execute_plan, plan_campaign

    work = Path(tempfile.mkdtemp(prefix="pass-", dir=root))
    journal_path = work / "journal.jsonl"
    clock = UnitClock(expect_node=pool is not None)
    try:
        started = perf()
        with tracer.span("bench.pass"):
            with tracer.span("exec.plan"):
                plan = plan_campaign(
                    traces, factories, cache_dir=work / "spill",
                    backend=config.backend,
                )
            with tracer.span("exec.execute_plan"):
                execute_plan(
                    plan, jobs=1, fuse=True, journal_path=journal_path,
                    events=clock, pool=pool,
                )
        wall = perf() - started
        result = Pass(wall=wall, journal=journal_path.read_bytes(), clock=clock)
        if pool is not None:
            from repro.dist.store import trace_file_hash

            sizes = {
                trace_file_hash(cell.trace_path): os.path.getsize(cell.trace_path)
                for cell in plan.cells
            }
            result.ship_bytes = sum(
                count * sizes.get(content_hash, 0)
                for shipped in pool.transfer_counts().values()
                for content_hash, count in shipped.items()
            )
            result.worker_peak_mb = sum(
                _proc_status_mb(node.process.pid, "VmHWM") for node in pool.nodes
            )
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def oracle_journal(
    traces: list, factories: Dict[str, Callable], root: Path
) -> bytes:
    """The scalar oracle's journal: serial, unfused, scalar backend."""
    from repro.exec import execute_plan, plan_campaign

    work = Path(tempfile.mkdtemp(prefix="oracle-", dir=root))
    try:
        plan = plan_campaign(
            traces, factories, cache_dir=work / "spill", backend="scalar"
        )
        execute_plan(
            plan, jobs=1, fuse=False, journal_path=work / "journal.jsonl"
        )
        return (work / "journal.jsonl").read_bytes()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _journal_cells(journal: bytes) -> Dict[Tuple[str, str], bytes]:
    cells = {}
    for line in journal.splitlines():
        entry = json.loads(line)
        cells[(entry["trace"], entry["predictor"])] = line
    return cells


def oracle_sample(
    traces: list,
    factories: Dict[str, Callable],
    journal: bytes,
    root: Path,
    seed: int,
) -> Tuple[int, int]:
    """Check a seed-chosen run of traces against the scalar oracle.

    Returns ``(cells checked, cells that differ)``.
    """
    start = seed % len(traces)
    picked: list = []
    records = 0
    for offset in range(len(traces)):
        trace = traces[(start + offset) % len(traces)]
        if picked and records + len(trace) > ORACLE_RECORDS:
            break
        picked.append(trace)
        records += len(trace)
    expected = _journal_cells(oracle_journal(picked, factories, root))
    measured = _journal_cells(journal)
    differ = sum(1 for key, line in expected.items() if measured.get(key) != line)
    return len(expected), differ


def _columnar_failures(config: CampaignConfig, factories) -> List[str]:
    """Columnar lanes the kernels would not replay (checked pre-timing)."""
    if config.backend == "scalar":
        return []
    from repro.sim import kernel

    lanes = COLUMNAR_LANES[config.roster]
    names = list(factories) if lanes is None else lanes
    failures = []
    for name in names:
        supported, reason = kernel.columnar_support(factories[name]())
        if not supported:
            failures.append(f"lane {name} is not columnar: {reason}")
    return failures


def _numpy_over_scalar(
    traces: list, factories: Dict[str, Callable]
) -> Tuple[Dict[str, float], List[str]]:
    """Scalar vs numpy-columnar replay (no compiled cores) per predictor.

    Answers what the numpy update-barrier replay buys on a host with no
    compiler; each pair must also end in identical predictor state.
    """
    from repro.sim.engine import simulate

    def replay(factory, backend: str) -> Tuple[float, List[str]]:
        elapsed = 0.0
        states = []
        for trace in traces:
            predictor = factory()
            started = perf()
            simulate(predictor, trace, backend=backend)
            elapsed += perf() - started
            states.append(predictor.state_hash())
        return elapsed, states

    ratios: Dict[str, float] = {}
    failures: List[str] = []
    for name in layers.NUMPY_COMPARED:
        scalar_s, scalar_states = replay(factories[name], "scalar")
        os.environ["REPRO_COLUMNAR_COMPILED"] = "0"
        try:
            numpy_s, numpy_states = replay(factories[name], "columnar")
        finally:
            os.environ.pop("REPRO_COLUMNAR_COMPILED")
        ratios[f"sim.kernel.numpy_over_scalar.{name}"] = scalar_s / numpy_s
        if scalar_states != numpy_states:
            failures.append(f"{name}: numpy columnar state differs from scalar")
    return ratios, failures


def run_campaign(
    config: CampaignConfig,
    seed: int,
    seconds: float,
    traced: bool,
    golden: Optional[dict],
    root: Path,
    factories: Optional[Dict[str, Callable]] = None,
) -> RunResult:
    """Run one campaign workload; see the module docstring."""
    from repro.dist import NodePool
    from repro.sim import native

    factories = factories if factories is not None else roster(config.roster)
    # The paper roster's BTB lane is expected to run scalar.
    warnings.filterwarnings(
        "ignore",
        message="columnar backend falling back to the fused scalar loop "
        "for some predictors: BranchTargetBuffer has no columnar kernel",
        category=RuntimeWarning,
    )
    failures: List[str] = []
    notes: Dict[str, Any] = {}
    if config.backend != "scalar":
        # Build, not set-up: the compiled cores are cached per checkout.
        notes["compiled_cores"] = native.available()

    setups: List[float] = []

    def set_up() -> list:
        started = perf()
        generated = suite_traces(config.stride, config.scale, seed)
        setups.append(perf() - started)
        return generated

    traces = set_up()
    failures += _columnar_failures(config, factories)
    if not config.nodes:
        campaign_pass(traces[:1], factories, config, root)  # warm-up

    tracer = Tracer() if traced else None
    passes: List[Pass] = []
    spawns: List[float] = []
    while sum(p.wall for p in passes) < seconds or len(passes) < 1 + traced:
        traced_pass = traced and len(passes) % 2 == 1
        active = tracer if traced_pass else NULL
        targets = []
        if traced_pass:
            targets = (
                layers.dist_targets(tracer) if config.nodes
                else layers.campaign_targets(tracer)
            )
        pool = None
        store = None
        spawn = 0.0
        if config.nodes:
            store = Path(tempfile.mkdtemp(prefix="nodes-", dir=root))
            started = perf()
            pool = NodePool(config.nodes, store_dir=store)
            spawn = perf() - started
        try:
            with active.patched(targets):
                result = campaign_pass(
                    traces, factories, config, root, active, pool
                )
        finally:
            if pool is not None:
                workers = [node.process for node in pool.nodes]
                pool.close()  # kills a node that ignores SIGTERM, unwaited
                for worker in workers:
                    worker.wait()
                shutil.rmtree(store, ignore_errors=True)
        result.traced = traced_pass
        spawns.append(spawn)
        passes.append(result)
        if not traced and len(setups) < SETUP_REPEATS:
            set_up()
    peak_mb = _self_peak_mb()

    # -- verification (untimed) -----------------------------------------
    lanes = len(factories)
    records = sum(len(trace) for trace in traces)
    attempted = sum(p.clock.cells for p in passes)
    for p in passes:
        failures += p.clock.failures
    digests = {_sha256(p.journal) for p in passes}
    attempted += 1
    if len(digests) != 1:
        failures.append(f"passes disagree: {len(digests)} distinct journals")
    digest = _sha256(passes[0].journal)
    notes["journal_sha256"] = digest
    expected = _golden_digest(golden, config, seed)
    if expected is not None:
        attempted += 1
        if digest != expected:
            failures.append(f"journal {digest} != golden {expected}")
    else:
        checked, differ = oracle_sample(
            traces, factories, passes[0].journal, root, seed
        )
        attempted += checked
        if differ:
            failures.append(
                f"{differ}/{checked} sampled cells differ from the oracle"
            )
        notes["oracle_cells"] = checked

    notes.update(
        passes=len(passes),
        traces=len(traces),
        records=records,
        lanes=lanes,
    )
    untraced = [p for p in passes if not p.traced]
    best = best_pass_seconds(untraced, config.nodes)
    if traced:
        traced_passes = [p for p in passes if p.traced]
        spans = tracer.spans
        wall = sum(p.wall for p in traced_passes)
        if config.nodes:
            execute_wall = layers.layer_times(spans)["exec.execute_plan"].total
            metrics = layers.dist_metrics(
                spans,
                len(traced_passes),
                execute_wall,
                sum(p.clock.worker_busy for p in traced_passes),
                config.nodes,
                sum(p.ship_bytes for p in traced_passes),
            )
        else:
            metrics = layers.campaign_metrics(spans, len(traced_passes), wall)
        metrics["trace_overhead"] = (
            best_pass_seconds(traced_passes, config.nodes) / best - 1.0
        )
        if config.roster == "paper":
            ratios, numpy_failures = _numpy_over_scalar(traces[:4], factories)
            metrics.update(ratios)
            failures += numpy_failures
            attempted += len(ratios)
    else:
        latencies = [s * 1000.0 for s in best_units(untraced).values()]
        notes["latency_samples"] = (
            f"{len(latencies)} trace units, each the best of "
            f"{len(untraced)} passes"
        )
        worker_peak = (
            median(p.worker_peak_mb for p in passes) if config.nodes else 0.0
        )
        metrics = {
            "setup_s": median(setups) + median(spawns),
            "lane_records_per_s": records * lanes / best,
            "latency_p50_ms": layers.percentile(latencies, 50),
            "latency_p90_ms": layers.percentile(latencies, 90),
            "peak_rss_mb": peak_mb + worker_peak,
        }
    return RunResult(
        metrics, attempted, failures, notes, tracer.spans if traced else []
    )


def campaign_golden(config: CampaignConfig, seed: int, root: Path) -> str:
    """The scalar oracle's journal digest for the whole workload."""
    traces = suite_traces(config.stride, config.scale, seed)
    return _sha256(oracle_journal(traces, roster(config.roster), root))


# ----------------------------------------------------------------------
# Serve workload
# ----------------------------------------------------------------------


@dataclass
class Server:
    process: subprocess.Popen
    port: int
    log: Path


def spawn_server(root: Path, index: int, spans: Optional[Path] = None):
    """Start a server child; returns it and the seconds until it served.

    Untraced servers are exactly ``python -m repro serve``; a traced one
    runs the same CLI behind ``serve_traced.py``, which installs the
    span wrappers first.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    serve_args = [
        "serve", "--port", "0", "--state-dir", str(root / f"serve-state-{index}"),
    ]
    if spans is None:
        command = [sys.executable, "-m", "repro", *serve_args]
    else:
        command = [sys.executable, str(HERE / "serve_traced.py"), str(spans),
                   *serve_args]
    log = root / f"server-{index}.log"
    started = perf()
    with open(log, "w") as errors:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=errors, text=True, env=env,
        )
    ready, _, _ = select.select([process.stdout], [], [], SPAWN_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    elapsed = perf() - started
    if not line.startswith("serving on "):
        stop_server(Server(process, 0, log))
        raise RuntimeError(
            f"server did not start (got {line!r}); see {log}: "
            + log.read_text()[-2000:]
        )
    port = int(line.split()[2].rsplit(":", 1)[1])
    return Server(process, port, log), elapsed


def stop_server(server: Server) -> None:
    """SIGTERM (the server drains and exits), then wait; kill if stuck."""
    process = server.process
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()


@dataclass
class Round:
    wall: float
    events: int
    latencies_ms: List[float]
    closed: Dict[Tuple[str, int], Tuple[str, float, int]]
    errors: int
    start: float
    end: float
    server_cpu: float = 0.0
    client_cpu: float = 0.0
    traced: bool = False


def _encoded_messages(plan, streams) -> Dict[str, List[Tuple[int, bytes]]]:
    """Every session's events messages, encoded once before timing."""
    from repro.serve import protocol

    messages = {}
    for session_id, _, stream in plan:
        events = streams[stream]
        chunks = [
            events[start:start + SERVE_CHUNK]
            for start in range(0, len(events), SERVE_CHUNK)
        ]
        messages[session_id] = [
            (
                len(chunk),
                protocol.encode(
                    {
                        "t": "events",
                        "session": session_id,
                        "events": [list(event) for event in chunk],
                    }
                ),
            )
            for chunk in chunks
        ]
    return messages


async def _drive_connection(
    port: int,
    assigned: list,
    messages: Dict[str, List[Tuple[int, bytes]]],
    outcome: Round,
) -> None:
    """Open, stream (windowed, closed loop) and close one connection's
    sessions, timing every events message from write to response."""
    from repro.serve import protocol
    from repro.serve.client import ServeClient

    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=protocol.MAX_LINE_BYTES
    )
    client = ServeClient(reader, writer)
    try:
        for session_id, predictor, _ in assigned:
            await client.open(session_id, predictor)
        queues = deque(
            (session_id, deque(messages[session_id]))
            for session_id, _, _ in assigned
        )
        order = []
        while queues:
            session_id, pending = queues.popleft()
            order.append(pending.popleft())
            if pending:
                queues.append((session_id, pending))
        slots = asyncio.Semaphore(SERVE_WINDOW)
        in_flight: deque = deque()

        async def read_responses() -> None:
            for _ in range(len(order)):
                line = await reader.readline()
                now = perf()
                count, sent_at = in_flight.popleft()
                slots.release()
                outcome.latencies_ms.append((now - sent_at) * 1000.0)
                response = protocol.decode(line) if line else {}
                if response.get("t") != "out" or len(response["out"]) != count:
                    outcome.errors += 1
                outcome.events += count

        reading = asyncio.get_running_loop().create_task(read_responses())
        try:
            for count, payload in order:
                await slots.acquire()
                in_flight.append((count, perf()))
                writer.write(payload)
                await writer.drain()
        finally:
            await reading
        for session_id, predictor, stream in assigned:
            closed = await client.close_session(session_id)
            outcome.closed[(predictor, stream)] = (
                closed["state_hash"],
                closed["result"]["mpki"],
                closed["result"]["events"],
            )
    finally:
        await client.aclose()


def serve_round(server: Server, plan, messages) -> Round:
    """Open, stream and close every session of ``plan`` once."""
    outcome = Round(0.0, 0, [], {}, 0, 0.0, 0.0)
    shares = [plan[index::SERVE_CONNECTIONS] for index in range(SERVE_CONNECTIONS)]

    async def drive() -> None:
        await asyncio.gather(
            *(
                _drive_connection(server.port, share, messages, outcome)
                for share in shares if share
            )
        )

    server_cpu = _proc_cpu_seconds(server.process.pid)
    client_cpu = _self_cpu_seconds()
    outcome.start = perf()
    asyncio.run(drive())
    outcome.end = perf()
    outcome.wall = outcome.end - outcome.start
    outcome.server_cpu = _proc_cpu_seconds(server.process.pid) - server_cpu
    outcome.client_cpu = _self_cpu_seconds() - client_cpu
    return outcome


def _server_stats(server: Server) -> Dict[str, Any]:
    from repro.serve.client import ServeClient

    async def fetch():
        client = await ServeClient.connect("127.0.0.1", server.port)
        try:
            return await client.stats()
        finally:
            await client.aclose()

    return asyncio.run(fetch())


def _closed_digest(closed: Dict[Tuple[str, int], Tuple[str, float, int]]) -> str:
    rows = sorted([key[0], key[1], *value] for key, value in closed.items())
    return _sha256(json.dumps(rows).encode("utf-8"))


def serve_oracle(plan, streams) -> Dict[Tuple[str, int], Tuple[str, float, int]]:
    """Each (predictor, stream) replayed by the scalar engine."""
    import numpy as np

    from repro.registry import make_indirect
    from repro.sim.engine import simulate
    from repro.trace.stream import Trace

    closed = {}
    for _, predictor_key, stream in plan:
        events = streams[stream]
        columns = [np.asarray(column) for column in zip(*events)]
        trace = Trace(f"serve-stream-{stream}", *columns)
        predictor = make_indirect(predictor_key)
        result = simulate(predictor, trace)
        closed[(predictor_key, stream)] = (
            predictor.state_hash(), result.mpki(), len(events)
        )
    return closed


def serve_plan(config: ServeConfig):
    """Every (predictor, stream) pair once per round (``session_plan``)."""
    from repro.serve.client import DEFAULT_PREDICTORS, session_plan

    sessions = config.streams * len(DEFAULT_PREDICTORS)
    return session_plan(sessions, DEFAULT_PREDICTORS, config.streams)


def run_serve(
    config: ServeConfig,
    seed: int,
    seconds: float,
    traced: bool,
    golden: Optional[dict],
    root: Path,
) -> RunResult:
    """Run the serve workload; see the module docstring."""
    streams = serve_streams(config, seed)
    plan = serve_plan(config)
    messages = _encoded_messages(plan, streams)
    warmup = {session_id: chunks[:1] for session_id, chunks in messages.items()}
    failures: List[str] = []
    notes: Dict[str, Any] = {}
    servers: List[Server] = []
    spans_path = root / "server-spans.jsonl"
    try:
        setups = []
        for index, spans in enumerate((None, spans_path) if traced else (None,)):
            server, elapsed = spawn_server(root, index, spans)
            servers.append(server)
            setups.append(elapsed)
        for server in servers:
            serve_round(server, plan, warmup)

        rounds: List[Round] = []
        while sum(r.wall for r in rounds) < seconds or len(rounds) < 1 + traced:
            traced_round = traced and len(rounds) % 2 == 1
            server = servers[1] if traced_round else servers[0]
            outcome = serve_round(server, plan, messages)
            outcome.traced = traced_round
            rounds.append(outcome)
            if not traced and len(setups) < SETUP_REPEATS:
                spare, elapsed = spawn_server(root, len(setups))
                setups.append(elapsed)
                stop_server(spare)

        attempted = sum(len(r.latencies_ms) for r in rounds)
        for server in servers:
            stats = _server_stats(server)
            attempted += 1
            if stats["sessions"]["evicted"] or stats["protocol_errors"]:
                failures.append(
                    f"server stats: evicted={stats['sessions']['evicted']} "
                    f"protocol_errors={stats['protocol_errors']}"
                )
        peak_mb = _proc_status_mb(servers[0].process.pid, "VmHWM")
    finally:
        for server in servers:
            stop_server(server)

    # -- verification (untimed) -----------------------------------------
    for r in rounds:
        if r.errors:
            failures.append(f"{r.errors} events messages answered wrongly")
        for (predictor, stream), (_, _, events) in r.closed.items():
            if events != len(streams[stream]):
                failures.append(
                    f"session ({predictor}, {stream}) closed at {events} events"
                )
    digests = {_closed_digest(r.closed) for r in rounds}
    attempted += 1
    if len(digests) != 1:
        failures.append(f"rounds disagree: {len(digests)} distinct session digests")
    digest = _closed_digest(rounds[0].closed)
    notes["sessions_sha256"] = digest
    attempted += 1
    expected = _golden_digest(golden, config, seed)
    if expected is None:
        expected = _closed_digest(serve_oracle(plan, streams))
    if digest != expected:
        failures.append(f"session digest {digest} != expected {expected}")

    # Like campaign passes, rounds are reported at their best: the
    # fastest round's rate and the lowest per-round latency percentiles.
    untraced = [r for r in rounds if not r.traced]
    best_rate = max(r.events / r.wall for r in untraced)
    notes.update(rounds=len(rounds), sessions_per_round=len(plan))
    if traced:
        traced_rounds = [r for r in rounds if r.traced]
        spans = within(
            read_spans(spans_path), [(r.start, r.end) for r in traced_rounds]
        )
        wall = sum(r.wall for r in rounds)
        metrics = layers.serve_metrics(
            spans,
            len(traced_rounds),
            sum(r.server_cpu for r in traced_rounds),
            sum(r.client_cpu for r in rounds) / wall,
        )
        metrics["trace_overhead"] = best_rate / max(
            r.events / r.wall for r in traced_rounds
        ) - 1.0
    else:
        notes["latency_samples"] = (
            f"{min(len(r.latencies_ms) for r in untraced)} events messages "
            f"per round, best of {len(untraced)} rounds"
        )
        metrics = {
            "setup_s": median(setups),
            "lane_records_per_s": best_rate,
            "latency_p50_ms": min(
                layers.percentile(r.latencies_ms, 50) for r in untraced
            ),
            "latency_p90_ms": min(
                layers.percentile(r.latencies_ms, 90) for r in untraced
            ),
            "peak_rss_mb": peak_mb,
        }
    return RunResult(
        metrics, attempted, failures, notes, spans if traced else []
    )


def serve_golden(config: ServeConfig, seed: int, root: Path) -> str:
    return _closed_digest(
        serve_oracle(serve_plan(config), serve_streams(config, seed))
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool,
    golden: Optional[dict],
    root: Path,
) -> RunResult:
    config = WORKLOADS[name]
    if isinstance(config, ServeConfig):
        return run_serve(config, seed, seconds, traced, golden, root)
    return run_campaign(config, seed, seconds, traced, golden, root)


def golden_digest(name: str, seed: int, root: Path) -> str:
    config = WORKLOADS[name]
    if isinstance(config, ServeConfig):
        return serve_golden(config, seed, root)
    return campaign_golden(config, seed, root)
