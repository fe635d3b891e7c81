"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``suite``     — list the 88-workload suite (Table 1);
* ``generate``  — generate a named suite trace (or all) to disk;
* ``stats``     — workload-characterization statistics for traces;
* ``import``    — ingest an external trace (ChampSim/gem5/CSV) to RPTRACE2;
* ``trace``     — trace utilities (``trace info``: identity + branch mix);
* ``simulate``  — run predictors over traces or suite samples;
* ``search``    — design-space search over BLBP configurations;
* ``budgets``   — predictor hardware budgets (Table 2);
* ``registry``  — registered predictor keys + config fingerprints;
* ``serve``     — the prediction server (``repro.serve``);
* ``nodes``     — probe distributed worker nodes (``repro.dist``);
* ``statehash`` — canonical predictor state hashes (golden fixtures).

Examples::

    python -m repro suite
    python -m repro generate SHORT-MOBILE-1 --out /tmp/sm1.trace
    python -m repro stats /tmp/sm1.trace
    python -m repro import branches.champsim.txt --out branches.trace
    python -m repro trace info branches.trace
    python -m repro simulate --predictors BTB,ITTAGE,BLBP --stride 16
    python -m repro simulate --traces branches.trace --sample 4
    python -m repro simulate --jobs 4 --resume campaign.jsonl --stride 8
    python -m repro simulate --jobs 4 --resume c.jsonl --checkpoint-every 100000
    python -m repro simulate --nodes 4 --resume campaign.jsonl --stride 8
    python -m repro simulate --dry-run --stride 8
    python -m repro nodes --nodes 2
    python -m repro search --strategy hillclimb --budget 24 --jobs 4
    python -m repro search --strategy sha --space sizing --resume s.jsonl
    python -m repro budgets
    python -m repro registry
    python -m repro serve --port 9317 --state-dir /tmp/serve-state
    python -m repro statehash --out tests/fixtures/state_hashes.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, List

from repro.experiments.configs import format_budget_details, format_table2
from repro.predictors import IndirectBranchPredictor
from repro.registry import INDIRECT_PREDICTORS, make_indirect
from repro.sim import (
    SimCounters,
    aggregate_profiles,
    format_counters,
    format_mpki_table,
    run_campaign,
)
from repro.sim.engine import BACKENDS
from repro.trace.record import BranchType
from repro.trace.stats import compute_stats
from repro.trace.stream import write_trace
from repro.trace.textio import write_text_trace
from repro.workloads.suite import suite88_specs
from repro.workloads.validation import format_report, validate_trace

#: CLI names for every available indirect predictor (the shared
#: construction registry; see :mod:`repro.registry`).
PREDICTOR_REGISTRY: Dict[str, Callable[[], IndirectBranchPredictor]] = (
    INDIRECT_PREDICTORS
)


def _cmd_suite(args: argparse.Namespace) -> int:
    specs = suite88_specs(args.scale)
    print(f"{'name':<28} {'source':<14} {'category':<14} {'records':>8}")
    for entry in specs:
        print(
            f"{entry.name:<28} {entry.source:<14} {entry.category:<14} "
            f"{entry.spec.num_records:>8}"
        )
    print(f"\n{len(specs)} workloads")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    specs = {entry.name: entry for entry in suite88_specs(args.scale)}
    if args.name not in specs:
        print(f"unknown trace {args.name!r}; see `python -m repro suite`",
              file=sys.stderr)
        return 1
    trace = specs[args.name].generate()
    if str(args.out).endswith(".csv"):
        write_text_trace(trace, args.out)
    else:
        write_trace(trace, args.out)
    print(f"wrote {trace} -> {args.out}")
    return 0


class _TraceLoadError(Exception):
    """A trace file named on the command line could not be read."""


def _load_trace(path: str):
    """Load a trace in any readable format (RPTRACE, CSV, ingested).

    An unreadable file raises :class:`_TraceLoadError`, which
    :func:`main` reports as one ``error:`` line, as ``trace info`` does.
    """
    from repro.trace.ingest import IngestError, load_any_trace
    from repro.trace.source import SourceError

    try:
        return load_any_trace(path)
    except (IngestError, SourceError, ValueError, OSError) as exc:
        raise _TraceLoadError(f"{path}: error: {exc}") from exc


def _cmd_stats(args: argparse.Namespace) -> int:
    for path in args.traces:
        trace = _load_trace(path)
        stats = compute_stats(trace)
        indirect_pk = sum(
            stats.per_kilo(bt)
            for bt in (BranchType.INDIRECT_JUMP, BranchType.INDIRECT_CALL)
        )
        print(f"{trace.name}:")
        print(f"  instructions        {stats.total_instructions}")
        print(f"  conditional / ki    {stats.per_kilo(BranchType.CONDITIONAL):.2f}")
        print(f"  indirect / ki       {indirect_pk:.2f}")
        print(f"  returns / ki        {stats.per_kilo(BranchType.RETURN):.2f}")
        print(f"  polymorphic share   {100 * stats.polymorphic_fraction():.1f}%")
        print(f"  static ind branches {len(stats.targets_per_branch)}")
        most = max(stats.targets_per_branch.values(), default=0)
        print(f"  max targets/branch  {most}")
    return 0


def _cmd_import(args: argparse.Namespace) -> int:
    """Ingest an external trace file into an RPTRACE2 spill."""
    from repro.trace.ingest import IngestError, detect_format
    from repro.trace.source import FileSource, SourceError

    try:
        source = FileSource(args.path, format=args.format, name=args.name)
        detected = args.format or detect_format(args.path)
        wrote = source.spill(Path(args.out))
    except (IngestError, SourceError, ValueError, OSError) as exc:
        print(f"import error: {exc}", file=sys.stderr)
        return 1
    verb = "wrote" if wrote else "unchanged (content hash matches)"
    print(
        f"{verb} {args.out}: {source.name!r}, {len(source)} records "
        f"(from {detected}), hash {source.content_hash()[:16]}"
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    """Identity + branch mix for trace files in any readable format."""
    from repro.trace.ingest import IngestError, detect_format
    from repro.trace.source import FileSource, SourceError

    status = 0
    for path in args.traces:
        try:
            detected = detect_format(path)
            source = FileSource(path, format=detected)
            trace = source.trace()
        except (IngestError, SourceError, ValueError, OSError) as exc:
            print(f"{path}: error: {exc}", file=sys.stderr)
            status = 1
            continue
        indirect = (
            trace.types == int(BranchType.INDIRECT_JUMP)
        ) | (trace.types == int(BranchType.INDIRECT_CALL))
        distinct_indirect = len(set(trace.pcs[indirect].tolist()))
        print(f"{path}:")
        print(f"  name             {trace.name}")
        print(f"  format           {detected}")
        print(f"  records          {len(trace)}")
        print(f"  instructions     {int(trace.gaps.sum()) + len(trace)}")
        print(f"  content hash     {source.content_hash()}")
        for branch_type in BranchType:
            count = int((trace.types == int(branch_type)).sum())
            share = 100.0 * count / len(trace)
            print(
                f"  {branch_type.name.lower():<16} {count:>10} "
                f"({share:5.1f}%)"
            )
        print(f"  distinct indirect PCs {distinct_indirect}")
    return status


def _parse_predictors(raw: str) -> Dict[str, Callable[[], IndirectBranchPredictor]]:
    factories = {}
    for name in raw.split(","):
        name = name.strip()
        if name not in PREDICTOR_REGISTRY:
            raise SystemExit(
                f"unknown predictor {name!r}; choose from "
                f"{', '.join(PREDICTOR_REGISTRY)}"
            )
        factories[name] = PREDICTOR_REGISTRY[name]
    return factories


def _backend(name: str) -> str:
    """``--backend`` type: argparse also runs it on the ``REPRO_BACKEND``
    default, which ``choices`` alone leaves unchecked."""
    if name not in BACKENDS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from "
            f"{', '.join(map(repr, BACKENDS))})"
        )
    return name


def _format_plan_summary(summary: Dict[str, int], label: str) -> str:
    """Human-readable ``--dry-run`` rendering of a plan summary."""
    spill = summary["estimated_spill_bytes"]
    lines = [
        f"{label}: {summary['traces']} trace(s) x "
        f"{summary['predictors']} predictor(s) = "
        f"{summary['cells']} cells",
        f"  scheduling units      {summary['units']} "
        f"({summary['fused_groups']} fused group(s))",
        f"  distinct traces       {summary['distinct_traces']} "
        f"(each ships to a node at most once)",
        f"  estimated spill bytes {spill:,} "
        f"(~{spill / (1 << 20):.1f} MiB)",
    ]
    return "\n".join(lines)


def _make_pool(nodes):
    """A :class:`repro.dist.NodePool` for ``--nodes N``, else ``None``."""
    if not nodes:
        return None
    from repro.dist import NodePool

    return NodePool(nodes=nodes)


def _run_sampled(args: argparse.Namespace, factories, traces) -> int:
    """The ``simulate --sample N`` path: SimPoint-style MPKI estimates."""
    from repro.sim import simulate_sampled
    from repro.trace.sampling import simpoint_plan

    print(
        f"{'trace':<28} {'predictor':<12} {'est MPKI':>9} {'regions':>7} "
        f"{'replayed':>9} {'full':>9} {'reduction':>9}"
    )
    for trace in traces:
        plan = simpoint_plan(
            trace,
            args.sample_interval,
            max_regions=args.sample,
            warmup_intervals=args.sample_warmup,
        )
        for name, factory in factories.items():
            result = simulate_sampled(
                factory,
                trace,
                plan=plan,
                backend=args.backend,
                checkpoint_dir=args.sample_checkpoints,
            )
            print(
                f"{trace.name:<28} {name:<12} "
                f"{result.estimated_mpki:>9.4f} "
                f"{len(plan.regions):>7} {result.replayed_records:>9} "
                f"{result.full_records:>9} "
                f"{result.record_reduction:>8.1f}x"
            )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.exec import ProgressLineSink, resolve_jobs, run_campaign_parallel
    from repro.exec.plan import plan_summary

    factories = _parse_predictors(args.predictors)
    traces = []
    if args.traces:
        traces = [_load_trace(path) for path in args.traces]
    else:
        entries = suite88_specs(args.scale)[:: args.stride]
        print(f"generating {len(entries)} suite traces ...", file=sys.stderr)
        traces = [entry.generate() for entry in entries]
    if args.sample:
        return _run_sampled(args, factories, traces)
    if args.dry_run:
        print(_format_plan_summary(
            plan_summary(traces, factories, fuse=args.fuse,
                         profile=args.profile),
            "campaign plan",
        ))
        return 0
    jobs = resolve_jobs(args.jobs)
    if args.checkpoint_every and not args.resume:
        print(
            "note: --checkpoint-every without --resume keeps checkpoints "
            "in a temporary directory; they will not survive this process",
            file=sys.stderr,
        )
    pool = _make_pool(args.nodes)
    try:
        if pool or jobs > 1 or args.resume or args.checkpoint_every or args.fuse:
            campaign = run_campaign_parallel(
                traces,
                factories,
                jobs=jobs,
                journal_path=args.resume,
                events=ProgressLineSink(sys.stderr),
                profile=args.profile,
                checkpoint_every=args.checkpoint_every,
                fuse=args.fuse,
                pool=pool,
                backend=args.backend,
            )
        else:
            campaign = run_campaign(
                traces,
                factories,
                counters=SimCounters() if args.profile else None,
                backend=args.backend,
            )
    finally:
        if pool is not None:
            pool.close()
    print(format_mpki_table(campaign, sort_by=list(factories)[-1]))
    if args.profile:
        print()
        for name in factories:
            totals = aggregate_profiles(
                per_trace[name].profile
                for per_trace in campaign.results.values()
                if name in per_trace
            )
            print(f"profile [{name}]")
            for line in format_counters(totals).splitlines():
                print(f"  {line}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.exec import resolve_jobs
    from repro.search import (
        GenerationEvaluator,
        SpaceError,
        default_space,
        format_leaderboard,
        intervals_space,
        make_strategy,
        run_search,
        save_leaderboard_json,
        save_leaderboard_markdown,
        sizing_space,
        toggles_space,
    )

    spaces = {
        "default": default_space,
        "sizing": sizing_space,
        "intervals": intervals_space,
        "toggles": toggles_space,
    }
    if args.budget < 1:
        print(f"search error: budget must be >= 1, got {args.budget}",
              file=sys.stderr)
        return 1
    if args.traces:
        traces = [_load_trace(path) for path in args.traces]
    else:
        entries = suite88_specs(args.scale)[:: args.stride]
        print(f"generating {len(entries)} tuning traces ...", file=sys.stderr)
        traces = [entry.generate() for entry in entries]
    try:
        strategy = make_strategy(
            args.strategy, spaces[args.space](),
            seed=args.seed, batch_size=args.batch,
        )
    except SpaceError as exc:
        print(f"search space error: {exc}", file=sys.stderr)
        return 1

    if args.dry_run:
        from repro.exec.plan import plan_summary

        # One generation's campaign: --batch candidates over the
        # tuning traces; the search runs ceil(budget / batch) of them.
        summary = plan_summary(
            traces, {f"cand-{i}": None for i in range(args.batch)},
        )
        generations = -(-args.budget // args.batch)
        print(_format_plan_summary(summary, "per-generation plan"))
        print(
            f"  generations           ~{generations} "
            f"(budget {args.budget} / batch {args.batch})"
        )
        print(
            f"  total cells           ~{summary['cells'] * generations}"
        )
        return 0

    def progress(generation: int, evaluations: int, best: float) -> None:
        print(
            f"search gen {generation}: {evaluations}/{args.budget} "
            f"candidates, best mean MPKI {best:.4f}",
            file=sys.stderr,
        )

    pool = _make_pool(args.nodes)
    try:
        with GenerationEvaluator(
            traces, jobs=resolve_jobs(args.jobs), pool=pool,
            backend=args.backend,
        ) as evaluator:
            result = run_search(
                strategy,
                evaluator,
                budget=args.budget,
                journal_path=args.resume,
                progress=progress,
            )
    finally:
        if pool is not None:
            pool.close()
    print(
        f"search done: {result.evaluations} candidates over "
        f"{result.generations} generations "
        f"({result.live_evaluations} simulated, {result.resumed} resumed)"
    )
    print(format_leaderboard(result.leaderboard, top=args.top))
    if args.out:
        json_path = save_leaderboard_json(
            result.leaderboard, f"{args.out}/leaderboard.json"
        )
        md_path = save_leaderboard_markdown(
            result.leaderboard, f"{args.out}/leaderboard.md", top=args.top
        )
        print(f"leaderboard written to {json_path} and {md_path}",
              file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.traces:
        traces = [_load_trace(path) for path in args.traces]
    else:
        entries = suite88_specs(args.scale)[:: args.stride]
        print(f"validating {len(entries)} suite traces ...", file=sys.stderr)
        traces = [entry.generate() for entry in entries]
    failures = 0
    for trace in traces:
        report = validate_trace(trace)
        print(format_report(report))
        if not report.ok:
            failures += 1
    if failures:
        print(f"{failures} trace(s) violate the workload contract",
              file=sys.stderr)
    return 1 if failures else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    path = generate_report(
        args.out, scale=args.scale, stride=args.stride
    )
    print(f"report written to {path}")
    return 0


def _cmd_budgets(args: argparse.Namespace) -> int:
    print(format_table2())
    if args.details:
        print()
        print(format_budget_details())
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    """List registered predictor keys with config fingerprints."""
    from repro.registry import registry_listing

    rows = registry_listing()
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    print(f"{'name':<18} {'kind':<12} {'class':<28} fingerprint")
    for row in rows:
        print(
            f"{row['name']:<18} {row['kind']:<12} {row['class']:<28} "
            f"{row['fingerprint'][:16]}"
        )
    print(
        f"\n{len(rows)} registered predictors; indirect keys are valid "
        f"`repro serve` session configs"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the prediction server until SIGTERM/SIGINT (drains on exit)."""
    import asyncio

    from repro.serve.server import PredictionServer

    async def run() -> int:
        server = PredictionServer(
            host=args.host,
            port=args.port,
            state_dir=args.state_dir,
            max_resident=args.max_resident,
            batch_window=args.batch_window,
            max_batch_events=args.batch_max_events,
            workers=args.workers,
            ras_depth=args.ras_depth,
        )
        port = await server.start()
        # Parsed by scripts/serve_smoke.py and the load driver: keep the
        # "serving on host:port" shape stable.
        print(f"serving on {args.host}:{port} "
              f"(state dir {args.state_dir}, "
              f"max resident {args.max_resident})", flush=True)
        saved = await server.serve_until_stopped()
        print(f"drained: {saved} session(s) checkpointed to "
              f"{args.state_dir}", flush=True)
        return 0

    return asyncio.run(run())


def _cmd_nodes(args: argparse.Namespace) -> int:
    """Probe a distributed pool: spawn/contact nodes and print a table."""
    import os

    from repro.dist import NODES_ENV, NodePool, PoolError, SSHPool

    try:
        if args.ssh:
            pool = SSHPool(
                [host.strip() for host in args.ssh.split(",")],
                template=args.template or SSHPool.DEFAULT_TEMPLATE,
                python=args.python,
            )
        else:
            count = args.nodes or int(os.environ.get(NODES_ENV, "2") or 2)
            pool = NodePool(nodes=count)
    except (PoolError, ValueError, OSError) as exc:
        print(f"nodes error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = pool.describe()
    finally:
        pool.close()
    print(f"{'node':<16} {'transport':<16} {'pid':>8} {'cpus':>5} "
          f"{'alive':<6} {'cells':>6} {'traces':>7}")
    for row in rows:
        print(
            f"{row['node']:<16} {row['transport']:<16} "
            f"{row['pid']:>8} {row['cpus']:>5} "
            f"{str(row['alive']).lower():<6} "
            f"{row.get('cells', 0):>6} {row.get('traces_stored', 0):>7}"
        )
    print(f"\n{len(rows)} node(s); "
          f"{sum(1 for row in rows if row['alive'])} alive")
    return 0 if rows and all(row["alive"] for row in rows) else 1


#: Defaults for the golden state-hash fixtures; changing either is a
#: fixture regeneration (and a deliberate decision), not a tweak.
STATEHASH_TRACE = "spec2000.252_eon"
STATEHASH_SCALE = 0.02


def _cmd_statehash(args: argparse.Namespace) -> int:
    """Print canonical post-simulation state hashes per predictor.

    Every registered indirect predictor is driven over one deterministic
    suite trace and its :meth:`state_hash` printed.  With ``--out`` the
    hashes are written as a JSON fixture — this is how
    ``tests/fixtures/state_hashes.json`` is (re)generated when a
    predictor's architectural state legitimately changes.
    """
    from repro.sim import simulate

    specs = {entry.name: entry for entry in suite88_specs(args.scale)}
    if args.trace not in specs:
        print(f"unknown trace {args.trace!r}; see `python -m repro suite`",
              file=sys.stderr)
        return 1
    trace = specs[args.trace].generate()
    if args.predictors:
        names = [name.strip() for name in args.predictors.split(",")]
        unknown = [n for n in names if n not in PREDICTOR_REGISTRY]
        if unknown:
            print(f"unknown predictors {unknown}; choose from "
                  f"{', '.join(PREDICTOR_REGISTRY)}", file=sys.stderr)
            return 1
    else:
        names = list(PREDICTOR_REGISTRY)
    hashes: Dict[str, str] = {}
    for name in names:
        predictor = make_indirect(name)
        simulate(predictor, trace)
        hashes[name] = predictor.state_hash()
        print(f"{name:<16} {hashes[name]}")
    if args.out:
        payload = {
            "trace": args.trace,
            "scale": args.scale,
            "records": len(trace),
            "hashes": hashes,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BLBP reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite = sub.add_parser("suite", help="list the 88-workload suite")
    suite.add_argument("--scale", type=float, default=1.0)
    suite.set_defaults(func=_cmd_suite)

    generate = sub.add_parser("generate", help="generate a suite trace")
    generate.add_argument("name", help="suite trace name")
    generate.add_argument("--out", required=True, help="output path")
    generate.add_argument("--scale", type=float, default=1.0)
    generate.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="trace statistics")
    stats.add_argument("traces", nargs="+", help="trace files")
    stats.set_defaults(func=_cmd_stats)

    import_cmd = sub.add_parser(
        "import",
        help="ingest an external trace (ChampSim/gem5/CSV) to RPTRACE2",
    )
    import_cmd.add_argument("path", help="input trace file")
    import_cmd.add_argument("--out", required=True,
                            help="output RPTRACE2 spill path")
    import_cmd.add_argument(
        "--format", choices=("rptrace", "csv", "champsim", "gem5"),
        default=None, help="input format (default: auto-detect)",
    )
    import_cmd.add_argument(
        "--name", default=None,
        help="trace name (default: from the file header or filename)",
    )
    import_cmd.set_defaults(func=_cmd_import)

    trace_cmd = sub.add_parser("trace", help="trace utilities")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_info = trace_sub.add_parser(
        "info",
        help="identity, branch mix, and content hash of trace files",
    )
    trace_info.add_argument("traces", nargs="+", help="trace files")
    trace_info.set_defaults(func=_cmd_trace_info)

    simulate = sub.add_parser("simulate", help="run predictors over traces")
    simulate.add_argument(
        "--predictors", default="BTB,ITTAGE,BLBP",
        help=f"comma list from: {', '.join(PREDICTOR_REGISTRY)}",
    )
    simulate.add_argument("--traces", nargs="*", help="trace files (else suite)")
    simulate.add_argument("--stride", type=int, default=16,
                          help="suite sampling stride (default 16)")
    simulate.add_argument("--scale", type=float, default=1.0)
    simulate.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS env var, else 1)",
    )
    simulate.add_argument(
        "--backend", type=_backend, choices=BACKENDS,
        default=os.environ.get("REPRO_BACKEND", "scalar"),
        help="simulation backend: per-record scalar loop or compiled "
             "columnar cores, results identical; columnar warns for "
             "every predictor or feature it runs scalar (make that an "
             "error with python -W error::RuntimeWarning) "
             "(default: REPRO_BACKEND env var, else scalar)",
    )
    simulate.add_argument(
        "--resume", metavar="PATH", default=None,
        help="JSONL journal checkpoint; rerun with the same path to "
             "resume an interrupted campaign",
    )
    simulate.add_argument(
        "--profile", action="store_true",
        help="collect hot-path counters and phase timings; prints an "
             "aggregated per-predictor table after the MPKI results",
    )
    simulate.add_argument(
        "--fuse", action=argparse.BooleanOptionalAction, default=True,
        help="run same-trace cells as one fused pass over the trace "
             "(results identical; --no-fuse restores per-cell passes)",
    )
    simulate.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot simulation state every N records beside the "
             "--resume journal so a killed worker resumes mid-trace "
             "(default 0 = off)",
    )
    simulate.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="distribute the campaign across N local worker nodes "
             "(repro.dist; journals stay byte-identical to --jobs runs)",
    )
    simulate.add_argument(
        "--dry-run", action="store_true",
        help="print the campaign plan (cells, fusion groups, distinct "
             "traces, estimated spill bytes) and exit without simulating",
    )
    simulate.add_argument(
        "--sample", type=int, default=0, metavar="N",
        help="SimPoint-style sampled simulation: estimate each trace's "
             "MPKI from at most N representative regions instead of a "
             "full replay (default 0 = full replay)",
    )
    simulate.add_argument(
        "--sample-interval", type=int, default=5000, metavar="M",
        help="records per sampling interval for --sample (default 5000)",
    )
    simulate.add_argument(
        "--sample-warmup", type=int, default=1, metavar="K",
        help="warm-up intervals replayed (untallied) before each "
             "sampled region (default 1)",
    )
    simulate.add_argument(
        "--sample-checkpoints", metavar="DIR", default=None,
        help="cache per-region warm-up state as simulation checkpoints "
             "in DIR; later --sample runs skip the warm-up replay",
    )
    simulate.set_defaults(func=_cmd_simulate)

    search = sub.add_parser(
        "search", help="design-space search over BLBP configurations"
    )
    search.add_argument(
        "--strategy", default="hillclimb",
        choices=("hillclimb", "random", "grid", "sha"),
        help="batch-proposing strategy (default hillclimb)",
    )
    search.add_argument(
        "--budget", type=int, default=24,
        help="total candidate evaluations (default 24)",
    )
    search.add_argument(
        "--batch", type=int, default=4,
        help="candidates proposed per generation (default 4)",
    )
    search.add_argument(
        "--space", default="intervals",
        choices=("default", "sizing", "intervals", "toggles"),
        help="parameter space (default intervals; grid needs an "
             "enumerable space such as sizing)",
    )
    search.add_argument("--seed", type=int, default=0x5EA8C4,
                        help="strategy RNG seed")
    search.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS env var, else 1)",
    )
    search.add_argument(
        "--backend", type=_backend, choices=BACKENDS,
        default=os.environ.get("REPRO_BACKEND", "scalar"),
        help="simulation backend for candidate scoring; columnar warns "
             "for any candidate it runs scalar "
             "(default: REPRO_BACKEND env var, else scalar)",
    )
    search.add_argument(
        "--resume", metavar="PATH", default=None,
        help="JSONL search journal; rerun with the same path to resume "
             "without re-evaluating journaled candidates",
    )
    search.add_argument("--traces", nargs="*",
                        help="tuning trace files (else suite sample)")
    search.add_argument("--stride", type=int, default=16,
                        help="suite sampling stride (default 16)")
    search.add_argument("--scale", type=float, default=1.0)
    search.add_argument("--top", type=int, default=10,
                        help="leaderboard rows to print (default 10)")
    search.add_argument(
        "--out", metavar="DIR", default=None,
        help="write leaderboard.json + leaderboard.md into DIR",
    )
    search.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="score candidate generations across N local worker nodes",
    )
    search.add_argument(
        "--dry-run", action="store_true",
        help="print the per-generation campaign plan and exit without "
             "searching",
    )
    search.set_defaults(func=_cmd_search)

    validate = sub.add_parser(
        "validate", help="check traces against the workload contract"
    )
    validate.add_argument("--traces", nargs="*", help="trace files (else suite)")
    validate.add_argument("--stride", type=int, default=16)
    validate.add_argument("--scale", type=float, default=1.0)
    validate.set_defaults(func=_cmd_validate)

    budgets = sub.add_parser("budgets", help="hardware budgets (Table 2)")
    budgets.add_argument("--details", action="store_true")
    budgets.set_defaults(func=_cmd_budgets)

    registry = sub.add_parser(
        "registry",
        help="list registered predictor keys + config fingerprints",
    )
    registry.add_argument("--json", action="store_true",
                          help="machine-readable output")
    registry.set_defaults(func=_cmd_registry)

    serve = sub.add_parser(
        "serve", help="run the prediction server (repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default 0 = ephemeral, printed)")
    serve.add_argument(
        "--state-dir", default="serve-state",
        help="directory for session checkpoints (eviction + drain)",
    )
    serve.add_argument(
        "--max-resident", type=int, default=1024,
        help="resident-session cap; LRU sessions beyond it are "
             "checkpointed to --state-dir (default 1024)",
    )
    serve.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="micro-batch coalescing window (default 0.002)",
    )
    serve.add_argument(
        "--batch-max-events", type=int, default=8192,
        help="event count that triggers an early batch drain",
    )
    serve.add_argument(
        "--workers", type=int, default=4,
        help="shard batchers; sessions hash-shard across them (default 4)",
    )
    serve.add_argument("--ras-depth", type=int, default=32)
    serve.set_defaults(func=_cmd_serve)

    nodes = sub.add_parser(
        "nodes", help="probe distributed worker nodes (repro.dist)"
    )
    nodes.add_argument(
        "--nodes", type=int, default=None, metavar="N",
        help="local worker nodes to spawn and probe "
             "(default: REPRO_NODES env var, else 2)",
    )
    nodes.add_argument(
        "--ssh", metavar="HOSTS", default=None,
        help="probe SSH nodes instead: comma-separated host list",
    )
    nodes.add_argument(
        "--template", default=None,
        help="launch command template for --ssh "
             "(placeholders: {host} {python} {node})",
    )
    nodes.add_argument(
        "--python", default="python3",
        help="remote python for --ssh templates (default python3)",
    )
    nodes.set_defaults(func=_cmd_nodes)

    statehash = sub.add_parser(
        "statehash",
        help="canonical post-simulation predictor state hashes",
    )
    statehash.add_argument(
        "--predictors", default=None,
        help=f"comma list from: {', '.join(PREDICTOR_REGISTRY)} "
             "(default: all)",
    )
    statehash.add_argument("--trace", default=STATEHASH_TRACE,
                           help="suite trace name (default: the fixture's)")
    statehash.add_argument("--scale", type=float, default=STATEHASH_SCALE,
                           help="suite scale (default: the fixture's)")
    statehash.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write hashes as a JSON fixture "
             "(tests/fixtures/state_hashes.json)",
    )
    statehash.set_defaults(func=_cmd_statehash)

    report = sub.add_parser(
        "report", help="run the evaluation and write a markdown report"
    )
    report.add_argument("--out", default="results/report.md")
    report.add_argument("--scale", type=float, default=0.5)
    report.add_argument("--stride", type=int, default=8)
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: List[str] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _TraceLoadError as exc:
        print(exc, file=sys.stderr)
        return 1
    except Exception as exc:
        # Under ``python -W error::RuntimeWarning`` a columnar fallback
        # raises; a campaign pool re-raises it as a failed cell's cause.
        warning = exc if isinstance(exc, RuntimeWarning) else exc.__cause__
        if not isinstance(warning, RuntimeWarning):
            raise
        print(f"error: {warning}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
