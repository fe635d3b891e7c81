"""Run the repository's benchmark (see README.md and BENCHMARK.json).

One run::

    python3 benchmarks/perf/run.py --workload campaign-paper --seed 0 \\
        --seconds 15 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) by name with its unit, then, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A traced run also writes its
spans to ``.perfbench/spans/<workload>-seed<n>.jsonl``.

Several runs, each in a fresh process (``--workload all`` runs all four
workloads; ``--seeds`` takes a list such as ``0,1,7`` or a range
``0-9``), optionally appended to a JSONL file of rows for
``compare.py``::

    python3 benchmarks/perf/run.py --workload all --seeds 0-9 \\
        --record benchmarks/perf/baseline.jsonl --label A

``--write-golden`` recomputes ``golden.json`` from the scalar oracle.

Everything the benchmark writes stays inside ``.perfbench/`` at the root
of the checkout.  A run's own directory there is removed when it ends;
the compiled-core cache and traced-run spans stay.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"
GOLDEN_SEEDS = (0, 1)


def _prepare_environment() -> Path:
    """Point every cache and temporary file of the run into the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {ROOT / 'src'}; run the "
            "benchmark from a full checkout of the repository"
        )
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["XDG_CACHE_HOME"] = str(WORK / "cache")
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = None
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT)]
    return run_dir


def _units() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _parse_seeds(raw: str) -> list:
    seeds = []
    for part in raw.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_one(args) -> int:
    run_dir = _prepare_environment()
    # A terminated run still stops the servers and nodes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        import workloads
        from spans import write_spans

        golden = json.loads(GOLDEN.read_text()).get(args.workload)
        result = workloads.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            golden, run_dir,
        )
        units = _units()["per_layer" if args.trace else "end_to_end"]
        missing = sorted(set(units) - set(result.metrics))
        if missing:
            raise RuntimeError(f"metrics not measured: {missing}")
        if result.spans:
            target = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            write_spans(result.spans, target)
            result.notes["spans"] = os.path.relpath(target, ROOT)
        print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        for name, unit in units.items():
            print(f"{name} = {result.metrics[name]:.6g} {unit}")
        share = result.failed / result.attempted if result.attempted else 1.0
        print(f"# failed_share = {share:.6g} "
              f"({result.failed} of {result.attempted} operations and checks)")
        for key, value in result.notes.items():
            print(f"# {key}: {value}")
        for failure in result.failures[:10]:
            print(f"# FAILED: {failure}")
        if result.failed > 10:
            print(f"# ... and {result.failed - 10} more failures")
        print(json.dumps({
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": result.metrics[name], "unit": unit}
                for name, unit in units.items()
            },
        }))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_many(args, names: list, seeds: list) -> int:
    """Each (workload, seed) in a fresh process; optionally record rows."""
    sys.path[1:1] = [str(ROOT / "src")]
    from repro.common.envinfo import environment_metadata

    sha = _git_sha()
    envinfo = environment_metadata()
    results = []
    for seed in seeds:
        for name in names:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            completed = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True
            )
            sys.stdout.write(completed.stdout)
            sys.stderr.write(completed.stderr)
            if completed.returncode != 0:
                print(f"# {name} seed={seed}: exit {completed.returncode}")
                return completed.returncode
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            results.append(result)
            if args.record:
                row = {
                    "label": args.label, "sha": sha, "envinfo": envinfo,
                    "workload": name, "seed": seed, "seconds": args.seconds,
                    "trace": args.trace, "result": result,
                }
                with open(args.record, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(row, sort_keys=True) + "\n")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# {len(results)} runs, failed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted})")
    return 0 if failed == 0 else 1


def write_golden() -> int:
    """golden.json: the scalar oracle's digests for the golden seeds."""
    run_dir = _prepare_environment()
    try:
        import dataclasses

        import workloads

        golden = {}
        for name, config in workloads.WORKLOADS.items():
            golden[name] = {
                "config": dataclasses.asdict(config),
                "digests": {
                    str(seed): workloads.golden_digest(name, seed, run_dir)
                    for seed in GOLDEN_SEEDS
                },
            }
            print(f"{name}: {golden[name]['digests']}", flush=True)
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", default="all",
        help="campaign-paper, campaign-ablation, serve-sessions, "
             "dist-campaign, or all (default)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default=None,
                        help="several seeds, e.g. 0,1,7 or 0-9")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured seconds per run (default 15)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append one JSON row per run to this file")
    parser.add_argument("--label", default="",
                        help="set label stored in recorded rows")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)

    if args.write_golden:
        return write_golden()
    names = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    if args.workload != "all" and len(seeds) == 1 and not args.record:
        args.seed = seeds[0]
        return run_one(args)
    if args.workload != "all":
        names = [args.workload]
    return run_many(args, names, seeds)


if __name__ == "__main__":
    sys.exit(main())
