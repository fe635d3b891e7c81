"""Implementation-cost microbenchmarks (supplementary to §3.7).

The paper argues BLBP's prediction is implementable within conditional-
perceptron latency (8 tables, K adder trees).  These microbenchmarks
measure the simulator-side cost per operation of each predictor —
useful both as a software regression guard and as a proxy for relative
implementation complexity.

Run directly, this module is also the **hot-path speedup gate**::

    PYTHONPATH=src python benchmarks/bench_throughput.py --quick

It replays a suite sample through :class:`repro.core.ReferenceBLBP`
(the per-bank, from-scratch-fold "before" implementation), the
optimized :class:`repro.core.BLBP`, and the columnar batch kernel
(``simulate(..., backend="columnar")`` over precomputed derived
planes) on the headline paper configuration, prints branches/second
for all three, writes the numbers to ``--out`` when one is given, and
exits non-zero unless optimized ≥ ``--min-speedup`` × reference AND columnar ≥
``--min-columnar-speedup`` × optimized.  CI runs this on every push.

``--checkpoint-gate`` instead measures the cost of mid-trace
checkpointing (see ``docs/checkpointing.md``): the same sample with
``checkpoint_every=0`` versus with periodic snapshots, failing if
snapshots cost more than ``--max-checkpoint-overhead`` percent.

Neither mode writes a file unless ``--out`` names one, so a gate run
leaves the committed measurements alone.  To re-record them::

    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --out results/throughput_blbp.json
    PYTHONPATH=src python benchmarks/bench_throughput.py --checkpoint-gate \
        --scale 2 --stride 20 --repeats 3 --out results/checkpoint_overhead.json
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.common.envinfo import environment_metadata
from repro.core import BLBP, ReferenceBLBP
from repro.predictors import ITTAGE, BranchTargetBuffer, VPCPredictor


def _warmed(predictor, pcs, targets, steps=500):
    rng = np.random.default_rng(0)
    for _ in range(steps):
        pc = pcs[int(rng.integers(len(pcs)))]
        target = targets[int(rng.integers(len(targets)))]
        predictor.predict_target(pc)
        predictor.train(pc, target)
        predictor.on_conditional(0x500, bool(rng.integers(2)))
    return predictor


PCS = [0x1000, 0x1040, 0x2000]
TARGETS = [0x40_0004, 0x40_0128, 0x40_0A3C, 0x41_0010]


@pytest.mark.parametrize("factory", [BranchTargetBuffer, VPCPredictor, ITTAGE, BLBP],
                         ids=["BTB", "VPC", "ITTAGE", "BLBP"])
def test_predict_throughput(benchmark, factory):
    predictor = _warmed(factory(), PCS, TARGETS)
    benchmark(predictor.predict_target, PCS[0])


@pytest.mark.parametrize("factory", [BranchTargetBuffer, VPCPredictor, ITTAGE, BLBP],
                         ids=["BTB", "VPC", "ITTAGE", "BLBP"])
def test_predict_train_round_trip(benchmark, factory):
    predictor = _warmed(factory(), PCS, TARGETS)

    def round_trip():
        predictor.predict_target(PCS[1])
        predictor.train(PCS[1], TARGETS[1])

    benchmark(round_trip)


# ----------------------------------------------------------------------
# Reference-vs-optimized speedup gate (CLI mode)
# ----------------------------------------------------------------------


def measure_speedup(scale: float, stride: int, repeats: int) -> dict:
    """Replay a suite sample through both BLBP implementations.

    Each implementation gets ``repeats`` full passes (fresh predictors
    every pass); the best pass counts, which damps scheduler noise on
    shared CI runners.  Returns a JSON-ready summary.
    """
    from repro.sim.engine import simulate
    from repro.trace.derived import compute_derived
    from repro.workloads.suite import suite88_specs

    entries = suite88_specs(scale)[::stride]
    traces = [entry.generate() for entry in entries]
    records = sum(len(trace) for trace in traces)

    def best_pass(factory) -> float:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            for trace in traces:
                simulate(factory(), trace)
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best:
                best = elapsed
        return best

    reference_seconds = best_pass(ReferenceBLBP)
    optimized_seconds = best_pass(BLBP)
    # The columnar pass gets its derived planes up front, mirroring how
    # campaigns run it: exec workers keep each trace's plane in their
    # trace cache, so derivation is a one-time cost amortized across
    # cells, not part of the per-pass hot path.
    planes = {trace.name: compute_derived(trace) for trace in traces}
    columnar_seconds = None
    for _ in range(repeats):
        started = time.perf_counter()
        for trace in traces:
            simulate(BLBP(), trace, backend="columnar",
                     derived=planes[trace.name])
        elapsed = time.perf_counter() - started
        if columnar_seconds is None or elapsed < columnar_seconds:
            columnar_seconds = elapsed
    return {
        "environment": environment_metadata(),
        "traces": [trace.name for trace in traces],
        "records": records,
        "scale": scale,
        "stride": stride,
        "repeats": repeats,
        "reference_seconds": round(reference_seconds, 4),
        "optimized_seconds": round(optimized_seconds, 4),
        "columnar_seconds": round(columnar_seconds, 4),
        "reference_records_per_sec": round(records / reference_seconds),
        "optimized_records_per_sec": round(records / optimized_seconds),
        "columnar_records_per_sec": round(records / columnar_seconds),
        "speedup": round(reference_seconds / optimized_seconds, 3),
        "columnar_speedup": round(optimized_seconds / columnar_seconds, 3),
    }


def measure_checkpoint_overhead(
    scale: float, stride: int, repeats: int, interval: int = 0
) -> dict:
    """Measure checkpointing cost: off versus every-``interval`` records.

    Snapshots go to an in-memory no-op sink, so the measurement isolates
    the ``state_dict()`` + span-slicing cost the checkpoint machinery
    adds to the hot loop (disk writes are the journal's problem and
    amortize identically either way).  ``interval=0`` picks half the
    longest trace, clamped to the library default, so every trace takes
    at least one mid-trace snapshot at any ``--scale``.  Test traces are
    far shorter than ``DEFAULT_CHECKPOINT_INTERVAL``, so this snapshots
    *more* often per record than a production run — passing the gate
    here bounds default-interval overhead from above.
    """
    from repro.sim import DEFAULT_CHECKPOINT_INTERVAL
    from repro.sim.engine import simulate
    from repro.workloads.suite import suite88_specs

    entries = suite88_specs(scale)[::stride]
    traces = [entry.generate() for entry in entries]
    records = sum(len(trace) for trace in traces)
    if interval <= 0:
        longest = max(len(trace) for trace in traces)
        interval = max(1, min(DEFAULT_CHECKPOINT_INTERVAL, longest // 2))

    def one_pass(**kwargs) -> float:
        started = time.perf_counter()
        for trace in traces:
            simulate(BLBP(), trace, **kwargs)
        return time.perf_counter() - started

    snapshots = 0

    def count(_checkpoint):
        nonlocal snapshots
        snapshots += 1

    # One throwaway warmup pass, then interleave modes so cache/allocator
    # warm-up and CPU-frequency drift hit both measurements equally.
    one_pass()
    off_seconds = on_seconds = None
    for _ in range(repeats):
        off = one_pass()
        on = one_pass(checkpoint_every=interval, on_checkpoint=count)
        off_seconds = off if off_seconds is None else min(off_seconds, off)
        on_seconds = on if on_seconds is None else min(on_seconds, on)
    overhead = 100.0 * (on_seconds - off_seconds) / off_seconds
    return {
        "environment": environment_metadata(),
        "records": records,
        "scale": scale,
        "stride": stride,
        "repeats": repeats,
        "checkpoint_every": interval,
        "snapshots_per_pass": snapshots // repeats,
        "off_seconds": round(off_seconds, 4),
        "on_seconds": round(on_seconds, 4),
        "off_records_per_sec": round(records / off_seconds),
        "on_records_per_sec": round(records / on_seconds),
        "overhead_percent": round(overhead, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="BLBP reference-vs-optimized throughput gate"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sample for CI (scale 0.5, stride 30, 2 repeats)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--stride", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail unless optimized/reference throughput ≥ this (default 2.0)",
    )
    parser.add_argument(
        "--min-columnar-speedup", type=float, default=5.0,
        help="fail unless columnar/optimized throughput ≥ this (default 5.0)",
    )
    parser.add_argument(
        "--out", default="",
        help="write the measurement to this JSON file (default: no file)",
    )
    parser.add_argument(
        "--checkpoint-gate", action="store_true",
        help="measure mid-trace checkpoint overhead instead of the "
             "reference-vs-optimized speedup",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="snapshot interval in records for --checkpoint-gate "
             "(default: quarter of the longest trace)",
    )
    parser.add_argument(
        "--max-checkpoint-overhead", type=float, default=5.0,
        help="fail --checkpoint-gate when periodic snapshots cost more "
             "than this percent (default 5)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.5 if args.quick else 1.0)
    stride = args.stride if args.stride is not None else (30 if args.quick else 10)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)

    if args.checkpoint_gate:
        summary = measure_checkpoint_overhead(
            scale, stride, repeats, args.checkpoint_every
        )
        print(
            f"checkpointing off  {summary['off_records_per_sec']:>10,} "
            f"records/s  ({summary['off_seconds']:.2f}s, "
            f"{summary['records']:,} records)"
        )
        print(
            f"every {summary['checkpoint_every']:>6,}      "
            f"{summary['on_records_per_sec']:>10,} records/s  "
            f"({summary['on_seconds']:.2f}s, "
            f"{summary['snapshots_per_pass']} snapshots/pass)"
        )
        print(
            f"overhead           {summary['overhead_percent']:.2f}%  "
            f"(gate: <{args.max_checkpoint_overhead}%)"
        )
        if args.out:
            out_path = Path(args.out)
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(json.dumps(summary, indent=2) + "\n")
            print(f"wrote {out_path}")
        if summary["overhead_percent"] >= args.max_checkpoint_overhead:
            print(
                f"FAIL: checkpoint overhead "
                f"{summary['overhead_percent']:.2f}% is not below "
                f"{args.max_checkpoint_overhead}% gate",
                file=sys.stderr,
            )
            return 1
        return 0

    summary = measure_speedup(scale, stride, repeats)
    print(
        f"ReferenceBLBP  {summary['reference_records_per_sec']:>10,} records/s"
        f"  ({summary['reference_seconds']:.2f}s, {summary['records']:,} records)"
    )
    print(
        f"BLBP           {summary['optimized_records_per_sec']:>10,} records/s"
        f"  ({summary['optimized_seconds']:.2f}s)"
    )
    print(
        f"BLBP columnar  {summary['columnar_records_per_sec']:>10,} records/s"
        f"  ({summary['columnar_seconds']:.2f}s)"
    )
    print(f"speedup        {summary['speedup']:.2f}x  (gate: ≥{args.min_speedup}x)")
    print(
        f"columnar       {summary['columnar_speedup']:.2f}x over scalar BLBP"
        f"  (gate: ≥{args.min_columnar_speedup}x)"
    )

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {out_path}")

    if summary["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {summary['speedup']:.2f}x below "
            f"{args.min_speedup}x gate",
            file=sys.stderr,
        )
        return 1
    if summary["columnar_speedup"] < args.min_columnar_speedup:
        print(
            f"FAIL: columnar speedup {summary['columnar_speedup']:.2f}x "
            f"below {args.min_columnar_speedup}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
