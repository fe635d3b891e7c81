"""Campaign-fusion throughput gate.

Measures end-to-end wall clock for the same campaign executed three
ways:

* **pr4** — a faithful reconstruction of the PR 4 execution path, the
  gate's baseline: traces spilled as ``RPTRACE1`` archives, every
  (trace, predictor) cell re-reading its spill via ``np.load``,
  re-converting columns to scalars, and replaying the RAS solo;
* **unfused** — today's ``execute_plan(fuse=False)``: cells still run
  solo, but through the worker :class:`~repro.trace.plane.TraceCache`
  (memmap attach, scalars decoded once per trace);
* **fused** — ``execute_plan(fuse=True)``: contiguous same-trace cells
  grouped into :class:`FusedCellSpec`s, each group one
  :func:`simulate_many` pass sharing the decoded columns and the
  in-memory derived plane (precomputed RAS outcomes, indirect index
  arrays).

All three arms must produce identical results (asserted every run — a
throughput gate is worthless if fusion drifts).  The campaign shape is
the paper's Figure-1-style capacity sweep — many cheap predictor
configurations over a suite sample — which is exactly the shape where
per-cell predictor-independent costs (decode, dispatch, RAS replay)
dominate and fusion pays off.

Run as the CI gate::

    PYTHONPATH=src python benchmarks/bench_campaign.py --quick --gate

``--gate`` exits non-zero unless fused ≥ ``--min-speedup`` × the PR 4
baseline (default 1.5x).  The measurement is written to
``results/throughput_campaign.json`` with host-environment metadata.
"""

import argparse
import functools
import json
import struct
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.common.envinfo import environment_metadata
from repro.exec.plan import _spill_name, plan_campaign
from repro.exec.pool import execute_plan
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.sim.engine import simulate
from repro.sim.metrics import CampaignResult
from repro.trace.stream import Trace

#: The PR 4 spill format: a JSON header, then each column ``np.save``d.
#: The library no longer reads or writes it; the baseline keeps a copy so
#: the gate measures the same quantity against the same bound.
_V1_MAGIC = b"RPTRACE1"
_V1_COLUMNS = ("pcs", "types", "takens", "targets", "gaps")


def _write_v1(trace: Trace, path: Path) -> None:
    header = json.dumps({"name": trace.name, "records": len(trace)}).encode()
    with open(path, "wb") as handle:
        handle.write(_V1_MAGIC)
        handle.write(struct.pack("<I", len(header)))
        handle.write(header)
        for column in _V1_COLUMNS:
            np.save(handle, getattr(trace, column), allow_pickle=False)


def _read_v1(path: Path) -> Trace:
    with open(path, "rb") as handle:
        if handle.read(len(_V1_MAGIC)) != _V1_MAGIC:
            raise ValueError(f"{path} is not an RPTRACE1 trace file")
        (header_len,) = struct.unpack("<I", handle.read(4))
        header = json.loads(handle.read(header_len).decode())
        columns = [np.load(handle, allow_pickle=False) for _ in _V1_COLUMNS]
    return Trace(header["name"], *columns)


def sweep_factories():
    """A Figure-1-style capacity sweep: 8 predictor configurations."""
    factories = {}
    for bits in (8, 10, 12, 14):
        entries = 1 << bits
        factories[f"BTB-{entries}"] = functools.partial(
            BranchTargetBuffer, num_entries=entries
        )
        factories[f"2bit-{entries}"] = functools.partial(
            TwoBitBTB, num_entries=entries
        )
    return factories


def _suite_traces(scale: float, stride: int, min_traces: int = 8):
    from repro.workloads.suite import suite88_specs

    entries = suite88_specs(scale)[::stride]
    if len(entries) < min_traces:
        entries = suite88_specs(scale)[:min_traces]
    return [entry.generate() for entry in entries]


def _run_pr4(traces, factories, spill_dir: Path) -> CampaignResult:
    """The PR 4 unfused path: per-cell np.load decode + solo replay.

    Reconstructs what ``execute_plan`` did before the trace plane:
    spills were ``RPTRACE1`` archives and every cell independently
    re-read and re-decoded its trace (no worker cache, no shared
    scalars, no derived plane).  Reading the file fresh per cell is the
    point — it reproduces the per-cell cost the trace plane removed.
    """
    campaign = CampaignResult()
    for index, trace in enumerate(traces):
        path = spill_dir / _spill_name(index, trace.name)
        for name, factory in factories.items():
            loaded = _read_v1(path)
            result = simulate(factory(), loaded)
            result.predictor_name = name
            campaign.add(result)
    return campaign


def measure_campaign(
    scale: float, stride: int, repeats: int, factories=None
) -> dict:
    """Best-of-``repeats`` wall clock for pr4 vs unfused vs fused.

    All arms run serially in one process against pre-spilled traces, so
    the comparison isolates execution-path cost from pool scheduling.
    Arms are interleaved within each repeat so frequency drift and cache
    warmth hit them equally.
    """
    factories = factories or sweep_factories()
    traces = _suite_traces(scale, stride)
    records = sum(len(trace) for trace in traces)
    cells = len(traces) * len(factories)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache_dir:
        cache = Path(cache_dir)
        plan = plan_campaign(traces, factories, cache_dir=cache)
        v1_dir = cache / "pr4"
        v1_dir.mkdir()
        for index, trace in enumerate(traces):
            _write_v1(trace, v1_dir / _spill_name(index, trace.name))

        def fused_pass():
            started = time.perf_counter()
            campaign = execute_plan(plan, jobs=1, fuse=True)
            return time.perf_counter() - started, campaign

        def unfused_pass():
            started = time.perf_counter()
            campaign = execute_plan(plan, jobs=1, fuse=False)
            return time.perf_counter() - started, campaign

        def pr4_pass():
            started = time.perf_counter()
            campaign = _run_pr4(traces, factories, v1_dir)
            return time.perf_counter() - started, campaign

        # Warmup: populates the worker trace cache and the derived planes
        # its entries hold, so repeats measure steady-state execution.
        _, expected = fused_pass()
        best = {"pr4": None, "unfused": None, "fused": None}
        for _ in range(repeats):
            for arm, one_pass in (
                ("pr4", pr4_pass),
                ("unfused", unfused_pass),
                ("fused", fused_pass),
            ):
                elapsed, campaign = one_pass()
                if campaign.results != expected.results:
                    raise AssertionError(f"{arm} campaign results drifted")
                best[arm] = (
                    elapsed if best[arm] is None
                    else min(best[arm], elapsed)
                )

    return {
        "environment": environment_metadata(),
        "predictors": list(factories),
        "traces": [trace.name for trace in traces],
        "cells": cells,
        "records": records,
        "scale": scale,
        "stride": stride,
        "repeats": repeats,
        "pr4_seconds": round(best["pr4"], 4),
        "unfused_seconds": round(best["unfused"], 4),
        "fused_seconds": round(best["fused"], 4),
        "pr4_cells_per_sec": round(cells / best["pr4"], 2),
        "unfused_cells_per_sec": round(cells / best["unfused"], 2),
        "fused_cells_per_sec": round(cells / best["fused"], 2),
        "speedup_vs_pr4": round(best["pr4"] / best["fused"], 3),
        "speedup_vs_unfused": round(best["unfused"] / best["fused"], 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fused-vs-unfused campaign throughput gate"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sample for CI (scale 0.25, 5 repeats)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--stride", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--gate", action="store_true",
        help="exit non-zero unless fused/pr4 clears --min-speedup",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="minimum fused speedup over the PR 4 path (default 1.5)",
    )
    parser.add_argument(
        "--out", default="results/throughput_campaign.json",
        help="where to write the measurement (empty string to skip)",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (0.25 if args.quick else 0.5)
    stride = args.stride if args.stride is not None else 10
    repeats = args.repeats if args.repeats is not None else (5 if args.quick else 3)

    summary = measure_campaign(scale, stride, repeats)
    print(
        f"pr4 path  {summary['pr4_cells_per_sec']:>8.2f} cells/s  "
        f"({summary['pr4_seconds']:.2f}s, {summary['cells']} cells, "
        f"{summary['records']:,} records)"
    )
    print(
        f"unfused   {summary['unfused_cells_per_sec']:>8.2f} cells/s  "
        f"({summary['unfused_seconds']:.2f}s)"
    )
    print(
        f"fused     {summary['fused_cells_per_sec']:>8.2f} cells/s  "
        f"({summary['fused_seconds']:.2f}s)"
    )
    print(
        f"speedup   {summary['speedup_vs_pr4']:.2f}x vs pr4, "
        f"{summary['speedup_vs_unfused']:.2f}x vs unfused"
        + (f"  (gate: ≥{args.min_speedup}x vs pr4)" if args.gate else "")
    )

    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"wrote {out_path}")

    if args.gate and summary["speedup_vs_pr4"] < args.min_speedup:
        print(
            f"FAIL: fused speedup {summary['speedup_vs_pr4']:.2f}x below "
            f"{args.min_speedup}x gate",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
