"""The derived plane: per-trace precomputation shared by every predictor.

Several quantities the simulation loop recomputes per (trace, predictor)
cell are pure functions of the trace alone:

* **Return-address-stack outcomes.**  The RAS sees only calls and returns,
  never a predictor decision, so its per-return prediction sequence for a
  given depth is fixed by the trace.  Replaying push/pop per predictor is
  pure waste in a multi-predictor campaign.
* **Indirect-branch index arrays.**  Which records are indirect, their
  PCs and targets — the only records most predictors score on.
* **Conditional-outcome bitstream.**  The taken/not-taken sequence,
  packed 8 outcomes per byte.

:func:`compute_derived` builds all of this once per trace and RAS depth.
The plane lives in memory only: :func:`cached_derived` keeps the planes a
worker uses in its trace's :class:`~repro.trace.plane.TraceCache` entry,
so a rewritten or evicted spill takes its planes along.  Computing a
plane costs about what reading a stored copy back would, so none is
written to disk.

The replay here intentionally re-implements the ``ReturnAddressStack``
contract (bounded stack, overflow drops the oldest entry, underflow
predicts ``None``) without importing ``repro.sim`` — the trace package
sits below the simulation package.  A hypothesis differential test pins
the two implementations together (``tests/trace/test_derived.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

import numpy as np

from repro.trace.plane import cached_entry, trace_content_hash
from repro.trace.record import BranchType
from repro.trace.stream import Trace

_COND = int(BranchType.CONDITIONAL)
_DIRECT_CALL = int(BranchType.DIRECT_CALL)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)
_RETURN = int(BranchType.RETURN)


@dataclass
class DerivedPlane:
    """Precomputed, predictor-independent structure of one trace."""

    trace_name: str
    records: int
    ras_depth: int
    content_hash: str
    conditionals: int
    indirect_idx: np.ndarray
    indirect_pcs: np.ndarray
    indirect_targets: np.ndarray
    cond_idx: np.ndarray
    cond_bits: np.ndarray
    return_idx: np.ndarray
    return_preds: np.ndarray
    return_pred_valid: np.ndarray
    return_ok: np.ndarray

    def matches(self, trace: Trace, ras_depth: int) -> bool:
        """Cheap identity check before the plane substitutes for replay."""
        return (
            self.trace_name == trace.name
            and self.records == len(trace)
            and self.ras_depth == ras_depth
        )

    def check(self, trace: Trace, ras_depth: int) -> None:
        """Raise ``ValueError`` unless this plane :meth:`matches`."""
        if not self.matches(trace, ras_depth):
            raise ValueError(
                f"derived plane is for {self.trace_name!r} "
                f"({self.records} records, ras_depth={self.ras_depth}), "
                f"not {trace.name!r} ({len(trace)} records, "
                f"ras_depth={ras_depth})"
            )

    def conditional_outcomes(self) -> np.ndarray:
        """The taken/not-taken bitstream, unpacked to a bool array."""
        return np.unpackbits(self.cond_bits, count=self.conditionals).astype(bool)


def compute_derived(
    trace: Trace,
    ras_depth: int = 32,
    content_hash: Optional[str] = None,
) -> DerivedPlane:
    """Build the derived plane for ``trace`` at ``ras_depth``."""
    if ras_depth < 1:
        raise ValueError(f"ras_depth must be >= 1, got {ras_depth}")
    types = trace.types
    indirect_idx = np.flatnonzero(trace.indirect_mask()).astype(np.int64)
    indirect_pcs = np.ascontiguousarray(trace.pcs[indirect_idx])
    indirect_targets = np.ascontiguousarray(trace.targets[indirect_idx])

    cond_idx = np.flatnonzero(types == _COND).astype(np.int64)
    cond_outcomes = trace.takens[cond_idx]
    cond_bits = np.packbits(cond_outcomes) if len(cond_idx) else np.empty(0, np.uint8)

    return_idx = np.flatnonzero(types == _RETURN).astype(np.int64)

    # RAS replay over the call/return subsequence only.  Semantics must
    # match ReturnAddressStack exactly: bounded depth, overflow drops the
    # oldest frame, underflow predicts None, pop on empty is a no-op.
    flow_mask = (
        (types == _DIRECT_CALL) | (types == _INDIRECT_CALL) | (types == _RETURN)
    )
    flow_idx = np.flatnonzero(flow_mask)
    flow_types = types[flow_idx].tolist()
    flow_pcs = trace.pcs[flow_idx].tolist()
    flow_targets = trace.targets[flow_idx].tolist()

    preds = np.zeros(len(return_idx), dtype=np.uint64)
    valid = np.zeros(len(return_idx), dtype=np.uint8)
    ok = np.zeros(len(return_idx), dtype=np.uint8)
    stack: List[int] = []
    position = 0
    for branch_type, pc, target in zip(flow_types, flow_pcs, flow_targets):
        if branch_type == _RETURN:
            if stack:
                prediction = stack[-1]
                preds[position] = prediction
                valid[position] = 1
                ok[position] = 1 if prediction == target else 0
                stack.pop()
            # else: prediction is None; never equal to an integer target.
            position += 1
        else:
            if len(stack) == ras_depth:
                stack.pop(0)
            stack.append(pc + 4)

    if content_hash is None:
        content_hash = trace_content_hash(trace)
    return DerivedPlane(
        trace_name=trace.name,
        records=len(trace),
        ras_depth=ras_depth,
        content_hash=content_hash,
        conditionals=len(cond_idx),
        indirect_idx=indirect_idx,
        indirect_pcs=indirect_pcs,
        indirect_targets=indirect_targets,
        cond_idx=cond_idx,
        cond_bits=cond_bits,
        return_idx=return_idx,
        return_preds=preds,
        return_pred_valid=valid,
        return_ok=ok,
    )


def cached_derived(
    spill_path: Union[str, Path], trace: Trace, ras_depth: int
) -> DerivedPlane:
    """Per-worker memo of :func:`compute_derived`.

    The plane lives in the spill's entry of the per-worker
    :class:`repro.trace.plane.TraceCache`, found by the same
    ``(path, size, mtime_ns)`` key and header content-hash re-check as
    :func:`repro.trace.plane.cached_trace` — a rewritten spill drops its
    planes with its mapping, and an evicted trace takes its planes along.
    A resident (in-memory) trace's planes live in its entry the same way.
    """
    entry = cached_entry(spill_path)
    plane = entry.planes.get(ras_depth)
    if plane is None:
        plane = compute_derived(
            trace, ras_depth, content_hash=entry.content_hash
        )
        entry.planes[ras_depth] = plane
    return plane
