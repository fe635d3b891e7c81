"""The retirement rule (§4.2), written once.

Every replay predicts first, on a compiled core or through the engine's
predictions-only driver (:func:`repro.sim.engine.replay_predictions`),
and is scored here afterwards: each indirect jump and call against its
target, each return against the return-address stack (counted apart
from the indirect MPKI), and nothing inside the warmup.  Two scorers
apply the rule, one per way a replay knows its returns:

* :func:`score_plane` reads them from a trace's
  :class:`~repro.trace.derived.DerivedPlane` and scores a whole lane,
  scalar or on a core, in a few numpy reductions;
* :func:`retire_span` replays a live RAS, kept in a :class:`Retirement`
  state from one span to the next: a serve message, a checkpoint span,
  the rest of a resumed run, or a run without a plane.

Both give ``by_pc`` misses in first-miss order, so a per-PC report does
not depend on the path that produced it.  :class:`Retirement` also
builds and restores the :class:`~repro.sim.checkpoint.SimulationCheckpoint`
fields, for the engine and serve alike.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.checkpoint import SimulationCheckpoint
from repro.sim.metrics import SimulationResult
from repro.sim.ras import ReturnAddressStack
from repro.trace.derived import DerivedPlane
from repro.trace.record import BranchType
from repro.trace.stream import Trace

_DIRECT_CALL = int(BranchType.DIRECT_CALL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)
_RETURN = int(BranchType.RETURN)

#: One per-record output: ``None`` for records that carry no prediction
#: (conditionals, direct branches), else ``(prediction-or-None, correct)``.
StepOutput = Optional[Tuple[Optional[int], int]]

#: A non-conditional record as :func:`retire_span` reads it:
#: ``(index within the span, pc, type, target)``.
Branch = Tuple[int, int, int, int]


class Retirement:
    """The retirement state of one replay: one RAS its lanes share, the
    record cursor, the warmup countdown and the shared counts, and per
    lane the indirect mispredictions and per-PC misses."""

    __slots__ = (
        "ras", "cursor", "skip", "indirect", "returns",
        "return_mispredictions", "conditionals", "mispredictions", "by_pc",
        "collect_per_pc",
    )

    def __init__(
        self,
        lanes: int,
        ras_depth: int = 32,
        warmup_records: int = 0,
        collect_per_pc: bool = False,
    ) -> None:
        self.ras = ReturnAddressStack(ras_depth)
        #: Records retired so far (the next record to replay).
        self.cursor = 0
        #: Remaining warmup records whose outcomes are not counted.
        self.skip = warmup_records
        self.indirect = 0
        self.returns = 0
        self.return_mispredictions = 0
        self.conditionals = 0
        self.mispredictions = [0] * lanes
        self.by_pc: List[Dict[int, int]] = [{} for _ in range(lanes)]
        self.collect_per_pc = collect_per_pc

    def checkpoint(
        self, slot: int, trace_name: str, predictor
    ) -> SimulationCheckpoint:
        """Lane ``slot`` of this replay, with ``predictor``'s state, as
        a resumable checkpoint."""
        return SimulationCheckpoint(
            trace_name=trace_name,
            predictor_name=predictor.name,
            cursor=self.cursor,
            skip=self.skip,
            indirect=self.indirect,
            mispredictions=self.mispredictions[slot],
            returns=self.returns,
            return_mispredictions=self.return_mispredictions,
            conditionals=self.conditionals,
            by_pc=dict(self.by_pc[slot]),
            ras=self.ras.state_dict(),
            predictor=predictor.state_dict(),
        )

    def restore(
        self, checkpoint: SimulationCheckpoint, trace_name: str, predictor
    ) -> None:
        """Continue a one-lane replay of ``trace_name`` from
        ``checkpoint``: load ``predictor``'s state, the RAS, the cursor
        and every count.

        Raises:
            ValueError: when the checkpoint is for another trace or
                another predictor, or its RAS does not fit this one.
        """
        if checkpoint.trace_name != trace_name:
            raise ValueError(
                f"checkpoint is for trace {checkpoint.trace_name!r}, "
                f"not {trace_name!r}"
            )
        if checkpoint.predictor_name != predictor.name:
            raise ValueError(
                f"checkpoint is for predictor "
                f"{checkpoint.predictor_name!r}, not {predictor.name!r}"
            )
        predictor.load_state(checkpoint.predictor)
        self.ras.load_state(checkpoint.ras)
        self.cursor = checkpoint.cursor
        self.skip = checkpoint.skip
        self.indirect = checkpoint.indirect
        self.returns = checkpoint.returns
        self.return_mispredictions = checkpoint.return_mispredictions
        self.conditionals = checkpoint.conditionals
        self.mispredictions = [checkpoint.mispredictions]
        self.by_pc = [dict(checkpoint.by_pc)]

    def result(
        self,
        slot: int,
        trace_name: str,
        predictor_name: str,
        total_instructions: int,
    ) -> SimulationResult:
        """Lane ``slot``'s counts so far."""
        return SimulationResult(
            trace_name=trace_name,
            predictor_name=predictor_name,
            total_instructions=total_instructions,
            indirect_branches=self.indirect,
            indirect_mispredictions=self.mispredictions[slot],
            return_branches=self.returns,
            return_mispredictions=self.return_mispredictions,
            conditional_branches=self.conditionals,
            mispredictions_by_pc=self.by_pc[slot],
        )


def retire_span(
    state: Retirement,
    predicted: Sequence[Sequence[Optional[int]]],
    branches: Sequence[Branch],
    records: int,
) -> List[List[StepOutput]]:
    """Retire a span of ``records`` records into ``state``.

    ``predicted`` holds each lane's predictions for the span's
    indirects, in order; ``branches`` the span's non-conditional
    records.  Replays the shared RAS over the calls and returns, counts
    outside the warmup, and advances the cursor.  Returns each lane's
    output per record of the span.
    """
    ras = state.ras
    skip = state.skip
    shared: List[StepOutput] = [None] * records
    indirects: List[Tuple[int, int, int]] = []
    counted = returns = return_mispredictions = 0
    for index, pc, branch_type, target in branches:
        if branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
            indirects.append((index, pc, target))
            if index >= skip:
                counted += 1
            if branch_type == _INDIRECT_CALL:
                ras.push(pc + 4)
        elif branch_type == _RETURN:
            prediction = ras.predict()
            ras.pop()
            correct = 1 if prediction == target else 0
            shared[index] = (prediction, correct)
            if index >= skip:
                returns += 1
                return_mispredictions += 1 - correct
        elif branch_type == _DIRECT_CALL:
            ras.push(pc + 4)

    state.indirect += counted
    state.returns += returns
    state.return_mispredictions += return_mispredictions
    state.conditionals += records - len(branches)
    state.cursor += records
    state.skip = skip - records if skip > records else 0

    outputs = list(map(list.copy, repeat(shared, len(predicted))))
    if not indirects:
        return outputs
    by_pcs = state.by_pc if state.collect_per_pc else repeat(None)
    for slot, (lane, out, by_pc) in enumerate(zip(predicted, outputs, by_pcs)):
        misses = 0
        for (index, pc, target), prediction in zip(indirects, lane):
            if prediction == target:
                out[index] = (prediction, 1)
                continue
            out[index] = (prediction, 0)
            if index >= skip:
                misses += 1
                if by_pc is not None:
                    by_pc[pc] = by_pc.get(pc, 0) + 1
        state.mispredictions[slot] += misses
    return outputs


def score_plane(
    trace: Trace,
    derived: DerivedPlane,
    predictor_name: str,
    missed: np.ndarray,
    warmup_records: int,
    collect_per_pc: bool,
) -> SimulationResult:
    """A lane replayed over ``derived``, scored: ``missed`` flags each
    of the plane's indirects the lane mispredicted, in trace order."""
    counted = np.asarray(derived.indirect_idx) >= warmup_records
    mispredicted = counted & missed
    by_pc: Dict[int, int] = {}
    if collect_per_pc and mispredicted.any():
        pcs, first, counts = np.unique(
            derived.indirect_pcs[mispredicted],
            return_index=True,
            return_counts=True,
        )
        order = np.argsort(first)
        by_pc = dict(zip(pcs[order].tolist(), counts[order].tolist()))
    counted_returns = np.asarray(derived.return_idx) >= warmup_records
    return SimulationResult(
        trace_name=trace.name,
        predictor_name=predictor_name,
        total_instructions=trace.total_instructions(),
        indirect_branches=int(np.count_nonzero(counted)),
        indirect_mispredictions=int(np.count_nonzero(mispredicted)),
        return_branches=int(np.count_nonzero(counted_returns)),
        return_mispredictions=int(np.count_nonzero(
            counted_returns & (np.asarray(derived.return_ok) == 0)
        )),
        conditional_branches=derived.conditionals,
        mispredictions_by_pc=by_pc,
    )


__all__ = [
    "Branch",
    "Retirement",
    "StepOutput",
    "retire_span",
    "score_plane",
]
