"""Predictor sessions: one online learner suspended between events.

A :class:`PredictorSession` is the serve-side incarnation of one
``simulate(predictor, trace)`` call, unrolled into an event-at-a-time
state machine.  :func:`step_sessions_fused` is the one step function,
and each session's predictor sees exactly what one lane of the engine's
``_replay_span_many`` (which ``simulate`` runs with one lane) would, so
a session fed a trace's events, in order, finishes with predictions,
metrics, and a final ``state_hash`` bit-identical to
:func:`repro.sim.engine.simulate` on that trace.  The equivalence suite
asserts exactly that.

A step has two phases.  First the session's predictor predicts every
indirect of the message, on one of two paths decided at its first step
(:attr:`PredictorSession.step_path`):

* **core** — a BLBP or ITTAGE predictor the compiled cores accept
  replays the message in one core call over its columns
  (:func:`repro.sim.kernel.replay_blbp`,
  :func:`repro.sim.kernel_ittage.replay_ittage`).  Each call pays a
  fixed marshalling cost, so this beats the scalar calls from about 6
  events per message and loses below that (``docs/serving.md``
  tabulates the step cost by message size);
* **scalar** — every other predictor runs the engine's predictions-only
  driver (:func:`repro.sim.engine.replay_predictions`): the conditional
  hook, then predict/train/retire for indirects, per event.

Then one accounting pass applies the retirement rule to those
predictions, whichever path made them: the RAS, the warmup countdown,
the counters, the cursor and the per-event outputs.

When many sessions have the *same* pending event run (many clients
streaming the same workload), they step as one group: BLBP sessions
share one multi-lane core call, and the scalar driver pays the
per-event decode and type dispatch once for all of its sessions, while
each session keeps its own RAS and accumulators.  A solo session
(:meth:`PredictorSession.step_events`) steps as a group of one, so fused
and solo stepping are the same code and bit-identical by construction.

Because all mutable state (predictor, RAS, accumulators, cursor) rides
the snapshot protocol, a session can be *suspended* at any event
boundary: :meth:`checkpoint` freezes it into the same
:class:`~repro.sim.checkpoint.SimulationCheckpoint` document the batch
engine uses, wrapped in a ``ServeSessionCheckpoint`` envelope that also
records the registry key and the predictor's ``state_hash`` at suspend
time.  :meth:`PredictorSession.from_checkpoint` rebuilds the session in
any process and verifies the restored predictor hashes identically —
a corrupted or mismatched checkpoint is refused, never silently loaded.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.blbp import BLBP
from repro.predictors.ittage import ITTAGE
from repro.registry import RegistryError, make_indirect
from repro.sim.checkpoint import SimulationCheckpoint
from repro.sim.engine import replay_predictions
from repro.sim.metrics import SimulationResult
from repro.sim.ras import ReturnAddressStack
from repro.trace.record import BranchType

_COND = int(BranchType.CONDITIONAL)
_DIRECT_CALL = int(BranchType.DIRECT_CALL)
_INDIRECT_JUMP = int(BranchType.INDIRECT_JUMP)
_INDIRECT_CALL = int(BranchType.INDIRECT_CALL)
_RETURN = int(BranchType.RETURN)

#: Envelope kind of a serve-layer session checkpoint file.
SESSION_CHECKPOINT_KIND = "ServeSessionCheckpoint"

#: One per-event output: ``None`` for events that carry no prediction
#: (conditionals, direct branches), else ``(prediction-or-None, correct)``.
StepOutput = Optional[Tuple[Optional[int], int]]


class SessionError(ValueError):
    """A session could not be created, stepped, or restored."""


class PredictorSession:
    """One hosted predictor consuming a branch-event stream."""

    def __init__(
        self,
        session_id: str,
        predictor_key: str,
        warmup_records: int = 0,
        ras_depth: int = 32,
    ) -> None:
        if warmup_records < 0:
            raise SessionError(
                f"warmup_records must be >= 0, got {warmup_records}"
            )
        try:
            self.predictor = make_indirect(predictor_key)
        except RegistryError as exc:
            raise SessionError(str(exc)) from exc
        self.session_id = session_id
        self.predictor_key = predictor_key
        self.warmup_records = warmup_records
        self.ras_depth = ras_depth
        self.ras = ReturnAddressStack(ras_depth)
        #: Events consumed so far (the stream cursor).
        self.cursor = 0
        #: Remaining warmup events whose mispredictions are not counted.
        self.skip = warmup_records
        self.indirect = 0
        self.mispredictions = 0
        self.returns = 0
        self.return_mispredictions = 0
        self.conditionals = 0
        #: Sum of per-event instruction gaps (for MPKI denominators).
        self.instruction_gaps = 0
        self._path: Optional[Tuple[str, str]] = None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step_events(
        self, events: Sequence[Tuple[int, int, bool, int, int]]
    ) -> List[StepOutput]:
        """Consume a run of events; one output per event.

        A solo session steps as a fused group of one.
        """
        return step_sessions_fused([self], events)[0]

    @property
    def step_path(self) -> Tuple[str, str]:
        """How this session steps: ``("core", <kernel>)`` on its
        predictor's compiled core, or ``("scalar", <reason>)``.

        Decided once, at the first look (the first step), which is when
        the kernels are imported.
        """
        if self._path is None:
            self._path = _step_path(self.predictor)
        return self._path

    # ------------------------------------------------------------------
    # Results and state
    # ------------------------------------------------------------------

    @property
    def total_instructions(self) -> int:
        """All instructions represented by the stream so far."""
        return self.instruction_gaps + self.cursor

    def result(self) -> SimulationResult:
        """The session's metrics in the batch engine's result shape."""
        return SimulationResult(
            trace_name=self.session_id,
            predictor_name=self.predictor.name,
            total_instructions=self.total_instructions,
            indirect_branches=self.indirect,
            indirect_mispredictions=self.mispredictions,
            return_branches=self.returns,
            return_mispredictions=self.return_mispredictions,
            conditional_branches=self.conditionals,
        )

    def mpki(self) -> float:
        """Indirect MPKI over the stream consumed so far."""
        return self.result().mpki()

    def state_hash(self) -> str:
        """Canonical hash of the hosted predictor's architectural state."""
        return self.predictor.state_hash()

    # ------------------------------------------------------------------
    # Suspend / resume
    # ------------------------------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """Freeze the whole session into a JSON-ready checkpoint document.

        The inner ``checkpoint`` field is a regular
        :class:`SimulationCheckpoint` snapshot (predictor + RAS + cursor
        + accumulators); the envelope adds what the serve layer needs to
        rebuild and verify the session: the registry key, the warmup and
        RAS configuration, the gap accumulator, and the predictor's
        ``state_hash`` at suspend time.
        """
        inner = SimulationCheckpoint(
            trace_name=self.session_id,
            predictor_name=self.predictor.name,
            cursor=self.cursor,
            skip=self.skip,
            indirect=self.indirect,
            mispredictions=self.mispredictions,
            returns=self.returns,
            return_mispredictions=self.return_mispredictions,
            conditionals=self.conditionals,
            by_pc={},
            ras=self.ras.state_dict(),
            predictor=self.predictor.state_dict(),
        )
        return {
            "v": 1,
            "kind": SESSION_CHECKPOINT_KIND,
            "session": self.session_id,
            "predictor_key": self.predictor_key,
            "warmup_records": self.warmup_records,
            "ras_depth": self.ras_depth,
            "instruction_gaps": self.instruction_gaps,
            "predictor_hash": self.predictor.state_hash(),
            "checkpoint": inner.state_dict(),
        }

    @classmethod
    def from_checkpoint(cls, state: Dict[str, Any]) -> "PredictorSession":
        """Rebuild a suspended session; verify the restored state hash.

        Raises:
            SessionError: when the document is malformed, the registry
                key is unknown, or the restored predictor's
                ``state_hash`` differs from the hash recorded at suspend
                time (a corrupted or tampered checkpoint).
        """
        try:
            if state.get("kind") != SESSION_CHECKPOINT_KIND:
                raise SessionError(
                    f"not a {SESSION_CHECKPOINT_KIND} document: "
                    f"kind={state.get('kind')!r}"
                )
            session = cls(
                session_id=state["session"],
                predictor_key=state["predictor_key"],
                warmup_records=int(state["warmup_records"]),
                ras_depth=int(state["ras_depth"]),
            )
            inner = SimulationCheckpoint.from_state(state["checkpoint"])
            expected_hash = state["predictor_hash"]
            gaps = int(state["instruction_gaps"])
            session.predictor.load_state(inner.predictor)
            session.ras.load_state(inner.ras)
        except SessionError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionError(f"malformed session checkpoint: {exc}") from exc
        session.cursor = inner.cursor
        session.skip = inner.skip
        session.indirect = inner.indirect
        session.mispredictions = inner.mispredictions
        session.returns = inner.returns
        session.return_mispredictions = inner.return_mispredictions
        session.conditionals = inner.conditionals
        session.instruction_gaps = gaps
        restored_hash = session.predictor.state_hash()
        if restored_hash != expected_hash:
            raise SessionError(
                f"session {session.session_id!r}: restored predictor state "
                f"hash {restored_hash[:12]}… does not match the hash "
                f"{str(expected_hash)[:12]}… recorded at suspend time"
            )
        return session

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PredictorSession({self.session_id!r}, {self.predictor_key!r}, "
            f"events={self.cursor}, mpki={self.mpki():.3f})"
        )


def _step_path(predictor: object) -> Tuple[str, str]:
    """``("core", <kernel>)`` for a BLBP or ITTAGE the compiled cores
    accept, else ``("scalar", <reason>)``."""
    from repro.sim.kernel import columnar_support

    supported, reason = columnar_support(predictor)
    if not supported:
        return "scalar", reason
    if type(predictor) not in (BLBP, ITTAGE):
        return "scalar", (
            f"serve steps {type(predictor).__name__} on the scalar calls: "
            f"its core replays a whole trace through the derived plane and "
            f"the shared precompute, not one message's columns"
        )
    return "core", reason


def step_sessions_fused(
    sessions: Sequence[PredictorSession],
    events: Sequence[Tuple[int, int, bool, int, int]],
) -> List[List[StepOutput]]:
    """Step every session through the same event run in one fused pass.

    Two phases.  First each predictor predicts every indirect of the
    run: sessions on the compiled cores (:attr:`PredictorSession.step_path`)
    in one core call per session, BLBP sessions sharing one multi-lane
    call, and the rest in one pass of the engine's predictions-only
    driver (:func:`repro.sim.engine.replay_predictions`), which pays the
    per-event decode and dispatch once for all of them.  Then
    :func:`_retire` applies the retirement rule to each session's
    predictions: its own RAS, warmup countdown, counters and outputs.
    Each predictor sees exactly what one lane of the engine's
    ``_replay_span_many`` would, so the outputs and final session states
    do not depend on the group it steps in or the path it takes.

    Returns one output list (aligned with ``events``) per session.
    """
    if not events:
        return [[] for _ in sessions]
    pcs, types, takens, targets, gaps = zip(*events)
    predicted: List[List[Optional[int]]] = [[] for _ in sessions]
    core: List[int] = []
    scalar: List[int] = []
    for slot, session in enumerate(sessions):
        (core if session.step_path[0] == "core" else scalar).append(slot)
    if core:
        from repro.sim.kernel import event_columns, replay_blbp
        from repro.sim.kernel_ittage import replay_ittage

        columns = event_columns(pcs, types, takens, targets)
        blbp = [slot for slot in core
                if type(sessions[slot].predictor) is BLBP]
        replayed = dict(zip(blbp, replay_blbp(
            [sessions[slot].predictor for slot in blbp], columns
        ))) if blbp else {}
        for slot in core:
            predictions, valid = (
                replayed[slot] if slot in replayed
                else replay_ittage(sessions[slot].predictor, columns)
            )
            predicted[slot] = [
                prediction if made else None
                for prediction, made in zip(
                    predictions.tolist(), valid.tolist()
                )
            ]
    if scalar:
        for slot, lane in zip(scalar, replay_predictions(
            [sessions[slot].predictor for slot in scalar],
            pcs, types, takens, targets,
        )):
            predicted[slot] = lane
    # What the accounting reads, once for the whole group: every
    # non-conditional event with its position in the run.
    branches = [
        (index, pc, branch_type, target)
        for index, pc, branch_type, target in zip(count(), pcs, types, targets)
        if branch_type != _COND
    ]
    run = (len(events), sum(gaps), types.count(_COND))
    return [
        _retire(session, lane, branches, *run)
        for session, lane in zip(sessions, predicted)
    ]


def _retire(
    session: PredictorSession,
    predicted: List[Optional[int]],
    branches: List[Tuple[int, int, int, int]],
    records: int,
    gaps: int,
    conditionals: int,
) -> List[StepOutput]:
    """Account one stepped run to ``session``: the retirement rule.

    ``predicted`` holds the session predictor's per-indirect
    predictions; ``branches`` the run's non-conditional events as
    ``(index, pc, type, target)``.  Scores the indirects, replays the
    RAS for calls and returns, counts outside the warmup, advances the
    cursor, and returns one output per event.
    """
    out: List[StepOutput] = [None] * records
    ras = session.ras
    skip = session.skip
    branch = 0
    for index, pc, branch_type, target in branches:
        if branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
            prediction = predicted[branch]
            branch += 1
            correct = 1 if prediction == target else 0
            if index >= skip:
                session.indirect += 1
                if not correct:
                    session.mispredictions += 1
            if branch_type == _INDIRECT_CALL:
                ras.push(pc + 4)
            out[index] = (prediction, correct)
        elif branch_type == _RETURN:
            ras_prediction = ras.predict()
            ras.pop()
            correct = 1 if ras_prediction == target else 0
            if index >= skip:
                session.returns += 1
                if not correct:
                    session.return_mispredictions += 1
            out[index] = (ras_prediction, correct)
        elif branch_type == _DIRECT_CALL:
            ras.push(pc + 4)
    session.cursor += records
    session.instruction_gaps += gaps
    session.conditionals += conditionals
    session.skip = skip - records if skip > records else 0
    return out


__all__ = [
    "SESSION_CHECKPOINT_KIND",
    "PredictorSession",
    "SessionError",
    "StepOutput",
    "step_sessions_fused",
]
