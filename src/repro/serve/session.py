"""Predictor sessions: one online learner suspended between events.

A :class:`PredictorSession` is the serve-side incarnation of one
``simulate(predictor, trace)`` call, unrolled into an event-at-a-time
state machine.  :func:`step_sessions_fused` is the one per-event loop:
it issues each predictor the *exact* call sequence the engine's
per-record loop (``_replay_span_many``, which ``simulate`` runs with one
lane) would — conditional hook, predict/train/retire for indirects, RAS
traffic for calls and returns, warmup accounting — so a session fed a
trace's events, in order, finishes with predictions, metrics, and a
final ``state_hash`` bit-identical to :func:`repro.sim.engine.simulate`
on that trace.  The equivalence suite asserts exactly that.

When many sessions have the *same* pending event run (many clients
streaming the same workload), the loop pays the per-event decode and
type dispatch once for the whole group while each session keeps its own
RAS and accumulators.  A solo session
(:meth:`PredictorSession.step_events`) steps as a group of one, so fused
and solo stepping are the same code and bit-identical by construction.
There is no columnar shortcut: a serve message is far shorter than the
run length at which packing it into a trace for the columnar kernels
pays off.

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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.registry import RegistryError, make_indirect
from repro.sim.checkpoint import SimulationCheckpoint
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


def step_sessions_fused(
    sessions: Sequence[PredictorSession],
    events: Sequence[Tuple[int, int, bool, int, int]],
) -> List[List[StepOutput]]:
    """Step every session through the same event run in one fused pass.

    The cross-session counterpart of the engine's ``_replay_span_many``:
    the per-event costs that do not depend on the session — tuple
    unpacking and branch-type dispatch — are paid once per event instead
    of once per (session, event).  Each session still keeps its own RAS,
    warmup countdown, and accumulators, and receives exactly the calls
    one lane of ``_replay_span_many`` would issue, so the outputs and
    final session states do not depend on the group it steps in.

    Returns one output list (aligned with ``events``) per session.
    """
    count = len(sessions)
    outputs: List[List[StepOutput]] = [[] for _ in range(count)]
    if not count:
        return outputs
    engines = [
        (
            session,
            session.predictor.predict_target,
            session.predictor.train,
            session.predictor.on_conditional,
            session.predictor.on_retired,
            session.ras,
            outputs[slot],
        )
        for slot, session in enumerate(sessions)
    ]
    for pc, branch_type, taken, target, gap in events:
        if branch_type == _COND:
            for session, _, _, on_conditional, _, _, out in engines:
                session.cursor += 1
                session.instruction_gaps += gap
                on_conditional(pc, taken)
                session.conditionals += 1
                if session.skip:
                    session.skip -= 1
                out.append(None)
        elif branch_type == _INDIRECT_JUMP or branch_type == _INDIRECT_CALL:
            for session, predict_target, train, _, on_retired, ras, out in engines:
                session.cursor += 1
                session.instruction_gaps += gap
                counted = not session.skip
                if session.skip:
                    session.skip -= 1
                prediction = predict_target(pc)
                correct = 1 if prediction == target else 0
                if counted:
                    session.indirect += 1
                    if not correct:
                        session.mispredictions += 1
                train(pc, target)
                on_retired(pc, branch_type, target)
                if branch_type == _INDIRECT_CALL:
                    ras.push(pc + 4)
                out.append((prediction, correct))
        elif branch_type == _RETURN:
            for session, _, _, _, on_retired, ras, out in engines:
                session.cursor += 1
                session.instruction_gaps += gap
                counted = not session.skip
                if session.skip:
                    session.skip -= 1
                ras_prediction = ras.predict()
                ras.pop()
                correct = 1 if ras_prediction == target else 0
                if counted:
                    session.returns += 1
                    if not correct:
                        session.return_mispredictions += 1
                on_retired(pc, branch_type, target)
                out.append((ras_prediction, correct))
        else:  # direct call / direct jump
            push = branch_type == _DIRECT_CALL
            for session, _, _, _, on_retired, ras, out in engines:
                session.cursor += 1
                session.instruction_gaps += gap
                if session.skip:
                    session.skip -= 1
                if push:
                    ras.push(pc + 4)
                on_retired(pc, branch_type, target)
                out.append(None)
    return outputs


__all__ = [
    "SESSION_CHECKPOINT_KIND",
    "PredictorSession",
    "SessionError",
    "StepOutput",
    "step_sessions_fused",
]
