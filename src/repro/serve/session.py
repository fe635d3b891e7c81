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

A session steps on one of two paths, decided at its first step
(:attr:`PredictorSession.step_path`):

* **core** — a BLBP or ITTAGE predictor the compiled cores accept
  replays each message in one core call over the message's columns
  (:func:`repro.sim.kernel.replay_blbp`,
  :func:`repro.sim.kernel_ittage.replay_ittage`), and Python keeps the
  RAS, the warmup countdown, the counters and the outputs.  Each call
  pays a fixed marshalling cost, so this beats the scalar calls from
  about 6 events per message and loses below that (``docs/serving.md``
  tabulates the step cost by message size);
* **scalar** — every other predictor gets the per-event call sequence:
  conditional hook, predict/train/retire for indirects, with the RAS
  traffic and warmup accounting alongside.

When many sessions have the *same* pending event run (many clients
streaming the same workload), they step as one group: BLBP sessions
share one multi-lane core call, and the scalar loop pays the per-event
decode and type dispatch once for all of its sessions, while each
session keeps its own RAS and accumulators.  A solo session
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

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.blbp import BLBP
from repro.predictors.ittage import ITTAGE
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


#: A session stepping in a group, with the output list it appends to.
_Lane = Tuple["PredictorSession", List[StepOutput]]


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

    The cross-session counterpart of the engine's ``_replay_span_many``.
    Sessions on the compiled cores (:attr:`PredictorSession.step_path`)
    replay the run's columns in one core call per session; BLBP sessions
    share one multi-lane call.  The rest step through the per-event loop,
    which pays tuple unpacking and branch-type dispatch once per event
    for all of them.  Each session still keeps its own RAS, warmup
    countdown and accumulators, and its predictor sees exactly what one
    lane of ``_replay_span_many`` would, so the outputs and final
    session states do not depend on the group it steps in.

    Returns one output list (aligned with ``events``) per session.
    """
    outputs: List[List[StepOutput]] = [[] for _ in sessions]
    if not events:
        return outputs
    core: List[_Lane] = []
    scalar: List[_Lane] = []
    for session, out in zip(sessions, outputs):
        path = session.step_path[0]
        (core if path == "core" else scalar).append((session, out))
    if core:
        _step_on_cores(core, events)
    if scalar:
        _step_scalar(scalar, events)
    return outputs


def _step_on_cores(
    lanes: List[_Lane], events: Sequence[Tuple[int, int, bool, int, int]]
) -> None:
    """Replay the run on each session's core, then account it in Python:
    the RAS, the warmup countdown, the counters and the outputs."""
    from repro.sim.kernel import event_columns, replay_blbp
    from repro.sim.kernel_ittage import replay_ittage

    columns = event_columns(events)
    blbp = [session for session, _ in lanes
            if type(session.predictor) is BLBP]
    replayed = {}
    if blbp:
        replayed = dict(zip(blbp, replay_blbp(
            [session.predictor for session in blbp], columns
        )))
    # What the accounting reads, once for the whole group: every
    # non-conditional event with its position in the run.
    branches = [
        (index, pc, branch_type, target)
        for index, (pc, branch_type, _, target, _) in enumerate(events)
        if branch_type != _COND
    ]
    records = len(events)
    gaps = sum(event[4] for event in events)
    for session, out in lanes:
        predictions, valid = (
            replayed[session] if session in replayed
            else replay_ittage(session.predictor, columns)
        )
        predicted = [
            prediction if made else None
            for prediction, made in zip(predictions.tolist(), valid.tolist())
        ]
        out.extend([None] * records)
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
        session.conditionals += columns.conditionals
        session.skip = skip - records if skip > records else 0


def _step_scalar(
    lanes: List[_Lane], events: Sequence[Tuple[int, int, bool, int, int]]
) -> None:
    """The per-event loop: each predictor gets the scalar call sequence."""
    engines = [
        (
            session,
            session.predictor.predict_target,
            session.predictor.train,
            session.predictor.on_conditional,
            session.predictor.on_retired,
            session.ras,
            out,
        )
        for session, out in lanes
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


__all__ = [
    "SESSION_CHECKPOINT_KIND",
    "PredictorSession",
    "SessionError",
    "StepOutput",
    "step_sessions_fused",
]
