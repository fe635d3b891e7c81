"""Predictor sessions: one online learner suspended between events.

A :class:`PredictorSession` is the serve-side incarnation of one
``simulate(predictor, trace)`` call, unrolled into an event-at-a-time
state machine.  :func:`step_sessions_fused` is the one step function,
and each session's predictor sees exactly what one lane of the engine's
predictions-only driver (:func:`repro.sim.engine.replay_predictions`,
which ``simulate`` runs its scalar lanes on) would, so a session fed a
trace's events, in order, finishes with predictions, metrics, and a
final ``state_hash`` bit-identical to :func:`repro.sim.engine.simulate`
on that trace.  The equivalence suite asserts exactly that.

A step has two phases.  First the session's predictor predicts every
indirect of the message, on one of two paths decided at its first step
(:attr:`PredictorSession.step_path`):

* **core** — a BLBP or ITTAGE predictor the compiled cores accept
  (:func:`repro.sim.kernel.span_support`, the test the engine applies
  to its checkpoint spans) replays the message over its columns through
  :func:`repro.sim.kernel.replay_cores`, the core dispatch the engine's
  spans and campaigns also call.  Each core call pays a fixed
  marshalling cost, so this beats the scalar calls from about 6 events
  per message and loses below that (``docs/serving.md`` tabulates the
  step cost by message size);
* **scalar** — every other predictor runs the engine's predictions-only
  driver: the conditional hook, then predict/train/retire for
  indirects, per event.

Then the engine's live-RAS span scorer,
:func:`repro.sim.retire.retire_span`, applies the retirement rule to
those predictions, whichever path made them: the session's RAS, its
warmup countdown, its counters and cursor (one
:class:`~repro.sim.retire.Retirement` state per session), and the
per-event outputs.

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
engine uses, built and restored by the same retirement state, wrapped
in a ``ServeSessionCheckpoint`` envelope that also records the registry
key and the predictor's ``state_hash`` at suspend time.
:meth:`PredictorSession.from_checkpoint` rebuilds the session in any
process and verifies the restored predictor hashes identically — a
corrupted or mismatched checkpoint (another predictor's, a negative
count) is refused, never silently loaded.
"""

from __future__ import annotations

from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.registry import RegistryError, make_indirect
from repro.sim.checkpoint import SimulationCheckpoint
from repro.sim.engine import replay_predictions
from repro.sim.metrics import SimulationResult
from repro.sim.retire import Retirement, StepOutput, retire_span
from repro.trace.record import BranchType

_COND = int(BranchType.CONDITIONAL)

#: Envelope kind of a serve-layer session checkpoint file.
SESSION_CHECKPOINT_KIND = "ServeSessionCheckpoint"


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
        #: The RAS, the stream cursor, the warmup countdown and the
        #: counts: a one-lane replay's retirement state.
        self.retired = Retirement(1, ras_depth, warmup_records)
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
    def cursor(self) -> int:
        """Events consumed so far (the stream cursor)."""
        return self.retired.cursor

    @property
    def skip(self) -> int:
        """Remaining warmup events whose outcomes are not counted."""
        return self.retired.skip

    @property
    def mispredictions(self) -> int:
        """Indirect mispredictions counted so far."""
        return self.retired.mispredictions[0]

    @property
    def total_instructions(self) -> int:
        """All instructions represented by the stream so far."""
        return self.instruction_gaps + self.cursor

    def result(self) -> SimulationResult:
        """The session's metrics in the batch engine's result shape."""
        return self.retired.result(
            0, self.session_id, self.predictor.name, self.total_instructions
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
        inner = self.retired.checkpoint(0, self.session_id, self.predictor)
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
            if gaps < 0:
                raise SessionError(
                    f"malformed session checkpoint: instruction_gaps must "
                    f"be >= 0, got {gaps}"
                )
            session.retired.restore(
                inner, session.session_id, session.predictor
            )
        except SessionError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise SessionError(f"malformed session checkpoint: {exc}") from exc
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
    """``("core", <kernel>)`` for a predictor whose compiled core takes
    one message's columns, else ``("scalar", <reason>)``."""
    from repro.sim.kernel import span_support

    supported, reason = span_support(predictor)
    return ("core" if supported else "scalar"), reason


def step_sessions_fused(
    sessions: Sequence[PredictorSession],
    events: Sequence[Tuple[int, int, bool, int, int]],
) -> List[List[StepOutput]]:
    """Step every session through the same event run in one fused pass.

    Two phases.  First each predictor predicts every indirect of the
    run: sessions on the compiled cores (:attr:`PredictorSession.step_path`)
    through one :func:`repro.sim.kernel.replay_cores` call, BLBP sessions
    sharing one multi-lane core call, and the rest in one pass of the
    engine's predictions-only driver
    (:func:`repro.sim.engine.replay_predictions`), which pays the
    per-event decode and dispatch once for all of them.  Then
    :func:`repro.sim.retire.retire_span` retires the run into each
    session's own retirement state.  Each predictor sees exactly what
    one lane of the engine's driver would, so the outputs and final
    session states do not depend on the group it steps in or the path
    it takes.

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
        from repro.sim import kernel

        for slot, output in zip(core, kernel.replay_cores(
            [sessions[slot].predictor for slot in core],
            kernel.event_columns(pcs, types, takens, targets),
        )):
            predicted[slot] = kernel.predicted_targets(output)
    if scalar:
        for slot, lane in zip(scalar, replay_predictions(
            [sessions[slot].predictor for slot in scalar],
            pcs, types, takens, targets,
        )):
            predicted[slot] = lane
    # What the retirement rule reads, once for the whole group: every
    # non-conditional event with its position in the run.
    branches = [
        (index, pc, branch_type, target)
        for index, pc, branch_type, target in zip(count(), pcs, types, targets)
        if branch_type != _COND
    ]
    records = len(events)
    gaps = sum(gaps)
    outputs = []
    for session, lane in zip(sessions, predicted):
        [out] = retire_span(session.retired, [lane], branches, records)
        session.instruction_gaps += gaps
        outputs.append(out)
    return outputs


__all__ = [
    "SESSION_CHECKPOINT_KIND",
    "PredictorSession",
    "SessionError",
    "StepOutput",
    "step_sessions_fused",
]
