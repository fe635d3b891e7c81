"""Interface for indirect branch target predictors.

The simulation engine drives every predictor through the same three
calls, mirroring the CBP infrastructure the paper uses (§4.2):

1. ``predict_target(pc)`` at fetch of an indirect branch;
2. ``train(pc, actual_target)`` at resolution of that same branch —
   always called exactly once after each ``predict_target``;
3. ``on_branch(record)`` at retirement of *every* branch (conditional,
   direct, return, and the indirect branch itself, after ``train``), so
   predictors maintain whatever history discipline their paper defines.

Predictors must be self-contained: all history registers live inside the
predictor, never in the simulator.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, Optional

from repro.common.state import hash_state
from repro.common.storage import StorageBudget
from repro.trace.record import BranchRecord, BranchType


class IndirectBranchPredictor(abc.ABC):
    """A branch *target* predictor for indirect jumps and calls."""

    #: Human-readable predictor name, used in result tables.
    name: str = "indirect"

    @abc.abstractmethod
    def predict_target(self, pc: int) -> Optional[int]:
        """Predict the target of the indirect branch at ``pc``.

        Returns ``None`` when the predictor has no prediction (e.g. a
        cold BTB); the simulator counts that as a misprediction.
        """

    @abc.abstractmethod
    def train(self, pc: int, target: int) -> None:
        """Train with the resolved target of the last-predicted branch."""

    def on_conditional(self, pc: int, taken: bool) -> None:
        """Observe a retired conditional branch (default: ignore).

        History-based predictors override this to shift the outcome into
        their global-history registers.
        """

    def on_retired(self, pc: int, branch_type: int, target: int) -> None:
        """Observe a retired non-conditional branch (default: ignore).

        ``branch_type`` is the integer value of a :class:`BranchType`
        (passed raw so the simulation hot loop avoids enum construction).
        Predictors whose history discipline folds in target or path bits
        (e.g. ITTAGE) override this.
        """

    def on_branch(self, record: BranchRecord) -> None:
        """Convenience dispatcher from a record to the granular hooks."""
        if record.branch_type is BranchType.CONDITIONAL:
            self.on_conditional(record.pc, record.taken)
        else:
            self.on_retired(record.pc, int(record.branch_type), record.target)

    @abc.abstractmethod
    def storage_budget(self) -> StorageBudget:
        """Itemized hardware state of this predictor."""

    # ------------------------------------------------------------------
    # Snapshot/restore protocol (see docs/checkpointing.md).  Every
    # registered predictor implements the pair; the base raises so a
    # predictor that forgot fails loudly at checkpoint time, not with
    # silently-empty state.
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of all architectural state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a freshly constructed predictor from a snapshot."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support snapshot/restore"
        )

    def hash_view(self) -> Dict[str, Any]:
        """What :meth:`state_hash` hashes: :meth:`state_dict`, or a view
        of it that may carry :class:`~repro.common.state.CanonicalText`
        (see :meth:`repro.common.state.Stateful.hash_view`)."""
        return self.state_dict()

    def state_hash(self) -> str:
        """Canonical SHA-256 of :meth:`state_dict` (determinism checks)."""
        return hash_state(self.hash_view())
