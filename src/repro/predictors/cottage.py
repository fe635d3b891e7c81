"""COTTAGE: combined TAGE + ITTAGE front-end predictor (Seznec).

§2.2: "The COTTAGE predictor incorporates both a TAGE and ITTAGE
predictor in one to predict both branch directions and targets."  This
composition serves two roles in the reproduction:

* an end-to-end front-end model (conditional directions via TAGE,
  indirect targets via ITTAGE) for examples that simulate both
  prediction problems at once;
* a second conditional substrate for VPC-style experiments (TAGE is a
  :class:`~repro.cond.base.ConditionalPredictor`, so
  ``VPCPredictor(conditional=TAGE())`` runs on the scalar backend; the
  columnar VPC kernel compiles only the multiperspective perceptron, so
  a columnar run of it warns and falls back to scalar).

The indirect half retires every branch into ITTAGE's history, and the
conditional half tracks its own accuracy like VPC does, so both sides
of the front-end can be reported from a single simulation pass.
"""

from __future__ import annotations

from typing import Optional

from repro.common.state import check_state
from repro.common.storage import StorageBudget
from repro.cond.tage import TAGE, TAGEConfig
from repro.predictors.base import IndirectBranchPredictor
from repro.predictors.ittage import ITTAGE, ITTAGEConfig


class COTTAGE(IndirectBranchPredictor):
    """TAGE for directions + ITTAGE for targets, as one predictor."""

    name = "COTTAGE"

    def __init__(
        self,
        tage_config: Optional[TAGEConfig] = None,
        ittage_config: Optional[ITTAGEConfig] = None,
    ) -> None:
        self.tage = TAGE(tage_config)
        self.ittage = ITTAGE(ittage_config)
        self.conditional_count = 0
        self.conditional_mispredictions = 0

    # Indirect side -----------------------------------------------------

    def predict_target(self, pc: int) -> Optional[int]:
        return self.ittage.predict_target(pc)

    def train(self, pc: int, target: int) -> None:
        self.ittage.train(pc, target)

    def on_retired(self, pc: int, branch_type: int, target: int) -> None:
        self.ittage.on_retired(pc, branch_type, target)

    # Conditional side ----------------------------------------------------

    def on_conditional(self, pc: int, taken: bool) -> None:
        predicted = self.tage.predict(pc)
        self.conditional_count += 1
        if predicted != taken:
            self.conditional_mispredictions += 1
        self.tage.update(pc, taken)
        self.ittage.on_conditional(pc, taken)

    def conditional_accuracy(self) -> float:
        """Direction accuracy of the TAGE half."""
        if self.conditional_count == 0:
            return 1.0
        return 1.0 - self.conditional_mispredictions / self.conditional_count

    # Snapshot/restore --------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "v": 1,
            "kind": "COTTAGE",
            "tage": self.tage.state_dict(),
            "ittage": self.ittage.state_dict(),
            "conditional_count": self.conditional_count,
            "conditional_mispredictions": self.conditional_mispredictions,
        }

    def load_state(self, state: dict) -> None:
        check_state(state, "COTTAGE")
        self.tage.load_state(state["tage"])
        self.ittage.load_state(state["ittage"])
        self.conditional_count = int(state["conditional_count"])
        self.conditional_mispredictions = int(
            state["conditional_mispredictions"]
        )

    # ------------------------------------------------------------------

    def storage_budget(self) -> StorageBudget:
        budget = StorageBudget(self.name)
        for component, bits in self.tage.storage_budget().items:
            budget.add(f"TAGE: {component}", bits)
        for component, bits in self.ittage.storage_budget().items:
            budget.add(f"ITTAGE: {component}", bits)
        return budget
