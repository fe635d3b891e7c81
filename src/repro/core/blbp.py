"""The Bit-Level Perceptron-Based Indirect Branch Predictor (§3).

Prediction (Algorithm 1):

1. For each of the N sub-predictors, hash its history feature (mixed
   with the branch PC) to select a row of K sign/magnitude weights;
   pass the weights through the transfer function and accumulate them
   into ``yout`` — a K-vector where ``yout[k]`` expresses aggregate
   confidence that target bit ``k`` is 1.
2. Fetch every stored target for this branch from the IBTB and score
   each by the non-normalized cosine similarity between ``yout`` and the
   target's low-order bit vector: ``score(t) = Σ_k yout[k]·bit_k(t)``
   (§3.7: the sum of ``yout`` elements wherever the target bit is 1).
3. Predict the highest-scoring target.  Ties go to the lowest way
   index; the paper's pseudocode and worked example disagree on ties
   (DESIGN.md §5), and we follow the pseudocode's first-max semantics.

Training (Algorithm 2): for each *unsuppressed* bit k — selective bit
training suppresses bits on which every potential target agrees — the
bit prediction is correct when ``sign(yout[k])`` matches the actual
target's bit; on an incorrect bit, or a correct one whose magnitude is
below the per-bit adaptive threshold θ_k, every sub-predictor's selected
weight for bit k moves toward the actual bit, saturating at ±7.

Hot-path structure: all N weight banks live in one
:class:`~repro.core.subpredictor.FusedWeightBanks` tensor, so ``yout``
is a single gather + transfer-LUT lookup + axis sum and training a
single masked scatter-add; history folds update incrementally (see
:mod:`repro.core.histories`).  :class:`repro.core.reference.ReferenceBLBP`
keeps the straightforward per-bank implementation, and the equivalence
suite pins this class to it prediction-for-prediction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.state import (
    StateError,
    check_state,
    dataclass_fingerprint,
    require,
)
from repro.common.storage import StorageBudget
from repro.core.config import BLBPConfig
from repro.core.hibtb import HierarchicalIBTB
from repro.core.histories import BLBPHistories
from repro.core.ibtb import IndirectBTB
from repro.core.regions import RegionArray
from repro.core.subpredictor import FusedWeightBanks
from repro.core.threshold import PerBitAdaptiveThreshold
from repro.core.transfer import TransferFunction
from repro.predictors.base import IndirectBranchPredictor


class BLBP(IndirectBranchPredictor):
    """The paper's predictor.  See module docstring for the algorithm."""

    name = "BLBP"

    def __init__(self, config: Optional[BLBPConfig] = None) -> None:
        self.config = config or BLBPConfig()
        cfg = self.config
        self.histories = BLBPHistories(cfg)
        self.transfer = TransferFunction(
            cfg.transfer_magnitudes, enabled=cfg.use_transfer_function
        )
        self.threshold = PerBitAdaptiveThreshold(
            num_bits=cfg.num_target_bits,
            initial_theta=cfg.initial_theta,
            counter_bits=cfg.theta_counter_bits,
            adaptive=cfg.use_adaptive_threshold,
        )
        self.weights = FusedWeightBanks(
            cfg.num_subpredictors,
            cfg.table_rows,
            cfg.num_target_bits,
            cfg.weight_bits,
        )
        regions = RegionArray(cfg.region_entries, cfg.region_offset_bits)
        if cfg.use_hierarchical_ibtb:
            self.ibtb = HierarchicalIBTB(
                l1_entries=cfg.hibtb_l1_entries,
                l2_sets=cfg.hibtb_l2_sets,
                l2_ways=cfg.hibtb_l2_ways,
                tag_bits=cfg.ibtb_tag_bits,
                rrpv_bits=cfg.rrip_bits,
                regions=regions,
            )
        else:
            self.ibtb = IndirectBTB(
                num_sets=cfg.ibtb_sets,
                num_ways=cfg.ibtb_ways,
                tag_bits=cfg.ibtb_tag_bits,
                rrpv_bits=cfg.rrip_bits,
                regions=regions,
            )
        self._bit_shifts = np.arange(
            cfg.low_bit, cfg.low_bit + cfg.num_target_bits, dtype=np.uint64
        )
        self._ctx: Optional[dict] = None
        # Pure-function memos over the small static target sets every
        # real trace draws from: per-target bit slices and per-candidate-
        # set bit matrices (with their columnwise min/max for selective
        # training).  Keys are target values, never predictor state.
        self._abits_memo: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._bitmat_memo: Dict[
            Tuple[int, ...], Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}
        # The engine's conditional callback binds straight to the
        # history push (instance attribute shadows the class method),
        # skipping one Python frame on the most frequent event.
        self.on_conditional = self.histories.on_conditional
        # Hot-path observability (drained via sim_stats / SimCounters).
        self.stat_predictions = 0
        self.stat_ibtb_probes = 0
        self.stat_trained_bits = 0

    # ------------------------------------------------------------------
    # Prediction (Algorithm 1)
    # ------------------------------------------------------------------

    def _target_bits(self, targets: List[int]) -> np.ndarray:
        """Bit matrix (T×K): row t holds target t's predicted-bit slice."""
        array = np.asarray(targets, dtype=np.uint64)
        return ((array[:, None] >> self._bit_shifts[None, :]) & np.uint64(1)).astype(
            np.int32
        )

    def _compute_yout(self, rows: np.ndarray) -> np.ndarray:
        """Aggregate transferred weights across all sub-predictors.

        One fused gather over the ``(N, rows, K)`` tensor, one
        transfer-LUT lookup, one axis sum — no per-bank Python loop.
        """
        return self.transfer.apply(self.weights.gather(rows)).sum(
            axis=0, dtype=np.int32
        )

    def predict_target(self, pc: int) -> Optional[int]:
        rows = np.asarray(self.histories.indices(pc), dtype=np.intp)
        yout = self._compute_yout(rows)
        candidates = self.ibtb.lookup(pc)
        self.stat_predictions += 1
        self.stat_ibtb_probes += 1

        if not candidates:
            prediction = None
            chosen_way = None
            bit_lows = None
            bit_highs = None
        else:
            targets = tuple(target for _, target in candidates)
            entry = self._bitmat_memo.get(targets)
            if entry is None:
                bit_matrix = self._target_bits(list(targets))
                entry = (
                    bit_matrix,
                    bit_matrix.min(axis=0),
                    bit_matrix.max(axis=0),
                )
                self._bitmat_memo[targets] = entry
            bit_matrix, bit_lows, bit_highs = entry
            scores = bit_matrix @ yout
            best = int(np.argmax(scores))
            prediction = targets[best]
            chosen_way = candidates[best][0]

        self._ctx = {
            "pc": pc,
            "rows": rows,
            "yout": yout,
            "candidates": candidates,
            "bit_lows": bit_lows,
            "bit_highs": bit_highs,
            "prediction": prediction,
            "chosen_way": chosen_way,
        }
        return prediction

    # ------------------------------------------------------------------
    # Training (Algorithm 2)
    # ------------------------------------------------------------------

    def train(self, pc: int, target: int) -> None:
        ctx = self._ctx
        if ctx is None or ctx["pc"] != pc:
            self.predict_target(pc)
            ctx = self._ctx
        self._ctx = None
        cfg = self.config

        # Keep the IBTB current: store the actual target so it is a
        # candidate next time.  ``ensure`` already promotes the way's
        # RRIP state on a hit and applies the insertion RRPV on a fill;
        # an extra ``touch`` here would double-promote freshly-filled
        # ways to RRPV 0 and defeat SRRIP's long-re-reference insertion
        # (the replacement-skew bug fixed in this revision).
        self.ibtb.ensure(pc, target)

        yout = ctx["yout"]
        memo = self._abits_memo.get(target)
        if memo is None:
            actual_bits = (
                (np.uint64(target) >> self._bit_shifts) & np.uint64(1)
            ).astype(np.int32)
            memo = (actual_bits, actual_bits == 1)
            self._abits_memo[target] = memo
        actual_bits, desired_bits = memo

        # Selective bit training (§3.6): only train bits that differ
        # across the potential-target set (stored candidates + actual).
        # The candidate matrix's columnwise min/max were memoized at
        # prediction time.
        if cfg.use_selective_update:
            if ctx["bit_lows"] is not None:
                lows = np.minimum(ctx["bit_lows"], actual_bits)
                highs = np.maximum(ctx["bit_highs"], actual_bits)
                differs = lows != highs
            else:
                differs = np.zeros(cfg.num_target_bits, dtype=bool)
        else:
            differs = np.ones(cfg.num_target_bits, dtype=bool)

        if differs.any():
            predicted_ones = yout >= 0
            correct_bits = predicted_ones == desired_bits
            magnitudes = np.abs(yout)
            train_mask = np.asarray(
                self.threshold.observe_and_mask(
                    differs.tolist(),
                    correct_bits.tolist(),
                    magnitudes.tolist(),
                ),
                dtype=bool,
            )
            if train_mask.any():
                self.weights.train(ctx["rows"], desired_bits, train_mask)
                self.stat_trained_bits += int(train_mask.sum())

        # Local history records bit 3 of the taken target (§3.6).
        self.histories.push_target(pc, target)

    # ------------------------------------------------------------------
    # History discipline (§3.3): conditional outcomes only.
    # ------------------------------------------------------------------

    def on_conditional(self, pc: int, taken: bool) -> None:
        self.histories.push_conditional(taken)

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and examples)
    # ------------------------------------------------------------------

    def predicted_bit_vector(self, pc: int) -> Tuple[np.ndarray, np.ndarray]:
        """(yout, predicted bits) for ``pc`` without touching state."""
        rows = np.asarray(self.histories.indices(pc), dtype=np.intp)
        yout = self._compute_yout(rows)
        return yout, (yout >= 0).astype(np.int32)

    def candidate_targets(self, pc: int) -> List[int]:
        """Targets currently stored for ``pc`` in the IBTB."""
        return [target for _, target in self.ibtb.lookup(pc)]

    def sim_stats(self) -> Dict[str, int]:
        """Cumulative hot-path counters (see :mod:`repro.sim.counters`)."""
        return {
            "predictions": self.stat_predictions,
            "ibtb_probes": self.stat_ibtb_probes,
            "trained_bits": self.stat_trained_bits,
            "fold_updates": self.histories.stat_fold_updates,
        }

    # ------------------------------------------------------------------
    # Snapshot/restore (see docs/checkpointing.md)
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict:
        """Snapshot every architectural register: histories (pending
        folds flushed), per-bit thresholds, the fused weight tensor, the
        IBTB with its region array, and the cumulative hot-path
        counters.  The transient prediction→train context and the
        pure-input memos (target-bit slices, candidate bit matrices, PC
        hashes, the version-validated IBTB lookup cache) are excluded:
        they are recomputable, and excluding them makes a restored
        predictor hash identical to one that never suspended.
        """
        return self._state(self.ibtb.state_dict())

    def hash_view(self) -> Dict:
        """:meth:`state_dict` with the IBTB's sets rendered from its flat
        fields (:meth:`IndirectBTB.hash_view`)."""
        return self._state(self.ibtb.hash_view())

    def _state(self, ibtb: Dict) -> Dict:
        if self._ctx is not None:
            raise StateError(
                "cannot snapshot BLBP between predict_target and train; "
                "snapshot at record boundaries"
            )
        return {
            "v": 1,
            "kind": "BLBP",
            "config": dataclass_fingerprint(self.config),
            "histories": self.histories.state_dict(),
            "threshold": self.threshold.state_dict(),
            "weights": self.weights.state_dict(),
            "ibtb": ibtb,
            "stats": {
                "predictions": self.stat_predictions,
                "ibtb_probes": self.stat_ibtb_probes,
                "trained_bits": self.stat_trained_bits,
            },
        }

    def load_state(self, state: Dict) -> None:
        check_state(state, "BLBP")
        require(
            state["config"] == dataclass_fingerprint(self.config),
            "BLBP snapshot was taken under a different configuration",
        )
        # Sub-components load in place — the engine's conditional
        # callback stays bound to this `histories` object.
        self.histories.load_state(state["histories"])
        self.threshold.load_state(state["threshold"])
        self.weights.load_state(state["weights"])
        self.ibtb.load_state(state["ibtb"])
        stats = state["stats"]
        self.stat_predictions = int(stats["predictions"])
        self.stat_ibtb_probes = int(stats["ibtb_probes"])
        self.stat_trained_bits = int(stats["trained_bits"])
        self._ctx = None
        self._abits_memo = {}
        self._bitmat_memo = {}

    # ------------------------------------------------------------------

    def storage_budget(self) -> StorageBudget:
        cfg = self.config
        budget = StorageBudget(self.name)
        for position, bank in enumerate(self.weights.weights):
            label = (
                "weights (local history)"
                if position == 0
                else f"weights (interval {cfg.effective_intervals[position - 1]})"
            )
            budget.add(label, bank.size * cfg.weight_bits)
        budget.add("global history", cfg.global_history_bits)
        budget.add(
            "local histories", cfg.local_histories * cfg.local_history_bits
        )
        budget.add("IBTB", self.ibtb.storage_bits())
        budget.add("region array", self.ibtb.regions.storage_bits())
        budget.add("adaptive thresholds", self.threshold.storage_bits())
        return budget
