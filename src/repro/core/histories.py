"""BLBP's history state and sub-predictor index computation (§3.3, §3.6).

BLBP draws on two history sources:

* a 630-bit **global history** of conditional-branch outcomes, sliced
  into the seven tuned intervals of §3.6 (or GEHL prefixes when the
  interval optimization is off);
* 256 **local histories** of 10 bits each, indexed by branch PC, where
  each shifted-in bit is bit 3 of the target the branch actually took.

Each sub-predictor's table index is a hash of its history feature mixed
with the branch PC.  (Algorithm 1 writes the hash over history alone;
we mix the PC in as every hashed-perceptron implementation does — see
DESIGN.md §5 on unspecified hash functions.)

Hot-path structure
------------------

The naive index computation re-folds up to 630 history bits through
:func:`~repro.common.hashing.fold_int` for each of the seven intervals
on *every* prediction.  :class:`BLBPHistories` is instead a
:class:`~repro.common.hashing.GlobalHistoryRegister` with one
incremental fold per interval — the circular-shift-register fold
TAGE-family hardware implements, which ITTAGE and TAGE share.  Because
conditional branches outnumber indirect branches by an order of
magnitude in real traces, a conditional push is a bare shift, and the
pending bits are absorbed in one batched closed-form step the next
time a fold value is read.

:meth:`BLBPHistories.indices_reference` retains the from-scratch
``fold_int`` computation as the differential oracle — the equivalence
suite pins ``indices`` to it bit-for-bit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.common.hashing import (
    GlobalHistoryRegister,
    fold_int,
    mix_pc,
    stable_hash64,
)
from repro.common.history import LocalHistoryTable
from repro.common.state import Stateful, check_state
from repro.core.config import BLBPConfig


class BLBPHistories(GlobalHistoryRegister, Stateful):
    """Global + local history registers and feature index computation."""

    def __init__(self, config: BLBPConfig) -> None:
        self.config = config
        self._fold_bits = max(1, (config.table_rows - 1).bit_length())
        #: One incremental fold per interval, kept equal to ``fold_int``
        #: over the interval's current window whenever it is read.
        super().__init__(
            config.global_history_bits,
            [(start, end, self._fold_bits)
             for start, end in config.effective_intervals],
        )
        self._local = LocalHistoryTable(
            config.local_histories, config.local_history_bits
        )
        # Pure-function memos for the hot path.  PCs and local-history
        # values are drawn from small static sets in any real trace, so
        # both caches stay tiny; they hold hashes of *inputs*, never
        # predictor state.
        self._pc_memo: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        self._local_hash_memo: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # History updates
    # ------------------------------------------------------------------

    def push_conditional(self, taken: bool) -> None:
        """Shift a conditional outcome into the global history.

        O(1) with *no* per-interval work: the folds are brought current
        lazily, in one batched step, the next time a fold value is read
        (:meth:`flush`).  Conditional pushes outnumber predictions ~10:1
        in real traces, so this path must stay a bare shift — per-push
        fold maintenance was the profile's top entry.
        """
        self._ghist = (self._ghist << 1) | (1 if taken else 0)
        self._pending += 1
        if self._pending >= 1024:
            self.flush()

    def on_conditional(self, _pc: int, taken: bool) -> None:
        """:meth:`push_conditional` with the predictor hook's signature.

        :class:`~repro.core.blbp.BLBP` binds the simulation engine's
        conditional callback straight to this method, saving one Python
        frame per conditional branch — the most frequent event in any
        trace.  The body duplicates :meth:`push_conditional` for that
        reason.
        """
        self._ghist = (self._ghist << 1) | (1 if taken else 0)
        self._pending += 1
        if self._pending >= 1024:
            self.flush()

    def push_target(self, pc: int, target: int) -> None:
        """Record the local-history bit (bit 3 of the taken target)."""
        bit = (target >> self.config.local_target_bit) & 1
        self._local.push_at(self._pc_hashes(pc)[1], bit)

    # ------------------------------------------------------------------
    # Index computation
    # ------------------------------------------------------------------

    def _pc_hashes(self, pc: int) -> Tuple[Tuple[int, ...], int]:
        """Memoized per-feature PC hashes and the local-table index."""
        memo = self._pc_memo.get(pc)
        if memo is None:
            mixes = tuple(
                mix_pc(pc, salt=salt)
                for salt in range(1 + len(self._folds))
            )
            memo = (mixes, mixes[0] % self._local.num_entries)
            self._pc_memo[pc] = memo
        return memo

    def indices(self, pc: int) -> List[int]:
        """Table indices for all N sub-predictors at branch ``pc``.

        Index 0 is the local-history feature (a PC-only bias feature
        when local history is disabled); the rest follow the configured
        intervals in order.  Equal to :meth:`indices_reference` for
        every reachable state (pinned by the equivalence suite).
        """
        if self._pending:
            self.flush()
        rows = self.config.table_rows
        mixes, local_index = self._pc_hashes(pc)

        if self.config.use_local_history:
            local = self._local.read_at(local_index)
            local_hash = self._local_hash_memo.get(local)
            if local_hash is None:
                local_hash = stable_hash64(local)
                self._local_hash_memo[local] = local_hash
            mixed = mixes[0] ^ local_hash
        else:
            mixed = mixes[0]
        result = [mixed % rows]

        for position, fold in enumerate(self._folds):
            result.append((mixes[position + 1] ^ fold.fold) % rows)
        return result

    def indices_reference(self, pc: int) -> List[int]:
        """The from-scratch index computation (differential oracle).

        Re-extracts and re-folds every interval with
        :func:`~repro.common.hashing.fold_int`; O(history bits) per
        call.  Kept verbatim so tests can assert the incremental path
        never drifts from it.
        """
        cfg = self.config
        rows = cfg.table_rows
        result: List[int] = []

        if cfg.use_local_history:
            local = self._local.read(pc)
            mixed = mix_pc(pc) ^ stable_hash64(local)
        else:
            mixed = mix_pc(pc)
        result.append(mixed % rows)

        for position, (start, end) in enumerate(cfg.effective_intervals):
            width = end - start  # intervals are half-open [start, end)
            segment = (self._ghist >> start) & ((1 << width) - 1)
            folded = fold_int(segment, width, self._fold_bits)
            mixed = mix_pc(pc, salt=position + 1) ^ folded
            result.append(mixed % rows)
        return result

    # ------------------------------------------------------------------

    def global_history_value(self) -> int:
        """The raw global history bits (bit 0 most recent)."""
        return self._ghist & self._ghist_mask

    def local_history_of(self, pc: int) -> int:
        """The local history register selected by ``pc``."""
        return self._local.read(pc)

    def storage_bits(self) -> int:
        return self.config.global_history_bits + self._local.storage_bits()

    # ------------------------------------------------------------------
    # Snapshot/restore (see docs/checkpointing.md)
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        # Pending bits are absorbed first, so the snapshot sees the
        # masked history and current fold values with `_pending == 0`.
        # The PC/local-hash memos cache pure functions of their inputs
        # and are excluded — a restored instance rebuilds them lazily
        # with identical values.
        self.flush()
        return {
            "v": 1,
            "kind": "BLBPHistories",
            "ghist": self._ghist,
            "local": self._local.state_dict(),
            "folds": [fold.state_dict() for fold in self._folds],
            "stat_fold_updates": self.stat_fold_updates,
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "BLBPHistories")
        self.restore(int(state["ghist"]), state["folds"])
        self._local.load_state(state["local"])
        self.stat_fold_updates = int(state["stat_fold_updates"])
        self._pc_memo = {}
        self._local_hash_memo = {}
