"""TAGE: tagged geometric-history conditional predictor (Seznec).

The direction-predicting sibling of ITTAGE (§2.2: "The TAGE predictor
predicts conditional branch directions while the ITTAGE predictor
predicts indirect branch targets"; COTTAGE combines both).  Included as
an alternative conditional substrate — VPC can run over TAGE instead of
the multiperspective perceptron, and the COTTAGE pairing
(:class:`repro.predictors.cottage.COTTAGE`) reuses this implementation
directly.

Structure mirrors :class:`repro.predictors.ittage.ITTAGE`: a bimodal
base table plus partially-tagged tables at geometric history lengths,
longest-match provider selection with a weak-entry/altpred meta-choice,
usefulness-guided allocation, and periodic usefulness resets, with the
index and tag folds kept by the same lazy
:class:`~repro.common.hashing.GlobalHistoryRegister`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.hashing import mix_pc
from repro.common.state import (
    StateError,
    check_state,
    dataclass_fingerprint,
    decode_array,
    encode_array,
    require,
)
from repro.common.storage import StorageBudget
from repro.cond.base import ConditionalPredictor
from repro.predictors.ittage import geometric_lengths, tagged_history


@dataclass(frozen=True)
class TAGEConfig:
    """Sizing knobs for :class:`TAGE` (a ~32 KB configuration)."""

    num_tagged: int = 7
    base_entries: int = 16384
    tagged_entries: int = 1024
    tag_bits: Tuple[int, ...] = (8, 8, 9, 10, 10, 11, 12)
    history_lengths: Tuple[int, ...] = field(
        default_factory=lambda: geometric_lengths(7, minimum=5, maximum=320)
    )
    counter_bits: int = 3
    useful_bits: int = 2
    u_reset_period: int = 1 << 16
    use_alt_bits: int = 4
    seed: int = 0x7A6E

    def __post_init__(self) -> None:
        if len(self.tag_bits) != self.num_tagged:
            raise ValueError(
                f"{self.num_tagged} tables but {len(self.tag_bits)} tag widths"
            )
        if len(self.history_lengths) != self.num_tagged:
            raise ValueError(
                f"{self.num_tagged} tables but "
                f"{len(self.history_lengths)} history lengths"
            )
        if list(self.history_lengths) != sorted(self.history_lengths):
            raise ValueError("history lengths must be non-decreasing")


class _TaggedDirectionTable:
    __slots__ = ("tags", "ctr", "useful", "valid")

    def __init__(self, entries: int) -> None:
        self.tags = np.zeros(entries, dtype=np.int64)
        self.ctr = np.zeros(entries, dtype=np.int8)  # signed: >=0 taken
        self.useful = np.zeros(entries, dtype=np.int8)
        self.valid = np.zeros(entries, dtype=bool)


class TAGE(ConditionalPredictor):
    """Seznec's TAGE conditional branch predictor."""

    def __init__(self, config: Optional[TAGEConfig] = None) -> None:
        self.config = config or TAGEConfig()
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)
        # Bimodal base: 2-bit counters, weakly not-taken.
        self._base = np.ones(cfg.base_entries, dtype=np.int8)
        self._tables = [
            _TaggedDirectionTable(cfg.tagged_entries)
            for _ in range(cfg.num_tagged)
        ]
        self._index_bits = max(1, (cfg.tagged_entries - 1).bit_length())
        self._ctr_max = (1 << (cfg.counter_bits - 1)) - 1
        self._ctr_min = -(1 << (cfg.counter_bits - 1))
        self._useful_max = (1 << cfg.useful_bits) - 1

        self._history = tagged_history(cfg, self._index_bits)
        folds, count = self._history._folds, cfg.num_tagged
        self._index_folds = folds[:count]
        self._tag_folds = folds[count : 2 * count]
        self._tag_folds2 = folds[2 * count :]
        self._history_head = 0
        self._use_alt = 0
        self._use_alt_max = (1 << (cfg.use_alt_bits - 1)) - 1
        self._use_alt_min = -(1 << (cfg.use_alt_bits - 1))
        self._updates = 0
        self._ctx: Optional[dict] = None

    # ------------------------------------------------------------------

    def _base_index(self, pc: int) -> int:
        return mix_pc(pc) % self.config.base_entries

    def _tagged_index(self, pc: int, table: int) -> int:
        mixed = mix_pc(pc, salt=table + 1) ^ self._index_folds[table].fold
        return (mixed & ((1 << self._index_bits) - 1)) % self.config.tagged_entries

    def _tagged_tag(self, pc: int, table: int) -> int:
        tag = (
            mix_pc(pc, salt=0x7A6 + table)
            ^ self._tag_folds[table].fold
            ^ (self._tag_folds2[table].fold << 1)
        )
        return tag & ((1 << self.config.tag_bits[table]) - 1)

    # ------------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        cfg = self.config
        self._history.flush()
        indices = []
        tags = []
        hits: List[Tuple[int, int]] = []
        for table_number in range(cfg.num_tagged):
            index = self._tagged_index(pc, table_number)
            tag = self._tagged_tag(pc, table_number)
            indices.append(index)
            tags.append(tag)
            table = self._tables[table_number]
            if table.valid[index] and int(table.tags[index]) == tag:
                hits.append((table_number, index))
        hits.sort(reverse=True)

        base_index = self._base_index(pc)
        base_prediction = int(self._base[base_index]) >= 2

        provider = hits[0] if hits else None
        if provider is not None:
            provider_ctr = int(self._tables[provider[0]].ctr[provider[1]])
            provider_prediction = provider_ctr >= 0
            weak = provider_ctr in (-1, 0)
        else:
            provider_prediction = base_prediction
            weak = False

        if len(hits) > 1:
            alt_ctr = int(self._tables[hits[1][0]].ctr[hits[1][1]])
            alt_prediction = alt_ctr >= 0
        else:
            alt_prediction = base_prediction

        if provider is not None and weak and self._use_alt >= 0:
            final = alt_prediction
        elif provider is not None:
            final = provider_prediction
        else:
            final = base_prediction

        self._ctx = {
            "pc": pc,
            "indices": indices,
            "tags": tags,
            "provider": provider,
            "provider_prediction": provider_prediction if provider else None,
            "alt_prediction": alt_prediction,
            "base_index": base_index,
            "final": final,
            "weak": weak,
        }
        return final

    # ------------------------------------------------------------------

    def _train(self, pc: int, taken: bool) -> None:
        ctx = self._ctx
        if ctx is None or ctx["pc"] != pc:
            self.predict(pc)
            ctx = self._ctx
        self._ctx = None
        cfg = self.config
        mispredicted = ctx["final"] != taken

        provider = ctx["provider"]
        if provider is not None:
            table_number, index = provider
            table = self._tables[table_number]
            provider_correct = ctx["provider_prediction"] == taken
            alt_correct = ctx["alt_prediction"] == taken

            if ctx["weak"] and ctx["provider_prediction"] != ctx["alt_prediction"]:
                if alt_correct and not provider_correct:
                    if self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                elif provider_correct and not alt_correct:
                    if self._use_alt > self._use_alt_min:
                        self._use_alt -= 1

            if ctx["provider_prediction"] != ctx["alt_prediction"]:
                if provider_correct and int(table.useful[index]) < self._useful_max:
                    table.useful[index] += 1
                elif not provider_correct and int(table.useful[index]) > 0:
                    table.useful[index] -= 1

            ctr = int(table.ctr[index])
            if taken and ctr < self._ctr_max:
                table.ctr[index] = ctr + 1
            elif not taken and ctr > self._ctr_min:
                table.ctr[index] = ctr - 1

        # Base bimodal always trains.
        base_index = ctx["base_index"]
        base = int(self._base[base_index])
        if taken and base < 3:
            self._base[base_index] = base + 1
        elif not taken and base > 0:
            self._base[base_index] = base - 1

        if mispredicted:
            provider_rank = provider[0] if provider is not None else -1
            self._allocate(ctx, provider_rank, taken)

        self._updates += 1
        if self._updates % cfg.u_reset_period == 0:
            for table in self._tables:
                table.useful[:] = 0

    def _allocate(self, ctx: dict, provider_rank: int, taken: bool) -> None:
        cfg = self.config
        candidates = [
            table_number
            for table_number in range(provider_rank + 1, cfg.num_tagged)
            if int(self._tables[table_number].useful[ctx["indices"][table_number]]) == 0
        ]
        if not candidates:
            for table_number in range(provider_rank + 1, cfg.num_tagged):
                index = ctx["indices"][table_number]
                table = self._tables[table_number]
                if int(table.useful[index]) > 0:
                    table.useful[index] -= 1
            return
        chosen = candidates[0]
        for candidate in candidates[1:]:
            if self._rng.random() < 0.5:
                break
            chosen = candidate
        index = ctx["indices"][chosen]
        table = self._tables[chosen]
        table.valid[index] = True
        table.tags[index] = ctx["tags"][chosen]
        table.ctr[index] = 0 if taken else -1
        table.useful[index] = 0

    # ------------------------------------------------------------------

    def update(self, pc: int, taken: bool) -> None:
        self._train(pc, taken)
        self._history.push(1 if taken else 0)
        self._history_head = (self._history_head + 1) % self._history._capacity

    def train_weights(self, pc: int, taken: bool) -> None:
        self._train(pc, taken)

    # ------------------------------------------------------------------
    # Snapshot/restore.  The allocation tie-breaker consumes the RNG, so
    # its bit-generator state is architectural and rides in the snapshot.
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        if self._ctx is not None:
            raise StateError(
                "cannot snapshot TAGE between predict and update; "
                "snapshot at record boundaries"
            )
        self._history.flush()
        return {
            "v": 1,
            "kind": "TAGE",
            "config": dataclass_fingerprint(self.config),
            "base": encode_array(self._base),
            "tables": [
                {
                    "tags": encode_array(table.tags),
                    "ctr": encode_array(table.ctr),
                    "useful": encode_array(table.useful),
                    "valid": encode_array(table.valid),
                }
                for table in self._tables
            ],
            "history_ring": self._history.ring(self._history_head),
            "history_head": self._history_head,
            "index_folds": [fold.state_dict() for fold in self._index_folds],
            "tag_folds": [fold.state_dict() for fold in self._tag_folds],
            "tag_folds2": [fold.state_dict() for fold in self._tag_folds2],
            "use_alt": self._use_alt,
            "updates": self._updates,
            "rng": self._rng.bit_generator.state,
        }

    def load_state(self, state: dict) -> None:
        check_state(state, "TAGE")
        require(
            state["config"] == dataclass_fingerprint(self.config),
            "TAGE snapshot was taken under a different configuration",
        )
        require(
            len(state["tables"]) == len(self._tables),
            "TAGE table count mismatch",
        )
        use_alt, updates = int(state["use_alt"]), int(state["updates"])
        require(
            self._use_alt_min <= use_alt <= self._use_alt_max,
            f"TAGE use-alt counter {use_alt} out of range",
        )
        require(updates >= 0, f"TAGE update count {updates} is negative")
        head = int(state["history_head"])
        self._history.restore_ring(
            state["history_ring"],
            head,
            state["index_folds"] + state["tag_folds"] + state["tag_folds2"],
        )
        self._history_head = head
        for table, payload in zip(self._tables, state["tables"]):
            for attr in ("tags", "ctr", "useful", "valid"):
                decoded = decode_array(payload[attr])
                current = getattr(table, attr)
                require(
                    decoded.shape == current.shape
                    and decoded.dtype == current.dtype,
                    f"TAGE table {attr} mismatch",
                )
                setattr(table, attr, decoded)
        self._base = decode_array(state["base"])
        self._use_alt, self._updates = use_alt, updates
        self._rng.bit_generator.state = state["rng"]
        self._ctx = None

    # ------------------------------------------------------------------

    def storage_budget(self) -> StorageBudget:
        cfg = self.config
        budget = StorageBudget("TAGE")
        budget.add_table("bimodal base", cfg.base_entries, 2)
        for table_number in range(cfg.num_tagged):
            entry_bits = (
                cfg.tag_bits[table_number] + cfg.counter_bits + cfg.useful_bits
            )
            budget.add_table(
                f"tagged table {table_number} "
                f"(hist {cfg.history_lengths[table_number]})",
                cfg.tagged_entries,
                entry_bits,
            )
        budget.add("global history", max(cfg.history_lengths))
        budget.add("use-alt meta counter", cfg.use_alt_bits)
        return budget
