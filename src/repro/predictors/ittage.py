"""ITTAGE: the tagged geometric-history indirect target predictor (Seznec).

The paper's state-of-the-art comparison point (0.193 MPKI, Table 2) is
the 64 KB ITTAGE from the second championship branch prediction
competition.  ITTAGE keeps a tagless base table plus several
partially-tagged tables indexed by hashes of the branch PC with
geometrically-growing slices of global history; the matching entry with
the longest history provides the prediction, with a confidence-gated
fallback to the next-longest match ("altpred").

History discipline follows Seznec's implementation: conditional branches
shift their outcome into global history; indirect branches shift several
low-order target bits (so the history encodes *which* target was taken,
not just that a branch was); all branches update a path history of PC
bits.  Every table's index and tag folds are interval folds of one lazy
:class:`~repro.common.hashing.GlobalHistoryRegister`: a push is one
shift (an indirect's hashed target bits go in as one multi-bit shift),
and each prediction flushes the pending bits into all folds at once.
Snapshots keep the circular ``ring``/``ring_head`` layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.common.hashing import GlobalHistoryRegister, mix_pc, stable_hash64
from repro.common.state import (
    StateError,
    check_state,
    dataclass_fingerprint,
    decode_array,
    encode_array,
    require,
)
from repro.common.storage import StorageBudget
from repro.predictors.base import IndirectBranchPredictor
from repro.trace.record import BranchType


def geometric_lengths(count: int, minimum: int = 4, maximum: int = 640) -> Tuple[int, ...]:
    """Geometric history-length series (Seznec's GEHL construction)."""
    if count < 1:
        raise ValueError(f"need >= 1 lengths, got {count}")
    if count == 1:
        return (maximum,)
    ratio = (maximum / minimum) ** (1.0 / (count - 1))
    lengths = []
    for position in range(count):
        length = int(round(minimum * ratio**position))
        if lengths and length <= lengths[-1]:
            length = lengths[-1] + 1
        lengths.append(length)
    return tuple(lengths)


def tagged_history(config, index_bits: int) -> GlobalHistoryRegister:
    """The history register of a TAGE-family predictor.

    Index, tag and tag2 folds of ``[0, length)`` for every table, in
    that order, over one bit more than the longest window: the capacity
    of the circular history buffer the snapshots record.
    """
    lengths = config.history_lengths
    tag_bits = config.tag_bits
    return GlobalHistoryRegister(
        max(lengths) + 1,
        [(0, length, index_bits) for length in lengths]
        + [(0, length, bits) for length, bits in zip(lengths, tag_bits)]
        + [(0, length, max(1, bits - 1))
           for length, bits in zip(lengths, tag_bits)],
    )


@dataclass(frozen=True)
class ITTAGEConfig:
    """Sizing and behaviour knobs for :class:`ITTAGE`.

    Defaults approximate the 64 KB JWAC-2 configuration: a 4K-entry base
    table and seven 1K-entry tagged tables with history lengths from 4
    to 640 branches.
    """

    num_tagged: int = 7
    base_entries: int = 8192
    tagged_entries: int = 1024
    tag_bits: Tuple[int, ...] = (9, 9, 10, 10, 11, 11, 12)
    history_lengths: Tuple[int, ...] = field(default_factory=lambda: geometric_lengths(7))
    confidence_bits: int = 2
    useful_bits: int = 2
    target_bits_per_indirect: int = 3
    path_bits: int = 16
    u_reset_period: int = 1 << 16
    use_alt_bits: int = 4
    seed: int = 0xC0FFEE

    def __post_init__(self) -> None:
        if len(self.tag_bits) != self.num_tagged:
            raise ValueError(
                f"{self.num_tagged} tagged tables but {len(self.tag_bits)} tag widths"
            )
        if len(self.history_lengths) != self.num_tagged:
            raise ValueError(
                f"{self.num_tagged} tagged tables but "
                f"{len(self.history_lengths)} history lengths"
            )
        if list(self.history_lengths) != sorted(self.history_lengths):
            raise ValueError("history lengths must be non-decreasing")


class _TaggedTable:
    """One partially-tagged ITTAGE table."""

    __slots__ = ("entries", "tag_bits", "tags", "targets", "ctr", "useful", "valid")

    def __init__(self, entries: int, tag_bits: int) -> None:
        self.entries = entries
        self.tag_bits = tag_bits
        self.tags = np.zeros(entries, dtype=np.int64)
        self.targets = np.zeros(entries, dtype=np.uint64)
        self.ctr = np.zeros(entries, dtype=np.int8)
        self.useful = np.zeros(entries, dtype=np.int8)
        self.valid = np.zeros(entries, dtype=bool)


class ITTAGE(IndirectBranchPredictor):
    """Seznec's ITTAGE indirect target predictor."""

    name = "ITTAGE"

    def __init__(self, config: Optional[ITTAGEConfig] = None) -> None:
        self.config = config or ITTAGEConfig()
        cfg = self.config
        self._rng = np.random.default_rng(cfg.seed)

        self._base_targets = np.zeros(cfg.base_entries, dtype=np.uint64)
        self._base_ctr = np.zeros(cfg.base_entries, dtype=np.int8)
        self._base_valid = np.zeros(cfg.base_entries, dtype=bool)

        self._tables = [
            _TaggedTable(cfg.tagged_entries, cfg.tag_bits[i])
            for i in range(cfg.num_tagged)
        ]
        self._index_bits = max(1, (cfg.tagged_entries - 1).bit_length())

        self._history = tagged_history(cfg, self._index_bits)
        folds, count = self._history._folds, cfg.num_tagged
        self._index_folds = folds[:count]
        self._tag_folds = folds[count : 2 * count]
        self._tag_folds2 = folds[2 * count :]
        self._ring_head = 0
        self._path = 0
        self._use_alt = 0  # signed meta-counter: >= 0 favours altpred on weak entries
        self._use_alt_max = (1 << (cfg.use_alt_bits - 1)) - 1
        self._use_alt_min = -(1 << (cfg.use_alt_bits - 1))
        self._updates = 0
        self._ctx = None  # prediction context carried from predict to train
        self._conf_max = (1 << cfg.confidence_bits) - 1
        self._useful_max = (1 << cfg.useful_bits) - 1

    # ------------------------------------------------------------------
    # Index / tag computation
    # ------------------------------------------------------------------

    def _base_index(self, pc: int) -> int:
        return mix_pc(pc) % self.config.base_entries

    def _tagged_index(self, pc: int, table: int) -> int:
        pc_hash = mix_pc(pc, salt=table + 1)
        folded = self._index_folds[table].fold
        path = self._path & ((1 << min(self.config.path_bits, 16)) - 1)
        mixed = pc_hash ^ folded ^ (path >> (table & 3))
        return (mixed & ((1 << self._index_bits) - 1)) % self.config.tagged_entries

    def _tagged_tag(self, pc: int, table: int) -> int:
        pc_hash = mix_pc(pc, salt=0x7AC + table)
        tag = pc_hash ^ self._tag_folds[table].fold ^ (self._tag_folds2[table].fold << 1)
        return tag & ((1 << self.config.tag_bits[table]) - 1)

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict_target(self, pc: int) -> Optional[int]:
        cfg = self.config
        self._history.flush()
        hits: List[Tuple[int, int]] = []  # (table, index), longest first
        indices = []
        tags = []
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
        base_target = (
            int(self._base_targets[base_index])
            if self._base_valid[base_index]
            else None
        )

        provider = hits[0] if hits else None
        if provider is not None:
            table = self._tables[provider[0]]
            provider_target = int(table.targets[provider[1]])
            provider_ctr = int(table.ctr[provider[1]])
        else:
            provider_target = None
            provider_ctr = 0

        if len(hits) > 1:
            alt_table = self._tables[hits[1][0]]
            alt_target: Optional[int] = int(alt_table.targets[hits[1][1]])
        else:
            alt_target = base_target

        if provider is None:
            final = base_target
            used_alt = True
        elif provider_ctr == 0 and self._use_alt >= 0 and alt_target is not None:
            # Weak (likely newly-allocated) provider: trust the altpred.
            final = alt_target
            used_alt = True
        else:
            final = provider_target
            used_alt = False

        self._ctx = {
            "pc": pc,
            "indices": indices,
            "tags": tags,
            "hits": hits,
            "provider": provider,
            "provider_target": provider_target,
            "provider_ctr": provider_ctr,
            "alt_target": alt_target,
            "base_index": base_index,
            "base_target": base_target,
            "final": final,
            "used_alt": used_alt,
        }
        return final

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def train(self, pc: int, target: int) -> None:
        ctx = self._ctx
        if ctx is None or ctx["pc"] != pc:
            # Train called without a matching predict (e.g. warm-up
            # replay): recompute prediction state first.
            self.predict_target(pc)
            ctx = self._ctx
        self._ctx = None
        cfg = self.config
        mispredicted = ctx["final"] != target

        provider = ctx["provider"]
        if provider is not None:
            table_number, index = provider
            table = self._tables[table_number]
            provider_correct = ctx["provider_target"] == target
            alt_correct = ctx["alt_target"] == target

            # Meta-counter: on weak providers, learn whether altpred is
            # the better choice.
            if ctx["provider_ctr"] == 0 and ctx["provider_target"] != ctx["alt_target"]:
                if alt_correct and not provider_correct:
                    if self._use_alt < self._use_alt_max:
                        self._use_alt += 1
                elif provider_correct and not alt_correct:
                    if self._use_alt > self._use_alt_min:
                        self._use_alt -= 1

            # Usefulness: provider right where altpred was wrong.
            if ctx["provider_target"] != ctx["alt_target"]:
                if provider_correct and int(table.useful[index]) < self._useful_max:
                    table.useful[index] += 1
                elif not provider_correct and int(table.useful[index]) > 0:
                    table.useful[index] -= 1

            # Confidence / target update.
            if provider_correct:
                if int(table.ctr[index]) < self._conf_max:
                    table.ctr[index] += 1
            else:
                if int(table.ctr[index]) > 0:
                    table.ctr[index] -= 1
                else:
                    table.targets[index] = target
                    table.ctr[index] = 1

        # Base table: last-target with hysteresis.
        base_index = ctx["base_index"]
        if not self._base_valid[base_index]:
            self._base_valid[base_index] = True
            self._base_targets[base_index] = target
            self._base_ctr[base_index] = 1
        elif int(self._base_targets[base_index]) == target:
            if int(self._base_ctr[base_index]) < self._conf_max:
                self._base_ctr[base_index] += 1
        else:
            if int(self._base_ctr[base_index]) > 0:
                self._base_ctr[base_index] -= 1
            else:
                self._base_targets[base_index] = target
                self._base_ctr[base_index] = 1

        # Allocation on misprediction: claim an entry with longer history.
        if mispredicted:
            provider_rank = provider[0] if provider is not None else -1
            self._allocate(ctx, provider_rank, target)

        self._updates += 1
        if self._updates % cfg.u_reset_period == 0:
            for table in self._tables:
                table.useful[:] = 0

    def _allocate(self, ctx: dict, provider_rank: int, target: int) -> None:
        cfg = self.config
        candidates = []
        for table_number in range(provider_rank + 1, cfg.num_tagged):
            index = ctx["indices"][table_number]
            if int(self._tables[table_number].useful[index]) == 0:
                candidates.append(table_number)
        if not candidates:
            # No free entry: age the competition so future allocations win.
            for table_number in range(provider_rank + 1, cfg.num_tagged):
                index = ctx["indices"][table_number]
                table = self._tables[table_number]
                if int(table.useful[index]) > 0:
                    table.useful[index] -= 1
            return
        # Favour shorter-history tables geometrically (Seznec's skew).
        chosen = candidates[0]
        for candidate in candidates[1:]:
            if self._rng.random() < 0.5:
                break
            chosen = candidate
        index = ctx["indices"][chosen]
        table = self._tables[chosen]
        table.valid[index] = True
        table.tags[index] = ctx["tags"][chosen]
        table.targets[index] = target
        table.ctr[index] = 0
        table.useful[index] = 0

    # ------------------------------------------------------------------
    # History discipline
    # ------------------------------------------------------------------

    def on_conditional(self, pc: int, taken: bool) -> None:
        self._push(1 if taken else 0, 1, pc)

    def on_retired(self, pc: int, branch_type: int, target: int) -> None:
        if branch_type in (
            int(BranchType.INDIRECT_JUMP),
            int(BranchType.INDIRECT_CALL),
        ):
            # Insert bits of a target *hash* rather than raw low-order
            # bits: raw bits 2..4 can be constant across an aligned
            # target set, which would erase the information Seznec's
            # history insertion is meant to provide.  Hash bit 0 is
            # pushed first, so the shift-in value is bit-reversed.
            count = self.config.target_bits_per_indirect
            hashed = stable_hash64(target) & ((1 << count) - 1)
            self._push(int(format(hashed, f"0{count}b")[::-1], 2), count, pc)
        else:
            self._push(1, 1, pc)

    def _push(self, bits: int, count: int, pc: int) -> None:
        self._history.push(bits, count)
        self._ring_head = (self._ring_head + count) % self._history._capacity
        self._path = ((self._path << 2) | ((pc >> 2) & 3)) & (
            (1 << self.config.path_bits) - 1
        )

    # ------------------------------------------------------------------
    # Snapshot/restore.  The allocation tie-breaker consumes the RNG, so
    # its bit-generator state is architectural and rides in the snapshot.
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        if self._ctx is not None:
            raise StateError(
                "cannot snapshot ITTAGE between predict_target and train; "
                "snapshot at record boundaries"
            )
        self._history.flush()
        return {
            "v": 1,
            "kind": "ITTAGE",
            "config": dataclass_fingerprint(self.config),
            "base_targets": encode_array(self._base_targets),
            "base_ctr": encode_array(self._base_ctr),
            "base_valid": encode_array(self._base_valid),
            "tables": [
                {
                    "tags": encode_array(table.tags),
                    "targets": encode_array(table.targets),
                    "ctr": encode_array(table.ctr),
                    "useful": encode_array(table.useful),
                    "valid": encode_array(table.valid),
                }
                for table in self._tables
            ],
            "ring": self._history.ring(self._ring_head),
            "ring_head": self._ring_head,
            "index_folds": [fold.state_dict() for fold in self._index_folds],
            "tag_folds": [fold.state_dict() for fold in self._tag_folds],
            "tag_folds2": [fold.state_dict() for fold in self._tag_folds2],
            "path": self._path,
            "use_alt": self._use_alt,
            "updates": self._updates,
            "rng": self._rng.bit_generator.state,
        }

    def load_state(self, state: dict) -> None:
        check_state(state, "ITTAGE")
        require(
            state["config"] == dataclass_fingerprint(self.config),
            "ITTAGE snapshot was taken under a different configuration",
        )
        require(
            len(state["tables"]) == len(self._tables),
            "ITTAGE table count mismatch",
        )
        path, use_alt, updates = (
            int(state["path"]), int(state["use_alt"]), int(state["updates"])
        )
        require(
            0 <= path < (1 << self.config.path_bits),
            f"ITTAGE path history {path} out of range",
        )
        require(
            self._use_alt_min <= use_alt <= self._use_alt_max,
            f"ITTAGE use-alt counter {use_alt} out of range",
        )
        require(updates >= 0, f"ITTAGE update count {updates} is negative")
        head = int(state["ring_head"])
        self._history.restore_ring(
            state["ring"],
            head,
            state["index_folds"] + state["tag_folds"] + state["tag_folds2"],
        )
        self._ring_head = head
        for table, payload in zip(self._tables, state["tables"]):
            for attr in ("tags", "targets", "ctr", "useful", "valid"):
                decoded = decode_array(payload[attr])
                current = getattr(table, attr)
                require(
                    decoded.shape == current.shape
                    and decoded.dtype == current.dtype,
                    f"ITTAGE table {attr} mismatch",
                )
                setattr(table, attr, decoded)
        self._base_targets = decode_array(state["base_targets"])
        self._base_ctr = decode_array(state["base_ctr"])
        self._base_valid = decode_array(state["base_valid"])
        self._path, self._use_alt, self._updates = path, use_alt, updates
        self._rng.bit_generator.state = state["rng"]
        self._ctx = None

    # ------------------------------------------------------------------

    def storage_budget(self) -> StorageBudget:
        cfg = self.config
        budget = StorageBudget(self.name)
        # Targets counted region-compressed as in the paper (§3.6):
        # 7-bit region number + 20-bit offset.
        target_bits = 27
        budget.add_table(
            "base table", cfg.base_entries, target_bits + cfg.confidence_bits
        )
        for table_number in range(cfg.num_tagged):
            entry_bits = (
                cfg.tag_bits[table_number]
                + target_bits
                + cfg.confidence_bits
                + cfg.useful_bits
            )
            budget.add_table(
                f"tagged table {table_number} (hist {cfg.history_lengths[table_number]})",
                cfg.tagged_entries,
                entry_bits,
            )
        budget.add("region array", 128 * 37)
        budget.add("global history", max(cfg.history_lengths))
        budget.add("path history", cfg.path_bits)
        budget.add("use-alt meta counter", cfg.use_alt_bits)
        return budget
