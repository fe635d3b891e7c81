"""A reduced multiperspective perceptron predictor (MPP).

The paper implements VPC on top of Jiménez's 64 KB multiperspective
perceptron predictor, which combines 37 features (global history
segments, paths, local histories, recency stacks, ...).  Reproducing all
37 features adds little to this study — VPC's behaviour is dominated by
the devirtualization algorithm, not the last percent of its conditional
predictor — so this MPP keeps the three feature families that carry most
of the weight in the published ablations:

* **global-history segments** at geometric lengths (as in the hashed
  perceptron);
* **path history** folds at several depths;
* **per-branch local history**;
* a **bias** table indexed by PC alone.

The deviation is recorded in DESIGN.md §5.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.common.hashing import fold_int, mix_pc
from repro.common.history import GlobalHistory, LocalHistoryTable, PathHistory
from repro.common.state import check_state, decode_array, encode_array, require
from repro.common.storage import StorageBudget
from repro.cond.base import ConditionalPredictor
from repro.cond.hashed_perceptron import AdaptiveThreshold

#: (kind, parameter) feature descriptors for the default configuration.
#: kinds: "bias", "ghist" (parameter = history length), "path"
#: (parameter = fold depth), "local" (parameter ignored).
DEFAULT_FEATURES: Tuple[Tuple[str, int], ...] = (
    ("bias", 0),
    ("ghist", 4),
    ("ghist", 10),
    ("ghist", 24),
    ("ghist", 55),
    ("ghist", 120),
    ("ghist", 256),
    ("path", 8),
    ("path", 24),
    ("local", 0),
)


class MultiperspectivePerceptron(ConditionalPredictor):
    """Perceptron predictor over heterogeneous history features."""

    def __init__(
        self,
        features: Sequence[Tuple[str, int]] = DEFAULT_FEATURES,
        index_bits: int = 12,
        weight_bits: int = 6,
        local_entries: int = 512,
        local_bits: int = 11,
    ) -> None:
        if not features:
            raise ValueError("need at least one feature")
        for kind, parameter in features:
            if kind not in ("bias", "ghist", "path", "local"):
                raise ValueError(f"unknown feature kind {kind!r}")
            if kind == "ghist" and parameter < 0:
                raise ValueError(
                    f"ghist feature length must be >= 0, got {parameter}"
                )
            if kind == "path" and parameter < 1:
                raise ValueError(
                    f"path feature depth must be >= 1, got {parameter}"
                )
        if index_bits < 1:
            raise ValueError(f"index_bits must be >= 1, got {index_bits}")
        # The weight tables are int8: wider weights would overflow them.
        if not 2 <= weight_bits <= 8:
            raise ValueError(
                f"weight_bits must be in [2, 8] (int8 weight tables), "
                f"got {weight_bits}"
            )
        self.features = tuple(features)
        self.index_bits = index_bits
        self.weight_bits = weight_bits
        self._rows = 1 << index_bits
        self._index_mask = self._rows - 1
        self._weight_max = (1 << (weight_bits - 1)) - 1
        self._weight_min = -(1 << (weight_bits - 1))
        self._tables = [np.zeros(self._rows, dtype=np.int8) for _ in self.features]

        max_ghist = max(
            [parameter for kind, parameter in features if kind == "ghist"],
            default=1,
        )
        max_path = max(
            [parameter for kind, parameter in features if kind == "path"],
            default=1,
        )
        self._ghist = GlobalHistory(max(max_ghist, 1))
        self._path = PathHistory(max(max_path, 1))
        self._local = LocalHistoryTable(local_entries, local_bits)
        self._threshold = AdaptiveThreshold(
            initial_theta=int(2.14 * len(features) + 20)
        )

    def _indices(self, pc: int) -> List[int]:
        pc_hash = mix_pc(pc)
        ghist_value = self._ghist.value()
        indices = []
        for position, (kind, parameter) in enumerate(self.features):
            if kind == "bias":
                folded = 0
            elif kind == "ghist":
                folded = fold_int(ghist_value, parameter, self.index_bits)
            elif kind == "path":
                folded = self._path.folded(parameter, self.index_bits)
            else:  # local
                folded = fold_int(
                    self._local.read(pc), self._local.history_bits, self.index_bits
                )
            index = (pc_hash ^ (pc_hash >> (position + 3)) ^ folded) & self._index_mask
            indices.append(index)
        return indices

    def _sum(self, indices: Sequence[int]) -> int:
        return int(
            sum(int(table[index]) for table, index in zip(self._tables, indices))
        )

    def predict(self, pc: int) -> bool:
        return self._sum(self._indices(pc)) >= 0

    def _train(self, pc: int, taken: bool) -> None:
        indices = self._indices(pc)
        total = self._sum(indices)
        prediction = total >= 0
        mispredicted = prediction != taken
        below_threshold = abs(total) < self._threshold.theta
        if mispredicted or below_threshold:
            for table, index in zip(self._tables, indices):
                weight = int(table[index])
                if taken and weight < self._weight_max:
                    table[index] = weight + 1
                elif not taken and weight > self._weight_min:
                    table[index] = weight - 1
        self._threshold.observe(mispredicted, not mispredicted and below_threshold)

    def update(self, pc: int, taken: bool) -> None:
        self._train(pc, taken)
        self._ghist.push(taken)
        self._path.push(pc)
        self._local.push(pc, int(taken))

    def train_weights(self, pc: int, taken: bool) -> None:
        self._train(pc, taken)

    def state_dict(self) -> dict:
        return {
            "v": 1,
            "kind": "MultiperspectivePerceptron",
            "features": [list(feature) for feature in self.features],
            "index_bits": self.index_bits,
            "weight_bits": self.weight_bits,
            "tables": [encode_array(table) for table in self._tables],
            "ghist": self._ghist.state_dict(),
            "path": self._path.state_dict(),
            "local": self._local.state_dict(),
            "threshold": self._threshold.state_dict(),
        }

    def load_state(self, state: dict) -> None:
        check_state(state, "MultiperspectivePerceptron")
        require(
            tuple(tuple(feature) for feature in state["features"])
            == self.features
            and state["index_bits"] == self.index_bits
            and state["weight_bits"] == self.weight_bits,
            "MultiperspectivePerceptron geometry mismatch",
        )
        require(
            len(state["tables"]) == len(self._tables),
            "MultiperspectivePerceptron table count mismatch",
        )
        tables = [decode_array(payload) for payload in state["tables"]]
        for table, current in zip(tables, self._tables):
            require(
                table.shape == current.shape and table.dtype == current.dtype,
                "MultiperspectivePerceptron table mismatch",
            )
        self._tables = tables
        self._ghist.load_state(state["ghist"])
        self._path.load_state(state["path"])
        self._local.load_state(state["local"])
        self._threshold.load_state(state["threshold"])

    def storage_budget(self) -> StorageBudget:
        budget = StorageBudget("multiperspective perceptron")
        for kind, parameter in self.features:
            budget.add_table(
                f"weights ({kind} {parameter})", self._rows, self.weight_bits
            )
        budget.add("global history", self._ghist.capacity)
        budget.add("path history", self._path.depth * self._path.bits_per_pc)
        budget.add("local histories", self._local.storage_bits())
        budget.add("adaptive threshold", 7 + 8)
        return budget
