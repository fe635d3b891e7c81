"""Bit-level perceptron weight banks (§3.2).

Where a hashed perceptron trains a single weight per (table, row), BLBP
trains a K-length *vector* of weights — one per predicted target bit.
A :class:`WeightBank` is one such table: M rows of K sign/magnitude
weights, realized as one SRAM array in hardware (§3.7 notes the full
predictor needs only 8 such arrays, down from SNIP's 44).

:class:`FusedWeightBanks` holds all N banks in a single ``(N, rows, K)``
``int8`` tensor so the predictor's hot path touches NumPy once per
operation — one fancy-index gather for prediction, one masked
scatter-add for training — instead of looping over N bank objects.
The per-bank :class:`WeightBank` is kept as the readable single-table
reference (and the unit under test for the weight arithmetic); the
reference-equivalence suite pins the two representations to identical
behaviour.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.common.state import (
    Stateful,
    check_state,
    decode_array,
    encode_array,
    require,
)


class WeightBank(Stateful):
    """An M×K table of saturating sign/magnitude perceptron weights."""

    __slots__ = ("rows", "num_bits", "magnitude", "weights")

    def __init__(self, rows: int, num_bits: int, weight_bits: int) -> None:
        if rows < 1:
            raise ValueError(f"need >= 1 rows, got {rows}")
        if num_bits < 1:
            raise ValueError(f"need >= 1 weight positions, got {num_bits}")
        if weight_bits < 2:
            raise ValueError(f"weight_bits must be >= 2, got {weight_bits}")
        self.rows = rows
        self.num_bits = num_bits
        self.magnitude = (1 << (weight_bits - 1)) - 1
        self.weights = np.zeros((rows, num_bits), dtype=np.int8)

    def read(self, row: int) -> np.ndarray:
        """The K-length weight vector at ``row`` (a live view)."""
        return self.weights[row]

    def train(self, row: int, desired_bits: np.ndarray, train_mask: np.ndarray) -> None:
        """Nudge masked weights toward ``desired_bits`` (Algorithm 2).

        Weights for bit positions where ``train_mask`` holds move +1 when
        the actual target's bit is 1 and −1 when it is 0, saturating at
        ±magnitude.
        """
        vector = self.weights[row].astype(np.int16)
        delta = np.where(desired_bits, 1, -1)
        vector += np.where(train_mask, delta, 0)
        np.clip(vector, -self.magnitude, self.magnitude, out=vector)
        self.weights[row] = vector.astype(np.int8)

    def storage_bits(self, weight_bits: int) -> int:
        return self.rows * self.num_bits * weight_bits

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "WeightBank",
            "rows": self.rows,
            "num_bits": self.num_bits,
            "magnitude": self.magnitude,
            "weights": encode_array(self.weights),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "WeightBank")
        require(
            state["rows"] == self.rows
            and state["num_bits"] == self.num_bits
            and state["magnitude"] == self.magnitude,
            "WeightBank geometry mismatch",
        )
        weights = decode_array(state["weights"])
        require(
            weights.shape == self.weights.shape
            and weights.dtype == self.weights.dtype,
            "WeightBank tensor shape/dtype mismatch",
        )
        # In-place copy: callers may hold live views of the tensor.
        self.weights[...] = weights


class FusedWeightBanks(Stateful):
    """All N sub-predictor banks in one ``(N, rows, K)`` int8 tensor.

    ``gather(rows)`` returns the N selected weight vectors as one
    ``(N, K)`` matrix; ``train(rows, desired_bits, train_mask)`` applies
    Algorithm 2's masked ±1 saturating update to all N selected rows at
    once.  Per-element arithmetic is identical to N independent
    :class:`WeightBank` operations (int16 accumulate, clip to
    ±magnitude, int8 store), and bank b only ever touches plane b of
    the tensor, so the fused update cannot alias across banks.
    """

    __slots__ = ("num_banks", "rows", "num_bits", "magnitude", "weights",
                 "_bank_arange")

    def __init__(
        self, num_banks: int, rows: int, num_bits: int, weight_bits: int
    ) -> None:
        if num_banks < 1:
            raise ValueError(f"need >= 1 banks, got {num_banks}")
        if rows < 1:
            raise ValueError(f"need >= 1 rows, got {rows}")
        if num_bits < 1:
            raise ValueError(f"need >= 1 weight positions, got {num_bits}")
        if weight_bits < 2:
            raise ValueError(f"weight_bits must be >= 2, got {weight_bits}")
        self.num_banks = num_banks
        self.rows = rows
        self.num_bits = num_bits
        self.magnitude = (1 << (weight_bits - 1)) - 1
        self.weights = np.zeros((num_banks, rows, num_bits), dtype=np.int8)
        self._bank_arange = np.arange(num_banks)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """The ``(N, K)`` weight matrix selected by per-bank ``rows``."""
        return self.weights[self._bank_arange, rows]

    def train(
        self, rows: np.ndarray, desired_bits: np.ndarray, train_mask: np.ndarray
    ) -> None:
        """Masked saturating ±1 update of every bank's selected row."""
        selected = self.weights[self._bank_arange, rows].astype(np.int16)
        delta = np.where(desired_bits, 1, -1)
        selected += np.where(train_mask, delta, 0)
        np.clip(selected, -self.magnitude, self.magnitude, out=selected)
        self.weights[self._bank_arange, rows] = selected.astype(np.int8)

    def storage_bits(self, weight_bits: int) -> int:
        return self.num_banks * self.rows * self.num_bits * weight_bits

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "FusedWeightBanks",
            "num_banks": self.num_banks,
            "rows": self.rows,
            "num_bits": self.num_bits,
            "magnitude": self.magnitude,
            "weights": encode_array(self.weights),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        check_state(state, "FusedWeightBanks")
        require(
            state["num_banks"] == self.num_banks
            and state["rows"] == self.rows
            and state["num_bits"] == self.num_bits
            and state["magnitude"] == self.magnitude,
            "FusedWeightBanks geometry mismatch",
        )
        weights = decode_array(state["weights"])
        require(
            weights.shape == self.weights.shape
            and weights.dtype == self.weights.dtype,
            "FusedWeightBanks tensor shape/dtype mismatch",
        )
        # In-place copy: the columnar kernel mutates this tensor in place.
        self.weights[...] = weights
