"""Mid-trace simulation checkpoints.

A :class:`SimulationCheckpoint` freezes everything
:func:`repro.sim.engine.simulate` needs to continue a run from inside a
trace: the predictor's architectural state (its ``state_dict()``), the
return-address stack, the record cursor, the remaining warmup skip, and
the metric accumulators.  Restoring one into a fresh process and
replaying the rest of the trace is per-branch identical to never having
stopped — the equivalence suite asserts exactly that.

Checkpoints are JSON documents under the same versioned envelope as
predictor snapshots (see ``docs/checkpointing.md``).  Writes are atomic
(temp file + ``os.replace``) so a worker killed mid-write leaves the
previous checkpoint intact; loads are tolerant — a missing or unreadable
file means "start from the beginning", never a crash, because a
checkpoint is an optimization, not a source of truth.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.common.state import (
    StateError,
    canonical_json,
    check_state,
    hash_state,
    require,
)
from repro.trace.plane import atomic_write_bytes

#: Default records-between-checkpoints for ``--checkpoint-every``.
DEFAULT_CHECKPOINT_INTERVAL = 100_000

#: The cursor and accumulator fields, each a count that must be >= 0.
_COUNT_KEYS = (
    "cursor",
    "skip",
    "indirect",
    "mispredictions",
    "returns",
    "return_mispredictions",
    "conditionals",
)


@dataclass
class SimulationCheckpoint:
    """A resumable point inside one (predictor, trace) simulation."""

    trace_name: str
    predictor_name: str
    #: Records consumed so far (the next record to replay).
    cursor: int
    #: Remaining warmup records whose mispredictions are not counted.
    skip: int
    indirect: int
    mispredictions: int
    returns: int
    return_mispredictions: int
    conditionals: int
    by_pc: Dict[int, int] = field(default_factory=dict)
    ras: Dict[str, Any] = field(default_factory=dict)
    predictor: Dict[str, Any] = field(default_factory=dict)

    def state_dict(self) -> Dict[str, Any]:
        return {
            "v": 1,
            "kind": "SimulationCheckpoint",
            "trace_name": self.trace_name,
            "predictor_name": self.predictor_name,
            "cursor": self.cursor,
            "skip": self.skip,
            "indirect": self.indirect,
            "mispredictions": self.mispredictions,
            "returns": self.returns,
            "return_mispredictions": self.return_mispredictions,
            "conditionals": self.conditionals,
            "by_pc": {str(pc): count for pc, count in self.by_pc.items()},
            "ras": self.ras,
            "predictor": self.predictor,
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "SimulationCheckpoint":
        check_state(state, "SimulationCheckpoint")
        # A negative count would replay wrongly rather than fail: a
        # negative ``skip`` never reaches zero, so nothing after the
        # resume point would ever be counted.
        counts = {key: int(state[key]) for key in _COUNT_KEYS}
        for key, value in counts.items():
            require(value >= 0, f"checkpoint {key} must be >= 0, got {value}")
        by_pc = {int(pc): int(count) for pc, count in state["by_pc"].items()}
        for pc, count in by_pc.items():
            require(
                count >= 0,
                f"checkpoint by_pc count for {pc:#x} must be >= 0, "
                f"got {count}",
            )
        return cls(
            trace_name=state["trace_name"],
            predictor_name=state["predictor_name"],
            by_pc=by_pc,
            ras=state["ras"],
            predictor=state["predictor"],
            **counts,
        )

    def checkpoint_hash(self) -> str:
        """Canonical SHA-256 of the whole checkpoint document."""
        return hash_state(self.state_dict())


def save_checkpoint(
    checkpoint: SimulationCheckpoint, path: Union[str, Path]
) -> None:
    """Atomically write ``checkpoint`` to ``path``.

    The document lands via a temp file in the same directory plus
    ``os.replace``, so readers only ever see a complete checkpoint —
    a SIGKILL mid-write leaves the previous one in place.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = canonical_json(checkpoint.state_dict())
    atomic_write_bytes(path, payload.encode("utf-8"))


def load_checkpoint(
    path: Union[str, Path]
) -> Optional[SimulationCheckpoint]:
    """Load a checkpoint, or ``None`` when absent or unreadable.

    A checkpoint file is a pure optimization: if it is missing, damaged,
    or from an incompatible protocol version, the caller restarts the
    simulation from record zero instead of failing.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "r") as handle:
            state = json.load(handle)
        return SimulationCheckpoint.from_state(state)
    except (OSError, ValueError, KeyError, TypeError, StateError):
        return None


def discard_checkpoint(path: Union[str, Path]) -> None:
    """Remove a checkpoint file if present (end-of-cell cleanup)."""
    try:
        os.unlink(path)
    except OSError:
        pass


__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "SimulationCheckpoint",
    "discard_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
]
