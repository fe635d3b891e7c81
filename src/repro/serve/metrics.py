"""Server-side metrics: the numbers behind the ``/stats`` endpoint.

The serve layer's observability surface, kept deliberately allocation
light — counters bump on the hot path, so everything here is integer
arithmetic plus one small deque for the recent-throughput window.
Aggregates reported:

* **session lifecycle** — opened / resumed / rehydrated / evicted /
  closed counts, plus live-resident and on-disk gauges filled in by the
  session manager at snapshot time;
* **event throughput** — cumulative events and events/sec, plus a
  sliding-window rate over the last few seconds (the number a load test
  watches);
* **batching** — batches drained, mean events and sessions per batch
  (batch occupancy), and how many session-steps went through the fused
  cross-session path;
* **step paths** — session-steps on the compiled cores and on the
  scalar calls, with the reason each scalar predictor key gave, so no
  session swaps paths silently;
* **close** — cumulative seconds spent finalizing sessions (the
  ``state_hash`` each ``closed`` reply carries);
* **per-session MPKI** — optionally included in a snapshot for every
  resident session (``stats`` with ``sessions: true``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple

#: Seconds of history kept for the sliding-window event rate.
RATE_WINDOW_SECONDS = 10.0


class ServerMetrics:
    """Mutable counters shared by the session manager and batchers."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self.started_at = clock()
        # Session lifecycle.
        self.sessions_opened = 0
        self.sessions_resumed = 0
        self.sessions_rehydrated = 0
        self.sessions_evicted = 0
        self.sessions_closed = 0
        # Events and batching.
        self.events_total = 0
        self.batches = 0
        self.batch_events = 0
        self.batch_sessions = 0
        self.fused_sessions = 0
        self.fused_groups = 0
        self.protocol_errors = 0
        # Step paths and close cost.
        self.core_steps = 0
        self.scalar_steps = 0
        self.scalar_reasons: Dict[str, str] = {}
        self.close_seconds = 0.0
        self._recent: Deque[Tuple[float, int]] = deque()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_batch(
        self, events: int, sessions: int, fused_sessions: int, fused_groups: int
    ) -> None:
        """Account one drained micro-batch."""
        now = self._clock()
        self.batches += 1
        self.batch_events += events
        self.batch_sessions += sessions
        self.fused_sessions += fused_sessions
        self.fused_groups += fused_groups
        self.events_total += events
        self._recent.append((now, events))
        horizon = now - RATE_WINDOW_SECONDS
        while self._recent and self._recent[0][0] < horizon:
            self._recent.popleft()

    def record_step(self, predictor_key: str, path: str, why: str) -> None:
        """Account one session-step on ``path`` (``core`` or ``scalar``)."""
        if path == "core":
            self.core_steps += 1
        else:
            self.scalar_steps += 1
            self.scalar_reasons.setdefault(predictor_key, why)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def recent_events_per_second(self) -> float:
        """Event rate over the sliding window (0.0 when idle)."""
        if not self._recent:
            return 0.0
        now = self._clock()
        horizon = now - RATE_WINDOW_SECONDS
        events = sum(count for stamp, count in self._recent if stamp >= horizon)
        span = min(RATE_WINDOW_SECONDS, max(now - self._recent[0][0], 1e-9))
        return events / span

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of every aggregate."""
        elapsed = max(self._clock() - self.started_at, 1e-9)
        return {
            "uptime_seconds": round(elapsed, 3),
            "sessions": {
                "opened": self.sessions_opened,
                "resumed": self.sessions_resumed,
                "rehydrated": self.sessions_rehydrated,
                "evicted": self.sessions_evicted,
                "closed": self.sessions_closed,
            },
            "events": {
                "total": self.events_total,
                "per_second": round(self.events_total / elapsed, 2),
                "recent_per_second": round(self.recent_events_per_second(), 2),
            },
            "batching": {
                "batches": self.batches,
                "mean_events_per_batch": round(
                    self.batch_events / self.batches, 2
                ) if self.batches else 0.0,
                "mean_sessions_per_batch": round(
                    self.batch_sessions / self.batches, 2
                ) if self.batches else 0.0,
                "fused_sessions": self.fused_sessions,
                "fused_groups": self.fused_groups,
                "fused_share": round(
                    self.fused_sessions / self.batch_sessions, 4
                ) if self.batch_sessions else 0.0,
            },
            "steps": {
                "core": self.core_steps,
                "scalar": self.scalar_steps,
                "scalar_reasons": dict(self.scalar_reasons),
            },
            "close_seconds": round(self.close_seconds, 6),
            "protocol_errors": self.protocol_errors,
        }


__all__ = ["RATE_WINDOW_SECONDS", "ServerMetrics"]
