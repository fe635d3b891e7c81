"""Span recording for the benchmark's traced runs.

The benchmark measures the program from outside.  A traced run replaces
the public callables each layer is looked up through at run time (module
attributes and class methods) with timing wrappers, records one span
per call -- id, parent id, name, start, end, request id and optional
data -- in memory, and writes the spans out as JSON lines when the run
ends.  Untraced runs install nothing, so they pay nothing.

A layer's *self time* is its spans' duration minus the part of that
interval covered by its child spans.  Parents are tracked per thread,
which matches how the program nests calls: the campaign engine is
single-threaded, the distributed scheduler runs one thread per node, and
the server's wrapped calls are synchronous sections of its event loop.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One span: (id, parent id or 0, name, start, end, request id, data).
Span = Tuple[int, int, str, float, float, str, Optional[Dict[str, Any]]]

perf = time.perf_counter


class NullTracer:
    """The tracer of untraced runs and passes: every hook is a no-op."""

    def span(self, name: str, ident: str = ""):
        return nullcontext()

    def patched(self, targets: Iterable[tuple]):
        return nullcontext()


NULL = NullTracer()


class Tracer:
    """Collects spans from the benchmark's own code and from wrappers."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        start: float,
        end: float,
        ident: str = "",
        data: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Add a span measured elsewhere (e.g. a queue wait)."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        self.spans.append((next(self._ids), parent, name, start, end, ident, data))

    @contextmanager
    def span(self, name: str, ident: str = ""):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf()
        try:
            yield
        finally:
            end = perf()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, ident, None))

    def timed(
        self,
        name: str,
        fn: Callable,
        ident: Optional[Callable] = None,
        data: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped to record one span per call.

        ``ident(args)`` and ``data(args, result)`` pull the request id
        and span data out of the call; both run outside the timed part.
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        ident(args) if ident else "",
                        data(args, result) if data else None,
                    )
                )

        return wrapper

    @contextmanager
    def patched(self, targets: Iterable[tuple]):
        """Install wrappers for the duration of the block.

        Each target is ``(owner, attribute, make_wrapper)`` where
        ``make_wrapper(original)`` returns the replacement; the original
        attributes are restored on exit, so the next untraced pass runs
        the program's own callables again.
        """
        saved = []
        try:
            for owner, attribute, make_wrapper in targets:
                original = vars(owner)[attribute]
                saved.append((owner, attribute, original))
                setattr(owner, attribute, make_wrapper(original))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


def write_spans(spans: List[Span], path: Path) -> None:
    """Write every span as one JSON line, request ids inherited."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in resolve_idents(spans):
            handle.write(json.dumps(span_to_json(span)) + "\n")


def span_to_json(span: Span) -> Dict[str, Any]:
    span_id, parent, name, start, end, ident, data = span
    row = {
        "id": span_id,
        "parent": parent,
        "name": name,
        "start": start,
        "end": end,
        "ident": ident,
    }
    if data:
        row["data"] = data
    return row


def span_from_json(row: Dict[str, Any]) -> Span:
    return (
        row["id"],
        row["parent"],
        row["name"],
        row["start"],
        row["end"],
        row.get("ident", ""),
        row.get("data"),
    )


def read_spans(path: Path) -> List[Span]:
    with open(path, "r", encoding="utf-8") as handle:
        return [span_from_json(json.loads(line)) for line in handle if line.strip()]


def resolve_idents(spans: List[Span]) -> List[Span]:
    """Spans whose empty request id is inherited from the nearest parent."""
    by_id = {span[0]: span for span in spans}
    resolved = []
    for span in spans:
        ident = span[5]
        parent = span[1]
        while not ident and parent in by_id:
            ident = by_id[parent][5]
            parent = by_id[parent][1]
        resolved.append(span[:5] + (ident, span[6]))
    return resolved


class LayerTime:
    """Total and self seconds, and call count, of one span name."""

    __slots__ = ("total", "self", "calls")

    def __init__(self) -> None:
        self.total = 0.0
        self.self = 0.0
        self.calls = 0


def layer_times(spans: Iterable[Span]) -> Dict[str, LayerTime]:
    """Per-name totals and self times over ``spans``."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for span_id, parent, _, start, end, _, _ in spans:
        if parent:
            covered[parent] += end - start
    times: Dict[str, LayerTime] = defaultdict(LayerTime)
    for span_id, _, name, start, end, _, _ in spans:
        entry = times[name]
        entry.total += end - start
        entry.self += end - start - covered[span_id]
        entry.calls += 1
    return times


def within(spans: Iterable[Span], windows: List[Tuple[float, float]]) -> List[Span]:
    """Spans that start inside one of ``windows`` (same monotonic clock)."""
    return [
        span
        for span in spans
        if any(low <= span[3] <= high for low, high in windows)
    ]
