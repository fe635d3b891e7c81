"""``python -m repro serve`` with the benchmark's span wrappers installed.

Usage: ``serve_traced.py SPANS_PATH serve [repro serve options]``.  The
wrappers record spans in memory for the life of the server; they are
written to ``SPANS_PATH`` as JSON lines when the server exits (it drains
and exits on SIGTERM).
"""

from __future__ import annotations

import sys
from pathlib import Path

import layers
from spans import Tracer, write_spans


def main(argv: list) -> int:
    from repro.cli import main as repro_main

    spans_path = Path(argv[0])
    tracer = Tracer()
    with tracer.patched(layers.serve_targets(tracer)):
        try:
            return repro_main(argv[1:])
        finally:
            write_spans(tracer.spans, spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
