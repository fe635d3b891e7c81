"""Shared fixtures: small deterministic traces and predictor factories."""

from __future__ import annotations

import subprocess
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Tuple

import numpy as np
import pytest

from repro.sim import native
from repro.sim.engine import BACKENDS
from repro.trace.record import BranchRecord, BranchType
from repro.trace.stream import Trace
from repro.workloads import (
    CallReturnSpec,
    InterpreterSpec,
    SwitchCaseSpec,
    VirtualDispatchSpec,
)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_trace() -> Trace:
    """A hand-written trace exercising every branch type."""
    records = [
        BranchRecord(0x1000, BranchType.CONDITIONAL, True, 0x1010, inst_gap=3),
        BranchRecord(0x1010, BranchType.DIRECT_CALL, True, 0x2000, inst_gap=1),
        BranchRecord(0x2040, BranchType.CONDITIONAL, False, 0x2044, inst_gap=2),
        BranchRecord(0x2080, BranchType.RETURN, True, 0x1014, inst_gap=0),
        BranchRecord(0x1020, BranchType.INDIRECT_CALL, True, 0x3000, inst_gap=4),
        BranchRecord(0x3080, BranchType.RETURN, True, 0x1024, inst_gap=1),
        BranchRecord(0x1030, BranchType.INDIRECT_JUMP, True, 0x4000, inst_gap=2),
        BranchRecord(0x4000, BranchType.DIRECT_JUMP, True, 0x1000, inst_gap=0),
    ]
    return Trace.from_records("tiny", records)


@pytest.fixture
def vdispatch_trace() -> Trace:
    return VirtualDispatchSpec(
        name="vd-test", seed=7, num_records=4000, num_types=4, num_sites=2,
        determinism=0.95, filler_conditionals=6,
    ).generate()


@pytest.fixture
def switchcase_trace() -> Trace:
    return SwitchCaseSpec(
        name="sw-test", seed=8, num_records=4000, num_cases=8,
        determinism=0.95, filler_conditionals=6,
    ).generate()


@pytest.fixture
def interpreter_trace() -> Trace:
    return InterpreterSpec(
        name="in-test", seed=9, num_records=4000, num_opcodes=12,
        program_length=20, filler_conditionals=4,
    ).generate()


@pytest.fixture
def callret_trace() -> Trace:
    return CallReturnSpec(
        name="cr-test", seed=10, num_records=4000, filler_conditionals=6,
    ).generate()


@pytest.fixture(scope="session")
def compiled_cores() -> None:
    """Skip tests that need the compiled replay cores when they cannot
    be built here; every columnar replay runs through them."""
    reason = native.unavailable_reason()
    if reason is not None:
        pytest.skip(f"compiled replay cores unavailable: {reason}")


@pytest.fixture(scope="session")
def backends() -> Tuple[str, ...]:
    """The backends a test runs against the scalar oracle: both where
    the compiled replay cores build, else scalar alone (a columnar run
    would only replay the scalar fallback)."""
    if native.unavailable_reason() is None:
        return BACKENDS
    return ("scalar",)


def _reset_loader(monkeypatch) -> None:
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_attempted", False)
    monkeypatch.setattr(native, "_fns", {})
    monkeypatch.setattr(native, "_failure", None)


def _fail_next_build(monkeypatch, directory: Path) -> str:
    """Make the loader's next build find ``cc`` but fail to compile;
    returns the reason the loader must report."""
    bin_dir = directory / "bin"
    bin_dir.mkdir()
    compiler = bin_dir / "cc"
    compiler.write_text("#!/bin/sh\nexit 1\n")
    compiler.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("XDG_CACHE_HOME", str(directory / "cache"))
    stderr = b"replay.c:3:1: error: unknown type name 'int64_t'\nmore\n"

    def failing_run(cmd, capture_output=True, timeout=None):
        return subprocess.CompletedProcess(cmd, 1, b"", stderr)

    monkeypatch.setattr(native.subprocess, "run", failing_run)
    return (
        "cc exited with status 1: "
        "replay.c:3:1: error: unknown type name 'int64_t'"
    )


@pytest.fixture
def fresh_loader(monkeypatch) -> None:
    """A pristine compiled-core loader state; monkeypatch restores the
    real one afterwards."""
    _reset_loader(monkeypatch)


@pytest.fixture
def failed_build(fresh_loader, monkeypatch, tmp_path) -> str:
    """A loader whose next build finds ``cc`` but fails to compile.

    ``cc`` is a stub on a private ``PATH`` and ``subprocess.run`` is
    replaced, so nothing is compiled.  Returns the reason the loader
    must report.
    """
    return _fail_next_build(monkeypatch, tmp_path)


@pytest.fixture(scope="session")
def failing_build(tmp_path_factory):
    """A context manager that does what ``failed_build`` does and puts
    the real loader back on exit, for a test that needs sessions on
    both step paths (and for hypothesis tests, which cannot take
    function-scoped fixtures).  It yields the reason."""

    @contextmanager
    def failing() -> Iterator[str]:
        with pytest.MonkeyPatch.context() as monkeypatch:
            _reset_loader(monkeypatch)
            yield _fail_next_build(
                monkeypatch, tmp_path_factory.mktemp("failed-build")
            )

    return failing
