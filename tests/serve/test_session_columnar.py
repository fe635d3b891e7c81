"""The serve layer's columnar fast path is bit-identical to stepping.

Event runs of at least ``COLUMNAR_STEP_THRESHOLD`` on columnar-supported
predictors replay through :func:`repro.sim.kernel.simulate_columnar_many`
(fused sessions as lanes over one shared precompute) with the RAS and
warmup/metric accounting swept session-side.  Every output, accumulator,
RAS state, and final ``state_hash`` must match per-event stepping
exactly — and runs that are short, mixed-depth, or hosting unsupported
predictors must never take the shortcut.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.serve import session as session_module
from repro.serve.session import (
    COLUMNAR_STEP_THRESHOLD,
    PredictorSession,
    step_sessions_fused,
)
from repro.trace.record import BranchType

#: The fast path exists only where the compiled replay cores do.
pytestmark = pytest.mark.usefixtures("compiled_cores")

_COLUMNAR_KEYS = ["BLBP", "ITTAGE", "VPC"]

Event = Tuple[int, int, bool, int, int]


def _events(seed: int, count: int) -> List[Event]:
    """A mixed event run: conditionals, indirects, calls, returns."""
    rng = random.Random(seed)
    pcs = [0x4000, 0x4008, 0x4040, 0x5000]
    targets = [0x10_0000, 0x10_0040, 0x10_0080, 0x11_0000]
    events: List[Event] = []
    depth = 0
    for _ in range(count):
        kind = rng.choice(
            ("ind", "ind", "icall", "cond", "cond", "ret", "dcall")
        )
        if kind == "ret" and depth == 0:
            kind = "cond"
        if kind == "cond":
            events.append(
                (0x900, int(BranchType.CONDITIONAL),
                 rng.random() < 0.5, 0x910, 1)
            )
        elif kind == "ind":
            events.append(
                (rng.choice(pcs), int(BranchType.INDIRECT_JUMP), True,
                 rng.choice(targets), 2)
            )
        elif kind == "icall":
            events.append(
                (rng.choice(pcs), int(BranchType.INDIRECT_CALL), True,
                 rng.choice(targets), 2)
            )
            depth += 1
        elif kind == "dcall":
            events.append(
                (0x7000, int(BranchType.DIRECT_CALL), True,
                 rng.choice(targets), 1)
            )
            depth += 1
        else:
            events.append(
                (0x8000, int(BranchType.RETURN), True,
                 rng.choice(targets), 1)
            )
            depth -= 1
    return events


def _solo_outputs(key, events, warmup=0, ras_depth=32):
    """Per-event stepping — the scalar reference call sequence."""
    session = PredictorSession(
        "s", key, warmup_records=warmup, ras_depth=ras_depth
    )
    outputs = [session.step(*event) for event in events]
    return session, outputs


def _assert_sessions_match(fast, reference):
    assert fast.result() == reference.result()
    assert fast.cursor == reference.cursor
    assert fast.skip == reference.skip
    assert fast.instruction_gaps == reference.instruction_gaps
    assert fast.ras.state_dict() == reference.ras.state_dict()
    assert fast.state_hash() == reference.state_hash()


def _spy_columnar(monkeypatch):
    """Record each fast-path attempt's success; delegate to the real one."""
    attempts = []
    original = session_module._step_sessions_columnar

    def spy(sessions, events):
        outputs = original(sessions, events)
        attempts.append(outputs is not None)
        return outputs

    monkeypatch.setattr(session_module, "_step_sessions_columnar", spy)
    return attempts


class TestStepEventsParity:
    @pytest.mark.parametrize("key", _COLUMNAR_KEYS)
    def test_long_run_matches_per_event_stepping(self, key, monkeypatch):
        attempts = _spy_columnar(monkeypatch)
        events = _events(1, COLUMNAR_STEP_THRESHOLD + 64)
        fast = PredictorSession("s", key)
        reference, expected = _solo_outputs(key, events)
        outputs = fast.step_events(events)
        assert attempts == [True], "the columnar shortcut did not run"
        assert outputs == expected
        _assert_sessions_match(fast, reference)

    @pytest.mark.parametrize("key", _COLUMNAR_KEYS)
    def test_warmup_accounting(self, key):
        """Warmup events are consumed but not counted — the sweep must
        track the per-event countdown exactly."""
        warmup = COLUMNAR_STEP_THRESHOLD // 2
        events = _events(2, COLUMNAR_STEP_THRESHOLD + 32)
        fast = PredictorSession("s", key, warmup_records=warmup)
        reference, expected = _solo_outputs(key, events, warmup=warmup)
        outputs = fast.step_events(events)
        assert outputs == expected
        _assert_sessions_match(fast, reference)

    def test_short_run_stays_scalar(self, monkeypatch):
        attempts = _spy_columnar(monkeypatch)
        events = _events(3, COLUMNAR_STEP_THRESHOLD - 1)
        fast = PredictorSession("s", "BLBP")
        reference, expected = _solo_outputs("BLBP", events)
        outputs = fast.step_events(events)
        assert attempts == [], "a sub-threshold run took the shortcut"
        assert outputs == expected
        _assert_sessions_match(fast, reference)

    def test_unsupported_predictor_stays_scalar(self, monkeypatch):
        attempts = _spy_columnar(monkeypatch)
        events = _events(4, COLUMNAR_STEP_THRESHOLD + 16)
        fast = PredictorSession("s", "BTB")
        reference, expected = _solo_outputs("BTB", events)
        outputs = fast.step_events(events)
        assert attempts == []
        assert outputs == expected
        _assert_sessions_match(fast, reference)

    def test_mid_stream_shortcut(self):
        """A session already warm from scalar stepping must continue
        bit-identically through a columnar run (live RAS, live tables)."""
        for key in _COLUMNAR_KEYS:
            lead_in = _events(5, 100)
            long_run = _events(6, COLUMNAR_STEP_THRESHOLD + 16)
            fast = PredictorSession("s", key)
            reference = PredictorSession("s", key)
            for event in lead_in:
                fast.step(*event)
                reference.step(*event)
            expected = [reference.step(*event) for event in long_run]
            outputs = fast.step_events(long_run)
            assert outputs == expected, key
            _assert_sessions_match(fast, reference)


class TestFusedStepParity:
    def test_fused_sessions_match_solo(self, monkeypatch):
        attempts = _spy_columnar(monkeypatch)
        events = _events(7, COLUMNAR_STEP_THRESHOLD + 32)
        keys = ["BLBP", "BLBP", "ITTAGE", "VPC"]
        fused = [PredictorSession("s", key) for key in keys]
        outputs = step_sessions_fused(fused, events)
        assert attempts == [True]
        for slot, key in enumerate(keys):
            reference, expected = _solo_outputs(key, events)
            assert outputs[slot] == expected, f"lane {slot} ({key})"
            _assert_sessions_match(fused[slot], reference)

    def test_mixed_ras_depth_stays_scalar(self, monkeypatch):
        """Sessions with differing RAS depths cannot share one derived
        plane; the fused pass must step them scalar — and still match."""
        attempts = _spy_columnar(monkeypatch)
        events = _events(8, COLUMNAR_STEP_THRESHOLD + 16)
        fused = [
            PredictorSession("s", "BLBP", ras_depth=32),
            PredictorSession("s", "BLBP", ras_depth=16),
        ]
        outputs = step_sessions_fused(fused, events)
        assert attempts == []
        for slot, depth in enumerate((32, 16)):
            reference, expected = _solo_outputs(
                "BLBP", events, ras_depth=depth
            )
            assert outputs[slot] == expected
            _assert_sessions_match(fused[slot], reference)

    def test_mixed_support_stays_scalar(self, monkeypatch):
        attempts = _spy_columnar(monkeypatch)
        events = _events(9, COLUMNAR_STEP_THRESHOLD + 16)
        fused = [
            PredictorSession("s", "BLBP"),
            PredictorSession("s", "BTB"),
        ]
        outputs = step_sessions_fused(fused, events)
        assert attempts == []
        for slot, key in enumerate(("BLBP", "BTB")):
            reference, expected = _solo_outputs(key, events)
            assert outputs[slot] == expected
            _assert_sessions_match(fused[slot], reference)
