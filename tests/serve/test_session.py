"""Session-layer equivalence: the serve state machine vs the engine.

The whole serve subsystem rests on one guarantee: a
:class:`PredictorSession` fed a trace's events finishes bit-identical to
:func:`repro.sim.engine.simulate` on that trace, and suspending the
session at *any* event boundary (checkpoint → JSON → rehydrate) does not
perturb that.  These tests pin the guarantee directly, for several
registered predictor kinds, with the suspend point chosen by hypothesis.
Solo and fused stepping run the same code; the chunk-size matrix pins
both against ``simulate`` on a mixed call/return stream, and checks that
BLBP and ITTAGE sessions stepped on their compiled cores.
"""

import functools
import json
import random
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry import make_indirect
from repro.serve import session as session_module
from repro.serve.protocol import trace_events
from repro.serve.session import (
    SESSION_CHECKPOINT_KIND,
    PredictorSession,
    SessionError,
    step_sessions_fused,
)
from repro.sim import kernel, kernel_ittage, native
from repro.sim.engine import simulate
from repro.trace.record import BranchType
from repro.trace.stream import Trace
from repro.workloads.vdispatch import VirtualDispatchSpec

#: Predictor kinds the equivalence property runs over (≥ 3, spanning
#: table-based, TAGE-like, and perceptron-based designs).
KINDS = ["BTB", "TargetCache", "VPC", "ITTAGE", "BLBP"]


def _trace(seed=11, num_records=160):
    return VirtualDispatchSpec(
        name=f"serve-session-{seed}",
        seed=seed,
        num_records=num_records,
        num_sites=4,
        num_types=4,
        determinism=0.8,
        filler_conditionals=4,
    ).generate()


Event = Tuple[int, int, bool, int, int]


def _mixed_events(seed: int, count: int) -> List[Event]:
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


def _events_trace(name: str, events: List[Event]) -> Trace:
    pcs, types, takens, targets, gaps = zip(*events)
    return Trace(
        name=name,
        pcs=np.array(pcs, dtype=np.uint64),
        types=np.array(types, dtype=np.uint8),
        takens=np.array(takens, dtype=bool),
        targets=np.array(targets, dtype=np.uint64),
        gaps=np.array(gaps, dtype=np.uint32),
    )


def _assert_matches_simulate(session, trace, warmup=0):
    """The session's result and state hash equal a direct simulate."""
    reference = make_indirect(session.predictor_key)
    result = simulate(reference, trace, warmup_records=warmup)
    _assert_matches_result(session, result, reference.state_hash())


def _assert_matches_result(session, result, state_hash):
    ours = session.result()
    assert ours.total_instructions == result.total_instructions
    assert ours.indirect_branches == result.indirect_branches
    assert ours.indirect_mispredictions == result.indirect_mispredictions
    assert ours.return_branches == result.return_branches
    assert ours.return_mispredictions == result.return_mispredictions
    assert ours.conditional_branches == result.conditional_branches
    assert session.state_hash() == state_hash


class TestEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    def test_streaming_matches_simulate(self, kind):
        trace = _trace()
        session = PredictorSession("s", kind)
        session.step_events(trace_events(trace))
        _assert_matches_simulate(session, trace)

    @pytest.mark.parametrize("kind", ["BLBP", "ITTAGE"])
    def test_warmup_matches_simulate(self, kind):
        trace = _trace(seed=13)
        session = PredictorSession("s", kind, warmup_records=40)
        session.step_events(trace_events(trace))
        _assert_matches_simulate(session, trace, warmup=40)

    @pytest.mark.parametrize("kind", KINDS)
    def test_chunked_streaming_equals_one_shot(self, kind):
        events = trace_events(_trace(seed=17))
        one_shot = PredictorSession("a", kind)
        outputs_one = one_shot.step_events(events)
        chunked = PredictorSession("b", kind)
        outputs_chunks = []
        for start in range(0, len(events), 13):
            outputs_chunks.extend(
                chunked.step_events(events[start : start + 13])
            )
        assert outputs_one == outputs_chunks
        assert one_shot.state_hash() == chunked.state_hash()


class TestSuspendResume:
    """Satellite 3: open → stream → evict → rehydrate → stream is
    bit-identical to the uninterrupted run, across predictor kinds."""

    @given(
        kind=st.sampled_from(["BLBP", "ITTAGE", "BTB"]),
        cut=st.integers(min_value=0, max_value=160),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_suspend_anywhere_is_invisible(self, kind, cut, seed):
        trace = _trace(seed=seed)
        events = trace_events(trace)
        cut = min(cut, len(events))

        control = PredictorSession("ctl", kind)
        control_out = control.step_events(events)

        probe = PredictorSession("ctl", kind)
        head = probe.step_events(events[:cut])
        # Evict: checkpoint through JSON exactly as the session store
        # writes it, then rehydrate into a fresh object.
        document = json.loads(json.dumps(probe.checkpoint()))
        resumed = PredictorSession.from_checkpoint(document)
        tail = resumed.step_events(events[cut:])

        assert head + tail == control_out
        assert resumed.state_hash() == control.state_hash()
        assert resumed.result() == control.result()
        _assert_matches_simulate(resumed, trace)

    def test_checkpoint_envelope_fields(self):
        session = PredictorSession("env", "BLBP", warmup_records=5)
        session.step_events(trace_events(_trace())[:20])
        document = session.checkpoint()
        assert document["kind"] == SESSION_CHECKPOINT_KIND
        assert document["session"] == "env"
        assert document["predictor_key"] == "BLBP"
        assert document["warmup_records"] == 5
        assert document["predictor_hash"] == session.state_hash()
        assert document["checkpoint"]["cursor"] == 20

    def test_rejects_wrong_kind(self):
        with pytest.raises(SessionError):
            PredictorSession.from_checkpoint({"kind": "SomethingElse"})

    def test_rejects_malformed_document(self):
        with pytest.raises(SessionError):
            PredictorSession.from_checkpoint(
                {"kind": SESSION_CHECKPOINT_KIND, "session": "x"}
            )
        session = PredictorSession("negative", "BLBP", warmup_records=5)
        session.step_events(trace_events(_trace())[:20])
        document = session.checkpoint()
        document["checkpoint"]["skip"] = -1
        with pytest.raises(SessionError, match="skip"):
            PredictorSession.from_checkpoint(document)
        document = session.checkpoint()
        document["instruction_gaps"] = -10**6
        with pytest.raises(SessionError, match="instruction_gaps"):
            PredictorSession.from_checkpoint(document)
        document = session.checkpoint()
        document["checkpoint"]["predictor_name"] = "ITTAGE"
        with pytest.raises(SessionError, match="is for predictor 'ITTAGE'"):
            PredictorSession.from_checkpoint(document)

    def test_rejects_out_of_range_ibtb_entry(self):
        session = PredictorSession("corrupt-ibtb", "BLBP")
        session.step_events(trace_events(_trace())[:30])
        document = session.checkpoint()
        ibtb = document["checkpoint"]["predictor"]["ibtb"]
        ibtb["sets"][0]["regions"][0] = 999  # 128 regions
        with pytest.raises(SessionError, match="regions out of range"):
            PredictorSession.from_checkpoint(document)

    def test_rejects_tampered_state(self):
        session = PredictorSession("tamper", "BLBP")
        session.step_events(trace_events(_trace())[:30])
        document = session.checkpoint()
        # Flip the recorded hash: the restore must refuse, not resurrect.
        document["predictor_hash"] = "0" * 64
        with pytest.raises(SessionError, match="does not match"):
            PredictorSession.from_checkpoint(document)


class TestFusedStepping:
    def test_fused_equals_solo(self):
        events = trace_events(_trace(seed=23))
        kinds = ["BLBP", "ITTAGE", "BTB", "BLBP"]
        solo = [PredictorSession(f"solo-{i}", k) for i, k in enumerate(kinds)]
        fused = [PredictorSession(f"fuse-{i}", k) for i, k in enumerate(kinds)]
        solo_outputs = [s.step_events(events) for s in solo]
        fused_outputs = step_sessions_fused(fused, events)
        assert fused_outputs == solo_outputs
        for a, b in zip(solo, fused):
            assert a.state_hash() == b.state_hash()
            assert a.result().mpki() == b.result().mpki()

    def test_fused_respects_warmup(self):
        events = trace_events(_trace(seed=29))
        solo = PredictorSession("a", "BLBP", warmup_records=25)
        fused = PredictorSession("b", "BLBP", warmup_records=25)
        solo_out = solo.step_events(events)
        fused_out = step_sessions_fused([fused], events)[0]
        assert fused_out == solo_out
        assert solo.mispredictions == fused.mispredictions

    def test_empty_inputs(self):
        assert step_sessions_fused([], trace_events(_trace())[:3]) == []
        session = PredictorSession("e", "BTB")
        assert step_sessions_fused([session], []) == [[]]


#: The mixed stream of the chunk matrix, long enough that every chunk
#: size below ends mid-stream at least once.
_MIXED = _mixed_events(1, 2100)

#: Warmup that ends inside the sixth 64-event chunk and the second
#: 300-event one, so the countdown crosses message boundaries.
_WARMUP = 350


@functools.lru_cache(maxsize=None)
def _mixed_reference(kind: str, warmup: int, ras_depth: int):
    """``simulate`` on the mixed stream: its result and final state hash."""
    predictor = make_indirect(kind)
    result = simulate(
        predictor, _events_trace("serve-mixed", _MIXED),
        ras_depth=ras_depth, warmup_records=warmup,
    )
    return result, predictor.state_hash()


#: Kinds serve steps on their compiled cores, when those can be built.
CORE_KINDS = ("BLBP", "ITTAGE")


@pytest.fixture
def core_calls(monkeypatch):
    """Count the predictors each core replay receives, per call."""
    calls = {"BLBP": [], "ITTAGE": []}
    replay_blbp = kernel.replay_blbp
    replay_ittage = kernel_ittage.replay_ittage

    def spy_blbp(predictors, columns):
        calls["BLBP"].append(len(predictors))
        return replay_blbp(predictors, columns)

    def spy_ittage(predictor, columns):
        calls["ITTAGE"].append(1)
        return replay_ittage(predictor, columns)

    monkeypatch.setattr(kernel, "replay_blbp", spy_blbp)
    monkeypatch.setattr(kernel_ittage, "replay_ittage", spy_ittage)
    return calls


def _messages(chunk: int) -> int:
    return -(-len(_MIXED) // chunk)


class TestChunkMatrix:
    """Solo and fused stepping match ``simulate`` at every chunk size,
    BLBP and ITTAGE on their cores."""

    #: The fused group: the solo configuration, a cold one, and one with
    #: a different RAS depth, all stepping the same messages.
    _GROUP = [(_WARMUP, 32), (0, 32), (0, 16)]

    @staticmethod
    def _stream(sessions, chunk):
        outputs = [[] for _ in sessions]
        for start in range(0, len(_MIXED), chunk):
            run = _MIXED[start : start + chunk]
            if len(sessions) == 1:
                outputs[0].extend(sessions[0].step_events(run))
            else:
                for out, part in zip(outputs, step_sessions_fused(sessions, run)):
                    out.extend(part)
        return outputs

    @pytest.mark.parametrize("chunk", [1, 13, 64, 300, 2000])
    @pytest.mark.parametrize("kind", ["BLBP", "ITTAGE", "VPC", "BTB"])
    def test_solo_and_fused_match_simulate(self, kind, chunk, core_calls):
        on_core = kind in CORE_KINDS and native.available()
        solo = PredictorSession("solo", kind, warmup_records=_WARMUP)
        (solo_out,) = self._stream([solo], chunk)
        _assert_matches_result(solo, *_mixed_reference(kind, _WARMUP, 32))
        assert (solo.step_path[0] == "core") == on_core
        group = [
            PredictorSession(f"fused-{slot}", kind, warmup, depth)
            for slot, (warmup, depth) in enumerate(self._GROUP)
        ]
        fused_out = self._stream(group, chunk)
        assert fused_out[0] == solo_out
        for session, (warmup, depth) in zip(group, self._GROUP):
            _assert_matches_result(
                session, *_mixed_reference(kind, warmup, depth)
            )
            assert session.cursor == len(_MIXED)
            assert session.skip == 0
        # One core call per message: a BLBP group shares one multi-lane
        # call, each ITTAGE session makes its own.
        messages = _messages(chunk)
        expected = {"BLBP": [], "ITTAGE": []}
        if on_core and kind == "BLBP":
            expected["BLBP"] = [1] * messages + [3] * messages
        elif on_core:
            expected["ITTAGE"] = [1] * (4 * messages)
        assert core_calls == expected

    @pytest.mark.parametrize("chunk", [1, 13, 64, 300, 2000])
    def test_mixed_group_matches_simulate(self, chunk, core_calls):
        """BLBP, ITTAGE and BTB sessions fused on identical messages each
        match ``simulate``; the core sessions step on their cores."""
        members = [
            ("BLBP", _WARMUP, 32), ("ITTAGE", 0, 32), ("BTB", _WARMUP, 32),
            ("BLBP", 0, 16), ("ITTAGE", _WARMUP, 32), ("BTB", 0, 16),
        ]
        group = [
            PredictorSession(f"mixed-{slot}", kind, warmup, depth)
            for slot, (kind, warmup, depth) in enumerate(members)
        ]
        self._stream(group, chunk)
        for session, (kind, warmup, depth) in zip(group, members):
            _assert_matches_result(
                session, *_mixed_reference(kind, warmup, depth)
            )
        if native.available():
            messages = _messages(chunk)
            assert core_calls == {
                "BLBP": [2] * messages, "ITTAGE": [1] * (2 * messages),
            }
            assert [s.step_path[0] for s in group] == [
                "core", "core", "scalar", "core", "core", "scalar",
            ]


class TestPathsAgree:
    """A session on its core and the same session forced scalar give the
    same outputs and state, and both equal ``simulate``: the accounting
    pass is one, whichever path predicted."""

    @given(
        kind=st.sampled_from(CORE_KINDS),
        seed=st.integers(min_value=0, max_value=10_000),
        length=st.integers(min_value=1, max_value=300),
        cuts=st.lists(st.integers(min_value=1, max_value=299), max_size=6),
        warmup=st.integers(min_value=0, max_value=350),
        ras_depth=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=30, deadline=None)
    def test_core_and_forced_scalar_match(
        self, failing_build, kind, seed, length, cuts, warmup, ras_depth
    ):
        events = _mixed_events(seed, length)
        core = PredictorSession("s", kind, warmup, ras_depth)
        # Without the compiled cores both sessions step scalar, and only
        # the comparison with ``simulate`` is left.
        assert (core.step_path[0] == "core") == native.available()
        forced = PredictorSession("s", kind, warmup, ras_depth)
        with failing_build() as reason:
            path, why = forced.step_path
        assert path == "scalar" and reason in why

        bounds = [0, *sorted({cut for cut in cuts if cut < length}), length]
        outputs = {core: [], forced: []}
        for start, stop in zip(bounds, bounds[1:]):
            for session, out in outputs.items():
                out.extend(session.step_events(events[start:stop]))
        assert outputs[core] == outputs[forced]
        assert len(outputs[core]) == length
        assert core.result() == forced.result()
        assert core.state_hash() == forced.state_hash()
        for session in (core, forced):
            assert session.cursor == length
            assert session.skip == max(warmup - length, 0)

        reference = make_indirect(kind)
        result = simulate(
            reference, _events_trace("paths", events),
            ras_depth=ras_depth, warmup_records=warmup,
        )
        for session in (core, forced):
            _assert_matches_result(session, result, reference.state_hash())


class TestStepPath:
    def test_cores_steps_blbp_and_ittage(self, compiled_cores):
        for kind in CORE_KINDS:
            session = PredictorSession("p", kind)
            path, kernel_name = session.step_path
            assert path == "core"
            assert kind in kernel_name

    def test_vpc_and_btb_step_scalar_with_a_reason(self, compiled_cores):
        path, reason = PredictorSession("v", "VPC").step_path
        assert path == "scalar"
        assert "derived plane" in reason
        path, reason = PredictorSession("b", "BTB").step_path
        assert path == "scalar"
        assert "has no columnar kernel" in reason

    def test_path_is_decided_once(self, compiled_cores, monkeypatch):
        session = PredictorSession("once", "BLBP")
        session.step_events(_MIXED[:20])
        monkeypatch.setattr(
            session_module, "_step_path",
            lambda predictor: pytest.fail("path decided twice"),
        )
        session.step_events(_MIXED[20:40])
        assert session.step_path[0] == "core"


class TestValidation:
    def test_unknown_predictor_key(self):
        with pytest.raises(SessionError, match="unknown indirect"):
            PredictorSession("x", "NotAPredictor")

    def test_negative_warmup(self):
        with pytest.raises(SessionError):
            PredictorSession("x", "BTB", warmup_records=-1)
