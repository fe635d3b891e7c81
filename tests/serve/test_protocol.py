"""Wire-format tests for the serve protocol.

The protocol module is the single source of truth for both ends of the
connection, so these tests pin the encode/decode roundtrip, the event
validation contract (everything the server will refuse), and the
trace → wire-events bridge the equivalence suite builds on.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.registry import make_indirect
from repro.serve import protocol
from repro.serve.client import ClientError, ServeClient, stream_for
from repro.serve.protocol import ProtocolError
from repro.serve.server import PredictionServer
from repro.sim.engine import simulate
from repro.trace.record import BranchType
from repro.workloads.vdispatch import VirtualDispatchSpec


def _trace(num_records=50, seed=7):
    return VirtualDispatchSpec(
        name="proto-test",
        seed=seed,
        num_records=num_records,
        num_sites=3,
        num_types=4,
        filler_conditionals=2,
    ).generate()


class TestEncodeDecode:
    def test_roundtrip(self):
        message = {"t": "open", "session": "s-1", "predictor": "BLBP"}
        assert protocol.decode(protocol.encode(message)) == message

    def test_encode_is_one_compact_line(self):
        line = protocol.encode({"t": "hello"})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1
        assert b" " not in line

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"[1, 2, 3]\n")

    def test_decode_rejects_missing_tag(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b'{"session": "x"}\n')

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode(b"not json at all\n")


class TestEventValidation:
    def test_parse_event_normalizes(self):
        event = protocol.parse_event([4096, 3, 1, 8192, 7])
        assert event == (4096, 3, True, 8192, 7)
        assert isinstance(event[2], bool)

    @pytest.mark.parametrize(
        "raw",
        [
            [1, 2, 3],                       # wrong arity
            "nope",                          # not an array
            [-1, 0, True, 0, 0],             # negative pc
            [0, 9, True, 0, 0],              # unknown branch type
            [0, 0, True, -5, 0],             # negative target
            [0, 0, True, 0, -1],             # negative gap
            [0.5, 0, True, 0, 0],            # float pc
        ],
    )
    def test_parse_event_rejects(self, raw):
        with pytest.raises(ProtocolError):
            protocol.parse_event(raw)

    def test_parse_events_rejects_empty(self):
        with pytest.raises(ProtocolError):
            protocol.parse_events([])
        with pytest.raises(ProtocolError):
            protocol.parse_events(None)

    def test_require_session_id(self):
        assert protocol.require_session_id({"session": "abc"}) == "abc"
        with pytest.raises(ProtocolError):
            protocol.require_session_id({"session": ""})
        with pytest.raises(ProtocolError):
            protocol.require_session_id({"session": 17})
        with pytest.raises(ProtocolError):
            protocol.require_session_id({"session": "x" * 257})


#: Field values around every bound the per-entry parser checks, in
#: every JSON-decodable type and a few that only a direct caller passes.
_FIELDS = st.one_of(
    st.sampled_from([
        0, 1, 4, 5, 6, -1, -(2**63), 2**63, 2**64 - 1, 2**64, 2**70,
        True, False, 0.0, 1.0, 2.5, None, "1", [], {},
    ]),
    st.integers(min_value=-(2**66), max_value=2**66),
)
_ENTRIES = st.one_of(
    st.lists(_FIELDS, min_size=5, max_size=5),
    st.lists(_FIELDS, min_size=5, max_size=5).map(tuple),
    st.lists(_FIELDS, min_size=0, max_size=7),
    st.tuples(
        st.integers(0, 2**64 - 1), st.integers(0, 5), st.booleans(),
        st.integers(0, 2**64 - 1), st.integers(0, 2**20),
    ).map(list),
    st.sampled_from([None, 3, "event", {"pc": 1}]),
)


def _typed(events):
    return [tuple((type(value), value) for value in event) for event in events]


class TestParseEventsDifferential:
    """``parse_events`` accepts inline what the per-entry parser would,
    and hands everything else to it: same values, types and errors."""

    @given(st.lists(_ENTRIES, min_size=1, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_entry_parser(self, raw):
        try:
            expected = [protocol.parse_event(entry) for entry in raw]
        except ProtocolError as exc:
            with pytest.raises(ProtocolError) as caught:
                protocol.parse_events(raw)
            assert str(caught.value) == str(exc)
        else:
            assert _typed(protocol.parse_events(raw)) == _typed(expected)

    def test_int_taken_and_bool_types_are_normalized(self):
        raw = [[1, 3, 1, 2, 0], [1, True, False, 2, 0], [1, 0, 7, 2, 3]]
        assert _typed(protocol.parse_events(raw)) == _typed([
            (1, 3, True, 2, 0), (1, 1, False, 2, 0), (1, 0, True, 2, 3),
        ])

    def test_first_bad_entry_names_the_error(self):
        raw = [[1, 3, True, 2, 0], [2**64, 3, True, 2, 0], [1, 9, True, 2, 0]]
        with pytest.raises(ProtocolError, match="pc must be an int"):
            protocol.parse_events(raw)
        with pytest.raises(ProtocolError, match="gap must be a non-negative"):
            protocol.parse_events([[1, 3, True, 2, -4]])

    @pytest.mark.parametrize("branch_type", [[], {}, [3]])
    def test_unhashable_branch_type_is_a_protocol_error(self, branch_type):
        """A list or object branch type is refused like any unknown one
        (it used to escape as a ``TypeError`` and end the connection)."""
        with pytest.raises(ProtocolError, match="unknown branch type"):
            protocol.parse_events([[1, branch_type, True, 2, 0]])


class TestAddressBounds:
    """Addresses are 64-bit on the wire, as in ``Trace``'s columns."""

    @pytest.mark.parametrize("field,raw", [
        ("pc", [2**64, 3, True, 0x1000, 1]),
        ("target", [0x1000, 3, True, 2**64, 1]),
    ])
    def test_rejects_addresses_beyond_64_bits(self, field, raw):
        with pytest.raises(ProtocolError, match=f"event {field} "):
            protocol.parse_event(raw)

    def test_accepts_the_upper_half(self):
        raw = [2**63, 3, True, 2**64 - 1, 1]
        assert protocol.parse_event(raw) == (2**63, 3, True, 2**64 - 1, 1)

    @pytest.mark.parametrize("kind", ["BLBP", "ITTAGE"])
    @pytest.mark.parametrize("field", ["pc", "target"])
    def test_refused_message_leaves_the_session_untouched(
        self, tmp_path, kind, field
    ):
        """An out-of-range address is refused before the session steps:
        its cursor stays put and the rest of the stream still ends
        bit-identical to ``simulate``."""
        trace = _trace(num_records=80)
        events = protocol.trace_events(trace)
        bad = list(events[0])
        bad[{"pc": 0, "target": 3}[field]] = 2**64

        async def scenario():
            server = PredictionServer(state_dir=tmp_path / "state")
            port = await server.start()
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                await client.open("s", kind)
                head = await client.events("s", events[:40])
                with pytest.raises(ClientError, match="must be an int in"):
                    await client.events("s", events[40:45] + [bad])
                tail = await client.events("s", events[40:])
                return head, tail, await client.close_session("s")
            finally:
                await client.aclose()
                await server.stop()

        head, tail, closed = asyncio.run(scenario())
        assert head["events"] == 40
        assert tail["events"] == len(events)
        reference = make_indirect(kind)
        result = simulate(reference, trace)
        assert closed["state_hash"] == reference.state_hash()
        assert closed["result"]["mpki"] == result.mpki()


class TestTraceEvents:
    def test_matches_trace_columns(self):
        trace = _trace()
        events = protocol.trace_events(trace)
        assert len(events) == len(trace.pcs)
        for index, (pc, bt, taken, target, gap) in enumerate(events):
            assert pc == int(trace.pcs[index])
            assert bt == int(trace.types[index])
            assert taken == bool(trace.takens[index])
            assert target == int(trace.targets[index])
            assert gap == int(trace.gaps[index])

    def test_events_are_wire_safe(self):
        events = protocol.trace_events(_trace())
        # Every event validates and JSON-roundtrips untouched.
        for event in events:
            assert protocol.parse_event(list(event)) == event
        encoded = protocol.encode(
            {"t": "events", "session": "s", "events": [list(e) for e in events]}
        )
        decoded = protocol.decode(encoded)
        assert protocol.parse_events(decoded["events"]) == events

    def test_covers_multiple_branch_types(self):
        kinds = {event[1] for event in protocol.trace_events(_trace(200))}
        assert int(BranchType.CONDITIONAL) in kinds
        assert int(BranchType.INDIRECT_CALL) in kinds


class TestStreamFor:
    @pytest.mark.parametrize("num_events", [1, 2, 11, 12, 13, 64, 100, 832, 2000])
    @pytest.mark.parametrize("stream_index", [0, 1, 15])
    def test_returns_at_least_num_events(self, stream_index, num_events):
        """Whole dispatch iterations: the stream may overshoot, never fall
        short."""
        assert len(stream_for(stream_index, num_events)) >= num_events
