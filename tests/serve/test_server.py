"""End-to-end server tests: sockets, eviction, drain/restart, hygiene.

Each test spins a real :class:`PredictionServer` on an ephemeral
localhost port inside ``asyncio.run`` (the suite does not depend on an
async pytest plugin).  The load paths always compare against a direct
``simulate`` or an uninterrupted control server, because the subsystem's
contract is that batching, eviction, and restarts are invisible.
"""

import asyncio
import json

import pytest

from repro.registry import make_indirect
from repro.serve import batcher
from repro.serve.client import ServeClient, drive_load
from repro.serve.protocol import trace_events
from repro.serve.server import (
    PredictionServer,
    SessionManager,
    SessionStore,
)
from repro.serve.session import PredictorSession, SessionError
from repro.sim import native
from repro.sim.engine import simulate
from repro.workloads.vdispatch import VirtualDispatchSpec


def _trace(seed=43, num_records=120):
    return VirtualDispatchSpec(
        name=f"serve-e2e-{seed}",
        seed=seed,
        num_records=num_records,
        num_sites=4,
        num_types=4,
        filler_conditionals=4,
    ).generate()


async def _with_server(tmp_path, coro, **kwargs):
    server = PredictionServer(
        state_dir=tmp_path / "state", **kwargs
    )
    port = await server.start()
    try:
        return await coro(server, port)
    finally:
        await server.stop()


class TestLockstepProtocol:
    def test_open_stream_close_matches_simulate(self, tmp_path):
        async def scenario(server, port):
            trace = _trace()
            events = trace_events(trace)
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                welcome = await client.hello()
                assert welcome["protocol"] == 1
                assert "BLBP" in welcome["predictors"]
                opened = await client.open("e2e", "BLBP")
                assert opened == {
                    "t": "opened",
                    "session": "e2e",
                    "predictor": "BLBP",
                    "resumed": False,
                    "events": 0,
                }
                for start in range(0, len(events), 40):
                    out = await client.events(
                        "e2e", events[start : start + 40]
                    )
                    assert len(out["out"]) == len(events[start : start + 40])
                closed = await client.close_session("e2e")
            finally:
                await client.aclose()

            reference = make_indirect("BLBP")
            result = simulate(reference, trace)
            assert closed["state_hash"] == reference.state_hash()
            assert closed["result"]["mpki"] == result.mpki()
            assert (
                closed["result"]["indirect_branches"]
                == result.indirect_branches
            )
            assert (
                closed["result"]["total_instructions"]
                == result.total_instructions
            )

        asyncio.run(_with_server(tmp_path, scenario))

    def test_unknown_predictor_error_points_at_registry(self, tmp_path):
        async def scenario(server, port):
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(Exception) as info:
                    await client.open("x", "NoSuchPredictor")
                assert "repro registry" in str(info.value)
            finally:
                await client.aclose()

        asyncio.run(_with_server(tmp_path, scenario))

    def test_double_open_and_unknown_session_errors(self, tmp_path):
        async def scenario(server, port):
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                await client.open("dup", "BTB")
                with pytest.raises(Exception, match="already open"):
                    await client.open("dup", "BTB")
                with pytest.raises(Exception, match="unknown session"):
                    await client.events("ghost", trace_events(_trace())[:2])
            finally:
                await client.aclose()

        asyncio.run(_with_server(tmp_path, scenario))

    def test_stats_shape(self, tmp_path):
        async def scenario(server, port):
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                await client.open("s1", "BTB")
                await client.events("s1", trace_events(_trace())[:30])
                stats = await client.stats(sessions=True)
            finally:
                await client.aclose()
            assert stats["sessions"]["opened"] == 1
            assert stats["sessions"]["resident"] == 1
            assert stats["events"]["total"] == 30
            assert stats["batching"]["batches"] >= 1
            assert stats["per_session"]["s1"]["events"] == 30
            assert stats["max_resident"] == server.manager.max_resident

        asyncio.run(_with_server(tmp_path, scenario))

    def test_stats_report_step_paths_and_close_time(self, tmp_path):
        async def scenario(server, port):
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                events = trace_events(_trace())[:40]
                for key in ("BLBP", "BTB"):
                    await client.open(key, key)
                    await client.events(key, events)
                    await client.close_session(key)
                stats = await client.stats()
            finally:
                await client.aclose()
            steps = stats["steps"]
            assert steps["core"] + steps["scalar"] == 2
            assert "BTB" in steps["scalar_reasons"]
            assert "no columnar kernel" in steps["scalar_reasons"]["BTB"]
            assert stats["close_seconds"] > 0

        asyncio.run(_with_server(tmp_path, scenario))


class TestCoreBuild:
    def test_cores_build_at_start_not_inside_a_drain(
        self, tmp_path, fresh_loader, monkeypatch
    ):
        """A process that has not resolved the compiled cores yet
        resolves them (and on a cold cache compiles them) when the
        server starts, before it listens; never inside ``drain_batch``,
        which runs on the event loop."""
        builds = []
        draining = []
        real_build = native._build
        real_drain = batcher.drain_batch

        def build():
            builds.append("in a drain" if draining else "at start")
            return real_build()

        def drain(items, metrics=None):
            draining.append(True)
            try:
                return real_drain(items, metrics)
            finally:
                draining.pop()

        monkeypatch.setattr(native, "_build", build)
        monkeypatch.setattr(batcher, "drain_batch", drain)

        async def scenario(server, port):
            assert builds == ["at start"]
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                for key in ("BLBP", "ITTAGE"):
                    await client.open(key, key)
                    await client.events(key, trace_events(_trace())[:40])
                    await client.close_session(key)
            finally:
                await client.aclose()

        asyncio.run(_with_server(tmp_path, scenario))
        assert builds == ["at start"]


class TestEvictionAndRestart:
    def test_eviction_is_invisible(self, tmp_path):
        """A cap-2 server must match an uncapped one bit-for-bit."""

        async def run_fleet(state_dir, max_resident):
            server = PredictionServer(
                state_dir=state_dir, max_resident=max_resident
            )
            port = await server.start()
            try:
                outcome = await drive_load(
                    "127.0.0.1",
                    port,
                    sessions=12,
                    events_per_session=60,
                    connections=2,
                    distinct_streams=4,
                )
                evicted = server.metrics.sessions_evicted
                rehydrated = server.metrics.sessions_rehydrated
            finally:
                await server.stop()
            return outcome["closed"], evicted, rehydrated

        async def scenario():
            capped, evicted, rehydrated = await run_fleet(
                tmp_path / "capped", 2
            )
            uncapped, _, _ = await run_fleet(tmp_path / "uncapped", 1024)
            assert evicted > 0 and rehydrated > 0
            assert capped == uncapped

        asyncio.run(scenario())

    def test_drain_restart_resume_is_invisible(self, tmp_path):
        """Stop mid-stream, restart on the same state dir, finish: the
        closes must equal an uninterrupted control run."""

        async def scenario():
            golden_server = PredictionServer(state_dir=tmp_path / "golden")
            golden_port = await golden_server.start()
            golden = await drive_load(
                "127.0.0.1", golden_port, sessions=10,
                events_per_session=80, connections=2,
            )
            await golden_server.stop()

            state = tmp_path / "state"
            first = PredictionServer(state_dir=state)
            port = await first.start()
            await drive_load(
                "127.0.0.1", port, sessions=10, events_per_session=80,
                connections=2, count=37, do_close=False,
            )
            saved = await first.stop()
            assert saved == 10
            assert first.store.count() == 10

            second = PredictionServer(state_dir=state)
            port = await second.start()
            resumed = await drive_load(
                "127.0.0.1", port, sessions=10, events_per_session=80,
                connections=2, offset=37,
            )
            await second.stop()
            assert resumed["resumed"] == 10
            assert resumed["closed"] == golden["closed"]
            # Clean closes leave no checkpoints behind.
            assert second.store.count() == 0

        asyncio.run(scenario())

    def test_resume_rejects_predictor_mismatch(self, tmp_path):
        async def scenario(server, port):
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                await client.open("swap", "BTB")
                await client.events("swap", trace_events(_trace())[:10])
                await client.drain()
            finally:
                await client.aclose()
            await server.stop()

            restarted = PredictionServer(state_dir=server.store.state_dir)
            port = await restarted.start()
            client = await ServeClient.connect("127.0.0.1", port)
            try:
                with pytest.raises(Exception, match="checkpointed with"):
                    await client.open("swap", "BLBP")
            finally:
                await client.aclose()
                await restarted.stop()

        asyncio.run(_with_server(tmp_path, scenario))


class TestSessionManager:
    def test_admission_never_evicts_the_admitted_session(self, tmp_path):
        """Regression: when every other resident is mid-flight, the
        eviction sweep must skip the session being admitted — evicting
        it would orphan the object the caller is about to step and leave
        a stale checkpoint on disk."""

        async def scenario():
            manager = SessionManager(
                SessionStore(tmp_path / "state"), max_resident=1
            )
            manager.open("busy", "BTB")
            manager.acquire("busy")  # pin the only resident
            manager.open("incoming", "BTB")
            # Soft cap: both stay resident rather than orphaning one.
            assert "incoming" in manager._resident
            assert "busy" in manager._resident
            manager.release("busy")
            manager.evict_over_capacity()
            assert list(manager._resident) == ["incoming"]

        asyncio.run(scenario())

    def test_rehydrated_session_is_not_its_own_victim(self, tmp_path):
        async def scenario():
            manager = SessionManager(
                SessionStore(tmp_path / "state"), max_resident=1
            )
            manager.open("a", "BTB")
            manager.evict("a")
            manager.open("pinned", "BTB")
            manager.acquire("pinned")
            session = manager.get("a")  # rehydrate over capacity
            assert manager._resident["a"] is session
            events = trace_events(_trace())[:20]
            session.step_events(events)
            manager.release("pinned")
            # A later eviction persists the *stepped* state.
            manager.evict("a")
            restored = manager.get("a")
            assert restored.cursor == 20

        asyncio.run(scenario())


class TestStoreHygiene:
    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        session = PredictorSession("hygiene", "BTB")
        session.step_events(trace_events(_trace())[:15])
        store.save(session)
        names = [p.name for p in store.state_dir.iterdir()]
        assert len(names) == 1
        assert names[0].endswith(".session.json")

    def test_roundtrip_and_delete(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        session = PredictorSession("rt", "ITTAGE")
        session.step_events(trace_events(_trace())[:25])
        store.save(session)
        restored = PredictorSession.from_checkpoint(store.load("rt"))
        assert restored.state_hash() == session.state_hash()
        assert restored.cursor == 25
        store.delete("rt")
        assert store.load("rt") is None
        assert store.count() == 0

    def test_damaged_checkpoint_refused(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        session = PredictorSession("dmg", "BTB")
        session.step_events(trace_events(_trace())[:10])
        path = store.save(session)
        path.write_text("{not json")
        with pytest.raises(SessionError, match="unreadable"):
            store.load("dmg")

    def test_tampered_state_refused_on_rehydrate(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        session = PredictorSession("tmp", "BTB")
        session.step_events(trace_events(_trace())[:10])
        path = store.save(session)
        document = json.loads(path.read_text())
        document["predictor_hash"] = "f" * 64
        path.write_text(json.dumps(document))
        with pytest.raises(SessionError, match="does not match"):
            PredictorSession.from_checkpoint(store.load("tmp"))

    def test_weird_session_ids_map_to_safe_unique_paths(self, tmp_path):
        store = SessionStore(tmp_path / "state")
        ids = ["a/../b", "a ../b", "x" * 200, "x" * 201, "日本語"]
        paths = {store.path_for(session_id) for session_id in ids}
        assert len(paths) == len(ids)
        for path in paths:
            assert path.parent == store.state_dir
            assert path.name.endswith(".session.json")
