"""Micro-batcher tests: fusion correctness, ordering, metrics, failure.

Batching must be invisible in the results — only throughput changes —
so the core assertions here compare batched execution against solo
stepping of identical sessions.
"""

import asyncio

import pytest

from repro.registry import make_indirect
from repro.serve.batcher import MicroBatcher, _BatchItem, drain_batch
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import trace_events
from repro.serve.session import PredictorSession
from repro.sim.engine import simulate
from repro.workloads.vdispatch import VirtualDispatchSpec


def _trace(seed=31, num_records=80):
    return VirtualDispatchSpec(
        name=f"serve-batch-{seed}",
        seed=seed,
        num_records=num_records,
        num_sites=4,
        num_types=4,
        filler_conditionals=3,
    ).generate()


def _events(seed=31, num_records=80):
    return trace_events(_trace(seed, num_records))


def _item(loop, session, events):
    return _BatchItem(session, events, loop.create_future())


class TestDrainBatch:
    def test_fused_group_matches_solo(self):
        async def run():
            loop = asyncio.get_running_loop()
            events = _events()
            batched = [PredictorSession(f"b{i}", "BLBP") for i in range(3)]
            solo = [PredictorSession(f"s{i}", "BLBP") for i in range(3)]
            metrics = ServerMetrics()
            items = [_item(loop, session, events) for session in batched]
            drain_batch(items, metrics)
            solo_outputs = [s.step_events(events) for s in solo]
            for item, expected, solo_session, batched_session in zip(
                items, solo_outputs, solo, batched
            ):
                assert item.future.result() == expected
                assert batched_session.state_hash() == solo_session.state_hash()
            assert metrics.fused_groups == 1
            assert metrics.fused_sessions == 3
            assert metrics.batches == 1
            assert metrics.batch_events == 3 * len(events)

        asyncio.run(run())

    def test_multi_run_session_steps_solo_in_order(self):
        async def run():
            loop = asyncio.get_running_loop()
            events = _events()
            half = len(events) // 2
            # One session submits two runs in the same batch; another
            # session shares the first run's payload.  The two-run
            # session must not fuse (order within it matters).
            twice = PredictorSession("twice", "ITTAGE")
            other = PredictorSession("other", "ITTAGE")
            control = PredictorSession("control", "ITTAGE")
            metrics = ServerMetrics()
            items = [
                _item(loop, twice, events[:half]),
                _item(loop, other, events[:half]),
                _item(loop, twice, events[half:]),
            ]
            drain_batch(items, metrics)
            expected = control.step_events(events)
            assert (
                items[0].future.result() + items[2].future.result() == expected
            )
            assert twice.state_hash() == control.state_hash()
            assert metrics.fused_sessions == 0

        asyncio.run(run())

    def test_failure_poisons_only_its_future(self):
        async def run():
            loop = asyncio.get_running_loop()
            events = _events()
            good = PredictorSession("good", "BTB")
            bad = PredictorSession("bad", "BTB")
            bad.predictor = None  # stepping will raise AttributeError
            items = [
                _item(loop, bad, events[:4]),
                _item(loop, good, events),
            ]
            drain_batch(items, ServerMetrics())
            assert isinstance(items[0].future.exception(), AttributeError)
            control = PredictorSession("ctl", "BTB")
            assert items[1].future.result() == control.step_events(events)

        asyncio.run(run())

    def test_empty_batch_is_noop(self):
        metrics = ServerMetrics()
        drain_batch([], metrics)
        assert metrics.batches == 0


def _drain_kinds(kinds, trace):
    """One batch of one session per kind over ``trace``; the sessions
    and the batch's metrics."""
    metrics = ServerMetrics()
    sessions = [PredictorSession(f"s-{kind}", kind) for kind in kinds]

    async def run():
        loop = asyncio.get_running_loop()
        events = trace_events(trace)
        items = [_item(loop, session, events) for session in sessions]
        drain_batch(items, metrics)
        for item in items:
            item.future.result()

    asyncio.run(run())
    return sessions, metrics


class TestStepPathMetrics:
    """A session's path is never swapped silently: stats count the
    steps on each path and name why each scalar key is scalar."""

    def test_core_and_scalar_steps_are_counted(self, compiled_cores):
        _, metrics = _drain_kinds(["BLBP", "ITTAGE", "VPC", "BTB"], _trace())
        steps = metrics.as_dict()["steps"]
        assert (steps["core"], steps["scalar"]) == (2, 2)
        assert sorted(steps["scalar_reasons"]) == ["BTB", "VPC"]
        assert "derived plane" in steps["scalar_reasons"]["VPC"]

    def test_failed_build_steps_scalar_and_names_the_build(
        self, failed_build
    ):
        trace = _trace(37)
        sessions, metrics = _drain_kinds(["BLBP", "ITTAGE"], trace)
        steps = metrics.as_dict()["steps"]
        assert (steps["core"], steps["scalar"]) == (0, 2)
        for kind, session in zip(["BLBP", "ITTAGE"], sessions):
            assert session.step_path[0] == "scalar"
            assert failed_build in steps["scalar_reasons"][kind]
            reference = make_indirect(kind)
            result = simulate(reference, trace)
            assert session.mispredictions == result.indirect_mispredictions
            assert session.state_hash() == reference.state_hash()


class TestMicroBatcher:
    def test_window_coalesces_concurrent_submissions(self):
        async def run():
            events = _events()
            metrics = ServerMetrics()
            batcher = MicroBatcher(0.02, 10_000, metrics)
            sessions = [PredictorSession(f"w{i}", "BLBP") for i in range(4)]
            outputs = await asyncio.gather(
                *(batcher.submit(session, events) for session in sessions)
            )
            await batcher.close()
            control = PredictorSession("ctl", "BLBP")
            expected = control.step_events(events)
            assert all(out == expected for out in outputs)
            # All four submissions landed in one drained batch, fused.
            assert metrics.batches == 1
            assert metrics.fused_sessions == 4

        asyncio.run(run())

    def test_event_cap_triggers_early_drain(self):
        async def run():
            events = _events()
            metrics = ServerMetrics()
            # Cap below one run's size: the drain must not wait out a
            # long window.
            batcher = MicroBatcher(30.0, len(events), metrics)
            session = PredictorSession("cap", "BTB")
            output = await asyncio.wait_for(
                batcher.submit(session, events), timeout=5.0
            )
            await batcher.close()
            assert len(output) == len(events)
            assert metrics.batches == 1

        asyncio.run(run())

    def test_flush_drains_pending_synchronously(self):
        async def run():
            events = _events()
            batcher = MicroBatcher(60.0, 10_000, ServerMetrics())
            session = PredictorSession("f", "BTB")
            waiter = asyncio.ensure_future(batcher.submit(session, events))
            await asyncio.sleep(0)  # let submit enqueue
            assert batcher.flush() == 1
            assert await waiter == PredictorSession(
                "ctl", "BTB"
            ).step_events(events)
            await batcher.close()

        asyncio.run(run())

    def test_closed_batcher_rejects_submissions(self):
        async def run():
            batcher = MicroBatcher()
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit(
                    PredictorSession("x", "BTB"), _events()[:2]
                )

        asyncio.run(run())

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            MicroBatcher(window_seconds=-1)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_events=0)
