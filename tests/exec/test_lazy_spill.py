"""Lazy spilling: a trace the caller holds in memory is written only when
a unit is about to leave the process.

An in-process (``jobs=1``) campaign simulates the plan's resident traces
straight from memory and writes no spill at all; a process pool or a node
pool spills each trace once per plan, before the first unit goes out.
Sources that planning has to materialize are still spilled at plan time.
"""

import contextlib
from pathlib import Path

import pytest

import repro.trace.plane as plane
import repro.trace.source as source_module
from repro.core import BLBP
from repro.exec.events import FALLBACK, CollectingSink
from repro.exec.plan import plan_campaign
from repro.exec.pool import execute_plan
from repro.predictors import ITTAGE, BranchTargetBuffer
from repro.trace.source import WorkloadSource
from repro.workloads import SwitchCaseSpec, VirtualDispatchSpec

ROSTER = {"BLBP": BLBP, "ITTAGE": ITTAGE}
EVERY = 97


@pytest.fixture(scope="module")
def specs():
    return [
        VirtualDispatchSpec(
            name="vd-lazy", seed=11, num_records=600, num_types=4,
            num_sites=3, determinism=0.9,
        ),
        SwitchCaseSpec(
            name="sw-lazy", seed=12, num_records=500, num_cases=6,
            determinism=0.9,
        ),
    ]


@pytest.fixture(scope="module")
def oracle(specs, tmp_path_factory) -> bytes:
    """The scalar oracle's journal: serial, unfused, every trace spilled
    at plan time and attached from disk."""
    root = tmp_path_factory.mktemp("oracle")
    plan = plan_campaign(
        [WorkloadSource(spec) for spec in specs], ROSTER,
        cache_dir=root / "cache",
    )
    execute_plan(plan, fuse=False, journal_path=root / "journal.jsonl")
    return (root / "journal.jsonl").read_bytes()


@pytest.fixture
def writes(monkeypatch):
    """Names of the spill files written, in order."""
    written = []
    real = source_module.write_trace_v2

    def counting(trace, path, content_hash=None):
        written.append(Path(path).name)
        return real(trace, path, content_hash=content_hash)

    monkeypatch.setattr(source_module, "write_trace_v2", counting)
    return written


class TestInProcessCampaign:
    @pytest.mark.parametrize(
        "checkpoint_every", [0, EVERY], ids=["plain", "checkpointed"]
    )
    @pytest.mark.parametrize("backend", ["scalar", "columnar"])
    @pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
    def test_writes_no_spill_and_matches_oracle(
        self, specs, oracle, tmp_path, fuse, backend, checkpoint_every
    ):
        cache = tmp_path / "cache"
        plan = plan_campaign(
            [spec.generate() for spec in specs], ROSTER, cache_dir=cache,
            backend=backend,
        )
        journal = tmp_path / "journal.jsonl"
        execute_plan(
            plan, jobs=1, fuse=fuse, journal_path=journal,
            checkpoint_every=checkpoint_every,
        )
        assert list(cache.rglob("*.trace")) == []
        assert journal.read_bytes() == oracle

    def test_plan_writes_nothing_for_in_memory_traces(
        self, specs, tmp_path, writes
    ):
        plan = plan_campaign(
            [spec.generate() for spec in specs], ROSTER,
            cache_dir=tmp_path,
        )
        assert writes == []
        assert sorted(plan.resident) == sorted(
            {cell.trace_path for cell in plan.cells}
        )

    @pytest.mark.parametrize("backend", ["scalar", "columnar"])
    def test_nothing_of_the_campaign_outlives_the_call(
        self, specs, tmp_path, backend
    ):
        traces = [spec.generate() for spec in specs]
        plan = plan_campaign(
            traces, {**ROSTER, "BTB": BranchTargetBuffer},
            cache_dir=tmp_path, backend=backend,
        )
        execute_plan(plan, jobs=1)
        paths = {cell.trace_path for cell in plan.cells}
        cache = plane._worker_cache
        assert not paths & set(cache._resident)
        assert not paths & {key[0] for key in cache._entries}
        # The scalar lane's per-trace memo went with the cache entry.
        assert all(trace._scalars is None for trace in traces)

    def test_pool_fallback_simulates_from_memory(
        self, specs, tmp_path, monkeypatch
    ):
        """A factory that cannot be pickled sends the campaign back to
        the in-process runner, which never attaches a spill."""
        size = 64

        def closure():
            return BranchTargetBuffer(num_entries=size)

        traces = [spec.generate() for spec in specs]
        serial = execute_plan(
            plan_campaign(traces, {"BTB": closure}, cache_dir=tmp_path / "a")
        )

        def no_attach(path):
            raise AssertionError(f"attached {path}")

        monkeypatch.setattr(plane, "attach_trace", no_attach)
        sink = CollectingSink()
        degraded = execute_plan(
            plan_campaign(traces, {"BTB": closure}, cache_dir=tmp_path / "b"),
            jobs=2, events=sink,
        )
        assert sink.of_kind(FALLBACK)
        assert degraded.results == serial.results


class TestOutOfProcessCampaign:
    @pytest.mark.parametrize("runner", ["jobs2", "nodes2"])
    def test_each_trace_written_once_per_plan(
        self, specs, tmp_path, writes, runner
    ):
        plan = plan_campaign(
            [spec.generate() for spec in specs], ROSTER, cache_dir=tmp_path,
        )
        spills = sorted({Path(cell.trace_path).name for cell in plan.cells})
        with contextlib.ExitStack() as stack:
            if runner == "jobs2":
                kwargs = {"jobs": 2}
            else:
                from repro.dist import NodePool

                kwargs = {"pool": stack.enter_context(NodePool(nodes=2))}
            first = execute_plan(plan, **kwargs)
            assert sorted(writes) == spills
            second = execute_plan(plan, **kwargs)
        assert sorted(writes) == spills  # the second run wrote nothing
        assert first.results == second.results

    def test_workload_sources_spill_at_plan_time(
        self, specs, tmp_path, writes
    ):
        plan = plan_campaign(
            [WorkloadSource(spec) for spec in specs], ROSTER,
            cache_dir=tmp_path,
        )
        assert plan.resident == {}
        spills = sorted({Path(cell.trace_path).name for cell in plan.cells})
        assert sorted(writes) == spills
        assert sorted(path.name for path in tmp_path.glob("*.trace")) == spills
