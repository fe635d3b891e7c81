"""End-to-end pool tests: local, socket nodes, SSH shim, node death.

The invariants under test are the subsystem's reason to exist:

* any pool produces cell-for-cell identical campaign results;
* a distributed campaign's merged journal is **byte-identical** to a
  single-node serial journal — including after a node is killed
  mid-campaign or an interrupted run resumes from shards;
* each distinct trace ships to a given node at most once per campaign
  (and zero times when the node's store already holds it).
"""

import gc
import os
import signal
import sys
import threading
import warnings

import pytest

from repro.dist import (
    LocalPool,
    NodePool,
    PoolError,
    SSHPool,
    resolve_pool,
    shards_dir,
)
from repro.dist.merge import ShardedJournal
from repro.dist.pool import _NodeClient
from repro.exec import CollectingSink
from repro.exec.journal import result_to_json
from repro.exec.plan import plan_campaign
from repro.exec.pool import execute_plan
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.sim.runner import run_campaign
from repro.workloads import SwitchCaseSpec, VirtualDispatchSpec

FACTORIES = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB}


def _traces():
    return [
        VirtualDispatchSpec(
            name="vd-dist", seed=11, num_records=600, num_types=4,
            num_sites=2, determinism=0.9,
        ).generate(),
        SwitchCaseSpec(
            name="sw-dist", seed=12, num_records=600, num_cases=8,
            determinism=0.9,
        ).generate(),
    ]


def _third_trace():
    return SwitchCaseSpec(
        name="sw-dist-b", seed=13, num_records=600, num_cases=6,
        determinism=0.9,
    ).generate()


@pytest.fixture
def serial_reference(tmp_path_factory):
    """One serial run per module: the golden results and journal bytes."""
    base = tmp_path_factory.mktemp("serial-ref")
    journal = base / "serial.jsonl"
    plan = plan_campaign(_traces(), FACTORIES, cache_dir=base / "cache")
    campaign = execute_plan(plan, jobs=1, journal_path=journal)
    return campaign, journal.read_bytes()


def _campaigns_identical(serial, other):
    assert other.traces() == serial.traces()
    assert other.predictors() == serial.predictors()
    for trace in serial.traces():
        for predictor in serial.predictors():
            assert (
                other.results[trace][predictor]
                == serial.results[trace][predictor]
            ), (trace, predictor)


class TestLocalPool:
    def test_serial_equivalence(self, tmp_path, serial_reference):
        serial, journal_bytes = serial_reference
        journal = tmp_path / "local.jsonl"
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        campaign = execute_plan(
            plan, journal_path=journal, pool=LocalPool(jobs=1)
        )
        _campaigns_identical(serial, campaign)
        assert journal.read_bytes() == journal_bytes
        assert not shards_dir(journal).exists()  # local pools don't shard

    def test_describe(self):
        (row,) = LocalPool(jobs=3).describe()
        assert row["node"] == "local"
        assert row["jobs"] == 3
        assert row["pid"] == os.getpid()
        assert row["transport"] == "process-pool"

    def test_describe_serial_is_in_process(self):
        (row,) = LocalPool(jobs=1).describe()
        assert row["jobs"] == 1
        assert row["transport"] == "in-process"


class TestNodePool:
    def test_journal_byte_identical_and_ship_once(
        self, tmp_path, serial_reference
    ):
        serial, journal_bytes = serial_reference
        journal = tmp_path / "dist.jsonl"
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        with NodePool(nodes=2) as pool:
            campaign = execute_plan(plan, journal_path=journal, pool=pool)
            counts = pool.transfer_counts()
            # Second campaign over the same pool: every trace is already
            # resident in the nodes' content-addressed stores, so the
            # transfer counters must not move.
            plan2 = plan_campaign(
                _traces(), FACTORIES, cache_dir=tmp_path / "c2"
            )
            execute_plan(plan2, pool=pool)
            counts_after = pool.transfer_counts()
        _campaigns_identical(serial, campaign)
        assert journal.read_bytes() == journal_bytes
        assert not shards_dir(journal).exists()  # canonicalized + retired
        # Acceptance: each distinct spill transferred to a given node at
        # most once per campaign (here: per pool lifetime).
        shipped = set()
        for node, per_hash in counts.items():
            for content_hash, times in per_hash.items():
                assert times == 1, (node, content_hash, times)
                shipped.add(content_hash)
        assert len(shipped) == 2  # both distinct traces went somewhere
        assert counts_after == counts

    def test_node_killed_mid_campaign_reschedules(
        self, tmp_path, serial_reference
    ):
        serial, journal_bytes = serial_reference
        journal = tmp_path / "killed.jsonl"
        sink = CollectingSink()
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        with NodePool(nodes=2) as pool:
            os.kill(pool.nodes[1].pid, signal.SIGKILL)
            campaign = execute_plan(
                plan, journal_path=journal, pool=pool, events=sink
            )
        assert "node_down" in sink.kinds()
        _campaigns_identical(serial, campaign)
        assert journal.read_bytes() == journal_bytes

    def test_all_nodes_dead_degrades_to_serial(self, tmp_path,
                                               serial_reference):
        serial, journal_bytes = serial_reference
        journal = tmp_path / "dead.jsonl"
        sink = CollectingSink()
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        with NodePool(nodes=2) as pool:
            for client in pool.nodes:
                os.kill(client.pid, signal.SIGKILL)
            campaign = execute_plan(
                plan, journal_path=journal, pool=pool, events=sink
            )
        assert "fallback" in sink.kinds()
        _campaigns_identical(serial, campaign)
        assert journal.read_bytes() == journal_bytes

    def test_close_releases_every_pipe(self, monkeypatch):
        """Open and close leave no file behind: a pipe finalized unclosed
        raises ResourceWarning, which the hook below collects."""
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            pool = NodePool(1)
            pool.close()
            del pool
            gc.collect()
        assert [hook.exc_value for hook in unraisable] == []

    def test_rejects_zero_nodes(self):
        with pytest.raises(PoolError):
            NodePool(nodes=0)

    @pytest.mark.parametrize("count", [1, 3])
    def test_unpicklable_factory_degrades_before_dispatch(
        self, tmp_path, monkeypatch, count
    ):
        """A closure cannot reach a node: the shared pre-flight degrades
        the whole campaign to in-process before any unit is dispatched,
        whether there are fewer units than nodes or more."""
        entries = 64

        def closure_factory():
            return BranchTargetBuffer(num_entries=entries)

        traces = (_traces() + [_third_trace()])[:count]
        factories = {"closure": closure_factory}
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        sink = CollectingSink()
        plan = plan_campaign(traces, factories, cache_dir=tmp_path / "c")
        with NodePool(nodes=2) as pool:
            campaign = execute_plan(plan, pool=pool, events=sink)
        assert campaign.results == run_campaign(traces, factories).results
        (fallback,) = sink.of_kind("fallback")
        assert "picklable" in fallback.message
        assert sink.of_kind("node_down") == []
        assert thread_errors == []

    def test_unexpected_runner_error_is_raised(self, tmp_path, monkeypatch):
        def broken(self, wire_cells, fused, timeout):
            raise ValueError("runner bug")

        monkeypatch.setattr(_NodeClient, "run_unit", broken)
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        with NodePool(nodes=2) as pool:
            with pytest.raises(ValueError, match="runner bug"):
                execute_plan(plan, pool=pool)


class TestSSHPoolShim:
    def test_stdio_transport_byte_identical(self, tmp_path,
                                            serial_reference):
        serial, journal_bytes = serial_reference
        journal = tmp_path / "ssh.jsonl"
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        import sys

        with SSHPool(
            ["shim0", "shim1"],
            template=SSHPool.LOCAL_TEMPLATE,
            python=sys.executable,
        ) as pool:
            campaign = execute_plan(plan, journal_path=journal, pool=pool)
        _campaigns_identical(serial, campaign)
        assert journal.read_bytes() == journal_bytes

    def test_rejects_empty_hosts(self):
        with pytest.raises(PoolError):
            SSHPool([])


class TestShardResume:
    def test_interrupted_distributed_run_resumes_anywhere(
        self, tmp_path, serial_reference
    ):
        """Shards left by a killed distributed coordinator fold into the
        resume set of the next run — even a plain serial one — and the
        finished journal is still canonical bytes."""
        serial, journal_bytes = serial_reference
        journal = tmp_path / "resume.jsonl"
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        # Fake the wreckage: two cells journaled into a node shard, no
        # canonical journal (the coordinator died before merging).
        done = [plan.cells[0], plan.cells[1]]
        with ShardedJournal(journal) as shard:
            for cell in done:
                shard.append(
                    serial.results[cell.trace_name][cell.predictor_name],
                    node="node-lost",
                )
        journal.unlink(missing_ok=True)
        sink = CollectingSink()
        campaign = execute_plan(
            plan, jobs=1, journal_path=journal, events=sink
        )
        assert len(sink.of_kind("cell_skipped")) == len(done)
        _campaigns_identical(serial, campaign)
        assert journal.read_bytes() == journal_bytes
        assert not shards_dir(journal).exists()


class TestResolvePool:
    def test_explicit_pool_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", "4")
        pool = LocalPool(jobs=1)
        assert resolve_pool(pool) is pool

    def test_unset_env_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_NODES", raising=False)
        assert resolve_pool(None) is None

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", "0")
        assert resolve_pool(None) is None

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", "many")
        with pytest.raises(ValueError, match="REPRO_NODES"):
            resolve_pool(None)


class TestNodeAttribution:
    def test_results_carry_node_but_compare_equal(self, tmp_path,
                                                  serial_reference):
        serial, _ = serial_reference
        plan = plan_campaign(_traces(), FACTORIES, cache_dir=tmp_path / "c")
        with NodePool(nodes=1) as pool:
            campaign = execute_plan(plan, pool=pool)
        for trace in campaign.traces():
            for predictor in campaign.predictors():
                result = campaign.results[trace][predictor]
                assert result.node == "node0"
                assert result == serial.results[trace][predictor]
                # The canonical serialization strips provenance.
                assert "node" not in result_to_json(result)


class TestCliDryRun:
    def test_simulate_dry_run(self, capsys):
        from repro.cli import main

        code = main([
            "simulate", "--dry-run", "--stride", "32", "--scale", "0.02",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "cells" in captured.out
        assert "fused group" in captured.out
        assert "estimated spill bytes" in captured.out

    def test_search_dry_run(self, capsys):
        from repro.cli import main

        code = main([
            "search", "--dry-run", "--stride", "32", "--scale", "0.02",
            "--budget", "8", "--batch", "4",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "per-generation plan" in captured.out
        assert "generations" in captured.out
