"""Smoke test of the benchmark at toy sizes.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_smoke.py -q

Each workload runs one pass (``--seconds 0``) on a few short traces or
streams, untraced and traced, through ``run.py``'s own entry point.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import layer_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = {
    "campaign-paper": workloads.CampaignConfig("paper", stride=44, scale=0.05),
    "campaign-ablation": workloads.CampaignConfig(
        "ablation", stride=44, scale=0.05
    ),
    "serve-sessions": workloads.ServeConfig(streams=2, events=128),
    "dist-campaign": workloads.CampaignConfig(
        "dist", stride=44, scale=0.05, backend="scalar", nodes=2
    ),
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """Toy workload sizes, no golden digests, caches under tmp_path."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    golden = tmp_path / "golden.json"
    golden.write_text("{}")
    monkeypatch.setattr(run, "GOLDEN", golden)
    for name, config in TOY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, config)
    return tmp_path


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        layers.PER_LAYER_UNITS
    )
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"]
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TOY))
def test_every_metric_is_emitted_with_its_unit(toy, capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "2", "--seconds", "0",
         "--trace", str(trace)]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["campaign-paper", "serve-sessions"])
def test_tampered_golden_digest_is_a_counted_failure(toy, workload):
    config = TOY[workload]
    digest = workloads.golden_digest(workload, 0, toy)
    results = {}
    for label, value in (("golden", digest), ("tampered", "0" * 64)):
        golden = {
            "config": dataclasses.asdict(config),
            "digests": {"0": value},
        }
        results[label] = workloads.run_workload(
            workload, 0, 0.0, False, golden, toy
        )
    assert results["golden"].failed == 0
    assert results["tampered"].failed > 0
    assert results["tampered"].failed / results["tampered"].attempted > 0


def test_nodepool_with_a_lambda_factory_is_a_counted_failure(toy):
    """A lambda factory cannot be shipped to a node: every scheduler
    thread dies and the units still queued run serially ("all worker
    nodes died"), which the run must count, not hide.  The campaign has
    more traces than nodes, so some units are still queued."""
    from repro.predictors import BranchTargetBuffer

    config = dataclasses.replace(TOY["dist-campaign"], stride=22)
    result = workloads.run_campaign(
        config, 2, 0.0, False, None, toy,
        factories={"BTB": lambda: BranchTargetBuffer()},
    )
    assert result.failed > 0
    assert any("fallback" in failure for failure in result.failures)


def test_self_time_subtracts_child_spans():
    spans = [
        (1, 0, "outer", 0.0, 10.0, "a", None),
        (2, 1, "inner", 1.0, 4.0, "", None),
        (3, 1, "inner", 5.0, 6.0, "", None),
    ]
    times = layer_times(spans)
    assert times["outer"].total == 10.0 and times["outer"].self == 6.0
    assert times["inner"].total == 4.0 and times["inner"].calls == 2
