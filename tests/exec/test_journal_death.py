"""Group commit under real process death.

A child process runs a journaled campaign and dies with ``os._exit`` —
no ``finally`` blocks, no buffered-file flushing — at one of two sites:
inside the Nth journal fsync, or between two member lines of one fused
unit.  The journal it leaves holds whole units only, and a fresh process
resuming from it writes a journal byte-identical to an undisturbed run's.
The same holds for the per-node shards of a ``NodePool`` campaign.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Exit status of a child that died at its site.
DIED = 75

#: Predictors per trace, so every fused unit has this many member lines.
MEMBERS = 3

CHILD = r"""
import json, os, sys

from repro.dist.merge import ShardedJournal
from repro.exec.journal import Journal
from repro.exec.plan import plan_campaign
from repro.exec.pool import execute_plan
from repro.predictors import ITTAGE, BranchTargetBuffer, TwoBitBTB
from repro.workloads import SwitchCaseSpec, VirtualDispatchSpec

config = json.loads(sys.argv[1])
writer = ShardedJournal if config["nodes"] else Journal
seen = [0]


def countdown():
    seen[0] += 1
    if seen[0] == config["at"]:
        os._exit(config["died"])


if config["site"] == "fsync":
    # Die inside the Nth commit's fsync: its lines are written and
    # flushed to the kernel but never synced.
    real_fsync, committing = os.fsync, []

    def fsync(fd):
        if committing:
            countdown()
        real_fsync(fd)

    real_commit = writer.commit

    def commit(self):
        committing.append(True)
        try:
            real_commit(self)
        finally:
            committing.pop()

    os.fsync = fsync
    writer.commit = commit
elif config["site"] == "member":
    # Die before the Nth member line reaches the journal.
    real_append = writer.append

    def append(self, result, node=""):
        countdown()
        real_append(self, result, node=node)

    writer.append = append

traces = [
    VirtualDispatchSpec(
        name=f"vd-death-{seed}", seed=seed, num_records=400, num_types=4,
        num_sites=2, determinism=0.9,
    ).generate()
    for seed in (1, 2)
] + [
    SwitchCaseSpec(
        name="sw-death", seed=3, num_records=400, num_cases=6,
        determinism=0.9,
    ).generate()
]
factories = {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB, "ITTAGE": ITTAGE}
pool = None
if config["nodes"]:
    from repro.dist import NodePool

    pool = NodePool(nodes=config["nodes"])
try:
    plan = plan_campaign(traces, factories, cache_dir=config["cache"])
    execute_plan(plan, journal_path=config["journal"], pool=pool)
finally:
    if pool is not None:
        pool.close()
"""


def _child(tmp_path, journal, site="", at=0, nodes=0) -> int:
    env = dict(os.environ)
    source_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [source_root, env.get("PYTHONPATH")])
    )
    config = {
        "site": site, "at": at, "nodes": nodes, "died": DIED,
        "journal": str(journal), "cache": str(tmp_path / "cache"),
    }
    completed = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(config)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if completed.returncode not in (0, DIED):
        raise AssertionError(completed.stderr)
    return completed.returncode


def _lines(journal: Path, nodes: int) -> int:
    files = (
        sorted(Path(str(journal) + ".shards").glob("*.jsonl"))
        if nodes else [journal]
    )
    return sum(len(path.read_text().splitlines()) for path in files)


@pytest.fixture(scope="module")
def undisturbed(tmp_path_factory) -> bytes:
    root = tmp_path_factory.mktemp("undisturbed")
    journal = root / "journal.jsonl"
    assert _child(root, journal) == 0
    return journal.read_bytes()


@pytest.mark.parametrize("nodes", [0, 2], ids=["journal", "shards"])
@pytest.mark.parametrize(
    "site, at, committed",
    [
        # The second unit's fsync: both units' lines reached the kernel.
        ("fsync", 2, 2 * MEMBERS),
        # The second member of the second unit: the first unit alone is
        # on disk, none of the unit that had not finished.
        ("member", MEMBERS + 2, MEMBERS),
    ],
    ids=["at-fsync", "between-members"],
)
def test_death_then_resume_matches_undisturbed(
    tmp_path, undisturbed, nodes, site, at, committed
):
    journal = tmp_path / "journal.jsonl"
    assert _child(tmp_path, journal, site, at, nodes) == DIED
    assert _lines(journal, nodes) == committed
    assert _child(tmp_path, journal, nodes=nodes) == 0
    assert journal.read_bytes() == undisturbed
