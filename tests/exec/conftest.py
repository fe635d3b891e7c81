"""Fixtures shared by the execution-engine tests."""

import pytest


@pytest.fixture(params=["jobs1", "jobs2", "nodes2"])
def runner_kind(request):
    """``execute_plan`` keywords selecting each runner kind of the one
    scheduler: the in-process runner, process-pool slots, worker nodes."""
    if request.param == "nodes2":
        from repro.dist import NodePool

        with NodePool(nodes=2) as pool:
            yield {"pool": pool}
    else:
        yield {"jobs": int(request.param[-1])}
