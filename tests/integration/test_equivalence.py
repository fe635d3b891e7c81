"""Reference-vs-optimized BLBP equivalence over the full workload suite.

The acceptance gate for the hot-path rewrite (fused weight tensor,
batched incremental folds, IBTB lookup caching): replay every synthetic
suite workload through the optimized :class:`BLBP` and the per-bank
from-scratch :class:`ReferenceBLBP` in lockstep, asserting

* **per-branch identical predictions** — every indirect branch, every
  record, both implementations emit the same target (or the same
  "no prediction"); and
* **identical final misprediction counts** (hence identical MPKI).

Traces run at a small scale so the whole suite stays test-suite-fast;
the per-branch assertion makes size irrelevant for strictness — one
diverging fold or weight update trips it within a few branches.
"""

import json

import numpy as np
import pytest

from repro.core import BLBP, ReferenceBLBP
from repro.core.config import BLBPConfig
from repro.sim.engine import simulate
from repro.trace.record import BranchType
from repro.workloads.suite import suite88_specs

_COND = int(BranchType.CONDITIONAL)
_INDIRECT = (int(BranchType.INDIRECT_JUMP), int(BranchType.INDIRECT_CALL))

#: Every trace clamps to the 2000-record floor at this scale.
_SCALE = 0.01


def _suite_traces():
    return [(entry.name, entry.generate()) for entry in suite88_specs(_SCALE)]


_TRACES = None


def _traces():
    global _TRACES
    if _TRACES is None:
        _TRACES = _suite_traces()
    return _TRACES


def _lockstep(trace, config=None):
    """Drive both implementations record-by-record; return the shared
    misprediction count (asserting per-branch agreement throughout)."""
    optimized = BLBP(config() if config else None)
    reference = ReferenceBLBP(config() if config else None)
    mispredictions = 0
    indirect = 0
    for pc, branch_type, taken, target in zip(
        trace.pcs.tolist(),
        trace.types.tolist(),
        trace.takens.tolist(),
        trace.targets.tolist(),
    ):
        if branch_type == _COND:
            optimized.on_conditional(pc, taken)
            reference.on_conditional(pc, taken)
        elif branch_type in _INDIRECT:
            predicted = optimized.predict_target(pc)
            expected = reference.predict_target(pc)
            assert predicted == expected, (
                f"{trace.name}: divergence at indirect #{indirect} "
                f"(pc {pc:#x}): optimized {predicted!r} vs "
                f"reference {expected!r}"
            )
            indirect += 1
            if predicted != target:
                mispredictions += 1
            optimized.train(pc, target)
            reference.train(pc, target)
    return indirect, mispredictions


class TestFullSuiteEquivalence:
    def test_every_workload_predicts_identically(self):
        """All suite workloads, headline configuration, in lockstep."""
        checked = 0
        total_indirect = 0
        for name, trace in _traces():
            indirect, _ = _lockstep(trace)
            checked += 1
            total_indirect += indirect
        assert checked == len(suite88_specs(_SCALE))
        assert total_indirect > 0

    def test_hierarchical_config_subset(self):
        """A suite subset under the hierarchical-IBTB configuration."""
        config = lambda: BLBPConfig(use_hierarchical_ibtb=True)  # noqa: E731
        subset = _traces()[::11]
        assert len(subset) >= 5
        for name, trace in subset:
            _lockstep(trace, config=config)

    def test_suspended_blbp_tracks_reference_per_branch(self):
        """Suspend/restore lockstep over the whole suite: every 500
        records the live BLBP is snapshotted, serialized to JSON, and
        replaced by a freshly constructed instance restored from that
        snapshot — which must keep agreeing with the never-suspended
        reference on every subsequent indirect branch.  Traces are 2000
        records at this scale, so each workload survives 3 suspensions.
        """
        interval = 500
        for name, trace in _traces():
            optimized = BLBP()
            reference = ReferenceBLBP()
            indirect = 0
            for position, (pc, branch_type, taken, target) in enumerate(
                zip(
                    trace.pcs.tolist(),
                    trace.types.tolist(),
                    trace.takens.tolist(),
                    trace.targets.tolist(),
                )
            ):
                if position and position % interval == 0:
                    snapshot = json.loads(
                        json.dumps(optimized.state_dict())
                    )
                    optimized = BLBP()
                    optimized.load_state(snapshot)
                if branch_type == _COND:
                    optimized.on_conditional(pc, taken)
                    reference.on_conditional(pc, taken)
                elif branch_type in _INDIRECT:
                    predicted = optimized.predict_target(pc)
                    expected = reference.predict_target(pc)
                    assert predicted == expected, (
                        f"{name}: restored BLBP diverged at indirect "
                        f"#{indirect} (record {position}, pc {pc:#x}): "
                        f"{predicted!r} vs reference {expected!r}"
                    )
                    indirect += 1
                    optimized.train(pc, target)
                    reference.train(pc, target)

    def test_final_mpki_identical_via_engine(self):
        """End-to-end through the simulation engine: the reported
        misprediction totals (hence MPKI) agree on a suite sample."""
        for name, trace in _traces()[::9]:
            optimized = simulate(BLBP(), trace)
            reference = simulate(ReferenceBLBP(), trace)
            assert (
                optimized.indirect_mispredictions
                == reference.indirect_mispredictions
            ), f"{name}: MPKI diverges"
            assert optimized.indirect_branches == reference.indirect_branches
            assert optimized.mpki() == pytest.approx(reference.mpki())


class TestFusedUnfusedEquivalence:
    """Acceptance gate for campaign fusion: fused and unfused execution
    are provably interchangeable — same journal bytes, same per-cell
    MPKI, same final predictor state."""

    _FACTORY_NAMES = ["BTB", "2bit-BTB", "VPC", "ITTAGE", "BLBP"]

    def _factories(self):
        from repro.registry import INDIRECT_PREDICTORS

        return {
            name: INDIRECT_PREDICTORS[name]
            for name in self._FACTORY_NAMES
        }

    def test_serial_journals_byte_identical(self, tmp_path):
        from repro.exec.plan import plan_campaign
        from repro.exec.pool import execute_plan

        traces = [trace for _, trace in _traces()[:3]]
        plan = plan_campaign(
            traces, self._factories(), cache_dir=tmp_path / "cache"
        )
        fused_journal = tmp_path / "fused.jsonl"
        unfused_journal = tmp_path / "unfused.jsonl"
        fused = execute_plan(
            plan, jobs=1, journal_path=fused_journal, fuse=True
        )
        unfused = execute_plan(
            plan, jobs=1, journal_path=unfused_journal, fuse=False
        )
        assert fused_journal.read_bytes() == unfused_journal.read_bytes()
        for trace in traces:
            for name in self._FACTORY_NAMES:
                assert fused.mpki_of(trace.name, name) == pytest.approx(
                    unfused.mpki_of(trace.name, name)
                )

    def test_parallel_fused_matches_serial_unfused(self, tmp_path):
        from repro.exec.plan import plan_campaign
        from repro.exec.pool import execute_plan

        traces = [trace for _, trace in _traces()[:2]]
        plan = plan_campaign(
            traces, self._factories(), cache_dir=tmp_path / "cache"
        )
        fused = execute_plan(plan, jobs=2, fuse=True)
        unfused = execute_plan(plan, jobs=1, fuse=False)
        assert fused.results == unfused.results

    def test_final_predictor_state_hashes_equal(self):
        from repro.registry import make_indirect
        from repro.sim.engine import simulate_many

        for name, trace in _traces()[:3]:
            solo_predictors = [
                make_indirect(p) for p in self._FACTORY_NAMES
            ]
            solo_results = [
                simulate(predictor, trace)
                for predictor in solo_predictors
            ]
            fused_predictors = [
                make_indirect(p) for p in self._FACTORY_NAMES
            ]
            fused_results = simulate_many(fused_predictors, trace)
            for p, solo_p, fused_p, solo_r, fused_r in zip(
                self._FACTORY_NAMES, solo_predictors, fused_predictors,
                solo_results, fused_results,
            ):
                assert fused_p.state_hash() == solo_p.state_hash(), (
                    f"{name}/{p}: fused final state diverges"
                )
                assert (
                    fused_r.indirect_mispredictions
                    == solo_r.indirect_mispredictions
                ), f"{name}/{p}: MPKI diverges"
                assert fused_r.mpki() == pytest.approx(solo_r.mpki())


@pytest.mark.usefixtures("compiled_cores")
class TestColumnarEquivalence:
    """Acceptance gate for the columnar batch kernel: ``simulate(...,
    backend="columnar")`` is bit-identical to the scalar engine — same
    misprediction totals, same MPKI, same final predictor state hash —
    over the full 88-workload suite."""

    def _assert_backends_agree(self, trace, config=None):
        scalar_predictor = BLBP(config() if config else None)
        columnar_predictor = BLBP(config() if config else None)
        scalar = simulate(scalar_predictor, trace)
        columnar = simulate(columnar_predictor, trace, backend="columnar")
        assert (
            columnar.indirect_mispredictions
            == scalar.indirect_mispredictions
        ), f"{trace.name}: misprediction totals diverge"
        assert columnar.indirect_branches == scalar.indirect_branches
        assert columnar.mpki() == pytest.approx(scalar.mpki())
        assert (
            columnar_predictor.state_hash() == scalar_predictor.state_hash()
        ), f"{trace.name}: final predictor state diverges"

    def test_full_suite_identical(self):
        """All 88 workloads, headline configuration."""
        checked = 0
        for name, trace in _traces():
            self._assert_backends_agree(trace)
            checked += 1
        assert checked == len(suite88_specs(_SCALE))

    def test_config_variants_subset(self):
        """Feature toggles change the replay's inner loops; each
        variant must stay bit-identical on a suite subset."""
        variants = [
            lambda: BLBPConfig(use_selective_update=False),
            lambda: BLBPConfig(use_adaptive_threshold=False),
            lambda: BLBPConfig(use_transfer_function=False),
            lambda: BLBPConfig(use_local_history=False),
            lambda: BLBPConfig(use_intervals=False),
            lambda: BLBPConfig(use_hierarchical_ibtb=True),
        ]
        subset = _traces()[::11]
        assert len(subset) >= 5
        for config in variants:
            for name, trace in subset:
                self._assert_backends_agree(trace, config=config)

    def test_campaign_journals_byte_identical(self, tmp_path):
        """Backend choice must be invisible in campaign artifacts: the
        journal a columnar campaign writes is byte-for-byte the scalar
        one (the CI backend-equivalence step asserts the same via the
        CLI)."""
        from repro.exec.plan import plan_campaign
        from repro.exec.pool import execute_plan

        traces = [trace for _, trace in _traces()[:3]]
        factories = {"BLBP": BLBP}
        journals = {}
        for backend in ("scalar", "columnar"):
            plan = plan_campaign(
                traces, factories, cache_dir=tmp_path / backend,
                backend=backend,
            )
            journal = tmp_path / f"{backend}.jsonl"
            execute_plan(plan, jobs=1, journal_path=journal)
            journals[backend] = journal.read_bytes()
        assert journals["scalar"] == journals["columnar"]

    def test_serve_session_matches_columnar(self):
        """The serve layer's event-at-a-time session is pinned to
        ``simulate`` scalar; the columnar backend must land on exactly
        the same result and state, closing the loop serve → scalar →
        columnar."""
        from repro.serve.protocol import trace_events
        from repro.serve.session import PredictorSession

        for name, trace in _traces()[:3]:
            session = PredictorSession("oracle", "BLBP")
            session.step_events(trace_events(trace))
            predictor = BLBP()
            columnar = simulate(predictor, trace, backend="columnar")
            assert (
                session.result().indirect_mispredictions
                == columnar.indirect_mispredictions
            ), f"{name}: serve session and columnar kernel diverge"
            assert session.state_hash() == predictor.state_hash()


@pytest.mark.usefixtures("compiled_cores")
class TestColumnarEquivalenceAllKernels:
    """The ITTAGE and VPC columnar kernels over the full 88-workload
    suite: the columnar backend must land on the identical result and
    final predictor state as scalar."""

    _KEYS = ["ITTAGE", "VPC"]

    def _assert_agree(self, key, trace):
        from repro.registry import make_indirect

        scalar_predictor = make_indirect(key)
        columnar_predictor = make_indirect(key)
        scalar = simulate(scalar_predictor, trace)
        columnar = simulate(
            columnar_predictor, trace, backend="columnar"
        )
        assert columnar == scalar, f"{trace.name}/{key}: results diverge"
        assert (
            columnar_predictor.state_hash() == scalar_predictor.state_hash()
        ), f"{trace.name}/{key}: final predictor state diverges"

    def test_full_suite_identical(self):
        checked = 0
        for key in self._KEYS:
            for name, trace in _traces():
                self._assert_agree(key, trace)
                checked += 1
        assert checked == 2 * len(suite88_specs(_SCALE))

    def test_fused_columnar_campaign_matches_scalar(self, tmp_path):
        """A mixed-roster campaign under ``backend="columnar"`` (BLBP,
        ITTAGE, and VPC cells fuse into columnar groups) must write the
        byte-identical journal a scalar campaign does."""
        from repro.exec.plan import plan_campaign
        from repro.exec.pool import execute_plan
        from repro.registry import INDIRECT_PREDICTORS

        traces = [trace for _, trace in _traces()[:2]]
        factories = {
            name: INDIRECT_PREDICTORS[name]
            for name in ("BLBP", "ITTAGE", "VPC")
        }
        journals = {}
        for backend in ("scalar", "columnar"):
            plan = plan_campaign(
                traces, factories, cache_dir=tmp_path / backend,
                backend=backend,
            )
            journal = tmp_path / f"{backend}.jsonl"
            execute_plan(plan, jobs=1, journal_path=journal, fuse=True)
            journals[backend] = journal.read_bytes()
        assert journals["scalar"] == journals["columnar"]


class TestCampaignKillResumeEquivalence:
    def test_killed_campaign_resumes_to_identical_journal_and_mpki(
        self, tmp_path, backends
    ):
        """An exec-pool campaign killed mid-cell and resumed must leave
        a journal byte-identical to an undisturbed run's and report the
        same MPKI for every cell.  On every backend that can run here:
        a columnar campaign checkpoints and resumes on the cores, and
        both its journals equal the scalar clean journal byte for
        byte."""
        from repro.exec.plan import checkpoint_name, plan_campaign
        from repro.exec.pool import execute_plan
        from repro.sim.checkpoint import save_checkpoint
        from repro.sim.engine import simulate as engine_simulate
        from repro.trace.stream import read_trace

        traces = [trace for _, trace in _traces()[:2]]
        factories = {"BLBP": BLBP}
        reference = None
        for backend in backends:
            root = tmp_path / backend
            plan = plan_campaign(
                traces, factories, cache_dir=root / "cache", backend=backend
            )
            plan.spill()  # the planted checkpoint reads the spill

            clean_journal = root / "clean.jsonl"
            clean = execute_plan(
                plan, jobs=1, journal_path=clean_journal,
                checkpoint_every=500,
            )
            if reference is None:
                reference = clean_journal.read_bytes()

            # "Kill" the first cell mid-trace: leave its real checkpoint.
            killed_journal = root / "killed.jsonl"
            checkpoint_dir = root / "killed.jsonl.ckpt"
            checkpoint_dir.mkdir()
            spec = plan.cells[0]
            grabbed = []
            engine_simulate(
                spec.factory.build(),
                read_trace(spec.trace_path),
                checkpoint_every=500,
                on_checkpoint=grabbed.append,
            )
            save_checkpoint(
                grabbed[0], checkpoint_dir / checkpoint_name(spec)
            )

            resumed = execute_plan(
                plan, jobs=1, journal_path=killed_journal,
                checkpoint_every=500,
            )

            assert clean_journal.read_bytes() == reference, backend
            assert killed_journal.read_bytes() == reference, backend
            for trace in traces:
                assert resumed.mpki_of(trace.name, "BLBP") == pytest.approx(
                    clean.mpki_of(trace.name, "BLBP")
                )
