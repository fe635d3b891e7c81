"""Tests for campaign planning and factory references."""

import functools

import pytest

from repro.exec.plan import (
    CellSpec,
    FactoryRef,
    PlanError,
    plan_campaign,
)
from repro.predictors import BranchTargetBuffer, TwoBitBTB
from repro.trace.stream import read_trace


class TestFactoryRef:
    def test_importable_class_uses_dotted_path(self):
        ref = FactoryRef.from_callable(BranchTargetBuffer)
        assert ref.dotted == "repro.predictors.btb:BranchTargetBuffer"
        assert ref.obj is None
        assert ref.picklable()

    def test_dotted_ref_builds_fresh_instances(self):
        ref = FactoryRef.from_callable(BranchTargetBuffer)
        first, second = ref.build(), ref.build()
        assert isinstance(first, BranchTargetBuffer)
        assert first is not second

    def test_closure_carried_as_object(self):
        captured = 16

        def factory():
            return BranchTargetBuffer(num_entries=captured)

        ref = FactoryRef.from_callable(factory)
        assert ref.dotted is None
        assert ref.obj is factory
        assert not ref.picklable()  # closures cannot cross processes
        assert ref.build().num_entries == 16

    def test_partial_is_picklable_object_ref(self):
        ref = FactoryRef.from_callable(
            functools.partial(BranchTargetBuffer, num_entries=64)
        )
        assert ref.dotted is None
        assert ref.picklable()
        assert ref.build().num_entries == 64


class TestPlanCampaign:
    def test_cell_order_matches_serial_runner(self, tiny_trace,
                                              vdispatch_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace, vdispatch_trace],
            {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB},
            cache_dir=tmp_path,
        )
        assert plan.total == 4
        assert plan.keys() == [
            ("tiny", "BTB"),
            ("tiny", "2bit"),
            ("vd-test", "BTB"),
            ("vd-test", "2bit"),
        ]
        assert [cell.index for cell in plan.cells] == [0, 1, 2, 3]

    def test_traces_spilled_once_and_readable(self, tiny_trace,
                                              vdispatch_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace, vdispatch_trace],
            {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB},
            cache_dir=tmp_path,
        )
        assert plan.spill() == 2  # one write per trace
        assert plan.spill() == 0  # ... and only one
        paths = {cell.trace_path for cell in plan.cells}
        assert len(paths) == 2  # one spill file per trace, shared by cells
        for cell in plan.cells:
            loaded = read_trace(cell.trace_path)
            assert loaded.name == cell.trace_name
            assert len(loaded) == cell.records

    def test_carries_simulation_parameters(self, tiny_trace, tmp_path):
        plan = plan_campaign(
            [tiny_trace], {"BTB": BranchTargetBuffer},
            cache_dir=tmp_path, ras_depth=8, warmup_records=4,
        )
        cell = plan.cells[0]
        assert isinstance(cell, CellSpec)
        assert cell.ras_depth == 8
        assert cell.warmup_records == 4

    def test_duplicate_trace_names_rejected(self, tiny_trace, tmp_path):
        with pytest.raises(PlanError, match="duplicate"):
            plan_campaign(
                [tiny_trace, tiny_trace], {"BTB": BranchTargetBuffer},
                cache_dir=tmp_path,
            )

    def test_empty_factories_rejected(self, tiny_trace, tmp_path):
        with pytest.raises(PlanError):
            plan_campaign([tiny_trace], {}, cache_dir=tmp_path)

    def test_spill_names_safe_for_weird_trace_names(self, tiny_trace,
                                                    tmp_path):
        from repro.trace.stream import Trace

        weird = Trace(
            "a/b c:δ", tiny_trace.pcs, tiny_trace.types, tiny_trace.takens,
            tiny_trace.targets, tiny_trace.gaps,
        )
        plan = plan_campaign(
            [weird], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path,
        )
        plan.spill()
        loaded = read_trace(plan.cells[0].trace_path)
        assert loaded.name == "a/b c:δ"


class TestPlanOverSources:
    """Plans accept Trace | TraceSource | workload spec interchangeably."""

    def _spec(self, name="vd-src"):
        from repro.workloads import VirtualDispatchSpec

        return VirtualDispatchSpec(
            name=name, seed=7, num_records=400, num_types=4, num_sites=2,
        )

    def test_sources_plan_identically_to_traces(self, tmp_path):
        from repro.trace.source import WorkloadSource

        spec = self._spec()
        eager = plan_campaign(
            [spec.generate()], {"BTB": BranchTargetBuffer},
            cache_dir=tmp_path / "eager",
        )
        eager.spill()
        lazy = plan_campaign(
            [WorkloadSource(spec)], {"BTB": BranchTargetBuffer},
            cache_dir=tmp_path / "lazy",
        )
        for left, right in zip(eager.cells, lazy.cells):
            assert left.trace_name == right.trace_name
            assert left.records == right.records
            assert left.key == right.key
        # Identical spill bytes — journals and worker caches can't tell.
        eager_spill = (tmp_path / "eager" / "0000-vd-src.trace").read_bytes()
        lazy_spill = (tmp_path / "lazy" / "0000-vd-src.trace").read_bytes()
        assert eager_spill == lazy_spill

    def test_bare_spec_accepted(self, tmp_path):
        plan = plan_campaign(
            [self._spec()], {"BTB": BranchTargetBuffer}, cache_dir=tmp_path,
        )
        assert plan.cells[0].trace_name == "vd-src"
        assert plan.cells[0].records == 400

    def test_spill_once_keyed_on_content_hash(self, tiny_trace, tmp_path):
        assert plan_campaign([tiny_trace], {"BTB": BranchTargetBuffer},
                             cache_dir=tmp_path).spill() == 1
        spill = tmp_path / f"0000-{tiny_trace.name}.trace"
        stamp = spill.stat().st_mtime_ns
        assert plan_campaign([tiny_trace], {"BTB": BranchTargetBuffer},
                             cache_dir=tmp_path).spill() == 0
        assert spill.stat().st_mtime_ns == stamp

    def test_lazy_source_released_after_planning(self, tmp_path):
        from repro.trace.source import WorkloadSource

        source = WorkloadSource(self._spec())
        plan_campaign([source], {"BTB": BranchTargetBuffer},
                      cache_dir=tmp_path)
        assert source._trace is None  # spilled, then dropped

    def test_plan_summary_over_sources(self):
        from repro.exec.plan import plan_summary
        from repro.trace.source import WorkloadSource

        spec = self._spec()
        eager = plan_summary([spec.generate()], {"BTB": BranchTargetBuffer})
        lazy = plan_summary([WorkloadSource(spec)],
                            {"BTB": BranchTargetBuffer})
        assert eager == lazy
