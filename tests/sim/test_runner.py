"""Tests for the campaign runner."""

from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.two_bit_btb import TwoBitBTB
from repro.sim.runner import run_campaign


class TestRunCampaign:
    def test_all_cells_filled(self, tiny_trace, vdispatch_trace):
        campaign = run_campaign(
            [tiny_trace, vdispatch_trace],
            {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB},
        )
        assert set(campaign.traces()) == {"tiny", "vd-test"}
        assert set(campaign.predictors()) == {"BTB", "2bit"}
        for trace in campaign.traces():
            for predictor in campaign.predictors():
                assert campaign.mpki_of(trace, predictor) >= 0

    def test_factory_name_overrides_predictor_name(self, tiny_trace):
        campaign = run_campaign([tiny_trace], {"custom": BranchTargetBuffer})
        assert campaign.predictors() == ["custom"]

    def test_fresh_predictor_per_trace(self, tiny_trace):
        instances = []

        def factory():
            instance = BranchTargetBuffer()
            instances.append(instance)
            return instance

        run_campaign([tiny_trace, tiny_trace], {"BTB": factory})
        assert len(instances) == 2
        assert instances[0] is not instances[1]

    def test_progress_callback_invoked(self, tiny_trace):
        seen = []
        run_campaign(
            [tiny_trace],
            {"BTB": BranchTargetBuffer},
            progress=lambda trace, name, mpki, index, total: seen.append(
                (trace, name, mpki)
            ),
        )
        assert seen and seen[0][0] == "tiny" and seen[0][1] == "BTB"


class TestProgressProtocol:
    """Progress callbacks receive ``(trace, predictor, mpki, index,
    total)``."""

    def test_extended_callback_gets_index_and_total(self, tiny_trace,
                                                    vdispatch_trace):
        seen = []

        def progress(trace, name, mpki, index, total):
            seen.append((trace, name, index, total))

        run_campaign(
            [tiny_trace, vdispatch_trace],
            {"BTB": BranchTargetBuffer, "2bit": TwoBitBTB},
            progress=progress,
        )
        assert [cell[2] for cell in seen] == [0, 1, 2, 3]
        assert all(cell[3] == 4 for cell in seen)
        assert seen[0][:2] == ("tiny", "BTB")
        assert seen[-1][:2] == ("vd-test", "2bit")

    def test_var_positional_callback_treated_as_extended(self, tiny_trace):
        seen = []
        run_campaign(
            [tiny_trace],
            {"BTB": BranchTargetBuffer},
            progress=lambda *args: seen.append(args),
        )
        assert len(seen) == 1 and len(seen[0]) == 5
        assert seen[0][3:] == (0, 1)
