"""Unit tests for the TAGE conditional predictor."""

import numpy as np
import pytest

from repro.common.state import StateError
from repro.cond.tage import TAGE, TAGEConfig


class TestTAGEConfig:
    def test_defaults_valid(self):
        assert TAGEConfig().num_tagged == 7

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError):
            TAGEConfig(num_tagged=2, tag_bits=(8,))

    def test_unsorted_lengths_rejected(self):
        with pytest.raises(ValueError):
            TAGEConfig(
                num_tagged=2, tag_bits=(8, 8), history_lengths=(20, 10)
            )


class TestTAGE:
    def test_learns_bias(self):
        predictor = TAGE()
        for _ in range(30):
            predictor.update(0x1000, True)
        assert predictor.predict(0x1000)

    def test_learns_period_pattern(self):
        predictor = TAGE()
        hits = 0
        for i in range(2000):
            taken = (i % 5) == 0
            if predictor.predict(0x1000) == taken and i > 1000:
                hits += 1
            predictor.update(0x1000, taken)
        assert hits > 950

    def test_learns_cross_branch_correlation(self):
        predictor = TAGE()
        rng = np.random.default_rng(1)
        hits = 0
        trials = 2000
        for i in range(trials):
            signal = bool(rng.integers(2))
            predictor.update(0x2000, signal)
            if predictor.predict(0x3000) == signal and i > trials // 2:
                hits += 1
            predictor.update(0x3000, signal)
        assert hits > 0.9 * (trials // 2 - 1)

    def test_train_weights_keeps_history(self):
        predictor = TAGE()
        head_before = predictor._history_head
        predictor.train_weights(0x1000, True)
        assert predictor._history_head == head_before

    def test_update_advances_history(self):
        predictor = TAGE()
        head_before = predictor._history_head
        predictor.update(0x1000, True)
        assert predictor._history_head != head_before

    def test_u_reset_fires(self):
        predictor = TAGE(TAGEConfig(u_reset_period=64))
        rng = np.random.default_rng(2)
        for _ in range(200):
            predictor.update(0x1000, bool(rng.integers(2)))
        for table in predictor._tables:
            assert int(table.useful.max()) <= 3

    def test_deterministic(self):
        def run():
            predictor = TAGE()
            rng = np.random.default_rng(3)
            outcomes = []
            for _ in range(500):
                pc = 0x1000 + int(rng.integers(4)) * 0x40
                outcomes.append(predictor.predict(pc))
                predictor.update(pc, bool(rng.integers(2)))
            return outcomes

        assert run() == run()

    def test_storage_budget(self):
        budget = TAGE().storage_budget()
        assert budget.total_bits() > 0
        assert any("bimodal" in item for item, _ in budget.items)


def _warm_state():
    predictor = TAGE()
    rng = np.random.default_rng(6)
    for _ in range(200):
        pc = 0x1000 + int(rng.integers(4)) * 0x40
        predictor.predict(pc)
        predictor.update(pc, bool(rng.integers(2)))
    return predictor.state_dict()


def _set(key, value):
    return lambda state: state.__setitem__(key, value)


def _flip_fold(group, table):
    def mutate(state):
        state[group][table]["fold"] ^= 1
    return mutate


def _flip_newest_ring_bit(state):
    newest = (state["history_head"] - 1) % len(state["history_ring"])
    state["history_ring"][newest] ^= 1


class TestSnapshotValidation:
    """A malformed history snapshot is refused by ``load_state`` instead
    of failing on the first update or running on an inconsistent state."""

    @pytest.mark.parametrize(
        "mutate",
        [
            _set("history_head", 321),
            _set("history_head", -1),
            lambda state: state["history_ring"].__setitem__(5, 7),
            _flip_newest_ring_bit,
            _flip_fold("index_folds", 0),
            _flip_fold("tag_folds", 6),
            _flip_fold("tag_folds2", 3),
            _set("use_alt", 99),
            _set("use_alt", -9),
            _set("updates", -1),
        ],
        ids=[
            "head-at-capacity", "head-negative", "ring-bit-7",
            "ring-disagrees-with-folds", "index-fold", "tag-fold",
            "tag2-fold", "use-alt-high", "use-alt-low", "updates-negative",
        ],
    )
    def test_malformed_snapshot_rejected(self, mutate):
        state = _warm_state()
        mutate(state)
        with pytest.raises(StateError):
            TAGE().load_state(state)

    def test_valid_snapshot_round_trips(self):
        state = _warm_state()
        restored = TAGE()
        restored.load_state(state)
        assert restored.state_dict() == state
