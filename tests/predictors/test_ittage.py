"""Unit tests for the ITTAGE baseline."""

import numpy as np
import pytest

from repro.common.state import StateError
from repro.predictors.ittage import ITTAGE, ITTAGEConfig, geometric_lengths
from repro.trace.record import BranchType

_IND = int(BranchType.INDIRECT_JUMP)


def _drive(predictor, pc, target):
    prediction = predictor.predict_target(pc)
    predictor.train(pc, target)
    predictor.on_retired(pc, _IND, target)
    return prediction


class TestGeometricLengths:
    def test_endpoints(self):
        lengths = geometric_lengths(7, minimum=4, maximum=640)
        assert lengths[0] == 4
        assert lengths[-1] == 640

    def test_strictly_increasing(self):
        lengths = geometric_lengths(7)
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single(self):
        assert geometric_lengths(1, maximum=100) == (100,)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            geometric_lengths(0)


class TestITTAGEConfig:
    def test_default_valid(self):
        config = ITTAGEConfig()
        assert config.num_tagged == 7

    def test_mismatched_tag_widths_rejected(self):
        with pytest.raises(ValueError):
            ITTAGEConfig(num_tagged=3, tag_bits=(9, 9))

    def test_unsorted_history_rejected(self):
        with pytest.raises(ValueError):
            ITTAGEConfig(
                num_tagged=2,
                tag_bits=(9, 9),
                history_lengths=(10, 5),
            )


class TestITTAGE:
    def test_cold_miss(self):
        assert ITTAGE().predict_target(0x1000) is None

    def test_monomorphic_branch_learned_quickly(self):
        predictor = ITTAGE()
        for _ in range(4):
            _drive(predictor, 0x1000, 0x2000)
        assert predictor.predict_target(0x1000) == 0x2000

    def test_history_correlated_targets_learned(self):
        """Target determined by the previous conditional outcome."""
        predictor = ITTAGE()
        rng = np.random.default_rng(2)
        targets = {False: 0x2000, True: 0x3000}
        hits = 0
        trials = 800
        for i in range(trials):
            signal = bool(rng.integers(2))
            predictor.on_conditional(0x500, signal)
            prediction = predictor.predict_target(0x1000)
            actual = targets[signal]
            if i > trials // 2 and prediction == actual:
                hits += 1
            predictor.train(0x1000, actual)
            predictor.on_retired(0x1000, _IND, actual)
        assert hits > 0.9 * (trials // 2 - 1)

    def test_periodic_pattern_learned(self):
        """A period-4 cycle is learnable from target-bit history alone."""
        predictor = ITTAGE()
        targets = [0x2000, 0x2400, 0x2800, 0x2C00]
        hits = 0
        for i in range(1200):
            actual = targets[i % 4]
            if _drive(predictor, 0x1000, actual) == actual and i > 600:
                hits += 1
        assert hits > 540

    def test_beats_last_target_on_alternation(self):
        predictor = ITTAGE()
        targets = [0x2000, 0x3000]
        hits = 0
        for i in range(400):
            actual = targets[i % 2]
            if _drive(predictor, 0x1000, actual) == actual and i > 200:
                hits += 1
        assert hits > 180

    def test_u_reset_fires(self):
        config = ITTAGEConfig(u_reset_period=64)
        predictor = ITTAGE(config)
        for i in range(130):
            _drive(predictor, 0x1000 + (i % 3) * 0x40, 0x2000 + (i % 5) * 0x100)
        # After resets, all useful counters must be within range.
        for table in predictor._tables:
            assert int(table.useful.max()) <= 3

    def test_storage_budget_near_64kb(self):
        budget = ITTAGE().storage_budget()
        assert 40.0 < budget.total_kilobytes() < 80.0

    def test_train_without_predict_recovers(self):
        predictor = ITTAGE()
        predictor.train(0x1000, 0x2000)  # no preceding predict
        for _ in range(3):
            _drive(predictor, 0x1000, 0x2000)
        assert predictor.predict_target(0x1000) == 0x2000

    def test_deterministic_given_seed(self):
        def run(seed):
            predictor = ITTAGE(ITTAGEConfig(seed=seed))
            rng = np.random.default_rng(3)
            outcomes = []
            for _ in range(300):
                target = 0x2000 + int(rng.integers(4)) * 0x100
                outcomes.append(_drive(predictor, 0x1000, target))
            return outcomes

        assert run(42) == run(42)


def _warm_state():
    predictor = ITTAGE()
    rng = np.random.default_rng(5)
    for _ in range(80):
        predictor.on_conditional(0x500, bool(rng.integers(2)))
        _drive(predictor, 0x1000, 0x2000 + int(rng.integers(3)) * 0x100)
    return predictor.state_dict()


def _set(key, value):
    return lambda state: state.__setitem__(key, value)


def _flip_fold(group, table):
    def mutate(state):
        state[group][table]["fold"] ^= 1
    return mutate


def _flip_newest_ring_bit(state):
    newest = (state["ring_head"] - 1) % len(state["ring"])
    state["ring"][newest] ^= 1


class TestSnapshotValidation:
    """A malformed history snapshot is refused by ``load_state`` instead
    of failing on the first push or running on an inconsistent state."""

    @pytest.mark.parametrize(
        "mutate",
        [
            _set("ring_head", 641),
            _set("ring_head", -1),
            lambda state: state["ring"].__setitem__(5, 7),
            _flip_newest_ring_bit,
            _flip_fold("index_folds", 0),
            _flip_fold("tag_folds", 6),
            _flip_fold("tag_folds2", 3),
            _set("path", 1 << 40),
            _set("path", -1),
            _set("use_alt", 99),
            _set("use_alt", -9),
            _set("updates", -1),
        ],
        ids=[
            "head-at-capacity", "head-negative", "ring-bit-7",
            "ring-disagrees-with-folds", "index-fold", "tag-fold",
            "tag2-fold", "path-too-wide", "path-negative",
            "use-alt-high", "use-alt-low", "updates-negative",
        ],
    )
    def test_malformed_snapshot_rejected(self, mutate):
        state = _warm_state()
        mutate(state)
        with pytest.raises(StateError):
            ITTAGE().load_state(state)

    def test_valid_snapshot_round_trips(self):
        state = _warm_state()
        restored = ITTAGE()
        restored.load_state(state)
        assert restored.state_dict() == state
