"""Unit tests for repro.cond.mpp (multiperspective perceptron)."""

import numpy as np
import pytest

from repro.cond.mpp import DEFAULT_FEATURES, MultiperspectivePerceptron


class TestMPP:
    def test_learns_bias(self):
        predictor = MultiperspectivePerceptron(index_bits=10)
        for _ in range(60):
            predictor.update(0x1000, True)
        assert predictor.predict(0x1000)

    def test_learns_local_pattern(self):
        """A period-2 per-branch pattern is a local-history specialty."""
        predictor = MultiperspectivePerceptron(index_bits=10)
        outcome = True
        for _ in range(600):
            predictor.update(0x7000, outcome)
            outcome = not outcome
        hits = 0
        for _ in range(100):
            if predictor.predict(0x7000) == outcome:
                hits += 1
            predictor.update(0x7000, outcome)
            outcome = not outcome
        assert hits >= 90

    def test_learns_global_correlation(self):
        predictor = MultiperspectivePerceptron(index_bits=12)
        rng = np.random.default_rng(5)
        hits = 0
        trials = 1000
        for i in range(trials):
            signal = bool(rng.integers(2))
            predictor.update(0x2000, signal)
            if predictor.predict(0x3000) == signal and i > trials // 2:
                hits += 1
            predictor.update(0x3000, signal)
        assert hits > 0.85 * (trials // 2 - 1)

    def test_train_weights_keeps_histories(self):
        predictor = MultiperspectivePerceptron()
        predictor.update(0x1000, True)
        ghist_before = predictor._ghist.value()
        predictor.train_weights(0x9999, True)
        assert predictor._ghist.value() == ghist_before

    def test_unknown_feature_kind_rejected(self):
        with pytest.raises(ValueError):
            MultiperspectivePerceptron(features=(("astrology", 7),))

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            MultiperspectivePerceptron(features=())

    @pytest.mark.parametrize("weight_bits", [0, 1, 9, 10])
    def test_weight_bits_outside_int8_rejected(self, weight_bits):
        """The weight tables are int8: wider weights would overflow them
        mid-training, and fewer than 2 bits leave no signed range."""
        with pytest.raises(ValueError, match="weight_bits"):
            MultiperspectivePerceptron(weight_bits=weight_bits)

    def test_index_bits_below_one_rejected(self):
        with pytest.raises(ValueError, match="index_bits"):
            MultiperspectivePerceptron(index_bits=0)

    @pytest.mark.parametrize(
        "feature", [("ghist", -1), ("path", 0), ("path", -3)]
    )
    def test_bad_feature_parameters_rejected(self, feature):
        with pytest.raises(ValueError, match=feature[0]):
            MultiperspectivePerceptron(features=(("bias", 0), feature))

    @pytest.mark.parametrize("weight_bits", [2, 8])
    def test_weights_saturate_at_the_width_bounds(self, weight_bits):
        """Training saturates at +-2^(weight_bits-1), which int8 holds
        for every accepted width."""
        predictor = MultiperspectivePerceptron(
            features=(("bias", 0),), index_bits=4, weight_bits=weight_bits
        )
        predictor._threshold.theta = 1000  # keep training on correct
        for taken, bound in ((True, predictor._weight_max),
                             (False, predictor._weight_min)):
            for _ in range(300):
                predictor.update(0x1000, taken)
            table = predictor._tables[0].tolist()
            assert bound in table
            assert predictor._weight_min <= min(table)
            assert max(table) <= predictor._weight_max

    def test_storage_budget_counts_each_feature(self):
        predictor = MultiperspectivePerceptron()
        budget = predictor.storage_budget()
        table_items = [
            item for item, _ in budget.items if item.startswith("weights")
        ]
        assert len(table_items) == len(DEFAULT_FEATURES)
