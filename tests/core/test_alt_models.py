"""Tests for the alternative predictor backends (Section 3.2.1)."""

import pytest

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.models import create_model, registered_models
from repro.models_extra.alt_models import (
    ConstantModel,
    DecisionStumpEnsemble,
    MajorityModel,
    NaiveBayesModel,
    OnlineLinearModel,
)

CFG2 = PSSConfig(num_features=2, entries_per_feature=128)

ADAPTIVE_MODELS = [
    OnlineLinearModel,
    NaiveBayesModel,
    DecisionStumpEnsemble,
    MajorityModel,
]


@pytest.mark.parametrize("cls", ADAPTIVE_MODELS)
class TestSharedContract:
    def test_learns_positive_direction(self, cls):
        m = cls(CFG2)
        for _ in range(40):
            m.update([10, 20], True)
        assert m.predict([10, 20]) > 0

    def test_learns_negative_direction(self, cls):
        m = cls(CFG2)
        for _ in range(40):
            m.update([10, 20], False)
        assert m.predict([10, 20]) < 0

    def test_full_reset_restores_neutrality(self, cls):
        m = cls(CFG2)
        for _ in range(40):
            m.update([10, 20], False)
        m.reset([10, 20], reset_all=True)
        assert m.predict([10, 20]) >= 0  # back to the optimistic default

    def test_rejects_wrong_length(self, cls):
        m = cls(CFG2)
        with pytest.raises(FeatureError):
            m.predict([1])
        with pytest.raises(FeatureError):
            m.update([1, 2, 3], True)

    def test_state_round_trip(self, cls):
        m = cls(CFG2)
        for v in range(25):
            m.update([v, v * 2], v % 2 == 0)
        clone = cls(CFG2)
        clone.load_state(m.to_state())
        for v in range(25):
            assert clone.predict([v, v * 2]) == m.predict([v, v * 2])

    def test_never_returns_zero(self, cls):
        """Scores must carry a decision; zero would be ambiguous for
        callers comparing against a zero threshold with strict sign."""
        m = cls(CFG2)
        assert m.predict([1, 2]) != 0 or m.predict([1, 2]) >= 0


class TestConstantModel:
    def test_always_true(self):
        m = ConstantModel.always_true(CFG2)
        assert m.predict([0, 0]) > 0
        m.update([0, 0], False)  # feedback is ignored
        assert m.predict([0, 0]) > 0

    def test_always_false(self):
        m = ConstantModel.always_false(CFG2)
        assert m.predict([0, 0]) < 0

    def test_state_round_trip(self):
        m = ConstantModel.always_false(CFG2)
        clone = ConstantModel.always_true(CFG2)
        clone.load_state(m.to_state())
        assert clone.predict([0, 0]) < 0


class TestMajorityModel:
    def test_ignores_features(self):
        m = MajorityModel(CFG2)
        for _ in range(10):
            m.update([1, 1], True)
        assert m.predict([999, 999]) > 0

    def test_counter_saturates(self):
        m = MajorityModel(PSSConfig(num_features=1, weight_bits=4))
        for _ in range(100):
            m.update([1], True)
        assert m.predict([1]) == 7  # max of 4-bit signed


class TestOnlineLinearModel:
    def test_generalizes_monotonic_rule(self):
        """Trained 'big first feature means False', it extrapolates to
        unseen big values - the distinguishing power vs the perceptron."""
        m = OnlineLinearModel(CFG2)
        for _ in range(300):
            m.update([100, 0], False)
            m.update([1, 0], True)
        assert m.predict([120, 0]) < 0  # unseen, larger value
        assert m.predict([2, 0]) > 0    # unseen, small value

    def test_selective_reset_is_noop(self):
        m = OnlineLinearModel(CFG2)
        for _ in range(10):
            m.update([5, 5], True)
        before = m.predict([5, 5])
        m.reset([5, 5], reset_all=False)
        assert m.predict([5, 5]) == before


class TestNaiveBayes:
    def test_feature_conditional_rule(self):
        m = NaiveBayesModel(CFG2)
        for _ in range(30):
            m.update([1, 0], True)
            m.update([2, 0], False)
        assert m.predict([1, 0]) > 0
        assert m.predict([2, 0]) < 0

    def test_selective_reset_clears_buckets(self):
        m = NaiveBayesModel(CFG2)
        for _ in range(30):
            m.update([1, 0], False)
            m.update([2, 0], True)
        m.reset([1, 0], reset_all=False)
        # Bucket evidence gone; only priors remain, and the positive
        # updates for [2, 0] dominate the prior.
        assert m.predict([1, 0]) >= 0


class TestDecisionStumps:
    def test_threshold_tracks_running_mean(self):
        m = DecisionStumpEnsemble(PSSConfig(num_features=1))
        for _ in range(10):
            m.update([100], True)
        assert m._thresholds[0] == pytest.approx(100.0)

    def test_splits_on_threshold(self):
        m = DecisionStumpEnsemble(PSSConfig(num_features=1))
        # Alternate so the running-mean threshold sits around 50.
        for _ in range(100):
            m.update([100], False)
            m.update([1], True)
        assert m.predict([200]) < 0
        assert m.predict([0]) > 0


class TestRegistry:
    def test_builtins_registered(self):
        assert registered_models() == (
            "always-false", "always-true", "linear", "majority",
            "naive-bayes", "perceptron", "stumps")

    def test_create_model_returns_working_instance(self):
        m = create_model("linear", CFG2)
        m.update([1, 2], True)
        assert isinstance(m.predict([1, 2]), int)

    def test_register_rejects_duplicates(self):
        from repro.core.errors import ModelError
        from repro.core.models import register_model
        with pytest.raises(ModelError):
            register_model("perceptron", OnlineLinearModel)
