"""Tests for the accuracy-tier models (KNN, boosted stumps, tiny MLP)."""

import pytest

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.models import create_model
from repro.models_extra.heavy_models import (
    BoostedStumpsModel,
    KnnModel,
    TinyMlpModel,
)

CFG = PSSConfig(num_features=2, entries_per_feature=128)
HEAVY = [KnnModel, BoostedStumpsModel, TinyMlpModel]


@pytest.mark.parametrize("cls", HEAVY)
class TestHeavyContract:
    def test_learns_feature_dependent_rule(self, cls):
        m = cls(CFG)
        for _ in range(60):
            m.update([5, 6], True)
            m.update([50, 60], False)
        assert m.predict([5, 6]) > 0
        assert m.predict([50, 60]) < 0

    def test_rejects_wrong_length(self, cls):
        m = cls(CFG)
        with pytest.raises(FeatureError):
            m.predict([1])
        with pytest.raises(FeatureError):
            m.update([1, 2, 3], True)

    def test_state_round_trip(self, cls):
        m = cls(CFG)
        for v in range(30):
            m.update([v, v * 2], v % 2 == 0)
        clone = cls(CFG)
        clone.load_state(m.to_state())
        for v in range(30):
            assert clone.predict([v, v * 2]) == m.predict([v, v * 2])

    def test_full_reset(self, cls):
        m = cls(CFG)
        for _ in range(40):
            m.update([9, 9], False)
        m.reset([9, 9], reset_all=True)
        # Back to the optimistic/neutral default.
        assert m.predict([9, 9]) >= -5

    def test_registered_in_service(self, cls):
        name = {
            KnnModel: "knn",
            BoostedStumpsModel: "boosted-stumps",
            TinyMlpModel: "tiny-mlp",
        }[cls]
        model = create_model(name, CFG)
        assert isinstance(model, cls)


class TestKnnSpecifics:
    def test_reservoir_bounded(self):
        m = KnnModel(CFG)
        for i in range(KnnModel.CAPACITY + 100):
            m.update([i, i], True)
        assert len(m._examples) == KnnModel.CAPACITY

    def test_nearest_neighbour_generalizes(self):
        m = KnnModel(CFG)
        for _ in range(10):
            m.update([10, 10], True)
            m.update([1000, 1000], False)
        # Unseen points near each cluster inherit its label.
        assert m.predict([12, 11]) > 0
        assert m.predict([900, 1100]) < 0

    def test_selective_reset_removes_matching_points(self):
        m = KnnModel(CFG)
        for _ in range(5):
            m.update([7, 7], False)
        m.update([100, 100], True)
        m.reset([7, 7], reset_all=False)
        assert m.predict([7, 7]) > 0  # only the positive example remains


class TestMlpSpecifics:
    def test_generalizes_a_band_rule_to_unseen_values(self):
        """A band rule needs two thresholds (non-linear in the raw
        feature), and generalization to *unseen* values is exactly what
        the hashed perceptron cannot do - each unseen value hashes to an
        untrained weight."""
        m = TinyMlpModel(PSSConfig(num_features=1))

        def truth(v):
            return 20 <= v < 45

        for _ in range(300):
            for v in range(0, 80, 2):  # train on even values only
                m.update([v], truth(v))
        errors = sum(
            1 for v in range(1, 80, 2)
            if (m.predict([v]) >= 0) != truth(v)
        )
        assert errors <= 2

    def test_deterministic_init_from_seed(self):
        a = TinyMlpModel(CFG)
        b = TinyMlpModel(CFG)
        assert a.to_state() == b.to_state()
