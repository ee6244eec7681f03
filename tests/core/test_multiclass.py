"""Tests for the multi-way choice helpers built on the binary service."""

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.errors import ConfigError
from repro.models_extra.multiclass import BinarySearchTuner, MultiChoiceClient

CFG = PSSConfig(num_features=1)


class TestMultiChoiceClient:
    def make(self, service=None):
        return MultiChoiceClient(
            service or PredictionService(), "algo",
            options=("quick", "merge", "radix"), config=CFG,
            batch_size=1,
        )

    def test_learns_context_dependent_best_option(self):
        chooser = self.make()
        # Ground truth: small inputs -> quick, large -> merge.
        def best(n):
            return "quick" if n < 100 else "merge"

        for _ in range(80):
            for n in (10, 2000):
                chosen = chooser.choose([n])
                chooser.feedback([n], chosen, reward=chosen == best(n))
        assert chooser.choose([10]) == "quick"
        assert chooser.choose([2000]) == "merge"

    def test_scores_cover_all_options(self):
        chooser = self.make()
        scores = chooser.scores([5])
        assert set(scores) == {"quick", "merge", "radix"}

    def test_cold_start_deterministic(self):
        assert self.make().choose([7]) == self.make().choose([7])

    def test_domains_created_with_prefix(self):
        service = PredictionService()
        self.make(service)
        assert "algo/quick" in service.domain_names()

    def test_rejects_degenerate_options(self):
        with pytest.raises(ConfigError):
            MultiChoiceClient(PredictionService(), "x", options=("a",),
                              config=CFG)
        with pytest.raises(ConfigError):
            MultiChoiceClient(PredictionService(), "x",
                              options=("a", "a"), config=CFG)

    def test_feedback_unknown_option_rejected(self):
        chooser = self.make()
        with pytest.raises(ConfigError):
            chooser.feedback([1], "bogo", reward=True)

    def test_flush_delivers_buffered_updates(self):
        service = PredictionService()
        chooser = MultiChoiceClient(service, "algo",
                                    options=("a", "b"), config=CFG,
                                    batch_size=50)
        chooser.feedback([1], "a", reward=True)
        assert service.domain("algo/a").stats.updates == 0
        chooser.flush()
        assert service.domain("algo/a").stats.updates == 1


class TestBinarySearchTuner:
    def make(self, **kwargs):
        kwargs.setdefault("service", PredictionService())
        kwargs.setdefault("domain", "knob")
        kwargs.setdefault("lo", 0)
        kwargs.setdefault("hi", 10)
        kwargs.setdefault("value", 5)
        kwargs.setdefault("config", CFG)
        return BinarySearchTuner(**kwargs)

    def test_stays_within_bounds(self):
        tuner = self.make()
        for i in range(100):
            value = tuner.propose()
            assert 0 <= value <= 10
            tuner.feedback(improved=i % 2 == 0)

    def test_converges_toward_a_known_optimum(self):
        """Reward moves toward 8; the tuner must end near it."""
        tuner = self.make()
        previous_distance = abs(tuner.value - 8)
        for _ in range(200):
            value = tuner.propose()
            distance = abs(value - 8)
            tuner.feedback(improved=distance < previous_distance)
            previous_distance = distance
        assert abs(tuner.value - 8) <= 2

    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigError):
            self.make(value=99)
        with pytest.raises(ConfigError):
            self.make(step=0)

    def test_feedback_before_propose_is_noop(self):
        tuner = self.make()
        tuner.feedback(improved=True)  # must not raise
