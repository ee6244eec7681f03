"""Alternative predictor backends (paper Section 3.2.1).

The paper notes the service interface is model-agnostic: "When low latency is
preferred, other relatively simple models can be used, such as decision
trees, linear regression, and naive Bayes."  These implementations share the
same ``predict``/``update``/``reset`` contract as the perceptron so they can
be swapped into a domain via ``model="linear"`` etc., and are compared in the
model-ablation benchmark.

All models are *online*: they learn from the same (features, direction)
feedback stream the service receives, with no batch training phase.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.hashing import table_index
from repro.core.models import PredictorModel


class ConstantModel(PredictorModel):
    """Static predictor; the no-learning baseline for ablations."""

    def __init__(self, config: PSSConfig, value: int) -> None:
        self.config = config
        self._value = value

    @classmethod
    def always_true(cls, config: PSSConfig) -> "ConstantModel":
        """Always returns a positive score (always take the fast path)."""
        return cls(config, +1)

    @classmethod
    def always_false(cls, config: PSSConfig) -> "ConstantModel":
        """Always returns a negative score (always take the slow path)."""
        return cls(config, -1)

    def predict(self, features: Sequence[int]) -> int:
        self._check_len(features)
        return self._value

    def _update(self, features: Sequence[int], direction: bool) -> None:
        self._check_len(features)

    def _reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._check_len(features)

    def to_state(self) -> dict:
        return {"kind": "constant", "value": self._value}

    def _load_state(self, state: dict) -> None:
        self._value = int(state["value"])


class MajorityModel(PredictorModel):
    """Predict whatever direction has been rewarded more often overall.

    Ignores the feature values entirely - a single up/down counter.  Useful
    as the simplest adaptive baseline: any feature-aware model should beat
    it whenever the best decision actually depends on the features.
    """

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        self._counter = 0

    def predict(self, features: Sequence[int]) -> int:
        self._check_len(features)
        return self._counter if self._counter else 1

    def _update(self, features: Sequence[int], direction: bool) -> None:
        self._check_len(features)
        lo = self.config.weight_min
        hi = self.config.weight_max
        self._counter = min(hi, max(lo, self._counter
                                    + (1 if direction else -1)))

    def _reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._check_len(features)
        self._counter = 0

    def to_state(self) -> dict:
        return {"kind": "majority", "counter": self._counter}

    def _load_state(self, state: dict) -> None:
        self._counter = int(state["counter"])


class OnlineLinearModel(PredictorModel):
    """Online linear regression on raw feature values (SGD, fixed rate).

    Unlike the hashed perceptron, this model generalizes across *numeric*
    feature values instead of treating each distinct value independently:
    the score is ``w . x + b`` over normalized features.  It can extrapolate
    (helpful when feature values are ordered, like retry counts), at the
    cost of being unable to represent non-monotonic decision rules.
    """

    #: learning rate for the SGD step
    LEARNING_RATE = 0.05
    #: feature values are squashed to +-1 via tanh(value / SCALE)
    SCALE = 64.0

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        self._w = [0.0] * config.num_features
        self._b = 0.0

    def _normalize(self, features: Sequence[int]) -> list[float]:
        self._check_len(features)
        return [math.tanh(v / self.SCALE) for v in features]

    def _raw_score(self, x: list[float]) -> float:
        return self._b + sum(w * xi for w, xi in zip(self._w, x))

    def predict(self, features: Sequence[int]) -> int:
        score = self._raw_score(self._normalize(features))
        # Scale into an integer so magnitude still conveys confidence.
        scaled = int(round(score * 100))
        if scaled == 0:
            scaled = 1 if score >= 0 else -1
        return scaled

    def _update(self, features: Sequence[int], direction: bool) -> None:
        x = self._normalize(features)
        target = 1.0 if direction else -1.0
        error = target - math.tanh(self._raw_score(x))
        step = self.LEARNING_RATE * error
        self._w = [w + step * xi for w, xi in zip(self._w, x)]
        self._b += step

    def _reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._check_len(features)
        if reset_all:
            self._w = [0.0] * self.config.num_features
            self._b = 0.0

    def to_state(self) -> dict:
        return {"kind": "linear", "w": list(self._w), "b": self._b}

    def _load_state(self, state: dict) -> None:
        w = [float(v) for v in state["w"]]
        if len(w) != self.config.num_features:
            raise FeatureError("snapshot shape does not match configuration")
        self._w = w
        self._b = float(state["b"])


class NaiveBayesModel(PredictorModel):
    """Online naive Bayes over hashed feature values.

    Maintains per-feature, per-bucket counts of positive and negative
    feedback; the score is the log-odds ``log P(+|x) - log P(-|x)`` with
    Laplace smoothing, scaled to an integer.
    """

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        size = config.entries_per_feature
        self._pos = [[0] * size for _ in range(config.num_features)]
        self._neg = [[0] * size for _ in range(config.num_features)]
        self._total_pos = 0
        self._total_neg = 0

    def _buckets(self, features: Sequence[int]) -> list[int]:
        self._check_len(features)
        entries = self.config.entries_per_feature
        seed = self.config.seed
        return [
            table_index(i, v, entries, seed) for i, v in enumerate(features)
        ]

    def predict(self, features: Sequence[int]) -> int:
        buckets = self._buckets(features)
        # Laplace-smoothed priors.
        log_odds = math.log((self._total_pos + 1) / (self._total_neg + 1))
        for i, b in enumerate(buckets):
            pos = self._pos[i][b] + 1
            neg = self._neg[i][b] + 1
            log_odds += math.log(
                (pos / (self._total_pos + 2)) / (neg / (self._total_neg + 2))
            )
        scaled = int(round(log_odds * 100))
        if scaled == 0:
            scaled = 1 if log_odds >= 0 else -1
        return scaled

    def _update(self, features: Sequence[int], direction: bool) -> None:
        buckets = self._buckets(features)
        table = self._pos if direction else self._neg
        for i, b in enumerate(buckets):
            table[i][b] += 1
        if direction:
            self._total_pos += 1
        else:
            self._total_neg += 1

    def _reset(self, features: Sequence[int], reset_all: bool) -> None:
        if reset_all:
            # Validate shape even on total reset for interface symmetry
            # - first: a refused reset must have wiped nothing.
            self._check_len(features)
            for table in (self._pos, self._neg):
                for row in table:
                    for i in range(len(row)):
                        row[i] = 0
            self._total_pos = 0
            self._total_neg = 0
            return
        for i, b in enumerate(self._buckets(features)):
            self._pos[i][b] = 0
            self._neg[i][b] = 0

    def to_state(self) -> dict:
        return {
            "kind": "naive-bayes",
            "pos": [list(r) for r in self._pos],
            "neg": [list(r) for r in self._neg],
            "total_pos": self._total_pos,
            "total_neg": self._total_neg,
        }

    def _load_state(self, state: dict) -> None:
        self._pos = [list(map(int, r)) for r in state["pos"]]
        self._neg = [list(map(int, r)) for r in state["neg"]]
        self._total_pos = int(state["total_pos"])
        self._total_neg = int(state["total_neg"])


class DecisionStumpEnsemble(PredictorModel):
    """Per-feature threshold stumps combined by weighted vote.

    Each feature gets one stump: "is the value above a running threshold?"
    Each stump tracks how well each of its two leaves correlates with
    positive feedback; prediction is the sum of leaf counters.  This is the
    "decision tree" point in the paper's latency/accuracy design space -
    cheaper than the perceptron per update, coarser-grained in what it can
    represent.
    """

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        n = config.num_features
        self._thresholds = [0.0] * n
        self._seen = 0
        # leaf counters: [feature][0=below threshold, 1=above]
        self._leaves = [[0, 0] for _ in range(n)]

    def _leaf_ids(self, features: Sequence[int]) -> list[int]:
        self._check_len(features)
        return [
            1 if v > self._thresholds[i] else 0
            for i, v in enumerate(features)
        ]

    def predict(self, features: Sequence[int]) -> int:
        score = sum(
            self._leaves[i][leaf]
            for i, leaf in enumerate(self._leaf_ids(features))
        )
        return score if score else 1

    def _update(self, features: Sequence[int], direction: bool) -> None:
        leaf_ids = self._leaf_ids(features)
        delta = 1 if direction else -1
        lo, hi = self.config.weight_min, self.config.weight_max
        for i, leaf in enumerate(leaf_ids):
            cur = self._leaves[i][leaf]
            self._leaves[i][leaf] = min(hi, max(lo, cur + delta))
        # Thresholds track a running mean of observed values so the split
        # point adapts to the feature's actual range.
        self._seen += 1
        rate = 1.0 / self._seen
        for i, v in enumerate(features):
            self._thresholds[i] += rate * (v - self._thresholds[i])

    def _reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._check_len(features)
        if reset_all:
            n = self.config.num_features
            self._thresholds = [0.0] * n
            self._leaves = [[0, 0] for _ in range(n)]
            self._seen = 0
        else:
            for i, leaf in enumerate(self._leaf_ids(features)):
                self._leaves[i][leaf] = 0

    def to_state(self) -> dict:
        return {
            "kind": "stumps",
            "thresholds": list(self._thresholds),
            "leaves": [list(leaf) for leaf in self._leaves],
            "seen": self._seen,
        }

    def _load_state(self, state: dict) -> None:
        self._thresholds = [float(t) for t in state["thresholds"]]
        self._leaves = [list(map(int, leaf)) for leaf in state["leaves"]]
        self._seen = int(state["seen"])
