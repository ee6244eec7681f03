"""Heavier predictor backends (paper Section 3.2.1, accuracy tier).

"On the other hand, if accuracy is prioritized more complicated models
can be deployed, including XGBoost, k-nearest neighbors (KNN), and
neural networks."  This module provides online-friendly counterparts of
that tier:

* :class:`KnnModel` - k-nearest neighbours over a bounded reservoir of
  labelled feature vectors;
* :class:`BoostedStumpsModel` - a small additive ensemble of depth-one
  learners refreshed online (an XGBoost-flavoured point in the design
  space);
* :class:`TinyMlpModel` - a one-hidden-layer neural network trained by
  SGD.

They are deliberately more expensive per call than the perceptron; the
model-ablation bench quantifies the latency/accuracy trade-off the paper
sketches.
"""

from __future__ import annotations

import math

from repro.core.config import PSSConfig
from repro.core.hashing import mix64
from repro.core.models import PredictorModel


class KnnModel(PredictorModel):
    """k-NN over a sliding reservoir of (features, direction) examples.

    Prediction is a distance-weighted vote of the ``k`` nearest stored
    examples; update appends to the reservoir (evicting the oldest).
    Feature values are log-squashed so huge counters do not dominate
    the metric.
    """

    K = 7
    CAPACITY = 512

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        self._examples: list[tuple[tuple[float, ...], bool]] = []

    @staticmethod
    def _embed(features) -> tuple[float, ...]:
        return tuple(
            math.copysign(math.log1p(abs(v)), v) for v in features
        )

    def _vote(self, point: tuple[float, ...]) -> float:
        if not self._examples:
            return 1.0
        scored = sorted(
            (sum((a - b) ** 2 for a, b in zip(point, stored)), label)
            for stored, label in self._examples
        )[: self.K]
        vote = 0.0
        for distance, label in scored:
            weight = 1.0 / (1.0 + distance)
            vote += weight if label else -weight
        return vote

    def predict(self, features) -> int:
        self._check_len(features)
        vote = self._vote(self._embed(features))
        scaled = int(round(vote * 100))
        return scaled if scaled != 0 else (1 if vote >= 0 else -1)

    def _update(self, features, direction: bool) -> None:
        self._check_len(features)
        self._examples.append((self._embed(features), direction))
        if len(self._examples) > self.CAPACITY:
            self._examples.pop(0)

    def _reset(self, features, reset_all: bool) -> None:
        self._check_len(features)
        if reset_all:
            self._examples.clear()
        else:
            target = self._embed(features)
            self._examples = [
                (stored, label) for stored, label in self._examples
                if stored != target
            ]

    def to_state(self) -> dict:
        return {
            "kind": "knn",
            "examples": [
                [list(stored), label] for stored, label in self._examples
            ],
        }

    def _load_state(self, state: dict) -> None:
        self._examples = [
            (tuple(float(v) for v in stored), bool(label))
            for stored, label in state["examples"]
        ]


class BoostedStumpsModel(PredictorModel):
    """An online additive ensemble of hash-bucket stumps.

    Each round owns one stump per feature; rounds are trained in
    sequence on the *residual* sign of the previous rounds' output,
    giving gradient-boosting-like behaviour with O(rounds x features)
    prediction cost.
    """

    ROUNDS = 4
    BUCKETS = 64
    STEP = 2

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        n = config.num_features
        self._tables = [
            [[0] * self.BUCKETS for _ in range(n)]
            for _ in range(self.ROUNDS)
        ]

    def _buckets(self, features) -> list[int]:
        self._check_len(features)
        return [
            mix64((i + 1) * 0x9E3779B97F4A7C15 ^ (v & ((1 << 64) - 1)))
            % self.BUCKETS
            for i, v in enumerate(features)
        ]

    def _round_score(self, round_index: int, buckets) -> int:
        table = self._tables[round_index]
        return sum(table[i][b] for i, b in enumerate(buckets))

    def predict(self, features) -> int:
        buckets = self._buckets(features)
        total = sum(
            self._round_score(r, buckets) for r in range(self.ROUNDS)
        )
        return total if total != 0 else 1

    def _update(self, features, direction: bool) -> None:
        buckets = self._buckets(features)
        target = 1 if direction else -1
        partial = 0
        for r in range(self.ROUNDS):
            # Train this round only if the ensemble so far is wrong or
            # unconfident on the example (the boosting residual).
            if partial * target <= 0:
                table = self._tables[r]
                for i, b in enumerate(buckets):
                    value = table[i][b] + self.STEP * target
                    table[i][b] = max(-32, min(31, value))
            partial += self._round_score(r, buckets)

    def _reset(self, features, reset_all: bool) -> None:
        buckets = self._buckets(features)
        if reset_all:
            for round_tables in self._tables:
                for row in round_tables:
                    for i in range(len(row)):
                        row[i] = 0
        else:
            for round_tables in self._tables:
                for i, b in enumerate(buckets):
                    round_tables[i][b] = 0

    def to_state(self) -> dict:
        return {
            "kind": "boosted-stumps",
            "tables": [
                [list(row) for row in round_tables]
                for round_tables in self._tables
            ],
        }

    def _load_state(self, state: dict) -> None:
        self._tables = [
            [list(map(int, row)) for row in round_tables]
            for round_tables in state["tables"]
        ]


class TinyMlpModel(PredictorModel):
    """One-hidden-layer neural network trained online with SGD.

    The "neural networks" point of Section 3.2.1: highest per-call cost,
    able to represent non-linear feature interactions neither the
    perceptron nor the stumps can.
    """

    HIDDEN = 8
    LEARNING_RATE = 0.3
    SCALE = 64.0

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        n = config.num_features
        # Deterministic small init derived from the domain seed.
        def init(i: int) -> float:
            return ((mix64(config.seed * 1000 + i) % 2001) - 1000) / 500.0
        self._w1 = [
            [init(h * n + i) for i in range(n)]
            for h in range(self.HIDDEN)
        ]
        self._b1 = [init(10_000 + h) for h in range(self.HIDDEN)]
        self._w2 = [init(20_000 + h) for h in range(self.HIDDEN)]
        self._b2 = 0.0

    def _normalize(self, features) -> list[float]:
        self._check_len(features)
        return [math.tanh(v / self.SCALE) for v in features]

    def _forward(self, x):
        hidden = [
            math.tanh(b + sum(w * xi for w, xi in zip(row, x)))
            for row, b in zip(self._w1, self._b1)
        ]
        output = self._b2 + sum(
            w * h for w, h in zip(self._w2, hidden)
        )
        return hidden, output

    def predict(self, features) -> int:
        _, output = self._forward(self._normalize(features))
        scaled = int(round(output * 100))
        return scaled if scaled != 0 else (1 if output >= 0 else -1)

    def _update(self, features, direction: bool) -> None:
        x = self._normalize(features)
        hidden, output = self._forward(x)
        target = 1.0 if direction else -1.0
        # Cross-entropy-style gradient for a tanh output unit: the
        # (1 - tanh^2) attenuation is intentionally dropped so a
        # saturated-wrong output still receives a full-strength gradient.
        grad_out = target - math.tanh(output)
        rate = self.LEARNING_RATE
        for h in range(self.HIDDEN):
            grad_hidden = (grad_out * self._w2[h]
                           * (1 - hidden[h] ** 2))
            self._w2[h] += rate * grad_out * hidden[h]
            for i in range(self.config.num_features):
                self._w1[h][i] += rate * grad_hidden * x[i]
            self._b1[h] += rate * grad_hidden
        self._b2 += rate * grad_out

    def _reset(self, features, reset_all: bool) -> None:
        self._check_len(features)
        if reset_all:
            self.__init__(self.config)

    def to_state(self) -> dict:
        return {
            "kind": "tiny-mlp",
            "w1": [list(row) for row in self._w1],
            "b1": list(self._b1),
            "w2": list(self._w2),
            "b2": self._b2,
        }

    def _load_state(self, state: dict) -> None:
        self._w1 = [list(map(float, row)) for row in state["w1"]]
        self._b1 = [float(v) for v in state["b1"]]
        self._w2 = [float(v) for v in state["w2"]]
        self._b2 = float(state["b2"])
