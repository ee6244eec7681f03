"""The hashed perceptron predictor (paper Section 3.2).

Given an input feature vector, the predictor "simply calculates the weighted
sum of the input and compares it with a threshold value".  Each feature value
is hashed into its own weight table; the prediction is::

    score = bias + sum(table[i][hash(feature[i])] for i in range(n))
    decision = score >= threshold          # "predict true" when non-negative

Training follows the margin rule of Jimenez & Lin: weights only move when the
prediction disagreed with the observed direction *or* the score magnitude was
below the training margin.  The margin is the paper's guard against the
predictor "becoming trapped in only the lock path after several failed
predictions" - without it, saturated weights would never recover.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.core.config import PSSConfig
from repro.core.models import PredictorModel, VersionWord
from repro.core.weights import WeightMatrix

if TYPE_CHECKING:
    from repro.core.plans import PlanCompiler


class HashedPerceptron(PredictorModel):
    """Default PSS predictor: hashed perceptron with saturating weights.

    Overrides the public mutations, and publishes the weight matrix's
    :attr:`~WeightMatrix.version` word as its own: the matrix bumps it
    only when a weight moved, so feedback the margin rule discards
    invalidates no cached score.
    """

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        self._weights = WeightMatrix(config)
        self.version = self._weights.version
        #: the training margin, read once: the config is frozen
        self._margin = config.effective_margin

    @property
    def weights(self) -> WeightMatrix:
        """Underlying weight matrix (exposed for tests and ablations)."""
        return self._weights

    def adopt(self, word: VersionWord) -> None:
        """The matrix bumps ``word`` from now on, and the model
        publishes it."""
        self.version = self._weights.version = word

    def score(self, features: Sequence[int]) -> int:
        """Raw weighted sum; sign is the decision, magnitude confidence."""
        return self._weights.dot(features)

    def predict(self, features: Sequence[int]) -> int:
        """Signed prediction score for ``features``.

        The caller compares the result against the configured threshold;
        :class:`repro.core.service.PredictionService` exposes the boolean
        convenience.  Returning the raw score preserves the confidence
        information the paper highlights for asymmetric-cost scenarios.
        """
        return self._weights.dot(features)

    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Scores for a whole batch, bit-identical to scalar predicts.

        One pass over the weight array via
        :meth:`WeightMatrix.dot_batch`: loop-invariant state is hoisted
        and index-cache misses hash through the domain's compiled
        :class:`~repro.core.plans.SpecializedPlan` instead of the
        generic per-feature loop.
        """
        return self._weights.dot_batch(feature_rows)

    def decide(self, features: Sequence[int]) -> bool:
        """Boolean decision: score >= threshold."""
        return self.score(features) >= self.config.threshold

    def update(self, features: Sequence[int], direction: bool) -> None:
        """Move the selected weights toward ``direction``.

        ``direction=True`` means the "true" path was the right call for
        these features (reward +1 in the paper's listings); ``False`` means
        it was wrong (reward -1).  Training is skipped when the perceptron
        already agreed with high confidence (margin rule), which both bounds
        weight growth and prevents lock-in.
        """
        score, selected = self._weights.dot_and_indices(features)
        agreed = (score >= self.config.threshold) == direction
        if agreed and abs(score) > self._margin:
            return
        self._weights.adjust_at(selected, 1 if direction else -1)

    def update_batch(
        self, records: Sequence[tuple[Sequence[int], bool]]
    ) -> None:
        """:meth:`update` for every ``(features, direction)`` record, in
        order, as one pass (:meth:`WeightMatrix.train_batch`): weights
        and cache end where the scalar calls leave them."""
        self._weights.train_batch(records, self.config.threshold,
                                  self._margin)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        """Selective or total reset (the paper's ``reset`` call)."""
        if reset_all:
            self._weights.reset_all()
        else:
            self._weights.reset_entry(features)

    def to_state(self) -> dict:
        return {"kind": "perceptron", "weights": self._weights.to_state()}

    def load_state(self, state: dict) -> None:
        # The matrix drops its plan with the swap, but a load never
        # changes the shape: a model bound to a plan (the hosting
        # kernel's) stays on it, instead of falling to the default's.
        weights = self._weights
        plan = weights._plan
        weights.load_state(state["weights"])
        if plan is not None:
            weights.attach_plan(plan)

    def bind_plan(self, compiler: PlanCompiler) -> None:
        """The weights hash cache misses through the kernel's shared
        plan for this shape (a compiler cache hit after the first)."""
        self._weights.attach_plan(compiler.plan_for(self.config))

    def index_cache_stats(self) -> tuple[int, int]:
        weights = self._weights
        return weights.index_cache_hits, weights.index_cache_misses
