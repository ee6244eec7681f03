"""Extending the service with a custom predictor (paper Section 3.2.1).

"Since the system interface is not tied to the implementation, the
underlying predictor model can be replaced easily."  This example
registers a two-bit saturating-counter model (the classic branch
predictor) and compares it with the built-in models on a noisy,
feature-dependent decision stream.

Run: python examples/custom_model.py
"""

import random

from repro.core import (
    PredictionService,
    PredictorModel,
    PSSConfig,
    register_model,
)
from repro.core.hashing import table_index


class TwoBitCounterModel(PredictorModel):
    """A table of classic 2-bit saturating counters, indexed by the
    hash of the first feature.

    A model writes ``predict``, ``to_state`` and the three mutations
    ``_update`` / ``_reset`` / ``_load_state``; the base class counts
    each applied mutation (the generation score caches key on) and
    supplies the batch calls.
    """

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        self._counters = [2] * config.entries_per_feature  # weakly taken

    def _index(self, features) -> int:
        return table_index(0, features[0],
                           self.config.entries_per_feature,
                           self.config.seed)

    def predict(self, features) -> int:
        counter = self._counters[self._index(features)]
        return counter - 2 if counter != 2 else 1  # 0..1 -> neg, 2..3 -> pos

    def _update(self, features, direction) -> None:
        i = self._index(features)
        if direction:
            self._counters[i] = min(3, self._counters[i] + 1)
        else:
            self._counters[i] = max(0, self._counters[i] - 1)

    def _reset(self, features, reset_all) -> None:
        if reset_all:
            self._counters = [2] * self.config.entries_per_feature
        else:
            self._counters[self._index(features)] = 2

    def to_state(self) -> dict:
        return {"kind": "two-bit", "counters": list(self._counters)}

    def _load_state(self, state) -> None:
        self._counters = list(state["counters"])


def evaluate(service: PredictionService, domain: str,
             noise: float = 0.1, rounds: int = 600) -> float:
    """Accuracy on 'context < 50 means fast path', with label noise."""
    rng = random.Random(7)
    correct = 0
    scored = 0
    for step in range(rounds):
        context = rng.randrange(100)
        truth = context < 50
        observed = truth if rng.random() > noise else not truth
        if step >= rounds // 2:
            correct += (service.predict(domain, [context]) >= 0) == truth
            scored += 1
        service.update(domain, [context], observed)
    return correct / scored


def main() -> None:
    register_model("two-bit", TwoBitCounterModel)

    service = PredictionService()
    config = PSSConfig(num_features=1, entries_per_feature=512)
    for model in ("two-bit", "perceptron", "naive-bayes", "majority"):
        service.create_domain(model, config=config, model=model)
        accuracy = evaluate(service, model)
        print(f"{model:12s} accuracy: {accuracy:.0%}")
    print("\nThe custom model plugs into the same predict/update/reset "
          "interface, persistence included.")


if __name__ == "__main__":
    main()
