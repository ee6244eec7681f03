"""Multi-way decisions on the binary service (extension).

The paper's prototype predicts along a single dimension; this example
shows the two patterns that lift that limitation using only the public
API: a one-vs-rest chooser picking among three algorithms, and the
binary-search ladder tuning a numeric knob - both from
``repro.models_extra.multiclass``.

Run: python examples/multi_choice.py
"""

import random

from repro.core import PredictionService, PSSConfig
from repro.models_extra.multiclass import (
    BinarySearchTuner,
    MultiChoiceClient,
)


def algorithm_cost(name: str, size: int) -> float:
    """Synthetic ground truth: which sort wins at which input size."""
    return {
        "insertion": 0.3 * size * size,
        "quick": 18.0 * size * max(1, size.bit_length()),
        "radix": 90.0 * size + 4000.0,
    }[name]


def choose_algorithms() -> None:
    service = PredictionService()
    chooser = MultiChoiceClient(
        service, "sort",
        options=("insertion", "quick", "radix"),
        config=PSSConfig(num_features=1),
        batch_size=1,
    )
    rng = random.Random(0)
    correct = 0
    trials = 400
    for step in range(trials):
        size = rng.choice([8, 40, 200, 5000, 20000])
        chosen = chooser.choose([size])
        best = min(("insertion", "quick", "radix"),
                   key=lambda name: algorithm_cost(name, size))
        chooser.feedback([size], chosen, reward=chosen == best)
        if step >= trials // 2:
            correct += chosen == best
    print("one-vs-rest algorithm selection:")
    print(f"  accuracy after training: {correct / (trials // 2):.0%}")
    for size in (8, 200, 20000):
        print(f"  n={size:6d} -> {chooser.choose([size])}")


def tune_a_knob() -> None:
    service = PredictionService()
    tuner = BinarySearchTuner(
        service=service, domain="prefetch-distance",
        lo=0, hi=32, value=16, config=PSSConfig(num_features=1),
    )
    optimum = 24
    previous_distance = abs(tuner.value - optimum)
    for _ in range(300):
        value = tuner.propose()
        distance = abs(value - optimum)
        tuner.feedback(improved=distance < previous_distance)
        previous_distance = distance
    print("\nbinary-search knob tuning:")
    print(f"  hidden optimum: {optimum}, converged value: {tuner.value}")


def main() -> None:
    choose_algorithms()
    tune_a_knob()


if __name__ == "__main__":
    main()
