"""Ablation: predictor model choice (paper Section 3.2.1).

Runs the registered models on two synthetic feedback streams - a
feature-dependent rule (what HLE needs) and a drifting rule (what the
JIT tuner needs) - quantifying the accuracy side of the trade-off the
paper sketches.
"""

import pytest

from repro.core import PSSConfig, create_model

MODELS = ("perceptron", "linear", "naive-bayes", "stumps", "majority")


def feature_rule_accuracy(model_name, rounds=80):
    """Rule: first feature 100 -> True, 200 -> False."""
    model = create_model(model_name, PSSConfig(
        num_features=2, entries_per_feature=256, weight_bits=6,
        training_margin=8,
    ))
    correct = 0
    total = 0
    for r in range(rounds):
        for value, truth in ((100, True), (200, False)):
            if r >= rounds // 2:
                correct += (model.predict([value, 1]) >= 0) == truth
                total += 1
            model.update([value, 1], truth)
    return correct / total


def drift_accuracy(model_name, flips=4, period=50):
    """The correct answer flips every ``period`` updates."""
    model = create_model(model_name, PSSConfig(
        num_features=2, entries_per_feature=256, weight_bits=6,
        training_margin=8,
    ))
    correct = 0
    total = 0
    for phase in range(flips):
        truth = phase % 2 == 0
        for _ in range(period):
            correct += (model.predict([7, 3]) >= 0) == truth
            total += 1
            model.update([7, 3], truth)
    return correct / total


@pytest.fixture(scope="module")
def accuracies():
    return {
        name: (feature_rule_accuracy(name), drift_accuracy(name))
        for name in MODELS
    }


def test_ablation_feature_aware_models_beat_majority(accuracies):
    majority_acc = accuracies["majority"][0]
    for name in ("perceptron", "naive-bayes", "stumps"):
        assert accuracies[name][0] > majority_acc + 0.2, name


def test_ablation_perceptron_handles_drift(accuracies):
    # The default model must stay clearly above chance under drift -
    # the property the scenarios depend on.
    assert accuracies["perceptron"][1] > 0.6


def test_ablation_default_choice_is_balanced(accuracies):
    feature_acc, drift_acc = accuracies["perceptron"]
    assert feature_acc > 0.9
    assert drift_acc > 0.6

