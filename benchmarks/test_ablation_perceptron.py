"""Ablation: perceptron design choices (margin, weight width, tables).

DESIGN.md calls out the Jimenez-Lin margin rule and saturating weight
width as the choices that balance convergence speed against stability;
this bench quantifies both on a synthetic phase-shift task resembling
the HLE scenario (a feature pattern whose correct direction flips).
"""

from repro.core import PSSConfig
from repro.core.perceptron import HashedPerceptron


def phase_shift_accuracy(margin, weight_bits, entries=256,
                         flips=6, period=60):
    """Accuracy on a stream whose correct answer flips periodically."""
    p = HashedPerceptron(PSSConfig(
        num_features=2, entries_per_feature=entries,
        weight_bits=weight_bits, training_margin=margin,
    ))
    correct = 0
    total = 0
    for phase in range(flips):
        truth = phase % 2 == 0
        for i in range(period):
            features = [i % 8, 3]
            prediction = p.decide(features)
            correct += prediction == truth
            total += 1
            p.update(features, truth)
    return correct / total


def test_ablation_margin_small_adapts_faster():
    nimble = phase_shift_accuracy(margin=4, weight_bits=6)
    sluggish = phase_shift_accuracy(margin=60, weight_bits=8)
    # A small margin re-converges after each flip; a huge margin keeps
    # training into deep saturation and pays for it at every flip.
    assert nimble > sluggish


def test_ablation_weight_width_bounds_recovery():
    recovery = {}
    for bits in (4, 8):
        p = HashedPerceptron(PSSConfig(
            num_features=2, entries_per_feature=64,
            weight_bits=bits, training_margin=100,
        ))
        for _ in range(400):
            p.update([5, 7], False)
        recovery[bits] = 0
        for i in range(400):
            p.update([5, 7], True)
            if p.decide([5, 7]):
                recovery[bits] = i + 1
                break
    # Narrow weights saturate earlier, so they recover faster after a
    # regime change - the reason the scenario domains use 6-bit weights.
    assert 0 < recovery[4] < recovery[8]


def test_ablation_table_size_controls_aliasing():
    def accuracy(entries):
        p = HashedPerceptron(PSSConfig(
            num_features=1, entries_per_feature=entries,
            weight_bits=8, training_margin=8,
        ))
        # 64 distinct contexts, alternating true/false by parity.
        correct = 0
        for round_ in range(40):
            for ctx in range(64):
                truth = ctx % 2 == 0
                if round_ >= 20:  # score after warmup
                    correct += p.decide([ctx]) == truth
                p.update([ctx], truth)
        return correct / (20 * 64)

    tiny, roomy = accuracy(8), accuracy(1024)
    # With 8 entries, 64 contexts alias heavily and accuracy collapses
    # toward chance; 1024 entries keep the contexts separated.
    assert roomy > 0.95
    assert roomy > tiny + 0.2

