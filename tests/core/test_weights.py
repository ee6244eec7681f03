"""Tests for the saturating weight matrix."""

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.weights import WeightMatrix, saturate

from tests.core.reference_impl import ReferenceWeightMatrix


def make_matrix(num_features=2, entries=64, weight_bits=8, seed=0):
    return WeightMatrix(PSSConfig(
        num_features=num_features,
        entries_per_feature=entries,
        weight_bits=weight_bits,
        seed=seed,
    ))


class TestSaturate:
    @given(st.integers(), st.integers(-100, 0), st.integers(1, 100))
    def test_result_within_bounds(self, value, lo, hi):
        assert lo <= saturate(value, lo, hi) <= hi

    def test_identity_inside_range(self):
        assert saturate(5, -10, 10) == 5


class TestWeightMatrixBasics:
    def test_starts_at_zero(self):
        m = make_matrix()
        assert m.dot([1, 2]) == 0
        assert m.nonzero_count() == 0

    def test_adjust_moves_dot(self):
        m = make_matrix()
        m.adjust([1, 2], +1)
        # bias + two feature weights each moved by +1
        assert m.dot([1, 2]) == 3

    def test_adjust_negative(self):
        m = make_matrix()
        m.adjust([1, 2], -1)
        assert m.dot([1, 2]) == -3

    def test_different_features_mostly_independent(self):
        m = make_matrix(entries=1024)
        m.adjust([1, 2], +1)
        # A different vector shares only the bias (hash collisions are
        # possible but vanishingly unlikely at these values).
        assert m.dot([900001, 900002]) == 1  # bias only

    def test_wrong_length_raises(self):
        m = make_matrix()
        with pytest.raises(FeatureError):
            m.dot([1])
        with pytest.raises(FeatureError):
            m.adjust([1, 2, 3], 1)

    def test_non_integer_feature_raises(self):
        m = make_matrix()
        with pytest.raises(FeatureError):
            m.dot([1.5, 2])
        with pytest.raises(FeatureError):
            m.dot([True, 2])


class Slot(enum.IntEnum):
    ONE = 1


class Word(int):
    """An int subclass a caller might tag its feature values with."""


#: int-like values a miss refuses (a numpy integer only where numpy
#: imports: the package does not require it)
REFUSED = [True, 1.0, "1", None]
try:
    import numpy
except ImportError:
    numpy = None
else:
    REFUSED.append(numpy.int64(1))


#: every way a matrix takes a vector in
DOORS = {
    "dot": lambda m, row: m.dot(row),
    "dot_and_indices": lambda m, row: m.dot_and_indices(row)[0],
    "dot_batch": lambda m, row: m.dot_batch(
        [(i, i) for i in range(2, 2 + m.VECTOR_MIN_ROWS)] + [row])[-1],
}


@pytest.mark.parametrize("door", DOORS)
class TestFeatureTypes:
    """What counts as an int feature: ``int`` and its subclasses, never
    ``bool``, never anything merely int-like.  (A refused spelling that
    compares equal to an already-admitted vector - ``(1.0, 2)`` after
    ``(1, 2)`` - is a cache hit and is served: the known relaxation
    documented on ``_flat_indices``.)"""

    @pytest.mark.parametrize("value", [1, Slot.ONE, Word(1)], ids=repr)
    def test_admitted(self, door, value):
        m, plain = make_matrix(), make_matrix()
        m.adjust((1, 5), +1)
        plain.adjust((1, 5), +1)
        m._index_cache.clear()  # so the spelling under test is the miss
        assert DOORS[door](m, (value, 5)) == plain.dot((1, 5)) == 3
        assert m._index_cache[(1, 5)] == plain._index_cache[(1, 5)]

    @pytest.mark.parametrize("value", REFUSED, ids=repr)
    def test_refused_and_nothing_written(self, door, value):
        m = make_matrix()
        m.dot((9, 9))
        with pytest.raises(FeatureError, match="features must be ints"):
            DOORS[door](m, (value, 5))
        # the miss that met the bad vector is counted, nothing is cached
        # (a batch resolves its whole miss block before writing any)
        assert list(m._index_cache) == [(9, 9)]
        assert (m.index_cache_hits, m.index_cache_misses) == (0, 2)


class TestSaturation:
    def test_weights_saturate_at_max(self):
        m = make_matrix(weight_bits=4)  # range -8..7
        for _ in range(100):
            m.adjust([1, 2], +1)
        assert m.dot([1, 2]) == 3 * 7

    def test_weights_saturate_at_min(self):
        m = make_matrix(weight_bits=4)
        for _ in range(100):
            m.adjust([1, 2], -1)
        assert m.dot([1, 2]) == 3 * -8

    @given(st.lists(st.sampled_from([+1, -1]), max_size=200))
    def test_dot_always_bounded(self, deltas):
        m = make_matrix(weight_bits=6)  # range -32..31
        for d in deltas:
            m.adjust([7, 9], d)
        assert -3 * 32 <= m.dot([7, 9]) <= 3 * 31


class TestReset:
    def test_reset_entry_clears_only_selected(self):
        m = make_matrix(entries=1024)
        m.adjust([1, 2], +1)
        m.adjust([500001, 500002], +1)
        m.reset_entry([1, 2])
        # First vector now only sees bias (2 adjustments -> bias == 2).
        assert m.dot([1, 2]) == 2
        assert m.dot([500001, 500002]) == 4  # bias + its own weights

    def test_reset_all_clears_everything(self):
        m = make_matrix()
        m.adjust([1, 2], +1)
        m.reset_all()
        assert m.nonzero_count() == 0
        assert m.dot([1, 2]) == 0

    def test_reset_all_zeroes_the_array_a_block_reads(self):
        """The reset zeroes the matrix's own array in place: a view of
        it taken before reads zeros after, and the block hasher's next
        ``np.frombuffer`` of it scores against the zeroed table.
        Weights and bias are the reference's, with one version bump."""
        m, twin = make_matrix(entries=4), make_matrix(entries=4)
        reference = ReferenceWeightMatrix(m.config)
        for v in range(16):
            for matrix in (m, twin, reference):
                matrix.adjust((v, 2 * v), +1 if v % 3 else -1)
        flat = m._flat
        view = (numpy.frombuffer(flat, dtype=flat.typecode)
                if numpy is not None else None)
        fresh = [(v, v + 1) for v in range(100, 100 + m.VECTOR_MIN_ROWS)]
        assert any(twin.dot_batch(fresh))   # the cells they read moved
        generation = m.generation
        m.reset_all()
        reference.reset_all()
        assert m._flat is flat
        assert m.generation == generation + 1
        assert list(m.iter_weights()) == list(reference.iter_weights())
        assert m.bias == reference.bias == 0
        assert m.dot_batch(fresh) == [0] * len(fresh)
        if view is not None:
            assert not view.any()


class TestStateRoundTrip:
    def test_round_trip_preserves_dot(self):
        m = make_matrix()
        for v in range(20):
            m.adjust([v, v * 3], +1 if v % 2 else -1)
        state = m.to_state()
        m2 = make_matrix()
        m2.load_state(state)
        for v in range(20):
            assert m2.dot([v, v * 3]) == m.dot([v, v * 3])

    def test_load_rejects_wrong_shape(self):
        m = make_matrix()
        bad = {"rows": [[0] * 8], "bias": 0}
        with pytest.raises(FeatureError):
            m.load_state(bad)

    def test_load_saturates_out_of_range_weights(self):
        m = make_matrix(entries=4, weight_bits=4)
        state = {"rows": [[100, 0, 0, 0], [0, -100, 0, 0]], "bias": 99}
        m.load_state(state)
        weights = list(m.iter_weights())
        assert max(weights) <= 7 and min(weights) >= -8

    def test_iter_weights_order_stable(self):
        m = make_matrix(entries=4)
        m.adjust([1, 2], +1)
        assert list(m.iter_weights()) == list(m.iter_weights())
