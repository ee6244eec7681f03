"""A one-row ``dot_batch`` is the scalar ``dot``, observably.

``WeightMatrix.dot_batch`` answers a batch of one with ``[dot(row)]``.
Two matrices run the same hypothesis-drawn stream of scalar calls,
one-row batches, multi-row batches, training and bad rows over a
four-entry index LRU; one takes every one-row batch through
``dot_batch``, the other through ``dot``.  After every step they must
agree on the score or the ``FeatureError``, on the hit/miss counters
and on the LRU's exact key order (so on every eviction too), and every
score must be the frozen reference model's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.weights import WeightMatrix

from tests.core.reference_impl import ReferenceWeightMatrix

CONFIG = PSSConfig(num_features=2, entries_per_feature=16, weight_bits=4)

#: more distinct rows than the tiny LRU holds, so streams evict
POOL = [(i, 7 * i + 1) for i in range(9)]
#: wrong length, wrong type, bool-as-int
BAD_ROWS = [(1,), (1, 2, 3), (1, "2"), (True, 2), (1.5, 2)]


class TinyMatrix(WeightMatrix):
    INDEX_CACHE_ENTRIES = 4


rows = st.integers(0, len(POOL) - 1).map(POOL.__getitem__)
bad_rows = st.sampled_from(BAD_ROWS)
steps = st.one_of(
    st.tuples(st.just("scalar"), rows),
    st.tuples(st.just("one"), rows),
    st.tuples(st.just("one"), bad_rows),
    st.tuples(st.just("scalar"), bad_rows),
    st.tuples(st.just("batch"), st.lists(rows, min_size=2, max_size=12)),
    st.tuples(st.just("bad_batch"),
              st.tuples(st.lists(rows, max_size=5), bad_rows,
                        st.lists(rows, max_size=3))),
    st.tuples(st.just("adjust"), st.tuples(rows, st.sampled_from([1, -1]))),
)


def apply(matrix, step, one_row_through_batch):
    """Run one step; returns its scores, or the FeatureError text."""
    op, arg = step
    try:
        if op == "scalar":
            return [matrix.dot(arg)]
        if op == "one":
            if one_row_through_batch:
                return matrix.dot_batch([arg])
            return [matrix.dot(arg)]
        if op == "batch":
            return matrix.dot_batch(arg)
        if op == "bad_batch":
            before, bad, after = arg
            return matrix.dot_batch([*before, bad, *after])
        row, delta = arg
        matrix.adjust(row, delta)
        return []
    except FeatureError as error:
        return f"FeatureError: {error}"


def reference_scores(reference, step):
    op, arg = step
    if op in ("scalar", "one"):
        return [reference.dot(arg)]
    if op == "batch":
        return [reference.dot(row) for row in arg]
    if op == "adjust":
        reference.adjust(*arg)
    return []


def observable(matrix):
    return (matrix.index_cache_hits, matrix.index_cache_misses,
            list(matrix._index_cache.items()), matrix.generation)


class TestOneRowBatchIsScalar:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(steps, max_size=40))
    def test_interleaved_streams_agree_step_by_step(self, stream):
        batched, scalar = TinyMatrix(CONFIG), TinyMatrix(CONFIG)
        reference = ReferenceWeightMatrix(CONFIG)
        for step in stream:
            got = apply(batched, step, one_row_through_batch=True)
            want = apply(scalar, step, one_row_through_batch=False)
            assert got == want, step
            assert observable(batched) == observable(scalar), step
            assert len(batched._index_cache) <= 4
            assert None not in batched._index_cache.values(), step
            if isinstance(got, list):
                assert got == reference_scores(reference, step), step

    def test_eviction_at_the_real_bound(self):
        """At ``INDEX_CACHE_ENTRIES`` a one-row batch evicts exactly
        the entry a scalar call would."""
        batched, scalar = WeightMatrix(CONFIG), WeightMatrix(CONFIG)
        limit = WeightMatrix.INDEX_CACHE_ENTRIES
        for value in range(limit):
            batched.dot_batch([(value, 0)])
            scalar.dot((value, 0))
        assert len(batched._index_cache) == limit
        batched.dot_batch([(0, 0)])       # refresh the oldest ...
        scalar.dot((0, 0))
        batched.dot_batch([(limit, 0)])   # ... so this evicts (1, 0)
        scalar.dot((limit, 0))
        assert (1, 0) not in batched._index_cache
        assert (0, 0) in batched._index_cache
        assert observable(batched) == observable(scalar)

    @pytest.mark.parametrize("bad", BAD_ROWS)
    def test_bad_single_row_counts_its_miss_like_dot(self, bad):
        batched, scalar = WeightMatrix(CONFIG), WeightMatrix(CONFIG)
        with pytest.raises(FeatureError) as from_batch:
            batched.dot_batch([bad])
        with pytest.raises(FeatureError) as from_dot:
            scalar.dot(bad)
        assert str(from_batch.value) == str(from_dot.value)
        assert observable(batched) == observable(scalar)


class TestAbortedBatchLeavesNoPlaceholder:
    def test_rows_parked_by_an_aborted_batch_score_afterwards(self):
        """An aborted multi-row batch used to leave its reserved
        ``None`` slots in the cache: a later one-row batch of such a
        row answered ``[None]`` and a multi-row one raised KeyError."""
        matrix = WeightMatrix(CONFIG)
        matrix.adjust(POOL[3], 1)   # a non-zero bias to score
        with pytest.raises(FeatureError):
            matrix.dot_batch([POOL[1], POOL[2], (1, 2, 3)])
        assert list(matrix._index_cache) == [POOL[3]]
        assert matrix.dot_batch([POOL[1]]) == [1]
        assert matrix.dot_batch([POOL[2], POOL[1], POOL[3]]) == [1, 1, 3]
