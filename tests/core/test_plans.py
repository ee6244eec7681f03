"""Direct tests of the compiled plan against the reference hash.

``repro.core.hashing`` is the reference (one value, one splitmix64
round); the plan hashes a whole row in one lane-packed pass and must
select exactly the same cells for every shape and every Python int.
The compiled gather that sums the selected cells must equal the plain
sum at every feature count and weight width.
"""

import random
import struct
import warnings
from array import array
from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MAX_FEATURES, PSSConfig
from repro.core.hashing import hash_feature
from repro.core.plans import compile_gather, compile_plan
from repro.core.weights import WeightMatrix, _weight_typecode

from tests.core.reference_impl import ReferenceWeightMatrix

ENTRIES = [2, 16, 24, 1000, 1024, 65536]

#: where the lane packing can go wrong: the ends of the 64-bit range,
#: both sides of it, and anything in between
values = st.one_of(
    st.sampled_from([0, 1, -1, -2**63, 2**63, 2**64 - 1, 2**64, 2**64 + 1,
                     -2**64, 2**127, 2**128 + 5, -2**200]),
    st.integers(0, 2**64 - 1),
    st.integers(),
)


@st.composite
def plans_and_rows(draw):
    config = PSSConfig(
        num_features=draw(st.integers(1, 16)),
        entries_per_feature=draw(st.sampled_from(ENTRIES)),
        seed=draw(st.integers(0, 2**32)),
    )
    rows = draw(st.lists(
        st.tuples(*[values] * config.num_features), min_size=1, max_size=12))
    return config, rows


def reference_select(config, row):
    entries = config.entries_per_feature
    return tuple(
        i * entries + hash_feature(i, value, config.seed) % entries
        for i, value in enumerate(row))


def some_weights(config, seed=5):
    rng = random.Random(seed)
    return array("b", [rng.randrange(-100, 100) for _ in range(
        config.num_features * config.entries_per_feature)])


@settings(max_examples=300, deadline=None)
@given(plans_and_rows())
def test_select_is_the_reference_hash(case):
    config, rows = case
    plan = compile_plan(config)
    for row in rows:
        assert plan.select(row) == reference_select(config, row)
        assert plan.select(list(row)) == reference_select(config, row)


@settings(max_examples=100, deadline=None)
@given(plans_and_rows())
def test_score_rows_is_bias_plus_gather_of_select(case):
    config, rows = case
    plan = compile_plan(config)
    flat = some_weights(config)
    assert plan.score_rows(flat, -3, rows) == [
        -3 + sum(flat[i] for i in plan.select(row)) for row in rows]


@pytest.mark.filterwarnings("error")
@settings(max_examples=100, deadline=None)
@given(plans_and_rows(), st.data())
def test_block_hasher_equals_per_row_select(case, data):
    config, rows = case
    plan = compile_plan(config)
    flat = some_weights(config)
    block = plan.score_select_rows(flat, 7, rows)
    if block is not None:  # None: rows numpy cannot hold; caller selects
        scores, selected = block
        assert selected == [plan.select(row) for row in rows]
        assert scores == plan.score_rows(flat, 7, rows)
    # a row of the wrong length anywhere - also one too long beside one
    # too short, which keeps the block's total right - is one the
    # per-row path raises for: the block hasher hands the block back
    at = data.draw(st.integers(0, len(rows) - 1))
    wrong = rows[:at] + [rows[at] + (1,)] + rows[at + 1:]
    assert plan.score_select_rows(flat, 7, wrong) is None
    if len(rows) > 1:
        wrong[at - 1] = wrong[at - 1][:-1]
        assert plan.score_select_rows(flat, 7, wrong) is None


@pytest.mark.parametrize("entries", [16, 24])
@pytest.mark.parametrize("row", [(1, 2), (1, 2, 3, 4), (), (-1, 2)])
def test_wrong_length_row_raises(entries, row):
    config = PSSConfig(num_features=3, entries_per_feature=entries)
    plan = compile_plan(config)
    with pytest.raises(struct.error):
        plan.select(row)
    with pytest.raises(struct.error):
        plan.score_rows(some_weights(config), 0, [row])


def test_selected_cells_pinned():
    """crc32 of ``select`` over 1 000 seeded rows, computed at the
    commit before the lane-packed plan: a hash change cannot hide
    behind the plan and a test-side oracle moving together."""
    rng = random.Random(20231017)
    crc = 0
    for features, entries in [(8, 1024), (3, 24), (2, 65536), (16, 1000)]:
        plan = compile_plan(PSSConfig(
            num_features=features, entries_per_feature=entries, seed=7))
        for _ in range(250):
            row = tuple(rng.getrandbits(66) - 2**64 for _ in range(features))
            crc = crc32(repr(plan.select(row)).encode(), crc)
    assert crc == 3971554411


def test_a_warning_from_the_hash_path_is_an_error():
    """pyproject.toml turns warnings attributed to ``repro.core.plans``
    into errors, and compiled plan code is attributed to it."""
    class Deprecated:
        def __index__(self):
            warnings.warn("going away", DeprecationWarning, stacklevel=2)
            return 1

    plan = compile_plan(PSSConfig(num_features=2))
    with pytest.raises(DeprecationWarning):
        plan.select((Deprecated(), 2))


def test_a_plan_is_read_only():
    """One plan serves every same-shape domain of every tenant, so
    nothing may write to it: not a field, not a new attribute."""
    plan = compile_plan(PSSConfig(num_features=2))
    with pytest.raises(AttributeError):
        plan.select = len
    with pytest.raises(AttributeError):
        plan.hits = 1
    assert plan.num_features == 2 and plan.entries_per_feature == \
        PSSConfig().entries_per_feature


#: the smallest and largest weight width of each typecode the matrix
#: can pick: one byte for 2..8 bits, two for 9..16, four for 17..32
WIDTHS = [2, 8, 9, 16, 17, 32]


def extreme_cells(config):
    """A cell value strategy for ``config``: mostly the saturation
    bounds, where a narrowing or wrapping gather would show."""
    return st.one_of(
        st.sampled_from([config.weight_min, config.weight_max, 0]),
        st.integers(config.weight_min, config.weight_max))


def test_widths_cover_every_typecode():
    assert {_weight_typecode(bits) for bits in WIDTHS} \
        == {_weight_typecode(bits) for bits in range(2, 33)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_gather_is_the_sum_of_the_selected_cells(data):
    num_features = data.draw(st.integers(1, MAX_FEATURES))
    config = PSSConfig(num_features=num_features, entries_per_feature=4,
                       weight_bits=data.draw(st.sampled_from(WIDTHS)))
    cells = data.draw(st.lists(extreme_cells(config),
                               min_size=4 * num_features,
                               max_size=4 * num_features))
    flat = array(_weight_typecode(config.weight_bits), cells)
    selected = tuple(data.draw(st.lists(
        st.integers(0, len(flat) - 1),
        min_size=num_features, max_size=num_features)))
    assert compile_gather(num_features)(flat, selected) \
        == sum(flat[i] for i in selected)


class Reference:
    """``ReferenceWeightMatrix`` plus the generation a ``WeightMatrix``
    keeps: one bump per state load and per training step."""

    def __init__(self, config):
        self.matrix = ReferenceWeightMatrix(config)
        self.generation = 0

    def load_state(self, state):
        self.matrix.load_state(state)
        self.generation += 1

    def dot_and_indices(self, row):
        entries = self.matrix.config.entries_per_feature
        return self.matrix.dot(row), tuple(
            i * entries + column
            for i, column in enumerate(self.matrix.indices(row)))

    def train(self, records, threshold, margin):
        for row, direction in records:
            score = self.matrix.dot(row)
            if (score >= threshold) == direction and abs(score) > margin:
                continue
            self.matrix.adjust(row, 1 if direction else -1)
            self.generation += 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_every_door_matches_the_reference_at_both_ends(data):
    """A 1-feature and a MAX_FEATURES matrix, loaded with cells at the
    saturation bounds, through ``dot``, ``dot_and_indices``,
    ``train_batch`` and ``dot_batch`` on both sides of
    ``VECTOR_MIN_ROWS``: scores, weights, bias and generation are the
    reference's."""
    config = PSSConfig(
        num_features=data.draw(st.sampled_from([1, MAX_FEATURES])),
        entries_per_feature=4,
        weight_bits=data.draw(st.sampled_from(WIDTHS)))
    n = config.num_features
    state = {
        "rows": data.draw(st.lists(
            st.lists(extreme_cells(config), min_size=4, max_size=4),
            min_size=n, max_size=n)),
        "bias": data.draw(extreme_cells(config)),
    }
    matrix, reference = WeightMatrix(config), Reference(config)
    matrix.load_state(state)
    reference.load_state(state)
    #: rows from a small pool repeat and hit the index cache; rows
    #: from the whole 64-bit range are first touches
    fresh_rows = st.tuples(*[st.integers(0, 2**64 - 1)] * n)
    rows = st.one_of(st.tuples(*[st.integers(0, 9)] * n), fresh_rows)
    sizes = [2, WeightMatrix.VECTOR_MIN_ROWS - 1,
             WeightMatrix.VECTOR_MIN_ROWS, 2 * WeightMatrix.VECTOR_MIN_ROWS]
    for op in data.draw(st.lists(
            st.sampled_from(["dot", "dot_and_indices", "train", "batch"]),
            min_size=1, max_size=8)):
        if op == "dot":
            row = data.draw(rows)
            assert matrix.dot(row) == reference.dot_and_indices(row)[0]
        elif op == "dot_and_indices":
            row = data.draw(rows)
            assert matrix.dot_and_indices(row) \
                == reference.dot_and_indices(row)
        elif op == "train":
            records = data.draw(st.lists(st.tuples(rows, st.booleans()),
                                         min_size=1, max_size=32))
            threshold = data.draw(st.integers(-2, 2))
            margin = data.draw(st.integers(0, 8 * n))
            matrix.train_batch(records, threshold, margin)
            reference.train(records, threshold, margin)
        else:
            # ``size`` first touches, then some rows that may repeat,
            # in any order: the block hasher runs from VECTOR_MIN_ROWS
            size = data.draw(st.sampled_from(sizes))
            block = data.draw(st.permutations(
                data.draw(st.lists(fresh_rows, min_size=size,
                                   max_size=size, unique=True))
                + data.draw(st.lists(rows, max_size=4))))
            assert matrix.dot_batch(block) \
                == [reference.dot_and_indices(row)[0] for row in block]
        assert list(matrix.iter_weights()) \
            == list(reference.matrix.iter_weights())
        assert matrix.bias == reference.matrix.bias
        assert matrix.generation == reference.generation
