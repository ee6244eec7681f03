"""Direct tests of the compiled plan against the reference hash.

``repro.core.hashing`` is the reference (one value, one splitmix64
round); the plan hashes a whole row in one lane-packed pass and must
select exactly the same cells for every shape and every Python int.
"""

import random
import struct
import warnings
from array import array
from zlib import crc32

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.hashing import hash_feature
from repro.core.plans import compile_plan

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


@settings(max_examples=100, deadline=None)
@given(plans_and_rows())
def test_block_hasher_equals_per_row_select(case):
    config, rows = case
    plan = compile_plan(config)
    flat = some_weights(config)
    block = plan.score_select_rows(flat, 7, rows)
    if block is not None:  # None: rows numpy cannot hold; caller selects
        scores, selected = block
        assert selected == [plan.select(row) for row in rows]
        assert scores == plan.score_rows(flat, 7, rows)


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
