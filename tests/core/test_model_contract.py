"""The contract every registered model inherits (``core/models.py``).

One property over ``registered_models()``: the kernel asks a model
nothing about what it can do, so each of them must be a
:class:`PredictorModel` whose ``version`` word counts exactly the
mutations it applied, whose batch calls are the scalar calls, and whose
snapshot reloads to the same scores.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.models import (
    PredictorModel,
    VersionWord,
    create_model,
    registered_models,
)

CONFIG = PSSConfig(num_features=2, entries_per_feature=64)
ROWS = st.tuples(st.integers(-500, 500), st.integers(-500, 500))
MALFORMED = st.sampled_from([(1,), (1, 2, 3)])
OPS = st.lists(
    st.tuples(st.sampled_from(["update", "reset", "reload"]),
              st.one_of(ROWS, ROWS, ROWS, MALFORMED), st.booleans()),
    max_size=30)


def apply(model, op, row, flag):
    if op == "update":
        model.update(row, flag)
    elif op == "reset":
        model.reset(row, flag)
    else:
        model.load_state(model.to_state())


@pytest.mark.parametrize("name", registered_models())
@settings(max_examples=20, deadline=None)
@given(ops=OPS, probes=st.lists(ROWS, min_size=1, max_size=5))
def test_every_registered_model_keeps_the_contract(name, ops, probes):
    model, twin = create_model(name, CONFIG), create_model(name, CONFIG)
    assert isinstance(model, PredictorModel)
    # a model that keeps the inherited public mutations bumps its word
    # once per mutation; one that overrides them bumps it itself
    counts_itself = type(model).update is PredictorModel.update
    applied = 0
    for op, row, flag in ops:
        before = model.generation, model.predict_batch(probes)
        try:
            apply(model, op, row, flag)
        except FeatureError:
            assert len(row) != 2        # refused: nothing applied
            assert (model.generation, model.predict_batch(probes)) == before
            continue
        applied += 1
        if counts_itself:
            assert model.generation == applied
        else:   # the perceptron counts the mutations that moved a weight
            assert before[0] <= model.generation <= applied
            assert (model.generation > before[0]
                    or model.predict_batch(probes) == before[1])
    scores = model.predict_batch(probes)
    assert scores == [model.predict(row) for row in probes]
    assert all(type(score) is int for score in scores)
    with pytest.raises(FeatureError):
        model.predict((1,))

    # a batch refuses its malformed records alone; the rest is the
    # scalar loop
    records = [(row, flag) for op, row, flag in ops if op == "update"]
    twin.load_state(model.to_state())
    assert twin.predict_batch(probes) == scores
    refused = tuple(position for position, (row, _) in enumerate(records)
                    if len(row) != 2)
    try:
        model.update_batch(records)
    except FeatureError as error:
        assert error.refused == refused
    else:
        assert not refused
    # an adopted word is the one the twin's mutations bump from then on
    word = VersionWord(100)
    twin.adopt(word)
    for row, flag in records:
        if len(row) == 2:
            twin.update(row, flag)
    assert twin.version is word and twin.generation == word.value
    if counts_itself:
        assert word.value == 100 + len(records) - len(refused)
    assert model.to_state() == twin.to_state()
    assert model.predict_batch(probes) == twin.predict_batch(probes)
