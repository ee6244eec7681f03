"""One published version word over every mutation.

A domain's generation is one :class:`VersionWord`, which the model
bumps in place and every layer - the handle, the model, a transport -
reads.  Replacing the learned state under open clients (crash,
promotion, restore) and moving a domain between shards are checked by
the system's state machine, ``tests/test_machine.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig

CONFIG = PSSConfig(num_features=2)
NAME = "dom"
PROBES = [(i, i + 1) for i in range(6)]
RECORDS = st.lists(
    st.tuples(st.sampled_from(PROBES), st.booleans()), max_size=24)
STREAMS = st.lists(st.one_of(
    st.tuples(st.just("update"), st.sampled_from(PROBES), st.booleans()),
    st.tuples(st.just("update_batch"), RECORDS),
    st.tuples(st.just("reset"), st.sampled_from(PROBES), st.booleans()),
), max_size=30)


@pytest.mark.parametrize("model", ["perceptron", "linear"])
@settings(max_examples=25, deadline=None)
@given(ops=STREAMS)
def test_one_word_over_every_mutation(model, ops):
    """Every layer reads the same word, and it never decreases."""
    service = PredictionService()
    service.create_domain(NAME, config=CONFIG, model=model)
    domain = service.domain(NAME)
    handle = service.handle(NAME)
    word = domain.version
    assert handle.version is word and domain.model.version is word
    values = [word.value]
    for op, *args in ops:
        getattr(handle, op)(*args)
        assert (handle.generation == domain.generation
                == domain.model.generation == word.value)
        values.append(word.value)
    assert values == sorted(values)
