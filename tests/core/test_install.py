"""Replacing a domain's learned state under open clients.

Crash, promotion and restore all go through :meth:`Domain.install`, so
whatever replaces the state, what was opened *before* keeps working on
the domain the kernel serves: the ``Domain`` object is the one it was,
every client reads what the kernel reads and trains what the kernel
counts, the generation only rises, and policy, owner and the owner's
quota are untouched (a snapshot carries none of them).

The generation is one published word (:class:`VersionWord`), which an
open vDSO transport bound once: after every step - and after a reshard
move, which replaces nothing - the transport still holds the domain's
word, and its next read is the kernel's, never a stale hit.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.core.errors import PolicyError, PSSError
from repro.core.kernel import ReplicaPromoter, ShardedCheckpointManager
from repro.core.kernel.admission import AdmissionController
from repro.core.persistence import (
    CheckpointManager,
    load_service,
    restore_service,
    save_service,
    snapshot_service,
)
from repro.core.policy import ClientIdentity, private_policy
from repro.core.serving import ServingConfig, ServingPipeline

CONFIG = PSSConfig(num_features=2)
OWNER = ClientIdentity(uid=1, program="owner")
OTHER = ClientIdentity(uid=2, program="other")
NAME = "dom"
PROBES = [(i, i + 1) for i in range(6)]
RECORDS = st.lists(
    st.tuples(st.sampled_from(PROBES), st.booleans()), max_size=24)


def promote(service, tmp_path):
    """crash -> promote: the followers' state, synced at the save."""
    shard = service.shard_of(NAME)
    return [lambda: service.crash_shard(shard),
            lambda: ReplicaPromoter(service).promote(shard)]


def recover(service, tmp_path):
    """crash -> recover from the shard files (the shard has no
    follower here, so reviving it keeps what recovery installed)."""
    shard = service.shard_of(NAME)
    checkpoints = ShardedCheckpointManager(service, tmp_path / "shards")
    checkpoints.checkpoint()
    return [lambda: service.crash_shard(shard),
            lambda: (checkpoints.recover(),
                     ReplicaPromoter(service).promote(shard))]


def load(service, tmp_path):
    save_service(service, tmp_path / "snapshot.json")
    return [lambda: load_service(service, tmp_path / "snapshot.json")]


def restore(service, tmp_path):
    snapshot = snapshot_service(service)
    return [lambda: restore_service(service, snapshot)]


def manager_recover(service, tmp_path):
    manager = CheckpointManager(service, tmp_path / "checkpoint.json")
    manager.checkpoint()
    return [manager.recover]


def outcome(client, features):
    """What one read gives: the score, or the refusal's type (a crashed
    shard with no follower refuses every read alike)."""
    try:
        return client.predict(features)
    except PSSError as error:
        return type(error).__name__


def assert_word_current(domain, mapped, trapped):
    """The vDSO transport holds the domain's own word, and reads what
    the syscall client reads: no stale hit."""
    assert mapped._transport._version is domain.version
    for features in PROBES:
        assert outcome(mapped, features) == outcome(trapped, features)


@pytest.mark.parametrize("scenario, replicas", [
    (promote, 1), (recover, 0), (load, 0), (restore, 0),
    (manager_recover, 0)])
@settings(max_examples=15, deadline=None)
@given(saved=RECORDS, drift=RECORDS, after=RECORDS)
def test_state_replaced_under_open_clients(tmp_path_factory, scenario,
                                           replicas, saved, drift, after):
    admission = AdmissionController()
    service = PredictionService(num_shards=2, num_replicas=replicas,
                                admission=admission)
    policy = private_policy(OWNER)
    service.create_domain(NAME, config=CONFIG, policy=policy,
                          identity=OWNER)
    domain = service.domain(NAME)
    mapped = service.connect(NAME, identity=OWNER, batch_size=4)
    trapped = service.connect(NAME, identity=OWNER, transport="syscall")
    pipeline = ServingPipeline(service, ServingConfig())
    handle = service.handle(NAME, OWNER)

    def train(records):
        for features, direction in records:
            mapped.update(features, direction)
        mapped.flush()

    def served(features, **kw):
        future = pipeline.submit(handle, features, **kw)
        pipeline.run()
        return future.result()

    train(saved)
    service.sync_replicas()
    steps = scenario(service, tmp_path_factory.mktemp("state"))
    at_save = [service.predict(NAME, features) for features in PROBES]
    train(drift)
    for features in PROBES:         # a warm score cache to go stale
        mapped.predict(features)

    word = domain.version
    generations = [word.value]
    for step in steps:
        step()
        assert domain.version is word
        generations.append(service.domain(NAME).generation)
        assert_word_current(domain, mapped, trapped)
    assert generations == sorted(set(generations))    # rose every step

    assert service.domain(NAME) is domain
    assert domain.model.weights.plan is service.plans.plan_for(CONFIG)
    for features, kernel in zip(PROBES, at_save):
        assert service.predict(NAME, features) == kernel
        assert mapped.predict(features) == kernel
        assert trapped.predict(features) == kernel
        assert served(features) == kernel

    counted = domain.stats.updates
    train(after)
    trapped.update(PROBES[0], True)
    served(PROBES[0], op="update", direction=False)
    assert domain.stats.updates == counted + len(after) + 2
    # what the installed model learned since bumped the word the
    # transport holds: the warm cache did not outlive it
    assert domain.model.version is word
    assert_word_current(domain, mapped, trapped)

    assert domain.policy is policy and domain.created_by == OWNER
    assert admission.usage_for(OWNER).domains == 1
    with pytest.raises(PolicyError):
        service.handle(NAME, OTHER).predict(PROBES[0])


@settings(max_examples=15, deadline=None)
@given(saved=RECORDS, after=RECORDS)
def test_a_reshard_move_keeps_the_word(saved, after):
    """A move replaces nothing: the same word, at the same value, and
    the warm score cache in front of it stays valid - and current."""
    service = PredictionService(num_shards=2)
    service.create_domain(NAME, config=CONFIG)
    domain = service.domain(NAME)
    mapped = service.connect(NAME, batch_size=4)
    trapped = service.connect(NAME, transport="syscall")
    for features, direction in saved:
        mapped.update(features, direction)
    mapped.flush()
    assert_word_current(domain, mapped, trapped)     # warm
    word, value = domain.version, domain.version.value
    shard = service.shard_of(NAME)
    service.reshard(1)
    assert service.shard_of(NAME) != shard           # it moved
    assert domain.version is word and word.value == value
    hits = mapped.latency.cache_hits
    assert_word_current(domain, mapped, trapped)
    assert mapped.latency.cache_hits == hits + len(PROBES)
    for features, direction in after:                # and still bumps it
        mapped.update(features, direction)
    mapped.flush()
    assert word.value >= value
    assert_word_current(domain, mapped, trapped)


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
