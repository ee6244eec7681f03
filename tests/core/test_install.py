"""Replacing a domain's learned state under open clients.

Crash, promotion and restore all go through :meth:`Domain.install`, so
whatever replaces the state, what was opened *before* keeps working on
the domain the kernel serves: the ``Domain`` object is the one it was,
every client reads what the kernel reads and trains what the kernel
counts, the generation only rises, and policy, owner and the owner's
quota are untouched (a snapshot carries none of them).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PredictionService, PSSConfig
from repro.core.errors import PolicyError
from repro.core.kernel import ReplicaPromoter, ShardedCheckpointManager
from repro.core.kernel.admission import AdmissionController
from repro.core.persistence import (
    CheckpointManager,
    load_service,
    save_service,
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


def manager_recover(service, tmp_path):
    manager = CheckpointManager(service, tmp_path / "checkpoint.json")
    manager.checkpoint()
    return [manager.recover]


@pytest.mark.parametrize("scenario, replicas", [
    (promote, 1), (recover, 0), (load, 0), (manager_recover, 0)])
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

    generations = [domain.generation]
    for step in steps:
        step()
        generations.append(service.domain(NAME).generation)
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

    assert domain.policy is policy and domain.created_by == OWNER
    assert admission.usage_for(OWNER).domains == 1
    with pytest.raises(PolicyError):
        service.handle(NAME, OTHER).predict(PROBES[0])
