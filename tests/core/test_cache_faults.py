"""Interplay of the generation-keyed score cache with fault injection.

The vDSO score cache and stale-read injection both answer predictions
without evaluating the model, for opposite reasons: the cache because the
weights provably did not change, staleness because a read-only mapping can
lag the kernel's writes.  These tests pin down their composition:

* injected staleness is never *masked* - a memoized fresh score must not
  be returned on a read the injector marked stale;
* stale answers are never *double-served* - a stale score must not enter
  the generation cache and outlive the injection window;
* the injected fault sequence stays deterministic with caching on.
"""

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.faults import FaultInjector, FaultPlan

CONFIG = PSSConfig(num_features=2, entries_per_feature=64)


def make_client(plan=None, batch_size=1):
    service = PredictionService()
    client = service.connect(
        "cache-faults", config=CONFIG, transport="vdso",
        batch_size=batch_size,
    )
    if plan is not None:
        client.attach_fault_injector(FaultInjector(plan))
    return service, client


def train_until_score_changes(client, features, direction=True,
                              attempts=50):
    """Apply updates until the served score moves, returning old/new."""
    before = client.predict(features)
    for _ in range(attempts):
        client.update(features, direction)
        after = client.predict(features)
        if after != before:
            return before, after
    raise AssertionError("training never moved the score")


class TestStalenessNotMasked:
    def test_warm_cache_does_not_mask_injected_staleness(self):
        """A score memoized pre-injection must not answer a stale read.

        Warm the generation cache, train (generation bump), then attach
        an always-stale injector: the next predict must serve the stale
        protocol's answer (a fresh read, since its stale cache is cold),
        not the pre-training memoized score.
        """
        service, client = make_client()
        features = (5, 9)
        old_score, new_score = train_until_score_changes(client, features)
        assert client.predict(features) == new_score  # cache warm
        client.attach_fault_injector(
            FaultInjector(FaultPlan(seed=0, stale_read_rate=1.0))
        )
        # Stale cache is empty, so the read falls through to the service
        # and must see the *trained* weights - not the stale-protocol
        # cache, and not any pre-injection memoized value.
        assert client.predict(features) == new_score

    def test_stale_reads_serve_lagging_score_with_cache_layer_present(self):
        """The pre-acceleration staleness semantics survive unchanged."""
        service, client = make_client(
            plan=FaultPlan(seed=0, stale_read_rate=1.0)
        )
        features = (1, 2)
        first = client.predict(features)  # fresh; primes the stale cache
        for _ in range(30):
            client.update(features, True)
        # Weights moved, but every read is stale: the old score persists.
        assert client.predict(features) == first
        assert service.domain("cache-faults").model.predict(
            list(features)) != first


class TestStaleScoresNotDoubleServed:
    def test_detaching_injector_discards_stale_answers(self):
        """A stale answer must not be re-served from the score cache.

        While injected, reads keep serving the lagging score.  Once the
        injector detaches, the very next read must be fresh - if stale
        answers had leaked into the generation cache, it would still
        serve the old score here.
        """
        service, client = make_client(
            plan=FaultPlan(seed=0, stale_read_rate=1.0)
        )
        features = (3, 4)
        stale_score = client.predict(features)
        for _ in range(30):
            client.update(features, True)
        assert client.predict(features) == stale_score  # still lagging
        client.attach_fault_injector(None)  # mapping healed
        fresh = client.predict(features)
        assert fresh != stale_score
        assert fresh == service.domain("cache-faults").model.predict(
            list(features))
        # And the healed fast path memoizes the *fresh* score.
        assert client.predict(features) == fresh
        assert client.latency.cache_hits >= 1

    def test_a_reattached_injector_starts_with_no_stale_answers(self):
        """Stale scores are the attached layer's: once the transport
        healed and read fresh scores, a new injector cannot answer
        with a score older than those."""
        service, client = make_client(
            plan=FaultPlan(seed=0, stale_read_rate=1.0)
        )
        features = (3, 4)
        stale_score = client.predict(features)
        for _ in range(30):
            client.update(features, True)
        client.attach_fault_injector(None)
        fresh = client.predict(features)
        assert fresh != stale_score
        client.attach_fault_injector(
            FaultInjector(FaultPlan(seed=0, stale_read_rate=1.0))
        )
        assert client.predict(features) == fresh

    def test_cache_not_populated_during_injection_window(self):
        _, client = make_client(plan=FaultPlan(seed=1, stale_read_rate=0.5))
        for i in range(40):
            client.predict((i % 4, 7))
        # All reads went through the stale protocol: the generation
        # cache must have stayed cold (no hits, no misses recorded).
        assert client.latency.cache_hits == 0
        assert client.latency.cache_misses == 0


class TestDeterminism:
    @pytest.mark.parametrize("rate", [0.1, 0.5, 1.0])
    def test_fault_sequence_reproducible_with_caching(self, rate):
        """Same plan + same workload = identical injected fault stats."""
        def run():
            service, client = make_client(
                plan=FaultPlan(seed=7, stale_read_rate=rate,
                               syscall_failure_rate=0.0)
            )
            scores = []
            for i in range(100):
                scores.append(client.predict((i % 5, 1)))
                if i % 3 == 0:
                    client.update((i % 5, 1), i % 2 == 0)
            injector = client._transport._target.injector
            return scores, injector.stats.stale_reads

        first_scores, first_stale = run()
        second_scores, second_stale = run()
        assert first_scores == second_scores
        assert first_stale == second_stale
        assert first_stale > 0

    def test_zero_stale_rate_keeps_fast_path_active(self):
        """An injector that cannot inject staleness must not disable the
        score cache (its stale dice consume no randomness)."""
        _, client = make_client(
            plan=FaultPlan(seed=0, stale_read_rate=0.0,
                           syscall_failure_rate=0.0)
        )
        for _ in range(10):
            client.predict((1, 2))
        assert client.latency.cache_hits == 9
        assert client.latency.cache_misses == 1
