"""A failing kernel call fails its own requests and nothing else.

The shard's lane is the boundary that must keep running: an exception
that is not a :class:`PSSError` (a bug in a model, say) used to escape
the drain, end the shard's sim process and strand every future
queued behind it.  Now any exception fails exactly the requests the
kernel call covered, is counted in ``pipeline.failed``, and the shard
keeps draining.  Inside a kernel batch the boundary is the domain: a
model's bug is the outcome of that domain's rows, and another
domain's rows in the same batch are served.
"""

import pytest

from repro.core.kernel.service import ShardedService
from repro.core.models import PredictorModel
from repro.core.serving import (
    ServingConfig,
    ServingPipeline,
    serving_slos,
)
from repro.sim.process import spawn

FEATURES = (3, 5)


class BrokenModel(PredictorModel):
    """Stands in for a model with a bug: every entry point raises."""

    def predict(self, features):
        raise RuntimeError("model bug in predict")

    def update(self, features, direction):
        raise RuntimeError("model bug in update")


def build(**config_kw):
    service = ShardedService(num_shards=1)
    service.create_domain("good")
    service.create_domain("bad").model = BrokenModel()
    pipeline = ServingPipeline(service, ServingConfig(**config_kw))
    return service, pipeline


def settle_counter(futures):
    """Done-callback count per future: settled exactly once means 1."""
    counts = [0] * len(futures)

    def bump(index):
        def callback(_future):
            counts[index] += 1
        return callback

    for index, future in enumerate(futures):
        future.add_done_callback(bump(index))
    return counts


def test_runtime_error_fails_its_own_futures_and_the_shard_drains():
    service, pipeline = build()
    reference = ShardedService()
    reference.create_domain("good")

    futures = [
        pipeline.submit("good", FEATURES),
        pipeline.submit("bad", FEATURES),
        pipeline.submit("bad", FEATURES, op="update", direction=True),
        pipeline.submit("good", FEATURES, op="update", direction=True),
        pipeline.submit("bad", FEATURES),
        pipeline.submit("good", FEATURES),
    ]
    counts = settle_counter(futures)
    pipeline.run()

    assert all(future.done for future in futures)
    assert counts == [1] * len(futures)
    for index in (1, 2, 4):
        assert isinstance(futures[index].error, RuntimeError)
        with pytest.raises(RuntimeError, match="model bug"):
            futures[index].result()
    # The healthy domain saw exactly the synchronous sequence.
    assert futures[0].result() == reference.predict("good", FEATURES)
    reference.update("good", FEATURES, True)
    assert futures[3].result() is None
    assert futures[5].result() == reference.predict("good", FEATURES)

    snapshot = pipeline.snapshot()
    assert (snapshot["completed"], snapshot["failed"],
            snapshot["in_flight"]) == (3, 3, 0)
    # The shard's process is still parked on its queue, not dead.
    assert not pipeline.lanes[0].process.finished


def test_requests_submitted_after_a_failure_still_settle():
    _service, pipeline = build()
    first = pipeline.submit("bad", FEATURES)
    pipeline.run()
    assert isinstance(first.error, RuntimeError)

    later = [pipeline.submit("good", FEATURES) for _ in range(3)]
    pipeline.run()
    assert [future.error for future in later] == [None] * 3
    assert pipeline.failed == 1 and pipeline.completed == 3


def test_a_failed_run_in_a_micro_batch_does_not_stop_the_rest():
    """With a batch window the drained batch is predict-run / update /
    predict-run; the broken update fails alone and both runs score."""
    _service, pipeline = build(batch_window_ns=200.0, max_batch=8)
    futures = [
        pipeline.submit("good", FEATURES),
        pipeline.submit("bad", FEATURES, op="update", direction=False),
        pipeline.submit("good", FEATURES),
    ]
    counts = settle_counter(futures)
    pipeline.run()
    assert counts == [1, 1, 1]
    assert futures[0].error is None and futures[2].error is None
    assert isinstance(futures[1].error, RuntimeError)
    assert pipeline.batch_stats()["batches"] == 1


def test_a_broken_domain_fails_only_its_own_rows_of_a_mixed_run():
    """Predicts on good, bad, good in one window are one kernel batch.
    The bad model's error is its own row's outcome; good's two rows are
    served (they used to fail with it, counted in good's stats and
    never returned)."""
    service, pipeline = build(batch_window_ns=200.0, max_batch=8)
    reference = ShardedService()
    reference.create_domain("good")
    futures = [pipeline.submit(name, FEATURES)
               for name in ("good", "bad", "good")]
    counts = settle_counter(futures)
    pipeline.run()
    assert counts == [1, 1, 1]
    assert pipeline.batch_stats()["batches"] == 1
    assert isinstance(futures[1].error, RuntimeError)
    expected = reference.predict("good", FEATURES)
    assert futures[0].result() == futures[2].result() == expected
    assert (pipeline.completed, pipeline.failed) == (2, 1)
    reference.predict("good", FEATURES)
    assert service.domain("good").stats == reference.domain("good").stats


@pytest.mark.parametrize("names", [
    ("good", "bad", "good"), ("bad", "good"), ("bad", "bad"), ("bad",),
], ids="-".join)
def test_a_kernel_batch_stands_a_model_bug_at_its_domain_rows(names):
    """``predict_batch`` returns the error at the broken domain's rows,
    in a batch of one or of many; good's stats count only the rows it
    served."""
    service, _pipeline = build()
    reference = ShardedService()
    reference.create_domain("good")
    outcomes = service.predict_batch([(name, FEATURES) for name in names])
    expected = [reference.predict("good", FEATURES)
                if name == "good" else None for name in names]
    for name, outcome, score in zip(names, outcomes, expected):
        if name == "bad":
            assert isinstance(outcome, RuntimeError), outcome
        else:
            assert outcome == score
    assert service.domain("good").stats == reference.domain("good").stats


@pytest.mark.parametrize("domain, pages", [("bad", True), ("good", False)])
def test_a_shard_that_fails_its_requests_burns_budget_and_pages(
        domain, pages):
    """A failed request misses any latency limit: the health engine
    gets it as a bad sample, so a domain whose every kernel call raises
    pages within a few evaluation intervals - it used to burn nothing
    and never page.  The same traffic on a healthy domain does not."""
    service = ShardedService(num_shards=1)
    service.create_domain("good")
    service.create_domain("bad").model = BrokenModel()
    pipeline = ServingPipeline(service, ServingConfig(),
                               slos=serving_slos())
    futures = []

    def arrivals():
        for _ in range(100):
            yield 100.0
            futures.append(pipeline.submit(domain, FEATURES))

    spawn(pipeline.engine, arrivals(), name="arrivals")
    pipeline.run()
    assert all(future.done for future in futures)
    assert pipeline.failed == (100 if pages else 0)
    assert (pipeline.page_evals > 0) is pages
    verdict, = pipeline.slo_engine.evaluate()
    assert (verdict.bad, verdict.good) == (
        (100, 0) if pages else (0, 100))
    # nothing was shed: the pipeline only advises unless told to enforce
    assert pipeline.shed_count == 0
