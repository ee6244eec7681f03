"""What a served request executes, pinned by frame count.

A served request crosses one lane: ``submit`` appends it to its shard's
:class:`~repro.core.serving.dispatch.Dispatcher`, whose one sim process
drains, charges the crossing and settles the future.  The frames 64
warm requests enter - submitted by a sim body to a 1-shard pipeline
shedding on pages, judging the serving SLOs - are pinned here
by ``sys.setprofile`` (as ``tests/core/test_read_frames.py`` pins a
read), plain and watched (Tracer + MetricsRegistry), so a frame that
creeps back onto the lane fails by count, not by time.
"""

import pytest

from repro.core import AdmissionController, PSSConfig, ShardedService
from repro.core.serving import ServingConfig, ServingPipeline, serving_slos
from repro.obs import MetricsRegistry, Tracer
from repro.sim.process import spawn

from tests.core.test_read_frames import frames

REQUESTS = 64

#: Python frames the 64 requests' run enters, body and SLO judgements
#: included: (plain, watched)
PINNED = {
    # Window 0, one request every 200 ns, so each is served alone.
    # Per request, submit side (15): engine.step, the body's resume and
    # its generator, submit, CompletionFuture.__init__, handle.admit,
    # _admit_predict, TenantMeter.charge_predict, Request.__init__,
    # admit_request, Dispatcher.push, the parked lane's resume and its
    # generator (which drains at once and sleeps the crossing),
    # engine.schedule for that sleep and for the body's next gap.
    # Serve side (18): engine.step, the lane's resume and generator,
    # _serve, service.predict_batch (spanned wrapper and body),
    # service.domain, shard_of, Domain.predict, the model's predict ->
    # dot -> _flat_indices -> gather, record_prediction, request_done,
    # the sojourn histogram's observe, SLOEngine.observe and the
    # future's settle.  33 x 64 = 2112; the other 41 are the run's
    # own (run, engine.run, the body's last step, resume and
    # generator) and 6 grid points judged at submit (_judge_until,
    # evaluate, its SLOVerdict, the paging scan's genexpr and two
    # _burn).  Watched adds 6 a request: the
    # drain's _trace_drain and its batch-size observe, the kernel's
    # _batch_span opener (a row opens no span), _trace_request,
    # shard_label and the shard's sojourn histogram's observe.
    (0, "predict"): (2153, 2537),
    # The update path serves through service.update (no wrapper),
    # Domain.update, the model's update -> dot_and_indices ->
    # _flat_indices -> gather (and adjust_at when a weight moves) and
    # record_update, and admits through _admit_update and
    # charge_updates: one frame fewer a request than a predict.
    # Watched adds 5: no kernel opener.
    (0, "update"): (2089, 2409),
    # Window 200, one request every 10 ns: 3 drains of ~21 rows.  Per
    # request (26): the body's step, resume, generator and schedule,
    # submit, the two __init__s, admit, _admit_predict, charge_predict,
    # admit_request, push (the lane is collecting: no resume); and the
    # 14 kernel-and-settle frames above (no per-request step, resume
    # or _serve: the batch is served in one).  26 x 64 = 1664, plus 41
    # for the drains, the run and 1 judged grid point.  Watched adds the
    # per-request record and opener (_batch_span, _trace_request,
    # shard_label, observe) and, per drain, a serve.dispatch span whose
    # opener compares each request's shard id inline.
    (200, "predict"): (1705, 1987),
    (200, "update"): (1641, 1859),
}

#: frames the lane no longer has: the queue, the batcher and the event
#: that stood between them, the row's canonicalisation (inline in
#: submit), the shed test while nothing pages, the domain's shard_id
#: property (read inline), the future's complete -> _settle pair and
#: the SLO monitor process (judged at submit, nothing is scheduled)
GONE = ("collect_ns", "drain", "service_ns", "fire", "canonical_features",
        "should_shed", "shard_id", "complete", "_settle", "_carry_out",
        "pending", "_monitor", "_judge", "has_pending")


def serve(window, op, watched):
    observed = ({"tracer": Tracer(), "metrics": MetricsRegistry()}
                if watched else {})
    service = ShardedService(admission=AdmissionController(), **observed)
    service.create_domain("d", config=PSSConfig(num_features=2))
    pipeline = ServingPipeline(
        service, ServingConfig(batch_window_ns=window, shed_on_page=True),
        slos=serving_slos())
    gap = 200.0 if window == 0 else 10.0
    kind = {} if op == "predict" else {"op": "update", "direction": True}

    def body():
        for _ in range(REQUESTS):
            pipeline.submit("d", (1, 2), **kind)
            yield gap

    spawn(pipeline.engine, body())
    pipeline.run()                      # warm: plans, caches, histograms
    spawn(pipeline.engine, body())
    calls = frames(pipeline.run)
    assert pipeline.completed == 2 * REQUESTS
    return pipeline, calls


@pytest.mark.parametrize("watched", [False, True],
                         ids=["plain", "watched"])
@pytest.mark.parametrize("window, op", list(PINNED),
                         ids=[f"window{w}-{op}" for w, op in PINNED])
def test_what_a_served_request_executes(window, op, watched):
    pipeline, calls = serve(window, op, watched)
    drains = pipeline.batch_stats()["batches"]
    assert drains == (2 * REQUESTS if window == 0 else 6)
    assert sum(calls.values()) == PINNED[window, op][watched], calls
    for name in GONE:
        assert name not in calls, (name, calls)
