"""Every registered trace kind is actually reachable by the tier-1 suite.

A documented scenario drives each kind in ``EVENT_KINDS``, and every
kind the scenarios emit is registered - a kind nobody can trigger is
dead weight in the taxonomy and a gap in the docs, one nobody
registered bypasses the exporters' schema.  The test fails with the
exact list of never-emitted kinds so a new kind must arrive with its
scenario.

The same scenarios hold the two other catalogues to what the stack
does: every span they open is in ``SPAN_NAMES`` and
every metric they file is one of ``repro.obs.metrics``'s name
constants, and neither registry lists a name they never produce - so
the tables docs/OBSERVABILITY.md generates from those registries
(``tests/obs/test_doc_tables.py``) describe the real vocabulary.
"""

import pytest


from repro.bench.experiments.chaos import (
    parse_reshard_schedule,
    run_chaos,
)
from repro.core import PredictionService, PSSConfig, ResilienceConfig
from repro.core.faults import FaultPlan
from repro.core.kernel.admission import AdmissionController, TenantQuota
from repro.core.kernel.checkpoint import (
    ShardedCheckpointManager,
    shard_file_name,
)
from repro.core.kernel.service import ShardedService
from repro.core.policy import ClientIdentity
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import (
    EVENT_KINDS,
    SLO,
    SPAN_NAMES,
    MetricsRegistry,
    SLOEngine,
    Tracer,
)
from repro.obs import metrics as metric_names

FEATURES = [3, 5]
CONFIG_KW = dict(num_features=2)


class Seen:
    """What the scenarios produced: event kinds, span names, metric
    names."""

    def __init__(self):
        self.kinds: set[str] = set()
        self.spans: set[str] = set()
        self.metrics: set[str] = set()

    def take(self, tracer, registry=None):
        self.kinds.update(event.kind for event in tracer.events())
        self.spans.update(span.name for span in tracer.spans())
        if registry is not None:
            for instruments in (registry.counters(), registry.gauges(),
                                registry.histograms()):
                self.metrics.update(name for (name, _), _ in instruments)


def _vdso_scenario(seen):
    """predict / cache activity / update / reset / flush / batch, over
    both transports, steady and on the degrade ladder."""
    tracer, registry = Tracer(), MetricsRegistry()
    service = ShardedService(tracer=tracer, metrics=registry,
                             admission=AdmissionController())
    client = service.connect("d", config=PSSConfig(**CONFIG_KW),
                             batch_size=4)
    client.predict(FEATURES)
    client.predict(FEATURES)
    client.predict_batch([FEATURES, [1, 2]])
    client.update(FEATURES, True)
    client.flush()
    client.reset(FEATURES, reset_all=True)
    # the batched syscall crossing is the one that emits predict_batch
    batched = service.connect("d", transport="syscall",
                              config=PSSConfig(**CONFIG_KW))
    batched.predict_batch([FEATURES, [1, 2]])
    batched.predict(FEATURES)
    batched.update(FEATURES, True)
    batched.reset(FEATURES, reset_all=False)
    # a refused read puts the client on its ladder: the next call spans
    service.admission.set_quota(ClientIdentity(), TenantQuota(
        predict_budget=0))
    degraded = service.connect("d", batch_size=4)
    degraded.predict_batch([FEATURES])
    degraded.update(FEATURES, False)
    degraded.predict(FEATURES)
    degraded.flush()
    degraded.predict(FEATURES)
    degraded.reset(FEATURES, reset_all=False)
    seen.take(tracer, registry)
    # the probe's outcome is not a kind of its own: it is the vDSO
    # predict's detail, and the scenario drives both values
    assert {e.detail["cache"] for e in tracer.events()
            if e.kind == "predict" and e.transport == "vdso"} \
        == {"hit", "miss"}


def _stale_read_scenario(seen):
    tracer = Tracer()
    service = PredictionService(tracer=tracer)
    client = service.connect(
        "d", config=PSSConfig(**CONFIG_KW),
        fault_plan=FaultPlan(seed=0, stale_read_rate=1.0),
    )
    for _ in range(4):
        client.predict(FEATURES)
    seen.take(tracer)


def _resilience_scenario(seen):
    """faults, retries, fallbacks, and both breaker transitions."""
    tracer = Tracer()
    service = PredictionService(tracer=tracer)
    client = service.connect(
        "d", transport="syscall", config=PSSConfig(**CONFIG_KW),
        resilience=ResilienceConfig(max_attempts=2, breaker_threshold=2,
                                    breaker_cooldown=2),
        fallback=1,
        fault_plan=FaultPlan(seed=5, syscall_failure_rate=0.6),
    )
    for _ in range(60):
        client.predict(FEATURES)
    seen.take(tracer)


def _checkpoint_scenario(seen, tmp_path):
    tracer = Tracer()
    service = PredictionService(tracer=tracer)
    service.create_domain("d", config=PSSConfig(**CONFIG_KW))
    manager = ShardedCheckpointManager(service, tmp_path, interval=1)
    manager.checkpoint()
    assert manager.recover() == 1
    (tmp_path / shard_file_name(0)).write_text("{ not json")
    assert manager.recover() == 0
    seen.take(tracer)


def _chaos_scenario(seen):
    """crashes, failover, replicas, migration, plans - one seeded run."""
    tracer = Tracer(capacity=1 << 20)
    run_chaos(seed=0, replicas=2,
              reshard_schedule=parse_reshard_schedule("6:4,14:3"),
              tracer=tracer)
    seen.take(tracer)


def _kernel_metrics_scenario(seen):
    """The resilience machinery's four series: replica lag, a crash,
    a failover read, a reshard's moved slots."""
    tracer, registry = Tracer(), MetricsRegistry()
    service = ShardedService(num_shards=2, num_replicas=1,
                             tracer=tracer, metrics=registry)
    client = service.connect("d", config=PSSConfig(**CONFIG_KW),
                             batch_size=1)
    client.update(FEATURES, True)
    service.reshard(3)
    service.sync_replicas()
    service.crash_shard(service.shard_of("d"))
    client.predict(FEATURES)
    seen.take(tracer, registry)


def _serving_scenario(seen):
    """request / shed / flush-timeout on one tiny pipeline."""
    tracer, registry = Tracer(), MetricsRegistry()
    service = ShardedService(tracer=tracer, metrics=registry,
                             admission=AdmissionController())
    service.create_domain("d")
    # window > 0 with a partial batch forces the timeout flush; the
    # 2-deep queue makes the burst's tail shed at admission.
    pipeline = ServingPipeline(
        service,
        config=ServingConfig(batch_window_ns=200.0, queue_limit=2),
    )
    for _ in range(5):
        pipeline.submit("d", FEATURES)
    pipeline.submit("d", FEATURES + [1])
    pipeline.run()
    seen.take(tracer, registry)
    # a refusal at submit is not a kind of its own: it is the request
    # record's outcome, and the scenario drives both
    assert {e.detail["outcome"] for e in tracer.events()
            if e.kind == "request"} == {"ok", "refused:feature"}


def _slo_scenario(seen):
    tracer = Tracer()
    engine = SLOEngine(
        [SLO("stale", "staleness", objective=0.9, max_lag=0)],
        tracer=tracer)
    for i in range(10):
        engine.observe("stale", float(i), good=False)
    engine.evaluate()
    seen.take(tracer)


@pytest.fixture(scope="module")
def seen(tmp_path_factory):
    seen = Seen()
    _vdso_scenario(seen)
    _stale_read_scenario(seen)
    _resilience_scenario(seen)
    _checkpoint_scenario(seen, tmp_path_factory.mktemp("checkpoint"))
    _chaos_scenario(seen)
    _kernel_metrics_scenario(seen)
    _serving_scenario(seen)
    _slo_scenario(seen)
    return seen


def test_every_registered_kind_is_emitted(seen):
    seen = seen.kinds
    missing = sorted(EVENT_KINDS - seen)
    assert not missing, (
        f"registered trace kinds never emitted by any scenario: "
        f"{missing}; add a driving scenario here (and to "
        f"docs/OBSERVABILITY.md) or retire the kind")
    # and the scenarios only emit registered kinds
    assert seen <= EVENT_KINDS


def test_every_registered_span_name_is_opened(seen):
    assert sorted(SPAN_NAMES - seen.spans) == [], (
        "registered span names no scenario opens: drive them here or "
        "drop them from repro.obs.spans.SPAN_NAMES")
    assert sorted(seen.spans - SPAN_NAMES) == [], (
        "spans opened under unregistered names: add them to "
        "repro.obs.spans.SPAN_NAMES (and docs/generate_tables.py)")


def test_every_metric_name_constant_is_filed(seen):
    constants = {value for name, value in vars(metric_names).items()
                 if name.isupper() and isinstance(value, str)
                 and value.startswith("pss_")}
    assert sorted(constants - seen.metrics) == [], (
        "metric-name constants no scenario files")
    assert sorted(seen.metrics - constants) == [], (
        "metrics filed under a name that is no constant of "
        "repro.obs.metrics")
