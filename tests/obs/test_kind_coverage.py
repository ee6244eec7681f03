"""Every registered trace kind is actually reachable by the tier-1 suite.

TRC002 proves statically that every kind in ``EVENT_KINDS`` has an emit
site; this test proves *dynamically* that a documented scenario drives
each one - a kind nobody can trigger is dead weight in the taxonomy and
a gap in the docs.  The test fails with the exact list of never-emitted
kinds so a new kind must arrive with its scenario.
"""

from repro.bench.experiments.tenants import (
    parse_reshard_schedule,
    run_chaos,
)
from repro.core import (
    FaultPlan,
    PredictionService,
    PSSConfig,
    ResilienceConfig,
)
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.persistence import CheckpointManager
from repro.core.serving import ServingConfig, ServingPipeline
from repro.obs import EVENT_KINDS, SLO, SLOEngine, Tracer

FEATURES = [3, 5]
CONFIG_KW = dict(num_features=2)


def _vdso_scenario(seen):
    """predict / cache activity / update / reset / flush / batch."""
    tracer = Tracer()
    service = PredictionService(tracer=tracer)
    client = service.connect("d", config=PSSConfig(**CONFIG_KW),
                             batch_size=4)
    client.predict(FEATURES)
    client.predict(FEATURES)
    client.update(FEATURES, True)
    client.flush()
    client.reset(FEATURES, reset_all=True)
    # the batched syscall crossing is the one that emits predict_batch
    batched = service.connect("d", transport="syscall",
                              config=PSSConfig(**CONFIG_KW))
    batched.predict_batch([FEATURES, [1, 2]])
    seen.update(e.kind for e in tracer.events())
    # the probe's outcome is not a kind of its own: it is the vDSO
    # predict's detail, and the scenario drives both values
    assert {e.detail["cache"] for e in tracer.events()
            if e.kind == "predict"} == {"hit", "miss"}


def _stale_read_scenario(seen):
    tracer = Tracer()
    service = PredictionService(tracer=tracer)
    client = service.connect(
        "d", config=PSSConfig(**CONFIG_KW),
        fault_plan=FaultPlan(seed=0, stale_read_rate=1.0),
    )
    for _ in range(4):
        client.predict(FEATURES)
    seen.update(e.kind for e in tracer.events())


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
    seen.update(e.kind for e in tracer.events())


def _checkpoint_scenario(seen, tmp_path):
    tracer = Tracer()
    service = PredictionService(tracer=tracer)
    service.create_domain("d", config=PSSConfig(**CONFIG_KW))
    path = tmp_path / "ckpt.json"
    manager = CheckpointManager(service, path, interval=1)
    manager.checkpoint()
    assert manager.recover()
    path.write_text("{ not json")
    assert not manager.recover()
    seen.update(e.kind for e in tracer.events())


def _chaos_scenario(seen):
    """crashes, failover, replicas, migration, plans - one seeded run."""
    tracer = Tracer(capacity=1 << 20)
    run_chaos(seed=0, replicas=2,
              reshard_schedule=parse_reshard_schedule("6:4,14:3"),
              tracer=tracer)
    seen.update(e.kind for e in tracer.events())


def _serving_scenario(seen):
    """enqueue / shed / dispatch / flush-timeout on one tiny pipeline."""
    tracer = Tracer()
    service = ShardedService(tracer=tracer,
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
    pipeline.mark_load_complete()
    pipeline.run()
    seen.update(e.kind for e in tracer.events())


def _slo_scenario(seen):
    tracer = Tracer()
    engine = SLOEngine(
        [SLO("stale", "staleness", objective=0.9, max_lag=0)],
        tracer=tracer)
    for i in range(10):
        engine.observe("stale", float(i), good=False)
    engine.evaluate()
    seen.update(e.kind for e in tracer.events())


def test_every_registered_kind_is_emitted(tmp_path):
    seen: set[str] = set()
    _vdso_scenario(seen)
    _stale_read_scenario(seen)
    _resilience_scenario(seen)
    _checkpoint_scenario(seen, tmp_path)
    _chaos_scenario(seen)
    _serving_scenario(seen)
    _slo_scenario(seen)
    missing = sorted(EVENT_KINDS - seen)
    assert not missing, (
        f"registered trace kinds never emitted by any scenario: "
        f"{missing}; add a driving scenario here (and to "
        f"docs/OBSERVABILITY.md) or retire the kind")
    # the scenarios only emit registered kinds (TRC001's dynamic twin)
    assert seen <= EVENT_KINDS
