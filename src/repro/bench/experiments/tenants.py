"""Multi-tenant shard scaling: htm + jit + mm against one kernel.

The paper positions the PSS as a shared OS service: many subsystems
register domains with one kernel-resident predictor.  This driver
reproduces that deployment shape with the sharded kernel: the three
scenario tenants (HTM lock elision, the PyPy-style JIT tuner, and the
memory-reclaim throttle) all run against a *single*
:class:`~repro.core.service.PredictionService` configured with N shards
and an :class:`~repro.core.kernel.admission.AdmissionController`, for
each N in the shard-count sweep.

Per shard count the driver reports

* the shard-scaling table - how stable hashing spread the tenant mix
  across shards, with per-shard prediction/update volume and vDSO /
  syscall latency percentiles, and
* the tenant table - what each identity consumed against its quota.

A fourth "scavenger" tenant runs with a deliberately tiny prediction
budget on a resilient client, demonstrating the admission path: its
excess predictions are refused with
:class:`~repro.core.errors.QuotaExceededError` and served by the static
fallback without a single retry.

A cell is one shard count: a fresh service, admission controller and
metrics registry each.  Everything is deterministic in ``--seed``: two
runs with the same seed produce byte-identical reports, with or without
``--trace``.  The same tenant mix under crashes and live resharding is
the ``chaos`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.runner import SEED, Experiment
from repro.bench.tables import fastpath_table, shard_table, tenant_table
from repro.core import PredictionService
from repro.core.config import ResilienceConfig
from repro.core.kernel import AdmissionController, TenantQuota
from repro.core.policy import ClientIdentity
from repro.htm.runner import pss_builder, run_workload
from repro.htm.stamp import PROFILES
from repro.jit.polybench import KERNELS
from repro.jit.tuner import PSSTuner
from repro.mm.runner import make_pss_throttle, run_stutterp
from repro.obs import MetricsRegistry

#: shard counts swept by the full experiment
SHARD_COUNTS = (1, 2, 4, 8)
QUICK_SHARD_COUNTS = (1, 4)

#: the tenant identities, one per scenario subsystem
HTM_TENANT = ClientIdentity(uid=101, program="htm-elision")
JIT_TENANT = ClientIdentity(uid=102, program="jit-tuner")
MM_TENANT = ClientIdentity(uid=103, program="mm-reclaim")
SCAVENGER = ClientIdentity(uid=104, program="scavenger")

#: predictions the scavenger tenant may consume before admission
#: refuses it (it will attempt SCAVENGER_ATTEMPTS)
SCAVENGER_BUDGET = 5
SCAVENGER_ATTEMPTS = 20

HTM_WORKLOADS = ("genome", "ssca2")
QUICK_HTM_WORKLOADS = ("genome",)
HTM_THREADS = 4

JIT_KERNELS = ("atax", "gesummv", "trisolv", "mvt")
QUICK_JIT_KERNELS = ("atax", "gesummv")
JIT_ITERATIONS = 25
QUICK_JIT_ITERATIONS = 10

MM_WORKERS = 8
MM_DURATION_NS = 300_000_000.0
QUICK_MM_DURATION_NS = 100_000_000.0


def _make_admission() -> AdmissionController:
    """Fresh controller with the experiment's per-tenant quotas.

    The scenario tenants get bounded-but-generous domain quotas and
    unlimited budgets (the point is the scaling sweep, not starving
    them); the scavenger gets a tiny prediction budget so the report
    shows admission refusing work.
    """
    controller = AdmissionController()
    controller.set_quota(HTM_TENANT, TenantQuota(max_domains=8))
    controller.set_quota(JIT_TENANT, TenantQuota(max_domains=8))
    controller.set_quota(MM_TENANT, TenantQuota(max_domains=4))
    controller.set_quota(SCAVENGER, TenantQuota(
        max_domains=1, predict_budget=SCAVENGER_BUDGET,
    ))
    return controller


@dataclass
class ShardRunResult:
    """All three tenants (plus the scavenger) on one shard count."""

    num_shards: int
    #: ShardedService.shard_summaries() after the run
    shard_summaries: list
    #: AdmissionController.usage_rows() after the run
    usage_rows: list
    #: (label, DomainReport) pairs for the fast-path table
    labeled_reports: list
    #: scavenger client's ResilienceStats (fallbacks, quota rejections)
    scavenger_stats: object


def _run_scavenger(service: PredictionService) -> object:
    """Exhaust the scavenger tenant's prediction budget, degraded."""
    client = service.connect(
        "scavenger",
        identity=SCAVENGER,
        resilience=ResilienceConfig(),
        fallback=-1,
    )
    for i in range(SCAVENGER_ATTEMPTS):
        # Distinct feature vectors so the score cache cannot absorb the
        # calls: every attempt must face the admission controller.
        client.predict([i, i + 1])
    client.close()
    return client.stats


def run_shard_count(num_shards: int, seed: int = 0, quick: bool = False,
                    tracer=None) -> ShardRunResult:
    """Run every tenant against one fresh N-shard service."""
    metrics = MetricsRegistry()
    admission = _make_admission()
    service = PredictionService(
        tracer=tracer, metrics=metrics,
        num_shards=num_shards, admission=admission,
    )

    labeled_reports = []

    htm_workloads = QUICK_HTM_WORKLOADS if quick else HTM_WORKLOADS
    for name in htm_workloads:
        run_workload(
            PROFILES[name], HTM_THREADS,
            pss_builder(service=service, domain=f"hle-{name}",
                        identity=HTM_TENANT),
            seed=seed,
        )

    jit_kernels = QUICK_JIT_KERNELS if quick else JIT_KERNELS
    iterations = QUICK_JIT_ITERATIONS if quick else JIT_ITERATIONS
    for name in jit_kernels:
        tuner = PSSTuner(service=service, domain=f"jit-{name}",
                         identity=JIT_TENANT)
        tuner.run(KERNELS[name](), iterations)
        tuner.client.close()

    throttle = make_pss_throttle(service, domain="reclaim",
                                 identity=MM_TENANT)
    run_stutterp(
        MM_WORKERS, throttle, seed=seed,
        duration_ns=QUICK_MM_DURATION_NS if quick else MM_DURATION_NS,
    )

    scavenger_stats = _run_scavenger(service)

    for report in service.reports():
        labeled_reports.append((report.name.split("-")[0], report))

    return ShardRunResult(
        num_shards=num_shards,
        shard_summaries=service.shard_summaries(),
        usage_rows=admission.usage_rows(),
        labeled_reports=labeled_reports,
        scavenger_stats=scavenger_stats,
    )


def grid(args) -> list[tuple]:
    shard_counts = QUICK_SHARD_COUNTS if args.quick else SHARD_COUNTS
    return [(count, args.seed, args.quick) for count in shard_counts]


def cell(spec, tracer, metrics) -> ShardRunResult:
    """One shard count; its service keeps its own metrics registry (the
    percentile columns), so ``metrics`` is not threaded in."""
    num_shards, seed, quick = spec
    return run_shard_count(num_shards, seed=seed, quick=quick,
                           tracer=tracer)


def render(runs, args) -> str:
    lines = [
        "Multi-tenant shard scaling (htm + jit + mm on one sharded kernel)",
        f"  seed: {args.seed}",
    ]
    for run in runs:
        stats = run.scavenger_stats
        lines += [
            "",
            f"== {run.num_shards} shard"
            f"{'s' if run.num_shards != 1 else ''} ==",
            shard_table(run.shard_summaries),
            "",
            "tenants:",
            tenant_table(run.usage_rows),
            f"scavenger: {stats.predictions} predicts, "
            f"{stats.quota_rejections} refused by admission, "
            f"{stats.fallback_predictions} served by fallback, "
            f"{stats.retries} retries",
            "",
            "domains:",
            fastpath_table(run.labeled_reports),
        ]
    return "\n".join(lines)


TENANTS = Experiment("tenants", "Multi-tenant shard scaling (htm+jit+mm)",
                     grid, cell, render, flags=(SEED,))
