"""The Figure 6 harness: stutterp sweeps across throttle policies.

``run_stutterp`` builds one simulated machine (memory + block device +
reclaim + workers) and reports the anon latency worker's average fault
latency.  ``compare_throttles`` produces one Figure 6 column: the
improvement of the Gorman patch and of four successive PSS runs over the
vanilla kernel, with the PSS service persisted across the four runs (the
paper's cross-invocation learning, Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import PredictionService, PSSConfig
from repro.mm.blockdev import BlockDevice
from repro.mm.reclaim import ReclaimController
from repro.mm.state import MemoryState, VmStats
from repro.mm.throttle import (
    GormanThrottle,
    NeverThrottle,
    PSSThrottle,
    ThrottlePolicy,
    VanillaCongestionWait,
)
from repro.mm.workloads import LatencyRecord, Stutterp, StutterpConfig
from repro.sim.engine import Engine
from repro.sim.process import spawn
from repro.sim.rng import RngStreams

#: total simulated memory in pages
MEMORY_PAGES = 2000

#: simulated run length per benchmark run
RUN_DURATION_NS = 400_000_000.0  # 400 ms

#: Figure 6 x-axis: worker counts
FIGURE6_WORKERS = (4, 7, 12, 21, 30, 48, 64)


@dataclass
class StutterpResult:
    """One stutterp run's outcome."""

    workers: int
    policy: str
    average_latency_ns: float
    p95_latency_ns: float
    samples: int
    vmstats: VmStats
    latency: LatencyRecord = field(repr=False, default=None)


def gorman_fallback(features) -> int:
    """Static degraded-mode decision: the kernel's fixed 12.5 % rule.

    The PSS throttle's third feature is ``scanned / reclaimed`` (the
    reciprocal of reclaim efficiency), so a ratio of 8 or more means
    efficiency has fallen below 1/8 - exactly where Gorman's patch
    throttles.  When the prediction service is unreachable, this is the
    behaviour the kernel would have shipped anyway.
    """
    return -1 if features[2] >= 8 else 1


def make_pss_throttle(service: PredictionService,
                      domain: str = "reclaim",
                      fault_plan=None,
                      resilience=None,
                      identity=None) -> PSSThrottle:
    """A PSS throttle bound to (possibly pre-trained) service state.

    The throttle's client degrades to :func:`gorman_fallback`;
    ``fault_plan`` injects faults and ``resilience`` tunes the retries
    and the breaker.
    ``identity`` names the tenant to charge on admission-controlled
    services.
    """
    client = service.connect(
        domain,
        identity=identity,
        config=PSSConfig(num_features=3, weight_bits=6,
                         training_margin=8),
        transport="vdso",
        batch_size=1,
        resilience=resilience,
        fallback=gorman_fallback,
        fault_plan=fault_plan,
    )
    return PSSThrottle(client)


def run_stutterp(workers: int, policy: ThrottlePolicy,
                 seed: int = 0,
                 duration_ns: float = RUN_DURATION_NS,
                 memory_pages: int = MEMORY_PAGES) -> StutterpResult:
    """One benchmark run of stutterp under the given throttle policy."""
    engine = Engine()
    mm = MemoryState(total=memory_pages)
    device = BlockDevice(engine)
    rng = RngStreams(seed)
    controller = ReclaimController(engine, mm, device, policy, rng)
    workload = Stutterp(StutterpConfig(workers=workers), controller, rng)

    spawn(engine, controller.kswapd(), name="kswapd")
    for i, body in enumerate(workload.bodies()):
        spawn(engine, body, name=f"worker-{i}")
    engine.run(until=duration_ns)
    mm.check()

    return StutterpResult(
        workers=workers,
        policy=policy.name,
        average_latency_ns=workload.latency.average_ns,
        p95_latency_ns=workload.latency.percentile_ns(0.95),
        samples=len(workload.latency.samples),
        vmstats=mm.stats,
        latency=workload.latency,
    )


def latency_improvement(vanilla_ns: float, policy_ns: float) -> float:
    """Positive when the policy's latency is lower than vanilla's."""
    if policy_ns <= 0:
        raise ValueError("policy latency must be positive")
    return vanilla_ns / policy_ns - 1.0


@dataclass
class Figure6Column:
    """One mmap-N group of Figure 6 bars."""

    workers: int
    vanilla_latency_ns: float
    gorman_improvement: float
    pss_run_improvements: tuple[float, ...]


def compare_throttles(workers: int, seed: int = 0,
                      pss_runs: int = 4,
                      service: PredictionService | None = None,
                      duration_ns: float = RUN_DURATION_NS,
                      reference_seeds: int = 3,
                      tracer=None,
                      metrics=None) -> Figure6Column:
    """Vanilla vs Gorman vs PSS-run1..N at one worker count.

    The vanilla and Gorman latencies are averaged over
    ``reference_seeds`` independent runs (stutterp stall timing is
    seed-sensitive).  The PSS service persists across the ``pss_runs``
    benchmark runs, so later runs start with trained weights - the
    behaviour Figure 6 shows as PSS-run1 through PSS-run4 trending
    upward; each PSS run uses a different seed, like the paper's
    repeated benchmark runs.
    """
    def averaged(policy_factory) -> float:
        total = 0.0
        for offset in range(reference_seeds):
            result = run_stutterp(workers, policy_factory(),
                                  seed=seed + offset,
                                  duration_ns=duration_ns)
            total += result.average_latency_ns
        return total / reference_seeds

    vanilla_ns = averaged(VanillaCongestionWait)
    gorman_ns = averaged(GormanThrottle)

    svc = service if service is not None else PredictionService(
        tracer=tracer, metrics=metrics
    )
    pss_improvements = []
    for run in range(pss_runs):
        throttle = make_pss_throttle(svc)
        result = run_stutterp(workers, throttle, seed=seed + run,
                              duration_ns=duration_ns)
        throttle.client.flush()
        pss_improvements.append(latency_improvement(
            vanilla_ns, result.average_latency_ns
        ))

    return Figure6Column(
        workers=workers,
        vanilla_latency_ns=vanilla_ns,
        gorman_improvement=latency_improvement(vanilla_ns, gorman_ns),
        pss_run_improvements=tuple(pss_improvements),
    )


def ablation_policies() -> dict[str, ThrottlePolicy]:
    """Policy set for the throttle ablation bench."""
    return {
        "never": NeverThrottle(),
        "vanilla": VanillaCongestionWait(),
        "gorman": GormanThrottle(),
    }
