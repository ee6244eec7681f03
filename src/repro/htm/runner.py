"""Executing STAMP-like workloads under an elision policy.

The runner builds the full simulated system for one benchmark run - engine,
HTM machine, one elidable lock per critical section, N thread processes -
executes it to completion, and reports the runtime plus transactional
statistics.  Policy builders package the three configurations the paper
compares, and :func:`build_profile_plan` performs the offline profiling
pass that the HTMBench-like configuration depends on.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from repro.core import PredictionService, PSSConfig
from repro.core.service import PredictionService as _Service
from repro.htm.elision import (
    ElisionPolicy,
    FixedRetryElision,
    LockOnlyPolicy,
    MAX_RETRIES,
    ProfiledElision,
    PSSElision,
)
from repro.htm.locks import ElidableLock
from repro.htm.machine import HTMConfig, HTMMachine
from repro.htm.stamp import WorkloadInstance, WorkloadProfile
from repro.htm.txn import TxStats
from repro.sim.engine import Engine
from repro.sim.process import spawn
from repro.sim.resources import SimSemaphore

PolicyBuilder = Callable[[HTMMachine], ElisionPolicy]

#: physical cores of the paper's testbed (8-core Coffee Lake; the 16
#: thread configuration runs two SMT threads per core)
PHYSICAL_CORES = 8

#: throughput yield of the second SMT thread on a core
SMT_YIELD = 0.5


def effective_cores(threads: int,
                    physical: int = PHYSICAL_CORES,
                    smt_yield: float = SMT_YIELD) -> int:
    """Execution capacity available to ``threads`` on the paper's testbed.

    Up to ``physical`` threads each get a full core; beyond that, SMT
    siblings add only ``smt_yield`` of a core each (16 threads on 8 x 2-way
    SMT cores behave like ~12 full cores).
    """
    if threads <= physical:
        return threads
    extra = min(threads, 2 * physical) - physical
    return int(physical + smt_yield * extra)


@dataclass
class RunResult:
    """Outcome of one benchmark run."""

    workload: str
    policy: str
    threads: int
    runtime_ns: float
    tx_stats: TxStats
    policy_stats: object
    seed: int


def run_workload(profile: WorkloadProfile, threads: int,
                 policy_builder: PolicyBuilder, seed: int = 0,
                 htm_config: HTMConfig | None = None,
                 cores: int | None = -1) -> RunResult:
    """Run ``profile`` on ``threads`` simulated threads under a policy.

    ``cores`` bounds how many threads execute simultaneously (None for
    unbounded, -1 to derive the paper testbed's capacity from the thread
    count via :func:`effective_cores`).  Threads hold a core while computing, spinning, or
    speculating, and release it while blocked on a lock - so with more
    threads than cores, wasted speculation directly steals throughput
    from useful work, exactly the regime the paper's 16-thread SMT
    configuration exposes.
    """
    engine = Engine()
    machine = HTMMachine(engine, htm_config)
    policy = policy_builder(machine)
    instance = WorkloadInstance(profile, threads, seed)
    if cores == -1:
        cores = effective_cores(threads)
    cpu = (SimSemaphore(engine, min(cores, threads), name="cores")
           if cores is not None and cores < threads else None)
    locks = [
        ElidableLock(engine, machine, name=f"{profile.name}-s{i}", cpu=cpu)
        for i in range(profile.sections)
    ]

    def thread_body(tid: int):
        for iteration in range(instance.iterations):
            # One scheduling quantum per iteration: acquire a core, do the
            # iteration's work, release.  FIFO rotation approximates the
            # OS time-slicing that lets 16 threads share 8 cores.
            if cpu is not None:
                yield cpu.acquire()
            yield instance.non_tx_work(tid)
            section_id = instance.pick_section(tid)
            shape = instance.sample_shape(tid, section_id, iteration)
            yield from policy.critical_section(
                tid, section_id, locks[section_id], shape
            )
            if cpu is not None:
                cpu.release()

    for tid in range(threads):
        spawn(engine, thread_body(tid), name=f"{profile.name}-t{tid}")
    engine.run()

    return RunResult(
        workload=profile.name,
        policy=policy.name,
        threads=threads,
        runtime_ns=engine.now,
        tx_stats=machine.stats,
        policy_stats=policy.stats,
        seed=seed,
    )


# -- policy builders ----------------------------------------------------------

def lock_only_builder() -> PolicyBuilder:
    """Pure locking (no HTM at all)."""
    return LockOnlyPolicy


def vanilla_builder(max_retries: int = MAX_RETRIES) -> PolicyBuilder:
    """Vanilla STAMP-with-HTM: fixed-retry elision (Figure 2 baseline)."""
    return lambda machine: FixedRetryElision(machine, max_retries)


def profiled_builder(plan: dict[int, tuple[bool, int]]) -> PolicyBuilder:
    """HTMBench-like: statically tuned from an offline profiling pass."""
    return lambda machine: ProfiledElision(machine, plan)


def pss_builder(service: PredictionService | None = None,
                domain: str = "hle",
                transport: str = "vdso",
                batch_size: int = 4,
                max_retries: int = MAX_RETRIES,
                fault_plan=None,
                resilience=None,
                fallback_score: int = 1,
                tracer=None,
                metrics=None,
                identity=None) -> PolicyBuilder:
    """PSS-guided elision (Listing 1 with the gray lines).

    Pass an existing ``service`` to carry learned weights across runs
    (the paper's cross-invocation learning); otherwise each run starts
    cold with its own service instance.

    The policy's client degrades instead of raising: transport faults
    (``fault_plan`` injects them) are retried under ``resilience`` and,
    once it gives up or the breaker is open, elision decisions fall
    back to ``fallback_score`` (+1 by default - always attempt HTM, the
    paper's pre-PSS behaviour).

    ``tracer``/``metrics`` instrument the implicitly created service
    when no ``service`` is passed (an explicit service carries its own
    observability).  ``identity`` (a :class:`~repro.core.policy
    .ClientIdentity`) names the tenant the connection is charged to on
    admission-controlled services.
    """

    def build(machine: HTMMachine) -> ElisionPolicy:
        svc = service if service is not None else _Service(
            tracer=tracer, metrics=metrics
        )
        client = svc.connect(
            domain,
            identity=identity,
            # Narrow weights and a small margin keep the predictor nimble:
            # HLE conditions change with program phase, so fast swings
            # matter more than long-term confidence.
            config=PSSConfig(num_features=2, weight_bits=6,
                             training_margin=8),
            transport=transport,
            batch_size=batch_size,
            resilience=resilience,
            fallback=fallback_score,
            fault_plan=fault_plan,
        )
        return PSSElision(machine, client, max_retries=max_retries)

    return build


# -- offline profiling for the HTMBench-like configuration --------------------

def build_profile_plan(profile: WorkloadProfile, threads: int,
                       seed: int = 0,
                       htm_config: HTMConfig | None = None,
                       cores: int | None = -1,
                       ) -> dict[int, tuple[bool, int]]:
    """Derive a per-section static plan from a vanilla profiling run.

    Sections whose transactions rarely commit are demoted to lock-only;
    marginal sections get a reduced retry budget; reliable sections get a
    slightly larger one.  This mirrors what HTMBench's profiler extracts
    after "extensive profiling and optimization".
    """
    probe = run_workload(
        profile, threads, vanilla_builder(), seed=seed,
        htm_config=htm_config, cores=cores,
    )
    plan: dict[int, tuple[bool, int]] = {}
    for section_id, counters in probe.policy_stats.per_section.items():
        rate = counters.htm_success_rate
        if rate < 0.10:
            plan[section_id] = (False, 0)
        elif rate < 0.45:
            plan[section_id] = (True, 1)
        else:
            plan[section_id] = (True, MAX_RETRIES + 1)
    return plan


# -- comparisons ---------------------------------------------------------------

def improvement_over(baseline_ns: float, policy_ns: float) -> float:
    """Relative performance improvement: positive means faster."""
    if policy_ns <= 0:
        raise ValueError("policy runtime must be positive")
    return baseline_ns / policy_ns - 1.0


@dataclass
class ComparisonRow:
    """One Figure 2 data point: improvements over vanilla at N threads.

    "Vanilla STAMP" is the lock-based application as distributed; the two
    plotted series are the HTMBench-like statically optimized elision and
    PSS-guided elision, each normalised to vanilla.  The naive fixed-retry
    HLE is included as an extra (unplotted) ablation series.
    """

    workload: str
    threads: int
    vanilla_ns: float
    htmbench_improvement: float
    pss_improvement: float
    fixed_retry_improvement: float = 0.0


def compare_policies(profile: WorkloadProfile, threads: int,
                     seeds: tuple[int, ...] = (0, 1, 2),
                     service: PredictionService | None = None,
                     htm_config: HTMConfig | None = None,
                     cores: int | None = -1) -> ComparisonRow:
    """Run vanilla (lock-only), HTMBench-like, and PSS; median over seeds.

    The paper runs each program five times and reports the median; we
    default to three deterministic seeds for test-suite speed.
    """
    vanilla_times, htmbench_imps, pss_imps, fixed_imps = [], [], [], []
    for seed in seeds:
        vanilla = run_workload(profile, threads, lock_only_builder(),
                               seed=seed, htm_config=htm_config,
                               cores=cores)
        fixed = run_workload(profile, threads, vanilla_builder(),
                             seed=seed, htm_config=htm_config, cores=cores)
        plan = build_profile_plan(profile, threads, seed=seed,
                                  htm_config=htm_config, cores=cores)
        htmbench = run_workload(profile, threads, profiled_builder(plan),
                                seed=seed, htm_config=htm_config,
                                cores=cores)
        pss = run_workload(profile, threads, pss_builder(service=service),
                           seed=seed, htm_config=htm_config, cores=cores)
        vanilla_times.append(vanilla.runtime_ns)
        htmbench_imps.append(
            improvement_over(vanilla.runtime_ns, htmbench.runtime_ns)
        )
        pss_imps.append(
            improvement_over(vanilla.runtime_ns, pss.runtime_ns)
        )
        fixed_imps.append(
            improvement_over(vanilla.runtime_ns, fixed.runtime_ns)
        )
    return ComparisonRow(
        workload=profile.name,
        threads=threads,
        vanilla_ns=statistics.median(vanilla_times),
        htmbench_improvement=statistics.median(htmbench_imps),
        pss_improvement=statistics.median(pss_imps),
        fixed_retry_improvement=statistics.median(fixed_imps),
    )
