"""Ablation: service fault rate vs scenario performance.

The paper's safety argument - predictions are hints, so losing them may
cost performance but never correctness - becomes measurable here: each
scenario runs with a :class:`FaultPlan` injecting syscall failures, stale
vDSO reads, and dropped/partial batch flushes at 0 % through 50 %, on a
client whose static fallback is the scenario's pre-PSS behaviour.  The
assertions pin three properties:

* **transparency** - at rate 0 a run is bit-identical to one with no
  injector (same scores, same simulated latency);
* **smooth degradation** - runtime grows by bounded factors as the fault
  rate rises, with no exception reaching scenario code even at 50 %;
* **determinism** - the same plan injects the same fault sequence, so a
  degraded run is exactly reproducible (asserted in tier-1 by
  ``tests/core/test_faults.py::TestInjectorDeterminism``).
"""

from repro.core import PredictionService
from repro.core.faults import FaultPlan
from repro.htm import pss_builder, run_workload, vanilla_builder
from repro.htm.stamp import get_profile
from repro.jit.polybench import KERNELS
from repro.jit.runner import run_polybench_kernel
from repro.mm.runner import make_pss_throttle, run_stutterp

FAULT_RATES = (0.0, 0.1, 0.25, 0.5)


def hle_runtime(fault_plan=None, transport="syscall"):
    kwargs = {"fault_plan": fault_plan} if fault_plan is not None else {}
    result = run_workload(
        get_profile("labyrinth"), threads=16,
        policy_builder=pss_builder(transport=transport, **kwargs),
        seed=0,
    )
    return result.runtime_ns


def test_ablation_hle_fault_sweep():
    """HLE under rising fault rates: bounded cost, still beats no-PSS."""
    plain = hle_runtime()
    by_rate = {
        rate: hle_runtime(FaultPlan.uniform(rate, seed=1))
        for rate in FAULT_RATES
    }
    fixed = run_workload(
        get_profile("labyrinth"), threads=16,
        policy_builder=vanilla_builder(), seed=0,
    ).runtime_ns
    # Transparency: a fault plan whose rates are all zero changes nothing.
    assert by_rate[0.0] == plain
    # Smooth degradation: even at 50 % the cost stays in the noise -
    # degraded decisions fall back to always-attempt-HTM, which is wrong
    # only where the predictor had learned something better.
    for rate in FAULT_RATES:
        assert by_rate[rate] <= plain * 1.10
    # Degraded PSS must still beat never having the service at all
    # (fixed-retry elision is the pre-PSS baseline on this workload).
    assert max(by_rate.values()) < fixed


def test_ablation_jit_fault_sweep():
    """PolyBench tuning under faults: the tuner holds its ladder."""
    builder = next(iter(KERNELS.values()))
    plain = run_polybench_kernel(builder, 20).pss_ns
    by_rate = {
        rate: run_polybench_kernel(
            builder, 20, fault_plan=FaultPlan.uniform(rate, seed=1)
        ).pss_ns
        for rate in FAULT_RATES
    }
    assert by_rate[0.0] == plain
    for rate in FAULT_RATES:
        # The no-move fallback keeps known-good parameters, so a faulty
        # service costs at most a late start up the ladder.
        assert by_rate[rate] <= plain * 1.25


def test_ablation_mm_fault_sweep():
    """Reclaim throttling under faults: falls back to Gorman's rule."""
    def mm_latency(fault_plan=None):
        service = PredictionService()
        kwargs = {"fault_plan": fault_plan} if fault_plan else {}
        throttle = make_pss_throttle(service, **kwargs)
        return run_stutterp(12, throttle, seed=0).average_latency_ns

    plain = mm_latency()
    by_rate = {
        rate: mm_latency(FaultPlan.uniform(rate, seed=1))
        for rate in FAULT_RATES
    }
    assert by_rate[0.0] == plain
    for rate in FAULT_RATES:
        # Degraded decisions apply the kernel's fixed 12.5 % efficiency
        # rule; latency may wander but must stay the same order.
        assert by_rate[rate] <= plain * 1.60

