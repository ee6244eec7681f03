"""Ablation: HLE scenario design choices.

DESIGN.md calls out three PSS-in-HLE choices worth quantifying: the
success-history register width (the paper's first feature), the probing
interval that keeps the predictor out of all-lock traps, and charging
the prediction latency on the TxLock path.
"""

from repro.core import PredictionService, PSSConfig
from repro.htm import PSSElision, lock_only_builder, run_workload
from repro.htm.elision import MAX_RETRIES
from repro.htm.machine import HTMMachine
from repro.htm.stamp import get_profile


def pss_runtime(profile_name, threads=16, seed=0, history_bits=16,
                probe_interval=4, charge_latency=True):
    """One PSS run with overridden scenario knobs."""
    def build(machine: HTMMachine):
        service = PredictionService()
        client = service.connect(
            "hle", config=PSSConfig(num_features=2, weight_bits=6,
                                    training_margin=8),
            batch_size=4,
        )
        policy = PSSElision(machine, client, max_retries=MAX_RETRIES,
                            charge_latency=charge_latency)
        policy.PROBE_INTERVAL = probe_interval

        original_state = policy._state

        def patched_state(thread_id, section_id):
            state = original_state(thread_id, section_id)
            if state.history.bits != history_bits:
                from repro.core.features import HistoryRegister

                state.history = HistoryRegister(bits=history_bits)
            return state

        policy._state = patched_state
        return policy

    result = run_workload(get_profile(profile_name), threads, build,
                          seed=seed)
    return result.runtime_ns


def test_ablation_history_bits():
    """A one-bit history loses information a 16-bit register keeps."""
    runtimes = {bits: pss_runtime("yada", history_bits=bits)
                for bits in (1, 16)}
    # With bursty capacity blowups, the wide register must not lose to
    # the single-bit one by more than noise (and typically wins).
    assert runtimes[16] < runtimes[1] * 1.10


def test_ablation_probe_interval():
    """No probing means no recovery once the predictor learned to skip.

    Synthetic phase change: a section whose transactions are capacity-
    doomed for the first phase and clean afterwards.  With probing the
    policy rediscovers HTM in phase two; without it, it stays on the
    lock forever.
    """
    from repro.htm.elision import PSSElision
    from repro.htm.locks import ElidableLock
    from repro.htm.machine import HTMConfig
    from repro.htm.txn import TxAttemptShape
    from repro.sim.engine import Engine
    from repro.sim.process import spawn

    def run(probe_interval):
        engine = Engine()
        machine = HTMMachine(engine, HTMConfig(capacity_lines=64))
        lock = ElidableLock(engine, machine)
        service = PredictionService()
        client = service.connect(
            "hle", config=PSSConfig(num_features=2, weight_bits=6,
                                    training_margin=8),
            batch_size=1,
        )
        policy = PSSElision(machine, client)
        policy.PROBE_INTERVAL = probe_interval
        doomed = TxAttemptShape(frozenset(range(100)), frozenset(),
                                duration_ns=500.0)
        clean = TxAttemptShape(frozenset(), frozenset({1}),
                               duration_ns=500.0)

        def body():
            for _ in range(60):
                yield from policy.critical_section(0, 0, lock, doomed)
            for _ in range(200):
                yield from policy.critical_section(0, 0, lock, clean)

        spawn(engine, body())
        engine.run()
        return policy.stats.htm_commits

    commits = {interval: run(interval) for interval in (4, 10**9)}
    assert commits[4] > 50       # probing rediscovered HTM
    assert commits[10**9] < 10   # without probes the skip is forever


def test_ablation_latency_charging():
    """Charging prediction latency must cost something, bounded."""
    charged = pss_runtime("ssca2", charge_latency=True)
    free = pss_runtime("ssca2", charge_latency=False)
    assert free <= charged
    assert charged < free * 1.10  # the vDSO keeps the tax small


def test_ablation_baseline_sanity():
    """Lock-only must remain the slowest configuration at 16 threads on
    an elision-friendly workload (anchor for the other ablations)."""
    lock_ns = run_workload(get_profile("vacation-low"), 16,
                           lock_only_builder(), seed=0).runtime_ns
    assert pss_runtime("vacation-low") < lock_ns
