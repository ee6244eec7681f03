"""Tests for the lock-elision policies."""

from repro.core import LatencyModel, PredictionService, PSSConfig, ServiceConfig
from repro.htm.elision import (
    FixedRetryElision,
    LockOnlyPolicy,
    ProfiledElision,
    PSSElision,
)
from repro.htm.locks import ElidableLock
from repro.htm.machine import HTMConfig, HTMMachine
from repro.htm.txn import TxAttemptShape
from repro.sim.engine import Engine
from repro.sim.process import spawn


def shape(reads=(), writes=(), duration=100.0, unsupported=False):
    return TxAttemptShape(frozenset(reads), frozenset(writes),
                          duration, unsupported)


def make_world(htm_config=None):
    engine = Engine()
    machine = HTMMachine(engine, htm_config)
    lock = ElidableLock(engine, machine)
    return engine, machine, lock


def run_sections(engine, policy, lock, jobs):
    """jobs: list of (thread_id, section_id, shape); returns outcomes."""
    outcomes = [None] * len(jobs)

    def body(i, tid, sid, shp):
        outcomes[i] = yield from policy.critical_section(
            tid, sid, lock, shp
        )

    for i, (tid, sid, shp) in enumerate(jobs):
        spawn(engine, body(i, tid, sid, shp))
    engine.run()
    return outcomes


class TestLockOnly:
    def test_never_uses_htm(self):
        engine, machine, lock = make_world()
        policy = LockOnlyPolicy(machine)
        outcomes = run_sections(engine, policy, lock,
                                [(0, 0, shape()), (1, 0, shape())])
        assert all(not o.used_htm for o in outcomes)
        assert machine.stats.begins == 0
        assert policy.stats.lock_paths == 2


class TestFixedRetry:
    def test_commits_on_clean_section(self):
        engine, machine, lock = make_world()
        policy = FixedRetryElision(machine)
        [outcome] = run_sections(engine, policy, lock,
                                 [(0, 0, shape(writes=[1]))])
        assert outcome.used_htm and not outcome.fell_back
        assert outcome.attempts == 1

    def test_falls_back_after_budget_exhausted(self):
        engine, machine, lock = make_world(HTMConfig(capacity_lines=2))
        policy = FixedRetryElision(machine, max_retries=3)
        [outcome] = run_sections(engine, policy, lock,
                                 [(0, 0, shape(reads=range(10)))])
        assert outcome.fell_back
        # Naive baseline retries even persistent aborts.
        assert outcome.attempts == 3
        assert machine.stats.aborts == 3


class TestProfiled:
    def test_plan_lock_only_never_speculates(self):
        engine, machine, lock = make_world()
        policy = ProfiledElision(machine, plan={0: (False, 0)})
        [outcome] = run_sections(engine, policy, lock, [(0, 0, shape())])
        assert not outcome.used_htm
        assert machine.stats.begins == 0

    def test_plan_breaks_on_persistent_abort(self):
        engine, machine, lock = make_world(HTMConfig(capacity_lines=2))
        policy = ProfiledElision(machine, plan={0: (True, 3)})
        [outcome] = run_sections(engine, policy, lock,
                                 [(0, 0, shape(reads=range(10)))])
        assert outcome.fell_back
        assert outcome.attempts == 1  # gave up after the capacity abort

    def test_unknown_section_uses_default(self):
        engine, machine, lock = make_world()
        policy = ProfiledElision(machine, plan={})
        [outcome] = run_sections(engine, policy, lock, [(0, 7, shape())])
        assert outcome.used_htm


class TestPSSElision:
    def make_policy(self, machine, **kwargs):
        service = PredictionService()
        client = service.connect(
            "hle", config=PSSConfig(num_features=2, weight_bits=6,
                                    training_margin=8),
            batch_size=1,
        )
        return PSSElision(machine, client, **kwargs), service

    def test_cold_start_tries_htm(self):
        engine, machine, lock = make_world()
        policy, _ = self.make_policy(machine)
        [outcome] = run_sections(engine, policy, lock,
                                 [(0, 0, shape(writes=[1]))])
        assert outcome.used_htm and not outcome.fell_back

    def test_learns_to_skip_hopeless_section(self):
        """Repeated capacity aborts must teach the predictor to skip."""
        engine, machine, lock = make_world(HTMConfig(capacity_lines=2))
        policy, _ = self.make_policy(machine)
        doomed = shape(reads=range(10))

        def body():
            for _ in range(40):
                yield from policy.critical_section(0, 0, lock, doomed)

        spawn(engine, body())
        engine.run()
        assert policy.stats.skipped_htm > 10

    def test_probing_recovers_after_conditions_improve(self):
        """After learning to skip, successful probes must re-enable HTM."""
        engine, machine, lock = make_world(HTMConfig(capacity_lines=64))
        policy, _ = self.make_policy(machine)
        doomed = shape(reads=range(100))  # capacity-busting
        clean = shape(writes=[1])

        def body():
            for _ in range(40):
                yield from policy.critical_section(0, 0, lock, doomed)
            for _ in range(60):
                yield from policy.critical_section(0, 0, lock, clean)

        spawn(engine, body())
        engine.run()
        # The tail of clean sections must include real HTM commits again.
        assert policy.stats.htm_commits > 20

    def test_updates_flow_to_service(self):
        engine, machine, lock = make_world()
        policy, service = self.make_policy(machine)
        run_sections(engine, policy, lock, [(0, 0, shape(writes=[1]))])
        assert service.domain("hle").stats.updates >= 1

    def test_cold_cost_is_the_services_latency_model(self):
        """Before its first call the policy charges what the service's
        cost model says a crossing costs, on either transport."""
        paper = LatencyModel()
        slow = LatencyModel(vdso_predict_ns=paper.vdso_predict_ns * 16,
                            syscall_ns=paper.syscall_ns * 16)
        for transport in ("vdso", "syscall"):
            costs = []
            for latency in (paper, slow):
                service = PredictionService(
                    config=ServiceConfig(latency=latency))
                client = service.connect(
                    "hle", config=PSSConfig(num_features=2),
                    transport=transport)
                _, machine, _ = make_world()
                costs.append(PSSElision(machine, client)._predict_cost_ns())
            assert costs[1] == 16 * costs[0], transport

    def test_per_thread_section_state_isolated(self):
        engine, machine, lock = make_world()
        policy, _ = self.make_policy(machine)
        s0 = policy._state(0, 0)
        s1 = policy._state(1, 0)
        s2 = policy._state(0, 1)
        assert s0 is not s1 and s0 is not s2
        assert policy._state(0, 0) is s0


class TestRunnerIntegration:
    def test_compare_policies_produces_row(self):
        from repro.htm import compare_policies
        from repro.htm.stamp import get_profile

        row = compare_policies(get_profile("ssca2"), threads=2,
                               seeds=(0,))
        assert row.workload == "ssca2"
        assert row.threads == 2
        assert row.vanilla_ns > 0

    def test_lock_elision_beats_locks_at_high_threads(self):
        """The headline direction: elision wins on a scalable workload."""
        from repro.htm import compare_policies
        from repro.htm.stamp import get_profile

        row = compare_policies(get_profile("vacation-low"), threads=16,
                               seeds=(0,))
        assert row.pss_improvement > 0.3
        assert row.htmbench_improvement > 0.3

    def test_labyrinth_shows_no_elision_benefit(self):
        from repro.htm import compare_policies
        from repro.htm.stamp import get_profile

        row = compare_policies(get_profile("labyrinth"), threads=8,
                               seeds=(0,))
        assert abs(row.pss_improvement) < 0.05
        assert abs(row.htmbench_improvement) < 0.05

    def test_effective_cores_model(self):
        from repro.htm.runner import effective_cores

        assert effective_cores(1) == 1
        assert effective_cores(8) == 8
        assert effective_cores(16) == 12
        assert effective_cores(32) == 12  # capped at 2 threads/core

    def test_build_profile_plan_demotes_hopeless_sections(self):
        from repro.htm import build_profile_plan
        from repro.htm.stamp import get_profile

        plan = build_profile_plan(get_profile("labyrinth"), threads=4,
                                  seed=0)
        assert all(use_htm is False for use_htm, _ in plan.values())
