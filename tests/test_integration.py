"""Cross-package integration tests: one service, all three scenarios."""

from repro.core import PredictionService
from repro.core.persistence import load_service, save_service
from repro.htm import pss_builder, run_workload
from repro.htm.stamp import get_profile
from repro.jit.polybench import build_kernel
from repro.jit.tuner import PSSTuner
from repro.mm import make_pss_throttle, run_stutterp


class TestSharedService:
    """The system-service property: one service hosts every scenario's
    domain simultaneously, each isolated by name."""

    def test_three_scenarios_one_service(self):
        service = PredictionService()

        run_workload(get_profile("ssca2"), threads=4,
                     policy_builder=pss_builder(service=service), seed=0)

        tuner = PSSTuner(service=service)
        tuner.run(build_kernel("gemm"), 5)

        throttle = make_pss_throttle(service)
        run_stutterp(12, throttle, seed=0, duration_ns=30_000_000.0)
        throttle.client.flush()

        names = service.domain_names()
        assert "hle" in names
        assert "pypy-jit" in names
        assert "reclaim" in names
        for name in ("hle", "pypy-jit", "reclaim"):
            assert service.domain(name).stats.predictions > 0

    def test_full_state_round_trips_through_disk(self, tmp_path):
        service = PredictionService()
        run_workload(get_profile("genome"), threads=4,
                     policy_builder=pss_builder(service=service), seed=0)
        tuner = PSSTuner(service=service)
        tuner.run(build_kernel("mvt"), 5)

        path = tmp_path / "all-domains.json"
        save_service(service, path)

        restored = PredictionService()
        load_service(restored, path)
        assert set(restored.domain_names()) == set(service.domain_names())
        for name in service.domain_names():
            assert restored.domain(name).stats.updates == \
                service.domain(name).stats.updates

    def test_cross_run_learning_improves_yada(self):
        """The Figure 6 / Section 3.3 claim end-to-end on HLE: later
        runs with a persisted service are no worse than the cold run on
        average."""
        profile = get_profile("yada")
        service = PredictionService()
        runtimes = []
        for run in range(3):
            result = run_workload(
                profile, threads=16,
                policy_builder=pss_builder(service=service), seed=run,
            )
            runtimes.append(result.runtime_ns)
        warm_avg = sum(runtimes[1:]) / 2
        assert warm_avg < runtimes[0] * 1.15


class TestDeterminism:
    """Every scenario must be bit-identical for a fixed seed."""

    def test_hle_deterministic(self):
        results = [
            run_workload(get_profile("intruder"), threads=8,
                         policy_builder=pss_builder(), seed=5).runtime_ns
            for _ in range(2)
        ]
        assert results[0] == results[1]

    def test_jit_deterministic(self):
        totals = [
            PSSTuner().run(build_kernel("atax"), 10).total_ns
            for _ in range(2)
        ]
        assert totals[0] == totals[1]

    def test_mm_deterministic(self):
        from repro.mm import GormanThrottle

        latencies = [
            run_stutterp(21, GormanThrottle(), seed=9,
                         duration_ns=40_000_000.0).average_latency_ns
            for _ in range(2)
        ]
        assert latencies[0] == latencies[1]
