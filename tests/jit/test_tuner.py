"""Tests for the PSS JIT tuner, PolyBench suite, and macro workloads."""

import pytest

from repro.core import LatencyModel, PredictionService, ServiceConfig
from repro.jit.macro import MACROBENCHMARKS, MacroWorkload, aiohttp
from repro.jit.params import DEFAULT_LADDER_INDEX, LADDER
from repro.jit.polybench import KERNELS, build_kernel
from repro.jit.runner import (
    run_macro_benchmark,
    run_polybench_kernel,
)
from repro.jit.tuner import BaselineRunner, PSSTuner


class TestPolybenchSuite:
    def test_thirty_kernels(self):
        assert len(KERNELS) == 30

    def test_paper_kernel_names_present(self):
        for name in ("gemm", "2mm", "3mm", "atax", "adi", "nussinov",
                     "seidel_2d", "gramschmidt", "floyd_warshall",
                     "durbin"):
            assert name in KERNELS

    def test_build_kernel_fresh_instances(self):
        a = build_kernel("gemm")
        b = build_kernel("gemm")
        assert a == b  # frozen dataclasses compare structurally
        assert a is not b

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            build_kernel("fizzbuzz")

    def test_all_kernels_have_loops(self):
        for name in KERNELS:
            program = build_kernel(name)
            assert program.loops(), name


class TestBaselineRunner:
    def test_produces_report(self):
        report = BaselineRunner().run(build_kernel("gemm"), 5)
        assert len(report.iterations) == 5
        assert report.total_ns > 0
        assert report.policy == "baseline"

    def test_first_iteration_slowest(self):
        """Warmup: compilation makes iteration 0 the most expensive."""
        report = BaselineRunner().run(build_kernel("gemm"), 10)
        durations = [r.duration_ns for r in report.iterations]
        assert durations[0] == max(durations)

    def test_cumulative_series_monotone(self):
        report = BaselineRunner().run(build_kernel("mvt"), 10)
        series = report.series_seconds()
        assert series == sorted(series)


class TestPSSTuner:
    def test_runs_and_reports(self):
        tuner = PSSTuner()
        report = tuner.run(build_kernel("gemm"), 10)
        assert len(report.iterations) == 10
        assert report.policy == "pss-vdso"

    def test_ladder_stays_in_range(self):
        tuner = PSSTuner()
        report = tuner.run(build_kernel("atax"), 30)
        assert all(
            0 <= r.ladder_index < len(LADDER)
            for r in report.iterations
        )

    def test_service_receives_traffic(self):
        service = PredictionService()
        tuner = PSSTuner(service=service)
        tuner.run(build_kernel("gemm"), 15)
        stats = service.domain("pypy-jit").stats
        assert stats.predictions >= 15

    def test_syscall_transport_charged(self):
        tuner = PSSTuner(transport="syscall")
        tuner.run(build_kernel("gemm"), 5)
        assert tuner.client.latency.syscalls > 0

    def test_consult_overhead_is_the_services_latency_model(self):
        """The consult charge reads the service's cost model, here the
        paper's and one 16 times slower."""
        paper = LatencyModel()
        slow = LatencyModel(vdso_predict_ns=paper.vdso_predict_ns * 16,
                            syscall_ns=paper.syscall_ns * 16)
        for latency in (paper, slow):
            service = PredictionService(config=ServiceConfig(latency=latency))
            vdso = PSSTuner(service=service)
            syscall = PSSTuner(service=service, transport="syscall")
            assert vdso._consult_overhead_ns(3) == 3 * latency.vdso_predict_ns
            assert syscall._consult_overhead_ns(1) == (
                latency.syscall_ns + syscall._footprint_ns)

    def test_syscall_overhead_visible_per_decision(self):
        quiet = PSSTuner(transport="vdso", consult_per_decision=True)
        noisy = PSSTuner(transport="syscall", consult_per_decision=True)
        wl_a, wl_b = aiohttp(), aiohttp()
        t_quiet = quiet.run(wl_a, 30).total_ns
        t_noisy = noisy.run(wl_b, 30).total_ns
        assert t_noisy > t_quiet


class TestKernelComparison:
    def test_improvement_sign_convention(self):
        comparison = run_polybench_kernel(
            lambda: build_kernel("gemver"), 20
        )
        # gemver is a reliable winner: PSS compiles its big outer loops.
        assert comparison.improvement > 0.1

    def test_fat_leaf_kernel_large_gain(self):
        comparison = run_polybench_kernel(
            lambda: build_kernel("gramschmidt"), 20
        )
        assert comparison.improvement > 0.5

    def test_losses_are_bounded(self):
        comparison = run_polybench_kernel(
            lambda: build_kernel("adi"), 20
        )
        assert comparison.improvement > -0.10


class TestMacroWorkloads:
    def test_four_benchmarks_with_paper_iterations(self):
        assert set(MACROBENCHMARKS) == {
            "aiohttp", "djangocms", "flaskblogging", "gunicorn",
        }
        assert MACROBENCHMARKS["aiohttp"][1] == 3000
        assert MACROBENCHMARKS["djangocms"][1] == 1800
        assert MACROBENCHMARKS["flaskblogging"][1] == 1800
        assert MACROBENCHMARKS["gunicorn"][1] == 3000

    def test_hot_set_rotates(self):
        workload = aiohttp()
        first = workload.hot_handler_ids(0)
        later = workload.hot_handler_ids(10)
        assert first != later
        assert len(first) == workload.config.hot_set

    def test_programs_share_loop_ids_across_iterations(self):
        workload = aiohttp()
        ids_a = {loop.loop_id for loop in workload(0).loops()}
        ids_b = {loop.loop_id for loop in workload(1).loops()}
        assert ids_a & ids_b  # rotation overlaps keep state relevant

    def test_cold_tail_functions_cycle(self):
        workload = aiohttp()
        program = workload(0)
        from repro.jit.program import Call
        tail_calls = [
            node for node in program.body
            if isinstance(node, Call) and "/tail" in node.function.name
        ]
        assert len(tail_calls) == workload.config.tail_calls

    def test_macro_comparison_smoke(self):
        comparison = run_macro_benchmark(aiohttp, 60, runs=1)
        assert comparison.benchmark == "aiohttp"
        assert len(comparison.baseline.iterations) == 60
        assert len(comparison.pss.iterations) == 60
        assert len(comparison.pss_syscall.iterations) == 60

    def test_macro_averaging_across_runs(self):
        comparison = run_macro_benchmark(aiohttp, 20, runs=2)
        assert len(comparison.baseline.iterations) == 20


class TestMacroConfigValidation:
    def test_workload_is_deterministic(self):
        a, b = aiohttp(), aiohttp()
        assert a(5) == b(5)

    def test_core_nest_built_when_configured(self):
        workload = aiohttp()
        ids = {loop.loop_id for loop in workload(0).loops()}
        assert any("core" in loop_id for loop_id in ids)
