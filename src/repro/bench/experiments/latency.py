"""The latency claim: predictions in 4.19 ns via vDSO vs 68 ns syscall.

Two measurements:

* **simulated boundary cost** - what the transports charge per call,
  reproducing the paper's 16x figure exactly (it is the cost model);
* **wall-clock service overhead** - how long this Python implementation
  actually takes per ``predict``, measured with ``time.perf_counter_ns``.
  Absolute numbers are Python-speed, but the *relative* ordering
  (vdso-style direct call cheaper than a syscall-priced call path) holds.

The whole measurement is one cell.

This module is the one wall-clock reader in the package (the only one
``tests/test_source.py`` lets import ``time``), because comparing
simulated cost against real Python overhead is exactly its job.
Everything else must use simulated time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.runner import Experiment
from repro.bench.tables import boundary_table
from repro.core import PredictionService, PSSConfig

CALLS = 20_000


@dataclass
class LatencyResult:
    simulated_vdso_ns: float
    simulated_syscall_ns: float
    #: (label, LatencyAccount) per client, for the boundary table
    accounts: list
    #: wall-clock readings vary run to run, so two results that differ
    #: only here compare equal
    wall_vdso_ns: float = field(compare=False)
    wall_syscall_ns: float = field(compare=False)

    @property
    def simulated_speedup(self) -> float:
        """Paper: 68 / 4.19 > 16x."""
        return self.simulated_syscall_ns / self.simulated_vdso_ns


def _wall_time_per_predict(client, calls: int) -> float:
    features = [12, 34]
    start = time.perf_counter_ns()
    for _ in range(calls):
        client.predict(features)
    return (time.perf_counter_ns() - start) / calls


def run_latency(calls: int = CALLS,
                tracer=None, metrics=None) -> LatencyResult:
    service = PredictionService(tracer=tracer, metrics=metrics)
    config = PSSConfig(num_features=2)
    vdso = service.connect("lat-vdso", config=config, transport="vdso")
    syscall = service.connect("lat-sys", config=config,
                              transport="syscall")

    wall_vdso = _wall_time_per_predict(vdso, calls)
    wall_syscall = _wall_time_per_predict(syscall, calls)

    return LatencyResult(
        simulated_vdso_ns=vdso.latency.mean_vdso_ns,
        simulated_syscall_ns=syscall.latency.mean_syscall_ns,
        wall_vdso_ns=wall_vdso,
        wall_syscall_ns=wall_syscall,
        accounts=[("vdso", vdso.latency), ("syscall", syscall.latency)],
    )


def render(results, args) -> str:
    (result,) = results
    return "\n".join([
        "Prediction latency (paper Section 3.3)",
        f"  simulated vDSO predict : "
        f"{result.simulated_vdso_ns:7.2f} ns  (paper: 4.19 ns)",
        f"  simulated syscall      : "
        f"{result.simulated_syscall_ns:7.2f} ns  (paper: 68 ns)",
        f"  simulated speedup      : "
        f"{result.simulated_speedup:7.2f} x   (paper: >16x)",
        f"  wall-clock vDSO path   : {result.wall_vdso_ns:7.0f} ns",
        f"  wall-clock syscall path: {result.wall_syscall_ns:7.0f} ns",
        "\nboundary-crossing accounts:",
        boundary_table(result.accounts),
    ])


LATENCY = Experiment("latency", "Prediction latency (vDSO vs syscall)",
                     lambda args: [CALLS], run_latency, render)
