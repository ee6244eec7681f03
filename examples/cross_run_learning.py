"""Cross-invocation learning (paper Section 3.3).

"One of the most interesting aspects of a system-service approach to
prediction is that learning can happen across application invocations."
This example simulates three short-lived process invocations of the same
HLE-style application: each invocation connects to the service, works,
and exits; the service snapshot carries the learned weights across.

Run: python examples/cross_run_learning.py
"""

import tempfile
from pathlib import Path

from repro.core import PredictionService
from repro.core.persistence import load_service, save_service
from repro.htm import pss_builder, run_workload, lock_only_builder
from repro.htm.stamp import get_profile


def one_invocation(state_path: Path, run_index: int) -> float:
    """One short-lived process: restore -> run -> snapshot."""
    service = PredictionService()
    if state_path.exists():
        load_service(service, state_path)

    profile = get_profile("yada")
    result = run_workload(profile, threads=16,
                          policy_builder=pss_builder(service=service),
                          seed=run_index)
    save_service(service, state_path)
    return result.runtime_ns


def main() -> None:
    profile = get_profile("yada")
    baseline = run_workload(profile, threads=16,
                            policy_builder=lock_only_builder(), seed=0)
    print(f"lock-only baseline: {baseline.runtime_ns / 1e6:.3f} ms\n")

    with tempfile.TemporaryDirectory() as tmp:
        state_path = Path(tmp) / "pss-state.json"
        for run in range(4):
            runtime = one_invocation(state_path, run)
            warm = "warm" if run else "cold"
            print(f"invocation {run + 1} ({warm} start): "
                  f"{runtime / 1e6:.3f} ms "
                  f"({baseline.runtime_ns / runtime - 1:+.1%} vs locks)")
        size = state_path.stat().st_size
        print(f"\nsnapshot on disk: {size} bytes of JSON "
              f"(weights + stats), restored by each invocation")


if __name__ == "__main__":
    main()
