"""Ablation: transport batch size (paper Section 3.3).

The batch update buffer trades boundary-crossing cost against feedback
freshness.  This bench sweeps the batch size on the HLE scenario; the
boundary-cost side (one crossing per batch plus a per-record charge) is
asserted in tier-1 by ``tests/core/test_transport.py``.
"""

from repro.htm import pss_builder, run_workload
from repro.htm.stamp import get_profile


def test_ablation_batch_size_on_hle():
    """Freshness matters: enormous batches delay learning visibly."""
    def run(batch):
        result = run_workload(get_profile("genome"), threads=16,
                              policy_builder=pss_builder(
                                  batch_size=batch),
                              seed=0)
        return result.runtime_ns

    fresh, stale = run(4), run(512)
    # The stale configuration must not be meaningfully faster: its only
    # edge is boundary-cost amortization, which simulated time barely
    # rewards, while its learning lags a whole batch behind.
    assert stale > fresh * 0.97


def test_ablation_syscall_vs_vdso_on_workload():
    """End-to-end transport choice on one HLE run."""
    def run(transport):
        return run_workload(
            get_profile("vacation-low"), threads=8,
            policy_builder=pss_builder(transport=transport), seed=0,
        ).runtime_ns

    vdso_ns, syscall_ns = run("vdso"), run("syscall")
    # Syscall predictions sit on the TxLock path; vDSO must not lose.
    assert vdso_ns <= syscall_ns * 1.02
