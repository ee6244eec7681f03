"""Perf gate: micro-batching must actually buy serve throughput.

The serving refactor's performance claim is amortization: one syscall
crossing per *batch* instead of per request, so at an overloaded point
a non-zero batch window should multiply achieved throughput.  The
analytical ceiling at full batches is ``(syscall + 32*vdso) / 32`` per
row vs ``syscall + vdso`` per row - roughly 11x - and the gate demands
a comfortable 2x so scheduling slack never flakes CI.
"""

from repro.bench.experiments.serve import run_point

#: the overload point the gate measures: 1M clients on one shard is
#: ~7x scalar capacity, so the window-0 run saturates at the scalar
#: service rate and the windowed run shows the amortization
CLIENTS = 1_000_000
REQUESTS = 2_000
WINDOW_NS = 200.0

#: required speedup of windowed over window-0 throughput at overload
GATE = 2.0


def test_batch_window_doubles_overload_throughput():
    scalar, _ = run_point(CLIENTS, 1, 0.0, seed=0, requests=REQUESTS)
    windowed, _ = run_point(CLIENTS, 1, WINDOW_NS, seed=0,
                            requests=REQUESTS)
    assert scalar["throughput_per_us"] > 0
    speedup = windowed["throughput_per_us"] / scalar["throughput_per_us"]
    assert speedup >= GATE, (
        f"batch window {WINDOW_NS}ns served only {speedup:.2f}x the "
        f"window-0 baseline (gate {GATE}x): "
        f"{windowed['throughput_per_us']} vs "
        f"{scalar['throughput_per_us']} req/us")
    # Amortization is visible in the batch shape, not just the rate.
    assert windowed["mean_batch"] > 8
    assert windowed["batches"] < scalar["batches"]


def test_sharding_scales_served_throughput():
    """More shards, more dispatchers: served throughput grows with
    the shard count at the overloaded point (Zipf skew keeps it
    sublinear - the hot domain's shard saturates first)."""
    rows = {
        shards: run_point(CLIENTS, shards, 0.0, seed=0,
                          requests=REQUESTS)[0]
        for shards in (1, 2, 4)
    }
    assert rows[2]["throughput_per_us"] > rows[1]["throughput_per_us"]
    assert rows[4]["throughput_per_us"] > rows[2]["throughput_per_us"]
