"""Serve mode is deterministic in the seed, byte for byte.

``BENCH_serving.json`` is a CI artifact diffed across runs, so the
guarantee is stronger than "same numbers": the same ``--seed`` must
serialize to the identical byte string, and per-shard shed/batch
counters must be stable across reruns at every shard count.
"""

import json

from repro.bench.experiments.serve import (
    SERVE,
    build_payload,
    run_point,
    validate_bench_serving,
    write_payload,
)
from repro.bench.runner import parse, rows


def dumps(payload):
    return json.dumps(payload, indent=1, sort_keys=True)


class TestSeededDeterminism:
    def test_same_seed_same_point_counters(self):
        """shed/batch/latency counters identical across reruns, at
        1, 2, and 4 shards, at the overloaded client count."""
        for shards in (1, 2, 4):
            first, _ = run_point(1_000_000, shards, 0.0, seed=3,
                                 requests=400)
            second, _ = run_point(1_000_000, shards, 0.0, seed=3,
                                  requests=400)
            assert first == second
            assert first["shed"] > 0  # the point is genuinely loaded

    def test_different_seed_differs(self):
        base, _ = run_point(1_000_000, 1, 0.0, seed=0, requests=400)
        other, _ = run_point(1_000_000, 1, 0.0, seed=1, requests=400)
        assert base != other

    def test_quick_payload_byte_identical(self, tmp_path):
        args = parse(SERVE, ["--quick"])
        payload_a = build_payload(rows(SERVE, args), args)
        payload_b = build_payload(rows(SERVE, args), args)
        assert dumps(payload_a) == dumps(payload_b)
        validate_bench_serving(payload_a)
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        write_payload(payload_a, path_a)
        write_payload(payload_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
