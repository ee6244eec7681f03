"""The tenants and chaos experiments: determinism and report shape."""

import pytest

from repro.bench.experiments import tenants
from repro.bench.experiments.chaos import parse_reshard_schedule, run_chaos
from repro.bench.experiments.tenants import TENANTS, run_shard_count
from repro.bench.runner import parse, rows
from repro.obs.trace import Tracer
from tests.obs.shard_labels import mixed_label_spans


def report(seed, tracer=None):
    args = parse(TENANTS, ["--quick", "--seed", str(seed)])
    return TENANTS.render(rows(TENANTS, args, tracer), args)


class TestDeterminism:
    def test_same_seed_renders_byte_identical_reports(self):
        assert report(7) == report(7)

    def test_tracing_does_not_perturb_the_report(self):
        assert report(7, tracer=Tracer()) == report(7)

    def test_different_seeds_differ(self):
        assert report(0) != report(1)


class TestShardScalingReport:
    def test_four_shard_run_reports_per_shard_load(self):
        result = run_shard_count(4, seed=0, quick=True)
        assert result.num_shards == 4
        summaries = result.shard_summaries
        assert [s["shard"] for s in summaries] == [0, 1, 2, 3]
        assert sum(s["domains"] for s in summaries) >= 4
        assert sum(s["predictions"] for s in summaries) > 0
        # The vDSO percentile columns come from the always-attached
        # internal metrics registry.
        assert any(
            "vdso_read_ns" in s["latency_percentiles"] for s in summaries
        )

    def test_every_tenant_appears_with_its_quota(self):
        result = run_shard_count(4, seed=0, quick=True)
        tenants_seen = {who.program for who, _u, _q in result.usage_rows}
        assert tenants_seen == {
            "htm-elision", "jit-tuner", "mm-reclaim", "scavenger"
        }

    def test_scavenger_is_quota_limited_not_retried(self):
        result = run_shard_count(1, seed=0, quick=True)
        stats = result.scavenger_stats
        over = tenants.SCAVENGER_ATTEMPTS - tenants.SCAVENGER_BUDGET
        assert stats.quota_rejections == over
        assert stats.fallback_predictions == over
        assert stats.retries == 0

    def test_report_contains_all_tables(self):
        text = report(0)
        for heading in ("== 1 shard ==", "== 4 shards ==", "scavenger",
                        "tenant", "shard"):
            assert heading in text


SCHEDULE = parse_reshard_schedule("6:4,14:3")


class TestReshardSchedule:
    def test_parses_pairs(self):
        assert SCHEDULE == {6: 4, 14: 3}
        assert parse_reshard_schedule("") == {}

    def test_rejects_malformed_specs(self):
        for bad in ("6", "6:4:2", "x:4", "6:x", "-1:4", "6:0"):
            with pytest.raises(SystemExit):
                parse_reshard_schedule(bad)


class TestChaosDeterminism:
    def test_same_seed_is_byte_identical(self):
        first, service_a = run_chaos(
            seed=42, replicas=2, reshard_schedule=dict(SCHEDULE)
        )
        second, service_b = run_chaos(
            seed=42, replicas=2, reshard_schedule=dict(SCHEDULE)
        )
        assert first.render() == second.render()
        assert first.snapshot(service_a) == second.snapshot(service_b)

    def test_tracing_does_not_perturb_the_outcome(self):
        plain, _ = run_chaos(seed=5, replicas=1)
        traced, _ = run_chaos(seed=5, replicas=1, tracer=Tracer())
        assert traced.render() == plain.render()

    def test_different_seeds_differ(self):
        first, _ = run_chaos(seed=0, replicas=2,
                             reshard_schedule=dict(SCHEDULE))
        second, _ = run_chaos(seed=1, replicas=2,
                              reshard_schedule=dict(SCHEDULE))
        assert first.render() != second.render()


class TestChaosInvariant:
    def test_reference_schedule_meets_the_headline_invariant(self):
        """The CI chaos gate in miniature: seed 42, two live reshards
        (2 -> 4 -> 3) under injected crashes, zero updates lost outside
        the documented replication window."""
        result, service = run_chaos(
            seed=42, replicas=2, reshard_schedule=dict(SCHEDULE)
        )
        assert result.ok
        assert result.violations == []
        assert result.crashes >= 3
        assert result.promotions >= 1
        assert result.reshards_completed == 2
        assert result.final_num_shards == 3
        assert service.num_shards == 3
        assert result.migrated_slots > 0
        assert result.failover_predictions > 0
        assert result.updates_delivered > 0
        # Losses happen - but only inside the documented replication
        # window (post-sync deliveries destroyed by a crash).
        assert result.window_lost > 0

    def test_reference_schedule_span_trees_carry_one_shard_label(self):
        """CI's traced chaos run: clients opened before the 2 -> 4 -> 3
        reshards keep crossing into domains that moved, and a
        ``vdso.predict`` must not enclose a ``kernel.predict`` filed
        under another shard (255 such pairs before placement became
        one fact)."""
        tracer = Tracer()
        run_chaos(seed=42, replicas=2, reshard_schedule=dict(SCHEDULE),
                  tracer=tracer)
        spans = tracer.spans()
        assert any(span.parent_id for span in spans)
        assert mixed_label_spans(spans) == []

    def test_no_faults_means_no_losses(self):
        result, _ = run_chaos(seed=9, replicas=1, crash_rate=0.0)
        assert result.ok
        assert result.crashes == 0
        assert result.window_lost == 0
        assert result.downtime_lost == 0
        assert result.failover_predictions == 0

    def test_render_and_snapshot_shape(self):
        result, service = run_chaos(
            seed=42, replicas=2, reshard_schedule=dict(SCHEDULE)
        )
        text = result.render()
        for needle in ("Chaos schedule", "reshard schedule: "
                       "round 6 -> 4 shards, round 14 -> 3 shards",
                       "shard crashes", "updates lost to crash window",
                       "ledger replay: OK"):
            assert needle in text
        snapshot = result.snapshot(service)
        assert snapshot["ok"] is True
        assert snapshot["final_num_shards"] == 3
        assert set(snapshot["domains"]) == set(service.domain_names())
        for entry in snapshot["domains"].values():
            assert {"state", "generation", "predictions", "updates",
                    "failover_predictions"} <= set(entry)
