"""Back-pressure is load-bearing, not advisory, in serve mode.

At the overloaded point (1M clients on one shard) the bounded-queue +
shed-on-page pipeline must actually refuse work (shed > 0), and the
refusals must buy something: the throttled run's SLO page rate stays
below the unthrottled run's, and admitted requests complete inside the
latency SLO the unbounded queue blows through.
"""

from repro.bench.experiments.serve import (
    QUEUE_LIMIT,
    SERVE,
    SLO_THRESHOLD_NS,
    run_backpressure_comparison,
    run_point,
)
from repro.bench.runner import parse
from repro.core.errors import RequestShedError
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline
from repro.core.serving.pipeline import SERVE_SLO
from repro.obs import SLO


class TestShedding:
    def test_overload_sheds_and_pages_less_than_unthrottled(self):
        comparison, summaries = run_backpressure_comparison(
            SERVE.grid(parse(SERVE, ["--quick"]))[-1])
        throttled = comparison["throttled"]
        unthrottled = comparison["unthrottled"]
        assert throttled["shed"] > 0
        assert unthrottled["shed"] == 0
        assert throttled["page_rate"] < unthrottled["page_rate"]
        assert comparison["backpressure_effective"] is True
        # Bounded queues cap sojourn; the unbounded run does not.
        assert throttled["p99_ns"] <= SLO_THRESHOLD_NS
        assert unthrottled["p99_ns"] > SLO_THRESHOLD_NS
        # The shard_table view carries the shed/queue visibility.
        serving = [s["serving"] for s in summaries if "serving" in s]
        assert sum(s["shed"] for s in serving) == throttled["shed"]
        assert all(s["max_depth"] <= QUEUE_LIMIT for s in serving)

    def test_light_load_never_sheds(self):
        row, pipeline = run_point(10_000, 1, 0.0, seed=0,
                                  requests=500)
        assert row["shed"] == 0
        assert row["completed"] == row["submitted"]
        assert row["page_evals"] == 0
        assert pipeline.service.admission.sheds_enforced == 0

    def test_slo_page_sheds_are_enforced_not_advisory(self):
        """At top load the controller's enforced-shed counter moves:
        the pipeline promoted ``should_shed`` into real refusals."""
        _, pipeline = run_point(1_000_000, 1, 0.0, seed=0,
                                requests=800)
        admission = pipeline.service.admission
        assert admission.sheds_enforced > 0
        assert pipeline.shed_count == admission.sheds_enforced

    def test_should_shed_scopes(self):
        """The one scope match (``*``, ``shard:<id>``, a domain name),
        and the one switch over it: a page covering the target sheds
        exactly when the pipeline is configured to shed on pages."""
        for shed_on_page in (True, False):
            self.page_shard_one(shed_on_page)

    def page_shard_one(self, shed_on_page):
        service = ShardedService(num_shards=2)
        on0, on1 = (next(name for name in map("d{}".format, range(64))
                         if service.shard_of(name) == shard_id)
                    for shard_id in (0, 1))
        service.create_domain(on0)
        service.create_domain(on1)
        pipeline = ServingPipeline(
            service,
            ServingConfig(shed_on_page=shed_on_page, slo_threshold_ns=0.0,
                          slo_eval_interval_ns=100.0),
            slos=[SLO(SERVE_SLO, "latency", scope="shard:1",
                      short_window_ns=1e6, long_window_ns=1e6)])
        for _ in range(10):     # every sojourn misses a 0 ns limit
            pipeline.submit(on0, [1, 2])
        pipeline.run(until=1_000.0)
        assert pipeline.page_evals > 0
        assert pipeline.should_shed(shard="1")
        assert pipeline.should_shed(domain=on1, shard="1")
        assert not pipeline.should_shed(shard="0")
        assert not pipeline.should_shed(domain=on1)
        covered = pipeline.submit(on1, [1, 2])
        beside = pipeline.submit(on0, [1, 2])
        pipeline.run(until=2_000.0)
        assert beside.result() is not None
        if shed_on_page:
            assert isinstance(covered.error, RequestShedError)
            assert covered.error.reason == "slo_page"
        else:
            assert covered.result() is not None
        assert pipeline.shed_count == int(shed_on_page)
