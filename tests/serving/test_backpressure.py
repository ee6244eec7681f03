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
import pytest

from repro.bench.runner import parse
from repro.core.errors import ConfigError, RequestShedError
from repro.core.kernel.service import ShardedService
from repro.core.serving import ServingConfig, ServingPipeline, serving_slos
from repro.core.serving.pipeline import SERVE_SLO
from repro.obs import SLO
from repro.sim.process import spawn


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

    def test_a_page_ends_once_traffic_goes_quiet(self):
        """A shed request is no latency sample, so a page judged at the
        last sample's time never ages out: after a burst pages, a quiet
        millisecond must end it and light traffic must be served."""
        service = ShardedService()
        service.create_domain("d")
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=0, shed_on_page=True),
            slos=serving_slos(4000))
        burst, light = [], []

        def arrivals():
            for _ in range(3000):       # 100 req/us: pages
                burst.append(pipeline.submit("d", [1, 2]))
                yield 10.0
            yield 1e6                   # a quiet millisecond
            for _ in range(200):        # 1 req/us
                light.append(pipeline.submit("d", [1, 2]))
                yield 1000.0

        spawn(pipeline.engine, arrivals(), name="arrivals")
        pipeline.run()
        assert pipeline.page_excursions == 1
        assert any(isinstance(f.error, RequestShedError) for f in burst)
        assert [f.error for f in light] == [None] * 200

    def test_a_page_ends_when_driven_from_outside_the_engine(self):
        """The same traffic submitted by the caller between
        ``run(until=...)`` steps, with no load generator: each submit
        and each run's end judges the grid points passed since the
        last, so the page ends in the quiet millisecond and the light
        traffic is both served and still evaluated."""
        service = ShardedService()
        service.create_domain("d")
        pipeline = ServingPipeline(
            service, ServingConfig(batch_window_ns=0, shed_on_page=True),
            slos=serving_slos(4000))
        engine = pipeline.engine
        burst, light = [], []
        for _ in range(3000):           # 100 req/us: pages
            burst.append(pipeline.submit("d", [1, 2]))
            pipeline.run(until=engine.now + 10.0)
        assert pipeline.page_excursions == 1
        pipeline.run(until=engine.now + 1e6)    # a quiet millisecond
        assert not pipeline.should_shed("d")
        evals = pipeline.evals
        for _ in range(200):            # 1 req/us
            light.append(pipeline.submit("d", [1, 2]))
            pipeline.run(until=engine.now + 1000.0)
        assert any(isinstance(f.error, RequestShedError) for f in burst)
        assert [f.error for f in light] == [None] * 200
        assert pipeline.evals >= evals + 200 * 1000.0 / 2000.0 - 1
        assert pipeline.page_excursions == 1

    def test_a_page_left_at_load_complete_is_judged_again(self):
        """A run ends when its last request settles, paging or not.
        The page it leaves must not shed the traffic a reused pipeline
        is sent later: the next submit judges the grid points passed
        since, and by then the page's bad samples have aged out."""
        service = ShardedService()
        service.create_domain("d")
        pipeline = ServingPipeline(
            service, ServingConfig(shed_on_page=True, slo_threshold_ns=100.0),
            slos=serving_slos(100.0))
        engine = pipeline.engine
        for _ in range(400):            # all at t=0: every sojourn misses
            pipeline.submit("d", [1, 2])
        pipeline.run()
        assert pipeline.should_shed("d")        # the run ended paging
        evals = pipeline.evals
        pipeline.run(until=engine.now + 1e6)    # a quiet millisecond
        later = []
        for _ in range(20):             # 1 req/us
            later.append(pipeline.submit("d", [1, 2]))
            pipeline.run(until=engine.now + 1000.0)
        assert [f.error for f in later] == [None] * 20
        assert pipeline.evals > evals
        assert not pipeline.should_shed("d")


class TestSloContract:
    """The pipeline feeds completions to ``serve-latency`` only, judged
    by ``ServingConfig.slo_threshold_ns``: a set it cannot feed that
    way is refused at construction, not discovered mid-run."""

    def test_an_slo_set_without_serve_latency_is_refused(self):
        # It used to raise KeyError inside the dispatcher at the first
        # completion, killing the shard's process with the future
        # never settled.
        service = ShardedService()
        service.create_domain("d")
        with pytest.raises(ConfigError, match=SERVE_SLO):
            ServingPipeline(service, ServingConfig(), slos=[
                SLO("my-latency", "latency", threshold_ns=100.0)])

    def test_a_threshold_the_config_does_not_judge_by_is_refused(self):
        # It used to count every sojourn against the config's 4 000 ns,
        # so 50 of 50 completions of 72 ns or more were good under a
        # 1 ns SLO.
        service = ShardedService()
        service.create_domain("d")
        with pytest.raises(ConfigError, match="slo_threshold_ns"):
            ServingPipeline(service, ServingConfig(),
                            slos=serving_slos(threshold_ns=1.0))
