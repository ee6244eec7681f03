"""Histogram percentile math and registry get-or-create semantics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LatencyModel, PSSConfig
from repro.core.kernel.service import ShardedService
from repro.core.stats import LatencyAccount
from repro.core.transport import VdsoTransport
from repro.obs import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.exporters import prometheus_text


class TestHistogramPercentiles:
    def test_empty_histogram_reports_zeros(self):
        h = Histogram()
        assert h.percentile(0.5) == 0.0
        assert h.mean == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0
        assert snap["max"] == 0.0
        assert snap["p99"] == 0.0

    def test_single_sample_is_exact_at_every_quantile(self):
        h = Histogram()
        h.observe(4.19)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == pytest.approx(4.19)
        assert h.mean == pytest.approx(4.19)

    def test_constant_stream_is_exact(self):
        h = Histogram()
        for _ in range(1000):
            h.observe(68.0)
        assert h.p50 == pytest.approx(68.0)
        assert h.p99 == pytest.approx(68.0)

    def test_zero_observations_live_in_zero_bucket(self):
        h = Histogram()
        for _ in range(10):
            h.observe(0.0)
        h.observe(8.0)
        assert h.zero_count == 10
        assert h.p50 == 0.0
        assert h.percentile(1.0) == pytest.approx(8.0)

    def test_estimates_within_one_bucket_of_truth(self):
        rng = random.Random(7)
        samples = [rng.uniform(0.5, 500.0) for _ in range(5000)]
        h = Histogram()
        for s in samples:
            h.observe(s)
        samples.sort()
        for q in (0.5, 0.9, 0.99):
            true = samples[int(q * (len(samples) - 1))]
            estimate = h.percentile(q)
            # Power-of-2 buckets: estimate within 2x either way.
            assert true / 2 <= estimate <= true * 2

    def test_percentiles_monotonic_in_q(self):
        rng = random.Random(3)
        h = Histogram()
        for _ in range(300):
            h.observe(rng.expovariate(1 / 50.0))
        quantiles = [h.percentile(q / 20) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_estimates_clamped_to_observed_range(self):
        h = Histogram()
        h.observe(5.0)
        h.observe(5.5)
        for q in (0.0, 0.25, 0.75, 1.0):
            assert 5.0 <= h.percentile(q) <= 5.5

    def test_invalid_quantile_rejected(self):
        h = Histogram()
        with pytest.raises(ValueError):
            h.percentile(1.5)

    def test_power_of_two_boundary_bucketing(self):
        # Exactly 2**n must land in the (2**(n-1), 2**n] bucket.
        h = Histogram()
        h.observe(8.0)
        assert h.buckets == {3: 1}

    def test_merge_combines_distributions(self):
        a, b = Histogram(), Histogram()
        for _ in range(100):
            a.observe(4.19)
        for _ in range(100):
            b.observe(68.0)
        a.merge(b)
        assert a.count == 200
        assert a.min == pytest.approx(4.19)
        assert a.max == pytest.approx(68.0)
        assert a.p50 < 10.0  # half the mass is at 4.19
        assert a.p99 > 60.0

    def test_merge_empty_into_empty(self):
        a, b = Histogram(), Histogram()
        a.merge(b)
        assert a.count == 0
        assert a.percentile(0.5) == 0.0
        snap = a.snapshot()
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_merge_empty_and_nonempty_both_orders(self):
        empty, full = Histogram(), Histogram()
        for value in (1.0, 4.19, 68.0):
            full.observe(value)
        before = full.snapshot()
        full.merge(empty)  # nonempty <- empty: a no-op
        assert full.snapshot() == before
        empty.merge(full)  # empty <- nonempty: adopts everything
        assert empty.snapshot() == before
        assert empty.min == pytest.approx(1.0)
        assert empty.max == pytest.approx(68.0)

    def test_merge_rejects_foreign_bucket_schemes(self):
        h = Histogram()
        h.observe(4.19)

        class FixedBucketHistogram:
            count = 1
            sum = 4.0
            min = 4.0
            max = 4.0
            zero_count = 0
            buckets = {0.5: 1}  # boundary-keyed, not exponent-keyed

        with pytest.raises(TypeError, match="log-bucketed Histogram"):
            h.merge(FixedBucketHistogram())
        with pytest.raises(TypeError):
            h.merge({"count": 1})
        assert h.count == 1  # rejected merges leave the target intact

    def test_merge_preserves_percentile_monotonicity(self):
        a, b = Histogram(), Histogram()
        rng = random.Random(7)
        for _ in range(200):
            a.observe(rng.uniform(0.0, 100.0))
        for _ in range(50):
            b.observe(rng.uniform(1000.0, 2000.0))
        a.merge(b)
        quantiles = [i / 20 for i in range(21)]
        estimates = [a.percentile(q) for q in quantiles]
        assert estimates == sorted(estimates)
        assert a.count == 250


#: everything a histogram holds
FIELDS = ("count", "sum", "min", "max", "zero_count", "buckets")


def observe_every_time(h, value):
    """``Histogram.observe`` as it was before it remembered the value
    it filed last: min, max and ``frexp`` on every observation."""
    h.count += 1
    h.sum += value
    if value < h.min:
        h.min = value
    if value > h.max:
        h.max = value
    if value <= 0.0:
        h.zero_count += 1
        return
    mantissa, exponent = math.frexp(value)
    if mantissa == 0.5:
        exponent -= 1
    h.buckets[exponent] = h.buckets.get(exponent, 0) + 1


class TestHistogramRepeats:
    #: few distinct values, so runs of one value - the case the
    #: shortcut takes - are the common case, across the zero bucket,
    #: a bucket boundary and both infinities
    values = st.sampled_from(
        [4.19, 4.19, 68.0, 0.0, -0.0, -3.0, 0.5, 1.0, 2, 2.0,
         1e-300, 1e300, math.inf, 5e-324])

    @settings(max_examples=200, deadline=None)
    @given(first=st.lists(values, max_size=30),
           merged=st.lists(values, max_size=6),
           second=st.lists(values, max_size=30))
    def test_any_sequence_files_as_the_plain_observe_did(
            self, first, merged, second):
        fast, plain, other = Histogram(), Histogram(), Histogram()
        for value in merged:
            other.observe(value)
        for value in first:
            fast.observe(value)
            observe_every_time(plain, value)
        # a merge in between must not stale what the shortcut remembers
        fast.merge(other)
        plain.merge(other)
        for value in second:
            fast.observe(value)
            observe_every_time(plain, value)
        for field in FIELDS:
            assert getattr(fast, field) == getattr(plain, field), field
            assert repr(getattr(fast, field)) \
                == repr(getattr(plain, field)), field
        assert fast.snapshot() == plain.snapshot()


    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(values, st.integers(0, 40)),
                         max_size=12))
    def test_a_run_files_as_that_many_observes(self, runs):
        """``observe_run`` is ``count`` observes, ``sum`` included: it
        adds one by one, because ``count * value`` is another float."""
        fast, plain = Histogram(), Histogram()
        for value, count in runs:
            fast.observe_run(value, count)
            for _ in range(count):
                observe_every_time(plain, value)
        for field in FIELDS:
            assert repr(getattr(fast, field)) \
                == repr(getattr(plain, field)), field


class PushedAccount(LatencyAccount):
    """The account as it was before a read was filed late: every read
    books its op breakdown and pushes its two observations as it
    happens, and every score-cache probe its transport counts pushes
    its counter.  The reference the late filing is held to.  (A merge
    into it pushes the merged-in probes too, which the account does
    not: the references below merge accounts without probes.)"""

    _pushed_hits = 0
    _pushed_misses = 0

    def charge_vdso_predict(self, ns):
        self.vdso_ns += ns
        self.vdso_calls += 1
        if self._metrics is not None:
            self._hist_vdso.observe(ns)
        self.charge_op("predict", ns)

    @property
    def cache_hits(self):
        return self._pushed_hits

    @cache_hits.setter
    def cache_hits(self, value):
        if self._metrics is not None:
            self._cache_hit_counter.inc(value - self._pushed_hits)
        self._pushed_hits = value

    @property
    def cache_misses(self):
        return self._pushed_misses

    @cache_misses.setter
    def cache_misses(self, value):
        if self._metrics is not None:
            self._cache_miss_counter.inc(value - self._pushed_misses)
        self._pushed_misses = value

    def _file_reads(self):
        pass


def registry_fields(registry):
    """Everything a reader can see, floats by ``repr``."""
    return (
        [(key, counter.value) for key, counter in registry.counters()],
        [(key, [repr(getattr(histogram, field)) for field in FIELDS])
         for key, histogram in registry.histograms()],
    )


class TestReadsAreFiledWhenTheRegistryIsRead:
    CONFIG = PSSConfig(num_features=2)
    ROWS = [(i, i + 1) for i in range(5)]

    def stack(self, account_type):
        """Two vDSO connections to one domain (one label set, shared
        instruments) and a third, dearer one to another domain, all on
        one registry."""
        registry = MetricsRegistry()
        service = ShardedService()   # one shard: no shard label
        transports = []
        for domain, vdso_ns in (("a", 4.19), ("a", 4.19), ("b", 0.1)):
            transport = VdsoTransport(
                service.handle(domain, config=self.CONFIG),
                LatencyModel(vdso_predict_ns=vdso_ns),
                account_type(), batch_size=3)
            transport.attach_observability(metrics=registry)
            transports.append(transport)
        return registry, transports

    ops = st.lists(st.one_of(
        st.tuples(st.just("predict"), st.integers(0, 2),
                  st.integers(0, 4)),
        st.tuples(st.just("batch"), st.integers(0, 2),
                  st.lists(st.integers(0, 4), max_size=6)),
        st.tuples(st.just("update"), st.integers(0, 2),
                  st.integers(0, 4), st.booleans()),
        st.tuples(st.just("flush"), st.integers(0, 2)),
        st.tuples(st.just("read"), st.integers(0, 2)),
    ), max_size=60)

    @settings(max_examples=150, deadline=None)
    @given(ops=ops)
    def test_a_read_registry_is_the_pushed_one(self, ops):
        """Hits, misses, batches, updates, flushes, mid-run reads: read
        at any point, the registry equals field for field the one the
        per-op pushes filled, and reading again files nothing twice."""
        late, late_transports = self.stack(LatencyAccount)
        pushed, pushed_transports = self.stack(PushedAccount)
        for op, who, *rest in ops:
            for registry, transports in ((late, late_transports),
                                         (pushed, pushed_transports)):
                transport = transports[who]
                if op == "predict":
                    transport.predict(self.ROWS[rest[0]])
                elif op == "batch":
                    transport.predict_batch(
                        [self.ROWS[i] for i in rest[0]])
                elif op == "update":
                    transport.update(self.ROWS[rest[0]], rest[1])
                elif op == "flush":
                    transport.flush()
            if op == "read":
                assert registry_fields(late) == registry_fields(pushed)
        assert registry_fields(late) == registry_fields(pushed)
        assert registry_fields(late) == registry_fields(pushed)
        assert late.snapshot() == pushed.snapshot()
        assert prometheus_text(late) == prometheus_text(pushed)
        for one, other in zip(late_transports, pushed_transports):
            assert one.account.snapshot() == other.account.snapshot()

    def test_every_accessor_files_first(self):
        for read in (
            lambda r: r.counter("pss_score_cache_hits_total",
                                domain="a", transport="vdso").value,
            lambda r: r.histogram("pss_vdso_read_ns", domain="a",
                                  transport="vdso").count,
            lambda r: r.counters()[0][1].value,
            lambda r: dict(r.histograms())[
                "pss_vdso_read_ns",
                (("domain", "a"), ("transport", "vdso"))].count,
            lambda r: r.merged_histogram("pss_op_ns", op="predict",
                                         domain="a").count,
            lambda r: r.snapshot()["counters"][0]["value"],
        ):
            registry, (transport, _same, _other) = self.stack(
                LatencyAccount)
            transport.predict(self.ROWS[0])   # a miss
            for _ in range(3):                # three hits
                transport.predict(self.ROWS[0])
            assert read(registry) in (3, 4)
            assert read(registry) in (3, 4)   # and only once

    def test_reattaching_moves_the_account_to_the_new_registry(self):
        account = LatencyAccount()
        old, new = MetricsRegistry(), MetricsRegistry()
        account.attach_metrics(old, domain="d", transport="vdso")
        account.charge_vdso_predict(4.19)
        account.cache_hits += 1
        account.attach_metrics(new, domain="d", transport="vdso")
        for _ in range(2):
            account.charge_vdso_predict(4.19)
            account.cache_misses += 1
        key = dict(domain="d", transport="vdso")
        assert new.histogram("pss_vdso_read_ns", **key).count == 2
        assert new.counter("pss_score_cache_misses_total", **key).value == 2
        assert new.counter("pss_score_cache_hits_total", **key).value == 0
        assert old.histogram("pss_vdso_read_ns", **key).count == 1
        assert old.counter("pss_score_cache_hits_total", **key).value == 1

    def test_alternating_costs_do_not_pile_up_in_the_registry(self):
        account, registry = LatencyAccount(), MetricsRegistry()
        account.attach_metrics(registry, domain="d", transport="vdso")
        for index in range(100):
            account.charge_vdso_predict(4.19 if index % 2 else 0.1)
        assert len(registry._owed) == 1
        assert registry.histogram(
            "pss_vdso_read_ns", domain="d", transport="vdso").count == 100

    @pytest.mark.parametrize("varying", [
        lambda account: account.charge_vdso_predict(2.0 ** 53),
        lambda account: account.charge_op("predict", 2.0 ** 53),
    ])
    def test_a_varying_charge_lands_after_the_reads_before_it(
            self, varying):
        """A charge pushed into a histogram a pending run belongs to
        files the run first: ``sum`` is order-sensitive (1.0 added to
        2**53 is lost, added before it is not)."""
        late, pushed = LatencyAccount(), PushedAccount()
        registries = MetricsRegistry(), MetricsRegistry()
        for account, registry in zip((late, pushed), registries):
            account.attach_metrics(registry, domain="d", transport="vdso")
            account.charge_vdso_predict(1.0)
            registry.snapshot()   # every instrument now exists
            for _ in range(3):
                account.charge_vdso_predict(1.0)
            varying(account)
            account.charge_vdso_predict(1.0)
        assert registry_fields(registries[0]) \
            == registry_fields(registries[1])


class TestAnAccountReadsAsBookedPerRead:
    """A vDSO read is booked as a run and filed when the account is
    read; read at any point, the account is the one per-read booking
    (:class:`PushedAccount`) leaves, floats bit for bit."""

    #: two read costs whose sums round differently, and one far larger
    #: syscall cost, so that any reordering of the additions shows
    COSTS = (4.19, 0.1)

    ops = st.lists(st.one_of(
        st.tuples(st.just("read"), st.integers(0, 1),
                  st.integers(1, 5), st.sampled_from([None, True, False])),
        st.tuples(st.just("syscall"),
                  st.sampled_from(["predict", "flush", "update"]),
                  st.sampled_from([68.0, 2.0 ** 53, 0.3])),
        st.tuples(st.just("merge"), st.integers(0, 1),
                  st.integers(0, 4), st.booleans()),
        st.tuples(st.just("attach"), st.integers(0, 1)),
        st.tuples(st.just("look"),
                  st.sampled_from(["snapshot", "op_ns", "op_calls",
                                   "mean_op_ns", "equal", "registry"])),
    ), max_size=50)

    @staticmethod
    def side(account_type, cost, reads, syscall):
        """An account to merge in: reads, maybe a predict syscall."""
        account = account_type()
        for _ in range(reads):
            account.charge_vdso_predict(cost)
        if syscall:
            account.charge_syscall(68.0)
            account.charge_op("predict", 68.0)
        return account

    @staticmethod
    def seen(account):
        """Everything a reader of the account sees, floats by repr."""
        return repr((account.snapshot(), account.op_ns, account.op_calls,
                     account.mean_op_ns("predict"), account.total_ns))

    @settings(max_examples=200, deadline=None)
    @given(ops=ops)
    def test_an_account_read_at_any_point_is_the_booked_one(self, ops):
        late, booked = LatencyAccount(), PushedAccount()
        # each account's two registries, to attach to and move between
        registries = [(MetricsRegistry(), MetricsRegistry())
                      for _ in range(2)]
        for op, *rest in ops:
            if op == "look":
                look = rest[0]
                if look == "snapshot":
                    assert repr(late.snapshot()) \
                        == repr(booked.snapshot())
                elif look == "op_ns":
                    assert repr(late.op_ns) == repr(booked.op_ns)
                elif look == "op_calls":
                    assert late.op_calls == booked.op_calls
                elif look == "mean_op_ns":
                    assert repr(late.mean_op_ns("predict")) \
                        == repr(booked.mean_op_ns("predict"))
                elif look == "equal":
                    assert late == booked
                else:
                    for one, other in zip(*registries):
                        assert registry_fields(one) \
                            == registry_fields(other)
                continue
            for account, owned in zip((late, booked), registries):
                if op == "read":   # as a vDSO transport reads
                    cost, reads, hit = rest
                    for _ in range(reads):
                        account.charge_vdso_predict(self.COSTS[cost])
                        if hit:
                            account.cache_hits += 1
                        elif hit is not None:
                            account.cache_misses += 1
                elif op == "syscall":
                    account.charge_syscall(rest[1])
                    account.charge_op(rest[0], rest[1])
                elif op == "merge":
                    account.merge(self.side(
                        type(account), self.COSTS[rest[0]], rest[1],
                        rest[2]))
                else:
                    account.attach_metrics(owned[rest[0]], domain="d",
                                           transport="vdso")
        assert self.seen(late) == self.seen(booked)
        assert late == booked
        for one, other in zip(*registries):
            assert registry_fields(one) == registry_fields(other)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.histogram("lat", domain="d", transport="vdso")
        b = reg.histogram("lat", transport="vdso", domain="d")
        assert a is b
        assert reg.counter("hits") is reg.counter("hits")
        assert reg.gauge("depth") is reg.gauge("depth")

    def test_label_values_distinguish_instruments(self):
        reg = MetricsRegistry()
        assert reg.counter("c", domain="a") is not \
            reg.counter("c", domain="b")

    def test_counter_and_gauge_arithmetic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = Gauge()
        g.set(3.0)
        g.inc()
        g.dec(0.5)
        assert g.value == pytest.approx(3.5)

    def test_merged_histogram_filters_by_label_subset(self):
        reg = MetricsRegistry()
        reg.histogram("lat", domain="d", transport="vdso").observe(4.0)
        reg.histogram("lat", domain="d", transport="syscall").observe(68.0)
        reg.histogram("lat", domain="other", transport="vdso").observe(1.0)
        merged = reg.merged_histogram("lat", domain="d")
        assert merged.count == 2
        assert merged.max == pytest.approx(68.0)

    def test_merged_histogram_with_no_matches_is_empty(self):
        reg = MetricsRegistry()
        reg.histogram("lat", domain="d").observe(4.0)
        merged = reg.merged_histogram("lat", domain="missing")
        assert merged.count == 0
        assert merged.percentile(0.99) == 0.0

    def test_snapshot_is_json_serializable(self):
        import json

        reg = MetricsRegistry()
        reg.counter("hits", domain="d").inc(3)
        reg.gauge("depth").set(2.0)
        reg.histogram("lat", domain="d").observe(4.19)
        dump = json.loads(json.dumps(reg.snapshot()))
        assert dump["counters"][0]["value"] == 3
        assert dump["histograms"][0]["count"] == 1

    def test_prometheus_text_has_types_and_buckets(self):
        reg = MetricsRegistry()
        reg.counter("pss_hits_total", domain="d").inc(2)
        h = reg.histogram("pss_lat_ns", domain="d")
        h.observe(4.0)
        h.observe(60.0)
        text = prometheus_text(reg)
        assert "# TYPE pss_hits_total counter" in text
        assert 'pss_hits_total{domain="d"} 2' in text
        assert "# TYPE pss_lat_ns histogram" in text
        assert 'le="+Inf"' in text
        assert "pss_lat_ns_count" in text
        assert "pss_lat_ns_sum" in text

    def test_prometheus_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (1.0, 3.0, 60.0):
            h.observe(v)
        lines = [ln for ln in prometheus_text(reg).splitlines()
                 if "_bucket" in ln]
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3
