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
        """``observe_run`` is ``count`` observes, except that ``sum``
        grows by count x value: one product, not one addition per
        observation."""
        fast, plain = Histogram(), Histogram()
        total = 0.0
        for value, count in runs:
            fast.observe_run(value, count)
            for _ in range(count):
                observe_every_time(plain, value)
            if count:
                total += value * count
        plain.sum = total
        for field in FIELDS:
            assert repr(getattr(fast, field)) \
                == repr(getattr(plain, field)), field


def read(account, times=1, probe=None):
    """``times`` vDSO reads as the transport counts them - two in-place
    increments each - with a score-cache hit (``probe`` True), miss
    (False) or neither (None) apiece."""
    for _ in range(times):
        account.vdso_ns += account.read_ns
        account.vdso_calls += 1
        if probe:
            account.cache_hits += 1
        elif probe is not None:
            account.cache_misses += 1


class PushedAccount(LatencyAccount):
    """Every read and every score-cache probe pushed as it happens:
    a read observes its cost into ``pss_vdso_read_ns`` and
    ``pss_op_ns{op="predict"}``, a probe increments its counter.  The
    reference the filing at registry reads is held to.  (A merge into
    it would push the merged-in reads and probes, which the account
    does not: the references below merge nothing.)"""

    _pushed_reads = 0
    _pushed_hits = 0
    _pushed_misses = 0

    @property
    def vdso_calls(self):
        return self._pushed_reads

    @vdso_calls.setter
    def vdso_calls(self, value):
        if self._metrics is not None:
            for _ in range(value - self._pushed_reads):
                self._hist_vdso.observe(self.read_ns)
                self._op_hist("predict").observe(self.read_ns)
        self._pushed_reads = value

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

    def _file(self):
        pass


def registry_fields(registry):
    """Everything a reader can see, floats by ``repr`` (buckets in
    exponent order: readers walk them sorted)."""
    return (
        [(key, counter.value) for key, counter in registry.counters()],
        [(key, [repr(sorted(histogram.buckets.items()) if field == "buckets"
                     else getattr(histogram, field)) for field in FIELDS])
         for key, histogram in registry.histograms()],
    )


class TestReadsAreFiledWhenTheRegistryIsRead:
    CONFIG = PSSConfig(num_features=2)
    ROWS = [(i, i + 1) for i in range(5)]

    def stack(self, account_type):
        """Two vDSO connections to one domain (one label set, shared
        instruments) and a third, cheaper one to another domain, all on
        one registry.  The read costs are exact in binary, so reads
        pushed one by one sum to the count x cost the filing adds,
        however the filings fall: the comparison is exact."""
        registry = MetricsRegistry()
        service = ShardedService()   # one shard: no shard label
        transports = []
        for domain, vdso_ns in (("a", 4.25), ("a", 4.25), ("b", 0.125)):
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
        read(account, probe=True)
        account.attach_metrics(new, domain="d", transport="vdso")
        read(account, 2, probe=False)
        key = dict(domain="d", transport="vdso")
        assert new.histogram("pss_vdso_read_ns", **key).count == 2
        assert new.counter("pss_score_cache_misses_total", **key).value == 2
        assert new.counter("pss_score_cache_hits_total", **key).value == 0
        assert old.histogram("pss_vdso_read_ns", **key).count == 1
        assert old.counter("pss_score_cache_hits_total", **key).value == 1

    def test_a_registry_files_count_times_cost(self):
        """Six reads at 4.19 filed in one registry read: ``sum`` is
        6 * 4.19, not 4.19 added six times (another float)."""
        account, registry = LatencyAccount(read_ns=4.19), MetricsRegistry()
        account.attach_metrics(registry, domain="d", transport="vdso")
        read(account, 6)
        for name in ("pss_vdso_read_ns", "pss_op_ns"):
            histogram = registry.merged_histogram(name, domain="d")
            assert (histogram.count, histogram.sum) == (6, 6 * 4.19)
        assert account.vdso_ns == sum([4.19] * 6) != 6 * 4.19


class TestFilers:
    """A filer is registered once, however often its account moves,
    and leaves with its client: the list is bounded by live clients."""

    def test_an_account_is_one_filer_wherever_it_files(self):
        account, registry = LatencyAccount(), MetricsRegistry()
        other = MetricsRegistry()
        for _ in range(3):
            account.attach_metrics(registry, domain="d", transport="vdso")
            for label in ("0", "1", "2"):
                account.file_under(label)
        assert registry._filers == [account._file]
        account.attach_metrics(other, domain="d", transport="vdso")
        assert (registry._filers, other._filers) == ([], [account._file])

    def test_a_closed_client_files_what_it_owes_and_leaves(self):
        registry = MetricsRegistry()
        service = ShardedService(metrics=registry)
        client = service.connect("d", config=PSSConfig(num_features=2))
        client.predict((1, 2))
        client.predict((1, 2))
        assert len(registry._filers) == 1
        client.close()
        assert registry._filers == []
        assert registry.merged_histogram("pss_vdso_read_ns").count == 2
        assert registry.counter(
            "pss_score_cache_hits_total", domain="d",
            transport="vdso", shard="0").value == 1

    def test_chaos_keeps_one_filer_per_client(self):
        """Two live reshards and three crashes move every client's
        account between shards; each stays one filer."""
        from repro.bench.experiments.chaos import CHAOS_DOMAINS, run_chaos

        registry = MetricsRegistry()
        result, service = run_chaos(seed=42, reshard_schedule={6: 4, 14: 3},
                                    metrics=registry)
        assert result.crashes and result.final_num_shards == 3
        assert len(registry._filers) == len(CHAOS_DOMAINS)
        reads = registry.merged_histogram("pss_vdso_read_ns")
        assert reads.count == sum(
            shard.merged_latency().vdso_calls for shard in service.shards)


class TestAnAccountIsCountTimesCost:
    """Any interleaving of reads, syscall charges, merges, attaching,
    moving shards and registry reads leaves the account's breakdown and
    every registry equal to count x cost.  The reference keeps the
    contract by hand: its own counts, the breakdown's ``predict`` as
    what was charged per call plus ``reads * cost``, and each registry
    series as the reads pushed one by one.  Costs are exact in binary,
    so a sum of reads is count x cost however the filings fall, and
    every field compares exactly."""

    #: the account's read cost, a merged-in account's, and the syscall
    #: costs charged between the reads
    COST = 4.25
    SIDE_COSTS = (0.125, 8.5)
    SYSCALLS = (68.0, 0.5, 3.0)

    ops = st.lists(st.one_of(
        st.tuples(st.just("read"), st.integers(1, 5),
                  st.sampled_from([None, True, False])),
        st.tuples(st.just("syscall"),
                  st.sampled_from(["predict", "flush", "update"]),
                  st.sampled_from(SYSCALLS)),
        st.tuples(st.just("merge"), st.integers(0, 1),
                  st.integers(0, 4), st.booleans()),
        st.tuples(st.just("attach"), st.integers(0, 1)),
        st.tuples(st.just("move"), st.sampled_from(["0", "1", "2"])),
        st.tuples(st.just("look"), st.sampled_from(["account", "registry"])),
    ), max_size=50)

    @settings(max_examples=200, deadline=None)
    @given(ops=ops)
    def test_any_interleaving_is_count_times_cost(self, ops):
        account = LatencyAccount(read_ns=self.COST)
        registries = (MetricsRegistry(), MetricsRegistry())
        # the reference: registries pushed per read, and the counts
        pushed = (MetricsRegistry(), MetricsRegistry())
        attached, shard = None, ""
        reads = merged_reads = hits = misses = 0
        clock = 0.0
        filed_ns, filed_calls = {}, {}

        def labels():
            return ({"domain": "d", "transport": "vdso", "shard": shard}
                    if shard else {"domain": "d", "transport": "vdso"})

        def push(name, value, **more):
            if attached is not None:
                pushed[attached].histogram(
                    name, **labels(), **more).observe(value)

        def attach(index):
            nonlocal attached
            attached = index
            registry = pushed[index]
            for name in ("pss_vdso_read_ns", "pss_syscall_ns"):
                registry.histogram(name, **labels())
            for name in ("pss_score_cache_hits_total",
                         "pss_score_cache_misses_total"):
                registry.counter(name, **labels())

        def check_account():
            ns, calls = dict(filed_ns), dict(filed_calls)
            if reads:
                ns["predict"] = ns.get("predict", 0) + reads * self.COST
                calls["predict"] = calls.get("predict", 0) + reads
            assert repr(account.op_ns) == repr(ns)
            assert account.op_calls == calls
            assert repr(account.snapshot()["ops"]) == repr({
                op: {"calls": calls[op], "ns": ns[op]} for op in sorted(ns)})
            assert repr(account.vdso_ns) == repr(clock)
            assert account.vdso_calls == reads + merged_reads
            assert (account.cache_hits, account.cache_misses) \
                == (hits, misses)

        def check_registries():
            for one, other in zip(registries, pushed):
                assert registry_fields(one) == registry_fields(other)

        for op, *rest in ops:
            if op == "read":
                times, probe = rest
                read(account, times, probe)
                reads += times
                for _ in range(times):
                    clock += self.COST
                    push("pss_vdso_read_ns", self.COST)
                    push("pss_op_ns", self.COST, op="predict")
                    if probe is not None and attached is not None:
                        name = ("pss_score_cache_hits_total" if probe
                                else "pss_score_cache_misses_total")
                        pushed[attached].counter(name, **labels()).inc()
                if probe:
                    hits += times
                elif probe is not None:
                    misses += times
            elif op == "syscall":
                kind, ns = rest
                account.charge_syscall(ns)
                account.charge_op(kind, ns)
                push("pss_syscall_ns", ns)
                push("pss_op_ns", ns, op=kind)
                filed_ns[kind] = filed_ns.get(kind, 0.0) + ns
                filed_calls[kind] = filed_calls.get(kind, 0) + 1
            elif op == "merge":
                cost, side_reads, syscall = rest
                side = LatencyAccount(read_ns=self.SIDE_COSTS[cost])
                read(side, side_reads, probe=True)
                side_ns, side_calls = 0.0, 0
                if syscall:
                    side.charge_syscall(68.0)
                    side.charge_op("predict", 68.0)
                    side_ns, side_calls = 68.0, 1
                account.merge(side)
                # the side's own breakdown: its reads at its own cost
                if side_reads:
                    side_ns = side_ns + side_reads * self.SIDE_COSTS[cost]
                if side_calls or side_reads:
                    filed_ns["predict"] = filed_ns.get("predict", 0.0) \
                        + side_ns
                    filed_calls["predict"] = filed_calls.get(
                        "predict", 0) + side_calls + side_reads
                clock += side.vdso_ns
                merged_reads += side_reads
                hits += side_reads
            elif op == "attach":
                account.attach_metrics(registries[rest[0]], domain="d",
                                       transport="vdso")
                attach(rest[0])
            elif op == "move":
                account.file_under(rest[0])
                shard = rest[0]
                if attached is not None:
                    attach(attached)
            elif rest[0] == "account":
                check_account()
            else:
                check_registries()
        check_account()
        check_registries()


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
