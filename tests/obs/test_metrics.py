"""Histogram percentile math and registry get-or-create semantics."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        for field in ("count", "sum", "min", "max", "buckets",
                      "zero_count"):
            assert getattr(fast, field) == getattr(plain, field), field
            assert repr(getattr(fast, field)) \
                == repr(getattr(plain, field)), field
        assert fast.snapshot() == plain.snapshot()


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
