"""Counters, gauges, and log-bucketed latency histograms.

The seed repo accounted only means and counts (:class:`~repro.core.stats
.LatencyAccount`), which cannot express the paper's latency
*distributions*.  A :class:`MetricsRegistry` holds named, labeled
instruments; :class:`Histogram` buckets observations by powers of two so
p50/p90/p99/max are recoverable with bounded error at O(1) cost per
observation and O(log(range)) memory - the classic HDR-style trade-off,
reduced to the standard library.

Instruments are get-or-create: ``registry.histogram("pss_vdso_read_ns",
domain="hle", transport="vdso")`` returns the same object every time, so
hot paths can resolve an instrument once and call ``observe`` directly.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator

#: what a client's :class:`~repro.core.stats.LatencyAccount` files,
#: labeled ``{domain, transport, shard}`` (the shard hosting the domain
#: when charged): boundary-crossing latency per path, the same time per
#: operation kind (``{op}``), and the vDSO score cache's probes
VDSO_READ_NS = "pss_vdso_read_ns"
SYSCALL_NS = "pss_syscall_ns"
OP_NS = "pss_op_ns"
SCORE_CACHE_HITS_TOTAL = "pss_score_cache_hits_total"
SCORE_CACHE_MISSES_TOTAL = "pss_score_cache_misses_total"

#: metric names the sharded kernel's resilience machinery emits, kept
#: here (the instrument schema's home) so emitters and dashboards
#: agree on spelling.  All are labeled ``{shard}``.
SHARD_CRASHES_TOTAL = "pss_shard_crashes_total"
FAILOVER_PREDICTIONS_TOTAL = "pss_failover_predictions_total"
REPLICA_LAG_GENERATIONS = "pss_replica_lag_generations"
MIGRATED_SLOTS_TOTAL = "pss_migrated_slots_total"

#: serving-pipeline instruments (:mod:`repro.core.serving`): queue
#: depth observed at every enqueue, rows per dispatched micro-batch,
#: submit-to-completion sojourn time, and requests refused by
#: back-pressure - all labeled ``{shard}`` (``shed`` also ``{reason}``).
QUEUE_DEPTH = "pss_queue_depth"
BATCH_SIZE = "pss_batch_size"
SERVE_LATENCY_NS = "pss_serve_latency_ns"
SHED_TOTAL = "pss_shed_total"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, cache size, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Log-bucketed distribution of non-negative observations.

    Bucket ``e`` holds values in ``(2**(e-1), 2**e]``; zeros (and any
    negative input, clamped) live in a dedicated zero bucket.  Quantiles
    interpolate linearly inside the containing bucket and are clamped to
    the observed ``[min, max]``, so a single-sample histogram reports
    that sample exactly and every estimate lies within one bucket (at
    most 2x) of the true value.
    """

    __slots__ = ("count", "sum", "min", "max", "zero_count", "buckets",
                 "_last", "_last_exponent")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zero_count = 0
        self.buckets: dict[int, int] = {}
        #: the value filed last and the bucket it went to (None: the
        #: zero bucket) - a repeat of it, such as the constant 4.19 ns
        #: every vDSO read observes, is filed without redoing min / max
        #: / ``frexp``
        self._last: float | None = None
        self._last_exponent: int | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value == self._last:
            exponent = self._last_exponent
            if exponent is None:
                self.zero_count += 1
            else:
                self.buckets[exponent] += 1
            return
        self._last = value
        self._last_exponent = None
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            self.zero_count += 1
            return
        mantissa, exponent = math.frexp(value)
        # frexp: value = mantissa * 2**exponent with 0.5 <= mantissa < 1,
        # so 2**(exponent-1) <= value < 2**exponent; shift the boundary
        # case so the bucket interval is half-open at the bottom.
        if mantissa == 0.5:
            exponent -= 1
        self._last_exponent = exponent
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    def observe_run(self, value: float, count: int) -> None:
        """``count`` observations of one ``value``, filed once: ``sum``
        grows by ``value * count``, every other field as that many
        :meth:`observe` calls leave it."""
        if count < 1:
            return
        total = self.sum + value * count
        self.observe(value)
        self.sum = total
        self.count += count - 1
        exponent = self._last_exponent
        if exponent is None:
            self.zero_count += count - 1
        else:
            self.buckets[exponent] += count - 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * (self.count - 1)  # continuous 0-based rank
        seen = 0
        for lo, hi, bucket_count in self._spans():
            if rank < seen + bucket_count:
                # Interpolate inside this bucket, spreading its
                # bucket_count observations evenly across (lo, hi].
                fraction = (rank - seen + 1.0) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, self.min), self.max)
            seen += bucket_count
        return self.max  # q == 1.0 and rounding fell off the end

    def _spans(self) -> Iterator[tuple[float, float, int]]:
        """Occupied buckets as (lo, hi, count), ascending."""
        if self.zero_count:
            yield 0.0, 0.0, self.zero_count
        for exponent in sorted(self.buckets):
            yield 2.0 ** (exponent - 1), 2.0 ** exponent, \
                self.buckets[exponent]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p90(self) -> float:
        return self.percentile(0.90)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Only histograms of this log-bucketed geometry can merge - the
        buckets are keyed by exponent, so folding in anything with a
        different boundary scheme would silently misfile counts.
        Raises :class:`TypeError` for any other type rather than
        duck-typing its way into a corrupt distribution.
        """
        if not isinstance(other, Histogram):
            raise TypeError(
                f"can only merge another log-bucketed Histogram, got "
                f"{type(other).__name__}")
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self.zero_count += other.zero_count
        for exponent, bucket_count in other.buckets.items():
            self.buckets[exponent] = \
                self.buckets.get(exponent, 0) + bucket_count

    def snapshot(self) -> dict[str, float]:
        """Summary dict for reports (empty histograms report zeros)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


#: a metric key: (name, sorted label items)
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, Any]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Named, labeled instruments with get-or-create semantics.

    An emitter whose series is a count it already keeps need not push
    it per operation: it registers a *filer* once with
    :meth:`add_filer`, and every accessor of counters or histograms
    calls each filer before it answers, so a reader (an exporter, a
    report, an ``ObsSession``) never sees the difference.  An
    instrument object held from an earlier lookup is only as fresh as
    the registry's last read.
    """

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}
        self._filers: list[Callable[[], None]] = []

    def add_filer(self, file: Callable[[], None]) -> None:
        """Call ``file()`` before every read of this registry's
        counters or histograms, until :meth:`remove_filer`."""
        self._filers.append(file)

    def remove_filer(self, file: Callable[[], None]) -> None:
        self._filers.remove(file)

    def _file(self) -> None:
        for file in self._filers:
            file()

    def counter(self, name: str, **labels: Any) -> Counter:
        self._file()
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: Any) -> Histogram:
        self._file()
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    # -- introspection -------------------------------------------------------

    def counters(self) -> list[tuple[MetricKey, Counter]]:
        self._file()
        return sorted(self._counters.items())

    def gauges(self) -> list[tuple[MetricKey, Gauge]]:
        return sorted(self._gauges.items())

    def histograms(self) -> list[tuple[MetricKey, Histogram]]:
        self._file()
        return sorted(self._histograms.items())

    def merged_histogram(self, name: str,
                         **label_filter: Any) -> Histogram:
        """Union of every histogram named ``name`` whose labels include
        ``label_filter`` (e.g. all transports of one domain)."""
        self._file()
        wanted = {(k, str(v)) for k, v in label_filter.items()}
        merged = Histogram()
        for (metric_name, labels), histogram in self._histograms.items():
            if metric_name == name and wanted <= set(labels):
                merged.merge(histogram)
        return merged

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump of every instrument."""
        def labeled(key: MetricKey) -> dict[str, Any]:
            name, labels = key
            return {"name": name, "labels": dict(labels)}

        return {
            "counters": [
                {**labeled(key), "value": c.value}
                for key, c in self.counters()
            ],
            "gauges": [
                {**labeled(key), "value": g.value}
                for key, g in self.gauges()
            ],
            "histograms": [
                {**labeled(key), **h.snapshot()}
                for key, h in self.histograms()
            ],
        }
