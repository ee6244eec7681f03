"""Declarative SLOs with multi-window error-budget burn rates.

The ROADMAP's async serving frontend needs a back-pressure signal that
is *about service health*, not raw counters.  This module turns the
trace stream into that signal: an :class:`SLO` declares an objective
("99% of predicts under 100 simulated ns", "99.9% of operations
fault-free", "replica lag at most 2 generations"), an :class:`SLOEngine`
folds :class:`~repro.obs.trace.TraceEvent` streams into rolling
simulated-time windows per SLO, and :meth:`SLOEngine.evaluate` produces
machine-readable :class:`SLOVerdict` rows with short- and long-window
burn rates (the standard multi-window alerting construction: paging only
when both windows burn avoids flapping on blips while still catching
fast burns quickly).

A ``page`` verdict is itself a trace event (``slo.page``), so a flight
recorder (:mod:`repro.obs.flightrec`) holding the same tracer dumps a
post-mortem bundle the moment an SLO starts paging.  The engine only
judges: what a page *does* is the serving pipeline's
(:class:`~repro.core.serving.pipeline.ServingPipeline` sheds requests
a paging scope covers, when configured to).

Timestamps are whatever simulated clock the emitting component stamped
(per-transport latency accounts, the tracer's sequence fallback), so
windows are per-emitter timelines merged - fine for a health signal,
and deterministic by construction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterable

from repro.obs.trace import NULL_TRACER, TraceEvent, TracerLike

#: operation kinds that count as requests for error-rate SLOs: good
#: unless the event's ``detail.outcome`` is ``"error:<Type>"``
OP_KINDS = frozenset({"predict", "predict_batch", "update", "flush",
                      "reset"})

#: trace kinds evaluated by staleness SLOs: ``failover`` carries the
#: serving follower's generation lag, ``stale_read`` is an injected
#: stale answer (always a staleness violation)
STALENESS_KINDS = frozenset({"failover", "stale_read"})

VALID_KINDS = ("latency", "error", "staleness")


@dataclass(frozen=True)
class SLO:
    """One declarative objective over a scope of the service.

    ``objective`` is the target good fraction per window - a latency SLO
    with ``objective=0.99`` and ``threshold_ns=100`` reads "p99 latency
    at most 100 simulated ns".  ``scope`` selects which events the SLO
    observes: a domain name (per-tenant SLOs), ``"shard:<id>"`` (per
    shard), or ``"*"`` for everything.
    """

    name: str
    kind: str
    scope: str = "*"
    objective: float = 0.99
    #: latency SLOs: a request is good iff its ``dur_ns`` is at most this
    threshold_ns: float = 0.0
    #: staleness SLOs: a failover answer is good iff its generation lag
    #: is at most this
    max_lag: int = 0
    #: which operation kinds a latency SLO times
    ops: tuple[str, ...] = ("predict", "predict_batch")
    short_window_ns: float = 2_000.0
    long_window_ns: float = 20_000.0

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r}; expected one of "
                f"{VALID_KINDS}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}")
        if self.short_window_ns <= 0 \
                or self.long_window_ns < self.short_window_ns:
            raise ValueError(
                "windows must satisfy 0 < short <= long, got "
                f"{self.short_window_ns} / {self.long_window_ns}")

    def matches(self, event: TraceEvent) -> bool:
        """Whether ``event`` falls inside this SLO's scope."""
        if self.scope == "*":
            return True
        if self.scope.startswith("shard:"):
            return event.shard == self.scope[len("shard:"):]
        return event.domain == self.scope


@dataclass
class SLOVerdict:
    """Machine-readable health of one SLO at evaluation time."""

    slo: str
    scope: str
    kind: str
    verdict: str          # "ok" | "warn" | "page"
    good: int             # long-window good observations
    bad: int              # long-window bad observations
    short_burn: float     # error-budget burn rate, short window
    long_burn: float      # error-budget burn rate, long window
    budget_remaining: float  # fraction of the long-window budget left

    def as_dict(self) -> dict[str, Any]:
        return {
            "slo": self.slo, "scope": self.scope, "kind": self.kind,
            "verdict": self.verdict, "good": self.good, "bad": self.bad,
            "short_burn": self.short_burn, "long_burn": self.long_burn,
            "budget_remaining": self.budget_remaining,
        }


def default_slos() -> tuple[SLO, ...]:
    """The stock SLO set the ``--slo`` driver flag evaluates.

    Thresholds come from the paper's cost model: a vDSO predict costs
    4.19 ns and a syscall 68 ns, so 100 simulated ns is "no predict
    waited behind more than a crossing's worth of work".
    """
    return (
        SLO("predict-latency", "latency", objective=0.99,
            threshold_ns=100.0),
        SLO("op-errors", "error", objective=0.95),
        SLO("replica-staleness", "staleness", objective=0.90, max_lag=2),
    )


class SLOEngine:
    """Folds trace events into rolling windows and verdicts per SLO."""

    #: long-window burn rate that turns a verdict ``warn``
    WARN_BURN = 1.0
    #: burn rate that (on both windows) turns a verdict ``page``
    PAGE_BURN = 4.0

    def __init__(self, slos: Iterable[SLO] | None = None,
                 tracer: TracerLike = NULL_TRACER) -> None:
        self.slos: tuple[SLO, ...] = (tuple(slos) if slos is not None
                                      else default_slos())
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names in {names}")
        #: tracer that receives ``slo.page`` events (give the engine the
        #: same tracer the service traces into and a flight recorder
        #: will snapshot the exact window that burned the budget)
        self.tracer = tracer
        #: each SLO's window as ascending timestamps: every sample's,
        #: and the bad samples' alone (counts are lengths and bisections)
        self._times: dict[str, list[float]] = {
            slo.name: [] for slo in self.slos}
        self._bad: dict[str, list[float]] = {
            slo.name: [] for slo in self.slos}
        #: the latest sample's timestamp
        self.latest_ns = 0.0
        #: a sample older than ``latest_ns`` arrived since the last sort
        self._unsorted = False
        #: SLOs currently paging - each pages one ``slo.page`` event per
        #: excursion, not one per evaluate() call
        self._paging: set[str] = set()

    # -- observation ---------------------------------------------------------

    def observe(self, slo_name: str, ts_ns: float, good: bool) -> None:
        """Record one good/bad observation against one SLO (the event
        mapping below uses this; live components may too)."""
        self._times[slo_name].append(ts_ns)
        if not good:
            self._bad[slo_name].append(ts_ns)
        if ts_ns > self.latest_ns:
            self.latest_ns = ts_ns
        elif ts_ns < self.latest_ns:
            self._unsorted = True

    def consume(self, events: Iterable[TraceEvent]) -> None:
        """Fold a trace stream into every matching SLO's window."""
        for event in events:
            for slo in self.slos:
                good = self._classify(slo, event)
                if good is not None and slo.matches(event):
                    self.observe(slo.name, event.ts_ns, good)

    @staticmethod
    def _classify(slo: SLO, event: TraceEvent) -> bool | None:
        """Map one event to good/bad under ``slo`` (None: not observed)."""
        if slo.kind == "latency":
            if event.kind not in slo.ops:
                return None
            return event.dur_ns <= slo.threshold_ns
        if slo.kind == "error":
            if event.kind == "fault":
                return False
            if event.kind in OP_KINDS:
                # a refused vDSO read names its refusal on its event
                outcome = (event.detail or {}).get("outcome", "")
                return not str(outcome).startswith("error:")
            return None
        # staleness
        if event.kind not in STALENESS_KINDS:
            return None
        if event.kind == "stale_read":
            return False
        lag = (event.detail or {}).get("lag", 0)
        return int(lag) <= slo.max_lag

    # -- evaluation ----------------------------------------------------------

    @staticmethod
    def _burn(good: int, bad: int, objective: float) -> float:
        """Burn rate: observed bad fraction over the budgeted fraction.

        1.0 means the error budget is being spent exactly as fast as the
        objective allows; above that the budget runs out early.
        """
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - objective)

    def evaluate(self, now: float | None = None) -> list[SLOVerdict]:
        """Verdicts for every SLO at ``now``, or at the latest observed
        timestamp if ``now`` is not given.

        Judged at exactly ``now``: a sample stamped after it is not
        counted (it stays for a later evaluation), and a page is
        stamped ``now``.  So a caller may judge a past instant after
        later samples arrived - the serving pipeline judges its
        evaluation grid lazily, when a submit asks - and windows age
        out while no sample arrives (a pipeline that sheds on a page
        records no sample for a shed request, so a page judged only at
        the last sample would never end).  ``now`` must not go back
        between calls: samples older than a window are dropped.  Emits
        one ``slo.page`` trace event per SLO per paging excursion.
        Each window is two sorted lists, so this costs six bisections
        and one deletion of the aged prefix per SLO; samples that
        arrived out of order are sorted first.
        """
        at = self.latest_ns if now is None else now
        if self._unsorted:
            # Only a merged trace or a late ``observe`` gets here; the
            # pipeline's stamps are its engine clock, monotone.
            for times in (*self._times.values(), *self._bad.values()):
                times.sort()
            self._unsorted = False
        verdicts: list[SLOVerdict] = []
        for slo in self.slos:
            times, bad_times = self._times[slo.name], self._bad[slo.name]
            cutoff = at - slo.long_window_ns
            del times[:bisect_left(times, cutoff)]
            del bad_times[:bisect_left(bad_times, cutoff)]
            end = bisect_right(times, at)
            bad = bisect_right(bad_times, at)
            good = end - bad
            # short <= long, so the short window is a suffix of both
            short_cutoff = at - slo.short_window_ns
            short_bad = bad - bisect_left(bad_times, short_cutoff)
            short_good = end - bisect_left(times, short_cutoff) - short_bad
            long_burn = self._burn(good, bad, slo.objective)
            short_burn = self._burn(short_good, short_bad, slo.objective)
            if short_burn >= self.PAGE_BURN and long_burn >= self.PAGE_BURN:
                verdict = "page"
            elif long_burn >= self.WARN_BURN or short_burn >= self.PAGE_BURN:
                verdict = "warn"
            else:
                verdict = "ok"
            if verdict == "page":
                if slo.name not in self._paging:
                    self._paging.add(slo.name)
                    self.tracer.record(
                        "slo.page", domain=slo.scope, transport="slo",
                        ts_ns=at,
                        detail={"slo": slo.name,
                                "short_burn": round(short_burn, 3),
                                "long_burn": round(long_burn, 3)})
            else:
                self._paging.discard(slo.name)
            verdicts.append(SLOVerdict(
                slo=slo.name, scope=slo.scope, kind=slo.kind,
                verdict=verdict, good=good, bad=bad,
                short_burn=short_burn, long_burn=long_burn,
                budget_remaining=max(0.0, 1.0 - long_burn),
            ))
        return verdicts
