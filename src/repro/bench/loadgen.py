"""Synthetic client populations for the event-driven serving pipeline.

Two personalities, both deterministic in the seed:

* **Open-loop** (the scaling mode): the whole client population is
  modelled as one Poisson arrival process whose rate is ``clients x
  per_client_rate``.  That is what lets one simulation sweep 10k to 1M
  simulated clients - offered load scales with the population while the
  process count stays 1.  Arrivals never wait for completions, so an
  overloaded service sees its queues (and sheds) grow exactly as an
  open-world deployment would.
* **Closed-loop** (the validation mode): one sim process per client,
  each submitting, ``yield``-waiting on the future, thinking, and
  submitting again.  Requests can never outrun completions, which makes
  this the mode the bit-identity tests drive (a single closed-loop
  client at batch window 0 is literally the synchronous call sequence).

Domain popularity is Zipf-skewed (rank ``k`` drawn with weight
``1/(k+1)^s``): a handful of hot domains concentrate load onto their
shards, which is what makes per-shard queues and back-pressure visible
in the sweep instead of averaging away.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.core.errors import ConfigError
from repro.core.serving.future import CompletionFuture
from repro.core.serving.pipeline import ServingPipeline
from repro.sim.process import ProcessBody, spawn
from repro.sim.rng import RngStreams


@dataclass(frozen=True)
class LoadSpec:
    """One load point: a client population and its request mix."""

    #: simulated client population; in open-loop mode this scales the
    #: aggregate arrival rate rather than spawning processes
    clients: int = 10_000
    #: requests per simulated ns per client (the knob that turns a
    #: population into offered load)
    per_client_rate: float = 1e-7
    #: total requests the generator issues
    requests: int = 3_000
    #: prediction domains (Zipf-ranked by popularity)
    domains: int = 12
    #: Zipf skew exponent; larger concentrates load on hot domains
    zipf_s: float = 1.1
    #: fraction of requests that are updates rather than predicts
    update_fraction: float = 0.2
    #: feature values are drawn from ``range(feature_space)``
    feature_space: int = 16

    def __post_init__(self) -> None:
        if self.clients < 1 or self.requests < 1 or self.domains < 1:
            raise ConfigError(
                "clients, requests, and domains must all be >= 1")
        if self.per_client_rate <= 0:
            raise ConfigError(
                f"per_client_rate must be > 0, got {self.per_client_rate}")
        if not 0.0 <= self.update_fraction <= 1.0:
            raise ConfigError(
                f"update_fraction must be in [0, 1], got "
                f"{self.update_fraction}")

    @property
    def offered_rate(self) -> float:
        """Aggregate offered load, requests per simulated ns."""
        return self.clients * self.per_client_rate

    def domain_names(self) -> list[str]:
        """The Zipf-ranked domain names (rank 0 is hottest)."""
        return [f"dom-{rank:02d}" for rank in range(self.domains)]


class LoadGenerator:
    """Drives one :class:`ServingPipeline` with a :class:`LoadSpec`.

    It keeps no outcome counters: what was submitted, served, shed or
    failed is the pipeline's to say (``pipeline.snapshot()``).
    """

    def __init__(self, spec: LoadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.streams = RngStreams(seed)
        # Zipf cumulative weights for O(log domains) rank picks.
        self._cumulative: list[float] = []
        total = 0.0
        for rank in range(spec.domains):
            total += 1.0 / (rank + 1) ** spec.zipf_s
            self._cumulative.append(total)
        self._names = spec.domain_names()

    # -- request synthesis --------------------------------------------------

    def _pick_domain(self, roll: float) -> str:
        """Map a uniform [0, 1) roll onto the Zipf popularity ranks."""
        point = roll * self._cumulative[-1]
        return self._names[bisect_left(self._cumulative, point)]

    def _submit_one(self, pipeline: ServingPipeline,
                    domain_roll: float, op_roll: float,
                    features: list[int], direction_roll: float
                    ) -> CompletionFuture:
        domain = self._pick_domain(domain_roll)
        if op_roll < self.spec.update_fraction:
            return pipeline.submit(domain, features, op="update",
                                   direction=direction_roll < 0.7)
        return pipeline.submit(domain, features)

    # -- open loop ----------------------------------------------------------

    def start_open_loop(self, pipeline: ServingPipeline) -> None:
        """Spawn the aggregate Poisson arrival process on the
        pipeline's engine; ``pipeline.run()`` then plays it out."""
        spawn(pipeline.engine, self._arrivals(pipeline),
              name="loadgen-open")

    def _arrivals(self, pipeline: ServingPipeline) -> ProcessBody:
        spec = self.spec
        rate = spec.offered_rate
        arrival = self.streams.stream("loadgen.arrivals")
        pick = self.streams.stream("loadgen.domains")
        ops = self.streams.stream("loadgen.ops")
        feats = self.streams.stream("loadgen.features")
        for _ in range(spec.requests):
            yield arrival.expovariate(rate)
            features = [feats.randrange(spec.feature_space),
                        feats.randrange(spec.feature_space)]
            self._submit_one(pipeline, pick.random(), ops.random(),
                             features, ops.random())

    # -- closed loop --------------------------------------------------------

    def start_closed_loop(self, pipeline: ServingPipeline,
                          requests_per_client: int | None = None) -> None:
        """Spawn one sim process per client (keep ``spec.clients``
        small in this mode), splitting ``spec.requests`` evenly with
        the remainder on the lowest-numbered clients."""
        clients = self.spec.clients
        if requests_per_client is None:
            base, extra = divmod(self.spec.requests, clients)
            shares = [base + (index < extra) for index in range(clients)]
        else:
            shares = [requests_per_client] * clients
        for index, share in enumerate(shares):
            if share:
                spawn(pipeline.engine,
                      self._client(pipeline, index, share),
                      name=f"loadgen-client-{index}")

    def _client(self, pipeline: ServingPipeline, index: int,
                count: int) -> ProcessBody:
        spec = self.spec
        rng = self.streams.stream(f"loadgen.client.{index}")
        think_mean = 1.0 / spec.per_client_rate
        for _ in range(count):
            features = [rng.randrange(spec.feature_space),
                        rng.randrange(spec.feature_space)]
            future = self._submit_one(pipeline, rng.random(),
                                      rng.random(), features,
                                      rng.random())
            yield future.wait()
            yield rng.expovariate(1.0 / think_mean)
