"""Reference (pre-refactor) implementations for identity testing.

Two frozen generations live here:

* :class:`ReferenceWeightMatrix` / :class:`ReferencePerceptron` preserve,
  verbatim, the plain list-of-lists weight matrix and the re-hashing
  perceptron update path the hot-path acceleration layer replaced.  The
  accelerated stack in :mod:`repro.core.weights` /
  :mod:`repro.core.perceptron` must stay *bit-identical* to these - same
  scores, same trained weights, same snapshots - which
  ``tests/core/test_fastpath_identity.py`` checks property-style, and
  ``perf/checks.py`` replays the benchmark's scores against.
* :class:`ReferenceService` (with :class:`ReferenceDomain` /
  :class:`ReferenceHandle`) preserves the pre-kernel *monolithic*
  ``PredictionService``: one flat dict of domains, no shards, no
  admission.  The layered :class:`~repro.core.kernel.service
  .ShardedService` in single-shard mode must stay bit-identical to this
  - same scores, stats, generation counters, and snapshots - which
  ``tests/core/test_kernel_identity.py`` checks property-style.

Do not "optimize" this file: its value is being the slow, obviously
correct specification.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.config import PSSConfig, ServiceConfig
from repro.core.errors import DomainError, FeatureError
from repro.core.hashing import table_index
from repro.core.models import create_model, ensure_builtin_models
from repro.core.policy import ClientIdentity, open_policy
from repro.core.stats import PredictionStats
from repro.core.weights import saturate


class ReferenceWeightMatrix:
    """The seed repo's WeightMatrix: list-of-lists, hash-per-call."""

    def __init__(self, config: PSSConfig) -> None:
        self._config = config
        self._rows = [
            [0] * config.entries_per_feature
            for _ in range(config.num_features)
        ]
        self._bias = 0

    @property
    def config(self) -> PSSConfig:
        return self._config

    @property
    def bias(self) -> int:
        return self._bias

    def _check_features(self, features: Iterable[int]) -> list[int]:
        feats = list(features)
        if len(feats) != self._config.num_features:
            raise FeatureError(
                f"expected {self._config.num_features} features, "
                f"got {len(feats)}"
            )
        for value in feats:
            if not isinstance(value, int) or isinstance(value, bool):
                raise FeatureError(
                    f"features must be ints, got {value!r}"
                )
        return feats

    def indices(self, features: Iterable[int]) -> list[int]:
        feats = self._check_features(features)
        entries = self._config.entries_per_feature
        seed = self._config.seed
        return [
            table_index(i, value, entries, seed)
            for i, value in enumerate(feats)
        ]

    def selected(self, features: Iterable[int]) -> list[int]:
        return [
            self._rows[row][col]
            for row, col in enumerate(self.indices(features))
        ]

    def dot(self, features: Iterable[int]) -> int:
        return self._bias + sum(self.selected(features))

    def adjust(self, features: Iterable[int], delta: int) -> None:
        lo, hi = self._config.weight_min, self._config.weight_max
        for row, col in enumerate(self.indices(features)):
            self._rows[row][col] = saturate(
                self._rows[row][col] + delta, lo, hi
            )
        self._bias = saturate(self._bias + delta, lo, hi)

    def reset_entry(self, features: Iterable[int]) -> None:
        for row, col in enumerate(self.indices(features)):
            self._rows[row][col] = 0

    def reset_all(self) -> None:
        for row in self._rows:
            for col in range(len(row)):
                row[col] = 0
        self._bias = 0

    def nonzero_count(self) -> int:
        count = 1 if self._bias else 0
        for row in self._rows:
            count += sum(1 for w in row if w)
        return count

    def iter_weights(self):
        for row in self._rows:
            yield from row
        yield self._bias

    def to_state(self) -> dict:
        return {
            "rows": [list(row) for row in self._rows],
            "bias": self._bias,
        }

    def load_state(self, state: dict) -> None:
        rows = state["rows"]
        if len(rows) != len(self._rows) or any(
            len(row) != self._config.entries_per_feature for row in rows
        ):
            raise FeatureError("snapshot shape does not match configuration")
        lo, hi = self._config.weight_min, self._config.weight_max
        self._rows = [
            [saturate(int(w), lo, hi) for w in row] for row in rows
        ]
        self._bias = saturate(int(state["bias"]), lo, hi)


class ReferencePerceptron:
    """The seed repo's HashedPerceptron: score() re-hashes inside update."""

    def __init__(self, config: PSSConfig) -> None:
        self.config = config
        self._weights = ReferenceWeightMatrix(config)

    @property
    def weights(self) -> ReferenceWeightMatrix:
        return self._weights

    def score(self, features: Sequence[int]) -> int:
        return self._weights.dot(features)

    def predict(self, features: Sequence[int]) -> int:
        return self.score(features)

    def decide(self, features: Sequence[int]) -> bool:
        return self.score(features) >= self.config.threshold

    def update(self, features: Sequence[int], direction: bool) -> None:
        score = self.score(features)
        agreed = (score >= self.config.threshold) == direction
        if agreed and abs(score) > self.config.effective_margin:
            return
        self._weights.adjust(features, 1 if direction else -1)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        if reset_all:
            self._weights.reset_all()
        else:
            self._weights.reset_entry(features)

    def to_state(self) -> dict:
        return {"kind": "perceptron", "weights": self._weights.to_state()}

    def load_state(self, state: dict) -> None:
        self._weights.load_state(state["weights"])


class ReferenceDomain:
    """The pre-kernel monolith's Domain, minus the shard fields."""

    def __init__(self, name: str, config: PSSConfig, model,
                 model_name: str, policy=None) -> None:
        self.name = name
        self.config = config
        self.model = model
        self.model_name = model_name
        self.policy = policy or open_policy()
        self.stats = PredictionStats()
        self.generation_offset = 0

    @property
    def generation(self) -> int:
        model_generation = getattr(self.model, "generation", None)
        if model_generation is None:
            return self.generation_offset
        return self.generation_offset + model_generation

    def predict(self, features: Sequence[int]) -> int:
        score = self.model.predict(features)
        self.stats.record_prediction(score, self.config.threshold)
        return score

    def record_cached_prediction(self, score: int) -> None:
        self.stats.record_cached_prediction(score, self.config.threshold)

    def update(self, features: Sequence[int], direction: bool) -> None:
        self.model.update(features, direction)
        if getattr(self.model, "generation", None) is None:
            self.generation_offset += 1
        self.stats.record_update(direction)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        self.model.reset(features, reset_all)
        if getattr(self.model, "generation", None) is None:
            self.generation_offset += 1
        self.stats.record_reset()


class ReferenceHandle:
    """The pre-kernel monolith's DomainHandle: policy check only."""

    def __init__(self, domain: ReferenceDomain,
                 identity: ClientIdentity) -> None:
        self._domain = domain
        self._identity = identity

    @property
    def domain_name(self) -> str:
        return self._domain.name

    @property
    def threshold(self) -> int:
        return self._domain.config.threshold

    @property
    def generation(self) -> int:
        return self._domain.generation

    def predict(self, features: Sequence[int]) -> int:
        self._domain.policy.check_predict(self._identity,
                                          self._domain.name)
        return self._domain.predict(features)

    def record_cached_prediction(self, score: int) -> None:
        self._domain.policy.check_predict(self._identity,
                                          self._domain.name)
        self._domain.record_cached_prediction(score)

    def update(self, features: Sequence[int], direction: bool) -> None:
        self._domain.policy.check_update(self._identity,
                                         self._domain.name)
        self._domain.update(features, direction)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        self._domain.policy.check_reset(self._identity,
                                        self._domain.name)
        self._domain.reset(features, reset_all)


class ReferenceService:
    """The pre-kernel monolithic PredictionService: one flat domain dict.

    Frozen from the pre-refactor ``core/service.py``; the domain
    management, resolution, and bookkeeping semantics here are the
    specification the single-shard :class:`~repro.core.kernel.service
    .ShardedService` must match bit for bit.  Client/transport wiring is
    intentionally absent - it was moved, not changed, and the transports
    are shared code either way.
    """

    def __init__(self, config: ServiceConfig | None = None) -> None:
        ensure_builtin_models()
        self.config = config or ServiceConfig()
        self._domains: dict[str, ReferenceDomain] = {}

    def create_domain(self, name: str,
                      config: PSSConfig | None = None,
                      model: str = "perceptron",
                      policy=None) -> ReferenceDomain:
        if name in self._domains:
            raise DomainError(f"domain {name!r} already exists")
        if len(self._domains) >= self.config.max_domains:
            raise DomainError(
                f"service is full ({self.config.max_domains} domains)"
            )
        domain_config = config or PSSConfig()
        domain = ReferenceDomain(
            name=name,
            config=domain_config,
            model=create_model(model, domain_config),
            model_name=model,
            policy=policy,
        )
        self._domains[name] = domain
        return domain

    def domain(self, name: str) -> ReferenceDomain:
        try:
            return self._domains[name]
        except KeyError:
            raise DomainError(f"unknown domain {name!r}") from None

    def has_domain(self, name: str) -> bool:
        return name in self._domains

    def remove_domain(self, name: str) -> None:
        if name not in self._domains:
            raise DomainError(f"unknown domain {name!r}")
        del self._domains[name]

    def domain_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._domains))

    def handle(self, name: str,
               identity: ClientIdentity | None = None,
               config: PSSConfig | None = None,
               model: str = "perceptron") -> ReferenceHandle:
        if name not in self._domains:
            if not self.config.implicit_domains:
                raise DomainError(f"unknown domain {name!r}")
            self.create_domain(name, config=config, model=model)
        return ReferenceHandle(self._domains[name],
                               identity or ClientIdentity())

    def predict(self, name: str, features: Sequence[int]) -> int:
        return self.domain(name).predict(features)

    def update(self, name: str, features: Sequence[int],
               direction: bool) -> None:
        self.domain(name).update(features, direction)

    def reset(self, name: str, features: Sequence[int],
              reset_all: bool = False) -> None:
        self.domain(name).reset(features, reset_all)
