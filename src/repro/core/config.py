"""Configuration for the Prediction System Service.

The defaults mirror the proof-of-concept in the paper (Section 3.2): up to 16
features, 1024 weight entries per feature, signed saturating weights, and a
zero decision threshold where a non-negative weighted sum means "predict
true".  The latency constants come from Section 3.3: a vDSO read costs
4.19 ns while a syscall costs 68 ns, a >16x difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigError

#: Maximum number of features the proof-of-concept service supports.
MAX_FEATURES = 16

#: Number of hashed weight entries per feature table.
DEFAULT_ENTRIES_PER_FEATURE = 1024

#: Paper-reported latency of a prediction served through the vDSO fast path.
VDSO_PREDICT_LATENCY_NS = 4.19

#: Paper-reported latency of a prediction served through a raw syscall.
SYSCALL_LATENCY_NS = 68.0

#: Default number of update records pooled into one batched syscall.
DEFAULT_UPDATE_BATCH_SIZE = 32


@dataclass(frozen=True)
class PSSConfig:
    """Immutable configuration for one prediction domain.

    Attributes:
        num_features: how many features the domain's model accepts
            (1..:data:`MAX_FEATURES`).
        entries_per_feature: size of each hashed weight table.
        weight_bits: signed saturating weight width in bits; weights are
            clamped to ``[-2**(weight_bits-1), 2**(weight_bits-1)-1]``.
        threshold: decision threshold; a weighted sum ``>= threshold`` is
            "predict true" (the paper's positive return value).
        training_margin: perceptron margin - train not only on
            mispredictions but whenever ``|sum| <= training_margin``
            (the classic Jimenez-Lin theta).  ``None`` derives the usual
            ``1.93 * num_features + 14`` rule of thumb.
        update_batch_size: updates pooled per batched syscall.
        seed: hash-salt seed so distinct domains decorrelate.
    """

    num_features: int = 2
    entries_per_feature: int = DEFAULT_ENTRIES_PER_FEATURE
    weight_bits: int = 8
    threshold: int = 0
    training_margin: int | None = None
    update_batch_size: int = DEFAULT_UPDATE_BATCH_SIZE
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.num_features <= MAX_FEATURES:
            raise ConfigError(
                f"num_features must be in 1..{MAX_FEATURES}, "
                f"got {self.num_features}"
            )
        if self.entries_per_feature < 1:
            raise ConfigError(
                f"entries_per_feature must be positive, "
                f"got {self.entries_per_feature}"
            )
        if not 2 <= self.weight_bits <= 32:
            raise ConfigError(
                f"weight_bits must be in 2..32, got {self.weight_bits}"
            )
        if self.update_batch_size < 1:
            raise ConfigError(
                f"update_batch_size must be positive, "
                f"got {self.update_batch_size}"
            )

    @property
    def weight_min(self) -> int:
        """Smallest representable weight value."""
        return -(1 << (self.weight_bits - 1))

    @property
    def weight_max(self) -> int:
        """Largest representable weight value."""
        return (1 << (self.weight_bits - 1)) - 1

    @property
    def effective_margin(self) -> int:
        """Training margin, deriving the Jimenez-Lin theta when unset."""
        if self.training_margin is not None:
            return self.training_margin
        return int(1.93 * self.num_features + 14)


@dataclass(frozen=True)
class LatencyModel:
    """Simulated cost, in nanoseconds, of crossing the service boundary.

    The defaults reproduce the paper's measurements.  Costs are charged to a
    :class:`repro.core.stats.LatencyAccount` by the transports so experiments
    can report where the time went.
    """

    vdso_predict_ns: float = VDSO_PREDICT_LATENCY_NS
    syscall_ns: float = SYSCALL_LATENCY_NS
    #: incremental cost of serializing one extra update record in a batch
    batch_record_ns: float = 1.0

    def __post_init__(self) -> None:
        if self.vdso_predict_ns <= 0 or self.syscall_ns <= 0:
            raise ConfigError("latencies must be positive")
        if self.batch_record_ns < 0:
            raise ConfigError("batch_record_ns must be non-negative")

    @property
    def speedup_factor(self) -> float:
        """How much faster the vDSO path is than a syscall (paper: >16x)."""
        return self.syscall_ns / self.vdso_predict_ns


@dataclass(frozen=True)
class ResilienceConfig:
    """Client-side degraded-mode behaviour (retry, backoff, breaker).

    Used by :class:`repro.core.client.PSSClient`.  Retries apply to
    syscall-path operations that raise a transient
    :class:`~repro.core.errors.TransportFault`; backoff is simulated time
    (charged to :class:`~repro.core.stats.ResilienceStats.backoff_ns`),
    growing geometrically per retry.  The circuit breaker trips to OPEN
    after ``breaker_threshold`` consecutive failed operations, serves
    static fallbacks for ``breaker_cooldown`` calls, then half-opens and
    lets one probe operation through to test whether the transport healed.

    Attributes:
        max_attempts: total tries per operation (1 = no retry).
        backoff_base_ns: simulated wait before the first retry.
        backoff_multiplier: geometric backoff growth per further retry.
        breaker_threshold: consecutive operation failures that trip the
            breaker OPEN.
        breaker_cooldown: degraded calls served while OPEN before the
            breaker half-opens.
    """

    max_attempts: int = 3
    backoff_base_ns: float = 200.0
    backoff_multiplier: float = 2.0
    breaker_threshold: int = 5
    breaker_cooldown: int = 32

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_ns < 0:
            raise ConfigError("backoff_base_ns must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 1:
            raise ConfigError("breaker_cooldown must be >= 1")


@dataclass(frozen=True)
class ServiceConfig:
    """Top-level service configuration shared by all domains."""

    latency: LatencyModel = field(default_factory=LatencyModel)
    #: maximum number of simultaneously registered domains
    max_domains: int = 256
    #: whether clients may create domains implicitly on first use
    implicit_domains: bool = True

    def __post_init__(self) -> None:
        if self.max_domains < 1:
            raise ConfigError("max_domains must be positive")
