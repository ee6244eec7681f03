"""Core Prediction System Service: the paper's primary contribution.

Public surface:

* :class:`PredictionService` / :class:`PSSClient` - the service and the
  user-side handle with the paper's ``predict``/``update``/``reset`` calls.
* :class:`PSSConfig`, :class:`ServiceConfig`, :class:`LatencyModel` -
  configuration.
* :class:`HashedPerceptron` and the model registry - prediction backends.
* Feature helpers (:func:`round_to_msf`, :class:`HistoryRegister`, ...).
* Policy (:class:`ClientIdentity`, :class:`DomainPolicy`).
* The sharded kernel (:mod:`repro.core.kernel`):
  :class:`ShardedService` and :class:`AdmissionController` with
  :class:`TenantQuota` budgets.

This package exports what a request runs through.  The subsystems a
request never touches are imported from their own modules: fault
injection (:mod:`repro.core.faults`), persistence
(:mod:`repro.core.persistence`: ``save_service`` / ``load_service``),
per-shard checkpoints (:mod:`repro.core.kernel.checkpoint`), live
resharding (:mod:`repro.core.kernel.migrate`) and follower replicas
(:mod:`repro.core.kernel.replica`).
"""

from repro.core.client import CircuitBreaker, PSSClient
from repro.core.config import (
    LatencyModel,
    MAX_FEATURES,
    PSSConfig,
    ResilienceConfig,
    ServiceConfig,
    SYSCALL_LATENCY_NS,
    VDSO_PREDICT_LATENCY_NS,
)
from repro.core.errors import (
    AdmissionError,
    ConfigError,
    DomainError,
    FeatureError,
    ModelError,
    PersistenceError,
    PolicyError,
    PSSError,
    QuotaExceededError,
    TransportClosedError,
    TransportError,
    TransportFault,
)
from repro.core.features import (
    FeatureVector,
    HistoryRegister,
    embed_category,
    embed_hierarchy,
    reciprocal_ratio,
    round_to_msf,
    rounded_vector,
)
from repro.core.kernel import (
    AdmissionController,
    Shard,
    ShardedService,
    TenantQuota,
    TenantUsage,
)
from repro.core.models import (
    PredictorModel,
    create_model,
    ensure_builtin_models,
    register_model,
    registered_models,
)
from repro.core.perceptron import HashedPerceptron
from repro.core.plans import (
    PlanCompiler,
    SpecializedPlan,
    compile_plan,
    plan_signature,
)
from repro.core.policy import (
    ClientIdentity,
    DomainPolicy,
    SharingMode,
    open_policy,
    private_policy,
)
from repro.core.service import Domain, DomainHandle, PredictionService
from repro.core.stats import (
    DomainReport,
    LatencyAccount,
    PredictionStats,
    ResilienceStats,
)
from repro.core.transport import (
    SyscallTransport,
    Transport,
    VdsoTransport,
    make_transport,
)

__all__ = [
    "CircuitBreaker",
    "PSSClient",
    "LatencyModel",
    "MAX_FEATURES",
    "PSSConfig",
    "ResilienceConfig",
    "ServiceConfig",
    "SYSCALL_LATENCY_NS",
    "VDSO_PREDICT_LATENCY_NS",
    "AdmissionError",
    "ConfigError",
    "DomainError",
    "FeatureError",
    "ModelError",
    "PersistenceError",
    "PolicyError",
    "PSSError",
    "QuotaExceededError",
    "TransportClosedError",
    "TransportError",
    "TransportFault",
    "AdmissionController",
    "Shard",
    "ShardedService",
    "TenantQuota",
    "TenantUsage",
    "FeatureVector",
    "HistoryRegister",
    "embed_category",
    "embed_hierarchy",
    "reciprocal_ratio",
    "round_to_msf",
    "rounded_vector",
    "PredictorModel",
    "create_model",
    "ensure_builtin_models",
    "register_model",
    "registered_models",
    "HashedPerceptron",
    "PlanCompiler",
    "SpecializedPlan",
    "compile_plan",
    "plan_signature",
    "ClientIdentity",
    "DomainPolicy",
    "SharingMode",
    "open_policy",
    "private_policy",
    "Domain",
    "DomainHandle",
    "PredictionService",
    "DomainReport",
    "LatencyAccount",
    "PredictionStats",
    "ResilienceStats",
    "SyscallTransport",
    "Transport",
    "VdsoTransport",
    "make_transport",
]
