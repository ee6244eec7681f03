"""Core Prediction System Service: the paper's primary contribution.

Public surface:

* :class:`PredictionService` / :class:`PSSClient` - the service and the
  user-side handle with the paper's ``predict``/``update``/``reset`` calls.
* :class:`PSSConfig`, :class:`ServiceConfig`, :class:`LatencyModel` -
  configuration.
* :class:`HashedPerceptron` and the model registry - prediction backends.
* Feature helpers (:func:`round_to_msf`, :class:`HistoryRegister`, ...).
* Policy (:class:`ClientIdentity`, :class:`DomainPolicy`) and persistence
  (:func:`save_service`, :func:`load_service`).
* The sharded kernel (:mod:`repro.core.kernel`):
  :class:`ShardedService`, :class:`AdmissionController` with
  :class:`TenantQuota` budgets, and the per-shard
  :class:`ShardedCheckpointManager`.
"""

from repro.core.client import CircuitBreaker, PSSClient, ResilientClient
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
from repro.core.faults import FaultInjector, FaultPlan, FaultStats
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
    ShardedCheckpointManager,
    ShardedService,
    ShardView,
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
from repro.core.persistence import (
    load_service,
    restore_service,
    save_service,
    snapshot_service,
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
    "ResilientClient",
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
    "ShardedCheckpointManager",
    "ShardedService",
    "ShardView",
    "TenantQuota",
    "TenantUsage",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
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
    "load_service",
    "restore_service",
    "save_service",
    "snapshot_service",
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
