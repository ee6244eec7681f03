"""Exception hierarchy for the Prediction System Service.

All library-specific exceptions derive from :class:`PSSError` so callers can
catch one base class at the service boundary.  Exceptions are raised for
programming errors (bad feature vectors, unknown domains) and for policy
violations; they are never used for prediction outcomes, which are ordinary
return values.
"""

from __future__ import annotations


class PSSError(Exception):
    """Base class for all Prediction System Service errors."""

    #: update records handed over with the refused operation and not
    #: applied, set where records are delivered (``DomainHandle
    #: .update_batch``, a fault-injected flush); 0 on any other error
    lost_records = 0


class ConfigError(PSSError):
    """A configuration value is out of its documented range."""


class FeatureError(PSSError):
    """A feature vector is malformed (wrong length, non-integer entries).

    A batch of update records (``update_batch`` at any layer, which is
    how a vDSO flush delivers) refuses only the records that are
    malformed: every other record is applied, in order, and the first
    record's error is raised once after the batch with ``refused``
    holding the positions of the records that were not applied.
    """

    #: positions, in the batch handed in, of the records refused
    refused: tuple[int, ...] = ()


class DomainError(PSSError):
    """A prediction domain was not found or already exists."""


class PolicyError(PSSError):
    """The caller is not permitted to perform the requested operation."""


class AdmissionError(PSSError):
    """The admission layer refused a request before it reached a domain."""


class QuotaExceededError(AdmissionError):
    """A tenant ran out of an admission-controlled resource.

    ``identity`` is the :class:`~repro.core.policy.ClientIdentity` that
    exhausted its quota, ``resource`` names the budget
    ("domains" / "updates" / "predictions"), ``limit`` is its ceiling.
    Quota exhaustion is *not* transient - retrying cannot un-exhaust a
    budget - so the :class:`~repro.core.client.PSSClient` serves
    its static fallback immediately instead of retrying.
    """

    def __init__(self, identity, resource: str, limit: int,
                 message: str | None = None) -> None:
        super().__init__(
            message
            or (f"{getattr(identity, 'program', identity)} "
                f"(uid {getattr(identity, 'uid', '?')}) exceeded its "
                f"{resource} quota of {limit}")
        )
        self.identity = identity
        self.resource = resource
        self.limit = limit


class TransportError(PSSError):
    """A transport was used in an unsupported way (e.g. write via vDSO)."""


class TransportClosedError(TransportError):
    """A closed transport was asked to predict, update, reset, or flush."""


class TransportFault(TransportError):
    """A transient boundary-crossing failure (simulated ``EAGAIN``/``EINTR``).

    Raised by transports under fault injection when a syscall crossing
    fails.  ``errno_name`` names the simulated errno.  Transient: the
    same operation may succeed when retried, which is what the
    :class:`repro.core.client.PSSClient` retry path does.
    """

    def __init__(self, errno_name: str = "EAGAIN",
                 message: str | None = None) -> None:
        super().__init__(
            message
            or f"simulated {errno_name} while crossing the service boundary"
        )
        self.errno_name = errno_name


class ShardDownError(TransportFault):
    """The shard owning the target domain is crashed and cannot serve.

    Raised when an operation reaches a shard whose primary is down and
    no replica can absorb it: updates and resets always fail (replicas
    are read-only), and predictions fail only when no follower holds
    the domain.  Modeled as a :class:`TransportFault` (simulated
    ``EHOSTDOWN``) so the client's retry/breaker/fallback
    machinery treats a crashed shard like any other transient boundary
    failure - a later retry may land after a
    :class:`~repro.core.kernel.replica.ReplicaPromoter` revived the
    shard.
    """

    def __init__(self, shard_id: int, domain: str = "") -> None:
        super().__init__(
            "EHOSTDOWN",
            f"shard {shard_id} is down"
            + (f" (domain {domain!r})" if domain else ""),
        )
        self.shard_id = shard_id
        self.domain = domain


class RequestShedError(TransportFault):
    """Serve-mode back-pressure refused the request before dispatch.

    Raised (through a :class:`~repro.core.serving.CompletionFuture`)
    when the serving pipeline sheds a submitted request - either the
    target shard's queue is at its depth limit (``reason``
    ``"queue_full"``) or the pipeline sheds on SLO pages and a paging
    scope covers the request (``reason`` ``"slo_page"``).  Modeled as a
    :class:`TransportFault` (simulated ``EAGAIN``) so the
    :class:`~repro.core.client.PSSClient` degraded ladder treats
    a shed exactly like any other transient boundary refusal: the
    caller gets its static fallback and may resubmit once the queue
    drains.
    """

    def __init__(self, reason: str = "queue_full", domain: str = "",
                 shard_id: int = 0) -> None:
        super().__init__(
            "EAGAIN",
            f"request shed ({reason}) for shard {shard_id}"
            + (f" (domain {domain!r})" if domain else ""),
        )
        self.reason = reason
        self.domain = domain
        self.shard_id = shard_id


class ModelError(PSSError):
    """A predictor model violated the :class:`PredictorModel` contract."""


class PersistenceError(PSSError):
    """A snapshot could not be serialized or restored."""
