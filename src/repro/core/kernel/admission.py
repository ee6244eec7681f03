"""Admission control: per-tenant quotas in front of the domains.

PRETZEL-style white-box multi-tenancy needs the service, not the
clients, to decide who may consume what.  A tenant is a
:class:`~repro.core.policy.ClientIdentity`; the
:class:`AdmissionController` sits between the client-facing entry
points (``connect``/``handle`` and the policy-checked
:class:`~repro.core.kernel.domain.DomainHandle` operations) and the
domains, enforcing a :class:`TenantQuota` per identity:

* ``max_domains`` - how many domains the tenant may register (implicit
  creation counts);
* ``update_budget`` - how many update records the tenant may deliver;
* ``predict_budget`` - how many predictions the tenant may consume.

Exhausting a quota raises
:class:`~repro.core.errors.QuotaExceededError`, which the
:class:`~repro.core.client.PSSClient` treats as
*fallback-eligible but not retryable*: retrying cannot un-exhaust a
budget, so the client degrades immediately instead of burning backoff
time.  In-kernel callers (the service's direct ``predict``/``update``
convenience methods) bypass admission, exactly as they bypass policy.

The default quota is unlimited on every axis, so a service without
explicit quotas behaves bit-identically to one with no controller.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import QuotaExceededError
from repro.core.policy import ClientIdentity


@dataclass(frozen=True)
class TenantQuota:
    """Resource ceilings for one tenant; ``None`` means unlimited."""

    max_domains: int | None = None
    update_budget: int | None = None
    predict_budget: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_domains", "update_budget", "predict_budget"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(
                    f"{name} must be non-negative or None, got {value}"
                )


#: shared default: no limits, no admission failures
UNLIMITED = TenantQuota()


@dataclass
class TenantUsage:
    """What one tenant has consumed so far."""

    domains: int = 0
    updates: int = 0
    predictions: int = 0
    #: requests the admission layer refused (any resource)
    rejections: int = 0


class TenantMeter:
    """One tenant's record: what it has used next to what it may use.

    ``quota`` is the tenant's *effective* quota - its explicit entry or
    the controller's default - kept current by
    :meth:`AdmissionController.set_quota` and by assigning
    :attr:`AdmissionController.default_quota`, so whoever holds the
    meter (a :class:`~repro.core.kernel.domain.DomainHandle` binds its
    identity's at its first charge) charges with a budget compare and
    an increment, without looking the tenant up again.
    """

    __slots__ = ("identity", "usage", "quota")

    def __init__(self, identity: ClientIdentity,
                 quota: TenantQuota) -> None:
        self.identity = identity
        self.usage = TenantUsage()
        self.quota = quota

    def charge_predict(self, count: int = 1) -> None:
        """Charge ``count`` predictions against the tenant's budget.

        A batch predict is admitted all-or-nothing: either the whole
        batch fits the remaining budget and is charged as ``count``
        scalar predicts, or nothing is charged and the batch is
        rejected.  (A scalar replay would instead serve the prefix that
        still fit - the all-or-nothing contract is the documented batch
        semantics, mirroring the whole-batch fault behaviour of the
        syscall transport.)  ``count=1`` is exactly the historical
        single-predict charge.
        """
        usage = self.usage
        budget = self.quota.predict_budget
        if budget is not None and usage.predictions + count > budget:
            usage.rejections += 1
            raise QuotaExceededError(self.identity, "predictions", budget)
        usage.predictions += count

    def charge_updates(self, count: int = 1) -> None:
        """Charge ``count`` update records against the tenant's budget.

        Unlike a batch of predictions, a batch of updates is admitted
        as far as it fits, which is what delivering its records one by
        one would do: the prefix the remaining budget covers is
        charged, and the rest is refused with one
        :class:`QuotaExceededError`, counted as one rejection, for the
        caller to drop (what was charged is the prefix that fit).
        Budgets are monotonic, so a record past the first refused one
        would have been refused too.
        """
        usage = self.usage
        budget = self.quota.update_budget
        if budget is not None and usage.updates + count > budget:
            usage.updates += max(budget - usage.updates, 0)
            usage.rejections += 1
            raise QuotaExceededError(self.identity, "updates", budget)
        usage.updates += count

    #: the one-record entry: the same body, charging one
    charge_update = charge_updates


class AdmissionController:
    """Quota bookkeeping and enforcement for every tenant of a service.

    Quotas are keyed by the full :class:`ClientIdentity` (uid and
    program), with ``default_quota`` applied to identities that have no
    explicit entry.  Usage is tracked per identity either way, so the
    ``tenants`` experiment can report consumption even for unlimited
    tenants.
    """

    def __init__(self, default_quota: TenantQuota = UNLIMITED,
                 quotas: dict[ClientIdentity, TenantQuota] | None = None,
                 ) -> None:
        self._default_quota = default_quota
        self._quotas: dict[ClientIdentity, TenantQuota] = dict(quotas or {})
        self._meters: dict[ClientIdentity, TenantMeter] = {}
        #: requests refused by :meth:`admit_request`
        self.sheds_enforced = 0

    # -- configuration -----------------------------------------------------

    @property
    def default_quota(self) -> TenantQuota:
        """Quota of every identity without an explicit entry."""
        return self._default_quota

    @default_quota.setter
    def default_quota(self, quota: TenantQuota) -> None:
        self._default_quota = quota
        for identity, meter in self._meters.items():
            if identity not in self._quotas:
                meter.quota = quota

    def set_quota(self, identity: ClientIdentity,
                  quota: TenantQuota) -> None:
        self._quotas[identity] = quota
        meter = self._meters.get(identity)
        if meter is not None:
            meter.quota = quota

    def admit_request(self, queue_depth: int, queue_limit: int,
                      paging: bool) -> str | None:
        """Serve-mode admission - the one shed rule: a shed reason, or
        ``None`` to admit.

        The serving pipeline asks for every request its handle
        admitted, with the target shard's queue depth and its own
        health verdict: a queue at its configured limit refuses with
        ``"queue_full"`` (0 is unbounded), and ``paging`` - the
        pipeline shedding on an SLO page that covers the target -
        refuses with ``"slo_page"``.  Every refusal increments
        :attr:`sheds_enforced`.
        """
        if queue_limit > 0 and queue_depth >= queue_limit:
            self.sheds_enforced += 1
            return "queue_full"
        if paging:
            self.sheds_enforced += 1
            return "slo_page"
        return None

    def quota_for(self, identity: ClientIdentity) -> TenantQuota:
        return self._quotas.get(identity, self._default_quota)

    def meter(self, identity: ClientIdentity) -> TenantMeter:
        """The tenant's :class:`TenantMeter`, created on first use
        (from then on :meth:`tenants` lists the identity)."""
        meter = self._meters.get(identity)
        if meter is None:
            meter = self._meters[identity] = TenantMeter(
                identity, self.quota_for(identity))
        return meter

    def usage_for(self, identity: ClientIdentity) -> TenantUsage:
        return self.meter(identity).usage

    def tenants(self) -> list[ClientIdentity]:
        """Every identity that has any usage or an explicit quota,
        sorted for stable reporting."""
        known = set(self._meters) | set(self._quotas)
        return sorted(known, key=lambda who: (who.uid, who.program))

    # -- enforcement -------------------------------------------------------

    def admit_domain(self, identity: ClientIdentity, name: str) -> None:
        """Charge one domain registration; raises when over quota."""
        meter = self.meter(identity)
        quota, usage = meter.quota, meter.usage
        if quota.max_domains is not None \
                and usage.domains >= quota.max_domains:
            usage.rejections += 1
            raise QuotaExceededError(
                identity, "domains", quota.max_domains,
                message=(
                    f"{identity.program} (uid {identity.uid}) may not "
                    f"register domain {name!r}: tenant already holds "
                    f"{usage.domains} of {quota.max_domains} domains"
                ),
            )
        usage.domains += 1

    def release_domain(self, identity: ClientIdentity) -> None:
        usage = self.usage_for(identity)
        if usage.domains > 0:
            usage.domains -= 1

    def charge_predict(self, identity: ClientIdentity,
                       count: int = 1) -> None:
        """:meth:`TenantMeter.charge_predict`, by identity."""
        self.meter(identity).charge_predict(count)

    def charge_update(self, identity: ClientIdentity) -> None:
        """:meth:`TenantMeter.charge_update`, by identity."""
        self.meter(identity).charge_update()

    # -- reporting ---------------------------------------------------------

    def usage_rows(self) -> list[tuple[ClientIdentity, TenantUsage,
                                       TenantQuota]]:
        """(identity, usage, quota) per known tenant, stably ordered."""
        return [
            (who, self.usage_for(who), self.quota_for(who))
            for who in self.tenants()
        ]
