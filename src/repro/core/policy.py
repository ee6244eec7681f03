"""Access and sharing policy for the service (paper Section 3.3).

"By utilising a vDSO that connects to kernel space, system policy can be
enforced around the use of PSS, for example, to restrict which users or
which programs can use the service and how information is shared across
those programs."

The model here mirrors classic UNIX thinking: callers carry a
:class:`ClientIdentity` (uid + program name); each domain has a
:class:`DomainPolicy` declaring its owner, its sharing mode, and optional
allow-lists.  Every call that names a domain is checked against the
policy; a handle reads the verdicts for its identity once per policy
object rather than re-deriving them per call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.errors import DomainError, PolicyError


@dataclass(frozen=True)
class ClientIdentity:
    """Who is calling the service: a user id and a program name."""

    uid: int = 0
    program: str = "unknown"

    @classmethod
    def kernel(cls) -> "ClientIdentity":
        """Identity used by in-kernel callers (uid 0, kernel program)."""
        return cls(uid=0, program="kernel")


class SharingMode(enum.Enum):
    """How a domain's learned state is shared across callers."""

    #: only the owning identity may predict or update
    PRIVATE = "private"
    #: any caller on the allow-lists (or anyone, if lists empty) may use it
    SHARED = "shared"
    #: anyone may predict, but only the owner may update or reset
    READ_ONLY = "read-only"


@dataclass(frozen=True)
class DomainPolicy:
    """Policy attached to one prediction domain.

    Immutable: a domain's policy changes by assigning it another
    :class:`DomainPolicy`, which is what lets a
    :class:`~repro.core.kernel.domain.DomainHandle` keep the verdicts
    it read for as long as ``domain.policy`` is the same object.
    """

    owner: ClientIdentity = field(default_factory=ClientIdentity.kernel)
    mode: SharingMode = SharingMode.SHARED
    #: empty allow-lists mean "no restriction" in SHARED mode
    allowed_uids: frozenset[int] = frozenset()
    allowed_programs: frozenset[str] = frozenset()

    def _on_allow_lists(self, who: ClientIdentity) -> bool:
        if self.allowed_uids and who.uid not in self.allowed_uids:
            return False
        if (self.allowed_programs
                and who.program not in self.allowed_programs):
            return False
        return True

    def _is_owner(self, who: ClientIdentity) -> bool:
        return who == self.owner

    def may_predict(self, who: ClientIdentity) -> bool:
        if self.mode is SharingMode.PRIVATE:
            return self._is_owner(who)
        if self.mode is SharingMode.READ_ONLY:
            return True
        return self._is_owner(who) or self._on_allow_lists(who)

    def may_update(self, who: ClientIdentity) -> bool:
        if self.mode is SharingMode.PRIVATE:
            return self._is_owner(who)
        if self.mode is SharingMode.READ_ONLY:
            return self._is_owner(who)
        return self._is_owner(who) or self._on_allow_lists(who)

    def may_reset(self, who: ClientIdentity) -> bool:
        """Resets are destructive; owner-only outside open SHARED mode."""
        if self.mode is SharingMode.SHARED and not self.allowed_uids \
                and not self.allowed_programs:
            return True
        return self._is_owner(who)

    def check_predict(self, who: ClientIdentity, domain: str) -> None:
        if not self.may_predict(who):
            raise PolicyError(
                f"{who.program} (uid {who.uid}) may not predict "
                f"on domain {domain!r}"
            )

    def check_update(self, who: ClientIdentity, domain: str) -> None:
        if not self.may_update(who):
            raise PolicyError(
                f"{who.program} (uid {who.uid}) may not update "
                f"domain {domain!r}"
            )

    def check_reset(self, who: ClientIdentity, domain: str) -> None:
        if not self.may_reset(who):
            raise PolicyError(
                f"{who.program} (uid {who.uid}) may not reset "
                f"domain {domain!r}"
            )


class _RemovedPolicy(DomainPolicy):
    """What :meth:`ShardedService.remove_domain` leaves in a domain's
    policy slot: nobody may do anything, and the check says why.  Every
    handle re-reads ``domain.policy`` on every call, so every operation
    under a handle that outlived its domain raises :class:`DomainError`
    with no test of its own."""

    def may_predict(self, who: ClientIdentity) -> bool:
        return False

    may_update = may_reset = may_predict

    def check_predict(self, who: ClientIdentity, domain: str) -> None:
        raise DomainError(f"unknown domain {domain!r}")

    check_update = check_reset = check_predict


REMOVED = _RemovedPolicy()


def open_policy() -> DomainPolicy:
    """The default: a shared domain with no restrictions."""
    return DomainPolicy()


def private_policy(owner: ClientIdentity) -> DomainPolicy:
    """A domain only its owner may touch."""
    return DomainPolicy(owner=owner, mode=SharingMode.PRIVATE)
