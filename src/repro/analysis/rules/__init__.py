"""Rule registry: every invariant the checker enforces, by id.

Rules self-describe (id, description, severity); the registry is the
single source the CLI, the docs table, and the tests iterate.  Adding a
rule means writing the class and listing it here - the engine discovers
everything else.
"""

from __future__ import annotations

from typing import Iterable, Type

from repro.analysis.rules.base import Rule
from repro.analysis.rules.contracts import (
    NoSwallowedExceptionsRule,
    ReplicaReadOnlyRule,
    TransportCloseRule,
)
from repro.analysis.rules.determinism import (
    NoWallClockRule,
    SeededRngOnlyRule,
)
from repro.analysis.rules.plans import ImmutablePlanRule
from repro.analysis.rules.serving import BlockingKernelCallRule
from repro.analysis.rules.spans import SpanDisciplineRule
from repro.analysis.rules.tracing import (
    NoDeadTraceKindsRule,
    RegisteredTraceKindsRule,
)

#: every shipped rule class, in rule-id order
RULE_CLASSES: tuple[Type[Rule], ...] = (
    TransportCloseRule,         # CTR001
    NoWallClockRule,            # DET001
    SeededRngOnlyRule,          # DET002
    NoSwallowedExceptionsRule,  # EXC001
    SpanDisciplineRule,         # OBS001
    ImmutablePlanRule,          # PLN001
    BlockingKernelCallRule,     # QUE001
    ReplicaReadOnlyRule,        # REP001
    RegisteredTraceKindsRule,   # TRC001
    NoDeadTraceKindsRule,       # TRC002
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule (one analysis run)."""
    return [cls() for cls in RULE_CLASSES]


def rules_by_id() -> dict[str, Type[Rule]]:
    return {cls.rule_id: cls for cls in RULE_CLASSES}


def select_rules(ids: Iterable[str] | None) -> list[Rule]:
    """Instances for ``ids`` (all rules when None).

    Raises ``KeyError`` naming the unknown id when one does not exist.
    """
    if ids is None:
        return all_rules()
    registry = rules_by_id()
    selected = []
    for rule_id in ids:
        if rule_id not in registry:
            raise KeyError(rule_id)
        selected.append(registry[rule_id]())
    return selected


__all__ = [
    "RULE_CLASSES",
    "Rule",
    "all_rules",
    "rules_by_id",
    "select_rules",
]
