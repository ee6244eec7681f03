"""The unit of output of the invariant checker: a :class:`Finding`,
one rule violation pinned to a file and line."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: finding severities, most severe first (sort order for reports)
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    severity: str = "error"
    #: stripped text of the offending source line (reviewer context in
    #: JSON reports)
    source_line: str = field(default="", compare=False)
    #: fix-it hint naming the owning component; presentation only,
    #: excluded from identity
    hint: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.rule_id, self.message)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "source_line": self.source_line,
            "hint": self.hint,
        }

    def render(self) -> str:
        """``path:line: RULE severity message`` report form, with the
        fix-it hint indented underneath when the rule ships one."""
        text = (f"{self.path}:{self.line}: {self.rule_id} "
                f"{self.severity}: {self.message}")
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
