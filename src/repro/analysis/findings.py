"""The unit of output of the invariant checker: a :class:`Finding`.

A finding pins one rule violation to a file and line.  Its
:meth:`Finding.fingerprint` is deliberately line-*content* based (rule
id, path, CRC-32 of the stripped source line) rather than line-number
based, so the fingerprints CI pins for the seeded fixture trees still
match after an unrelated edit shifts the lines.
"""

from __future__ import annotations

import zlib
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
    #: stripped text of the offending source line (fingerprint input and
    #: reviewer context in JSON reports)
    source_line: str = field(default="", compare=False)
    #: fix-it hint naming the owning component; presentation only -
    #: excluded from identity and fingerprint so pinned fingerprints
    #: stay stable when hint wording improves
    hint: str = field(default="", compare=False)
    #: extra 1-based lines (same file) where a pragma also suppresses
    #: this finding - e.g. the flagged function's ``def`` line and its
    #: decorator lines for an interprocedural finding anchored at a
    #: call site inside it
    pragma_lines: tuple = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, "
                f"got {self.severity!r}"
            )

    def fingerprint(self) -> int:
        """Line-drift-stable identity (what the fixture smoke pins)."""
        payload = f"{self.rule_id}|{self.path}|{self.source_line}"
        return zlib.crc32(payload.encode("utf-8"))

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
            "fingerprint": self.fingerprint(),
        }

    def render(self) -> str:
        """``path:line: RULE severity message`` report form, with the
        fix-it hint indented underneath when the rule ships one."""
        text = (f"{self.path}:{self.line}: {self.rule_id} "
                f"{self.severity}: {self.message}")
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text
