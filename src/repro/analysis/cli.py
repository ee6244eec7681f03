"""``python -m repro check``: the invariant gate CI runs.

Exit codes follow the lint convention the rest of the toolchain uses:

* ``0`` - no findings (after pragma suppression);
* ``1`` - at least one finding (each printed as ``path:line: RULE
  severity: message``);
* ``2`` - the checker itself could not run (bad flags, unknown rule).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.analysis.engine import Project, run_rules
from repro.analysis.findings import Finding
from repro.analysis.rules import select_rules

#: schema version of the JSON report (and the CI artifact); 4: a
#: finding no longer carries a hash of its source line
REPORT_VERSION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=("Project-specific invariant checker: determinism "
                     "lint, trace-registry audit, transport "
                     "contract checks (see docs/INVARIANTS.md)"),
    )
    parser.add_argument("--root", metavar="DIR", default=".",
                        help="project root to analyze (default: cwd); "
                             "the package is DIR/src/repro when "
                             "present, else DIR itself")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format on stdout (default: text)")
    parser.add_argument("--output", metavar="PATH",
                        help="additionally write the JSON report to "
                             "PATH (for CI artifacts), whatever "
                             "--format says")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list every registered rule and exit")
    return parser


def _report(root: Path, project: Project, findings: list[Finding],
            suppressed: int) -> dict[str, Any]:
    return {
        "version": REPORT_VERSION,
        "root": str(root),
        "checked_files": len(project.contexts),
        "suppressed": suppressed,
        "findings": [finding.as_dict() for finding in findings],
    }


def _print_text(report: dict[str, Any],
                findings: list[Finding]) -> None:
    for finding in findings:
        print(finding.render())
    tail = (f"{len(findings)} finding"
            f"{'' if len(findings) == 1 else 's'} in "
            f"{report['checked_files']} files")
    if report["suppressed"]:
        tail += f" ({report['suppressed']} pragma-suppressed)"
    print(tail)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help; keep both.
        return int(exc.code or 0)

    if args.list_rules:
        from repro.analysis.rules import RULE_CLASSES
        for cls in RULE_CLASSES:
            print(f"{cls.rule_id}  {cls.description}")
        return 0

    root = Path(args.root).resolve()
    if not root.is_dir():
        print(f"repro check: root {root} is not a directory",
              file=sys.stderr)
        return 2

    rule_ids = ([part.strip() for part in args.rules.split(",")
                 if part.strip()] if args.rules else None)
    try:
        rules = select_rules(rule_ids)
    except KeyError as exc:
        print(f"repro check: unknown rule id {exc.args[0]!r} "
              f"(see --list-rules)", file=sys.stderr)
        return 2

    project = Project(root)
    findings, suppressed = run_rules(project, rules)
    report = _report(root, project, findings, suppressed)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=1) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(json.dumps(report, indent=1))
    else:
        _print_text(report, findings)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
