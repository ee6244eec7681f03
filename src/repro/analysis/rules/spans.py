"""Span-discipline rule: every span is closed on every path.

The causal trees the flight recorder and the post-mortem renderer
reconstruct (:mod:`repro.obs.spans`) are only well-formed if every span
that opens also closes - an unclosed span corrupts the parent stack and
silently reparents every later span in the request.  The context
manager (``with tracer.span(...)``) makes that structurally impossible,
so OBS001 pins it as the only sanctioned way to open a span: a
low-level ``begin_span``/``end_span`` pair (the tracer had one until a
``Span`` became its own context manager) stays flagged so it cannot
grow back, and a ``span(...)``-returning call must either be a
``with``-item or a forwarding helper that returns the span for a
caller's ``with``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule


class SpanDisciplineRule(Rule):
    """OBS001: spans are opened via ``with`` (or a ``*_span`` helper
    that directly returns the handle), never via raw begin/end.

    Two checks per file:

    * any attribute call of ``begin_span``/``end_span`` is flagged -
      manual begin/end cannot be proven balanced on exception paths;
    * any attribute call named ``span`` or ``*_span`` that is neither a
      ``with``-item context expression nor directly ``return``-ed from
      a function whose own name contains ``span`` (a forwarding helper
      like ``_op_span``) is flagged - a handle that is merely stored
      may never be entered, and one entered manually may never exit.
    """

    rule_id = "OBS001"
    description = ("spans are context-managed: no begin_span/end_span, "
                   "no un-with'ed span(...) calls")
    hint = ("open the span in a with-statement (or return it from a "
            "*span* forwarding helper a with consumes); there is no "
            "raw begin_span/end_span lifecycle to call")

    RAW_API = frozenset({"begin_span", "end_span"})

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        sanctioned = self._sanctioned_call_ids(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            attr = node.func.attr
            if attr in self.RAW_API:
                yield ctx.finding(
                    self.rule_id, node.lineno,
                    f"raw {attr}() outside the tracer implementation: "
                    f"manual begin/end pairs are not provably balanced "
                    f"on exception paths; use `with tracer.span(...)`",
                )
            elif (attr == "span" or attr.endswith("_span")) \
                    and id(node) not in sanctioned:
                yield ctx.finding(
                    self.rule_id, node.lineno,
                    f"{attr}(...) opens a span outside a with-item: "
                    f"the handle must be entered via `with` (or "
                    f"returned directly from a *span* helper) so the "
                    f"span closes on every path",
                )

    @staticmethod
    def _sanctioned_call_ids(tree: ast.AST) -> set[int]:
        """Node ids of span calls in a sanctioned position: a
        ``with``-item context expression, or the value of a ``return``
        inside a function whose name contains ``span`` (a forwarding
        helper whose caller holds the ``with``)."""
        sanctioned: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        sanctioned.add(id(item.context_expr))
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)) \
                    and "span" in node.name:
                for stmt in ast.walk(node):
                    if isinstance(stmt, ast.Return) \
                            and isinstance(stmt.value, ast.Call):
                        sanctioned.add(id(stmt.value))
        return sanctioned
