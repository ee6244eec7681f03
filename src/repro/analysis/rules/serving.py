"""Serving-pipeline rule: sim processes never enter the kernel directly.

The event-driven pipeline's contract (docs/SERVING.md) is that requests
reach the kernel only through a per-shard dispatcher that has already
charged the batch's crossing cost as simulated time.  A kernel call
from any *other* sim process is a blocking call smuggled back into the
event loop: it executes synchronously inside one engine step, stalls
every queued request behind that process, and charges nothing to the
simulated clock - exactly the pathology the refactor removed.

QUE001 pins this statically, one file at a time.  Sim processes are
generator functions (``yield``-bodied - the only way code runs inside
the engine), and in their bodies a call of ``predict_batch`` on any
receiver, or ``update`` on a kernel-shaped receiver
(``service``/``kernel``/``shard``/``svc`` in the dotted chain - plain
``dict.update``/``set.update`` calls stay out of scope), is flagged.
``core/serving/dispatch.py`` is the single sanctioned site.  A helper
that a process calls is not followed: the rule reads the body the
engine resumes, and what runs on the way is checked by running it
(``tests/test_machine.py``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule, dotted_name


class BlockingKernelCallRule(Rule):
    """QUE001: kernel ``predict_batch``/``update`` calls inside a sim
    process body are reserved for the serving dispatcher."""

    rule_id = "QUE001"
    description = ("sim processes submit, they never enter the kernel: "
                   "predict_batch/update inside a generator body is "
                   "reserved for core/serving/dispatch.py")
    hint = ("submit the work through ServingPipeline.submit() and wait "
            "on the returned CompletionFuture; only the Dispatcher in "
            "core/serving/dispatch.py enters the kernel")

    #: the single sanctioned kernel-entry site
    ALLOWED_MODULES = ("core/serving/dispatch.py",)

    #: receiver-name fragments that mark an ``update`` call as kernel
    #: entry (``self.service.update``, ``kernel.update``, ...) rather
    #: than a builtin-container update
    KERNEL_RECEIVER_HINTS = ("service", "kernel", "shard", "svc")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        if any(ctx.relpath.endswith(allowed)
               for allowed in self.ALLOWED_MODULES):
            return
        for function in ast.walk(ctx.tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            own_nodes = list(self._own_nodes(function))
            if not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                       for node in own_nodes):
                continue  # not a generator: not a sim-process body
            for node in own_nodes:
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute):
                    continue
                attr = node.func.attr
                receiver = dotted_name(node.func.value)
                if attr == "predict_batch":
                    yield ctx.finding(
                        self.rule_id, node.lineno,
                        f"sim process {function.name!r} calls "
                        f"{receiver or '<expr>'}.predict_batch() "
                        f"directly: a blocking kernel call inside an "
                        f"event-loop process stalls every queued "
                        f"request behind it; submit to the serving "
                        f"pipeline (only the dispatcher enters the "
                        f"kernel)",
                    )
                elif attr == "update" and self._kernelish(receiver):
                    yield ctx.finding(
                        self.rule_id, node.lineno,
                        f"sim process {function.name!r} calls "
                        f"{receiver}.update() directly: kernel writes "
                        f"from an event-loop process bypass queue "
                        f"ordering and charge no simulated time; "
                        f"submit op='update' to the serving pipeline "
                        f"instead",
                    )

    @classmethod
    def _kernelish(cls, receiver: str) -> bool:
        lowered = receiver.lower()
        return any(hint in lowered
                   for hint in cls.KERNEL_RECEIVER_HINTS)

    @staticmethod
    def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
        """Every AST node of ``function``'s own body, excluding nested
        function/lambda bodies (a nested def runs in whatever context
        *calls* it, not in this process's engine step)."""
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
