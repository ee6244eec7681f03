"""Contract rules: transport close, no silent exception swallowing,
read-only replicas.

These are the API promises other layers build on: every stateful
transport participates in the ``close()`` lifecycle, failures are
either handled or propagated - never silently dropped - and follower
replicas are strictly read-only (a writing replica forks the
replicated state and breaks every promotion/staleness guarantee).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import FileContext
from repro.analysis.findings import Finding
from repro.analysis.rules.base import (
    Rule,
    calls_method_on_super,
    dotted_name,
    walk_calls,
)


class TransportCloseRule(Rule):
    """CTR001: stateful transports participate in the close lifecycle.

    A :class:`~repro.core.transport.Transport` subclass that defines
    ``__init__`` owns construction-time state (buffers, caches), so it
    must chain ``super().__init__`` (or the base's account/injector/
    tracer wiring silently vanishes) *and* override ``close()`` with a
    ``super().close()`` chain that releases that state - the base close
    only knows about the flush contract.
    """

    rule_id = "CTR001"
    description = ("every stateful Transport subclass overrides "
                   "close() and chains super().__init__")
    hint = ("chain super().__init__ in the subclass constructor and "
            "override close() with a super().close() chain that "
            "releases the state the subclass added")

    BASE_SUFFIX = "Transport"

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not self._is_transport_subclass(node):
                continue
            methods = {
                child.name: child for child in node.body
                if isinstance(child, ast.FunctionDef)
            }
            init = methods.get("__init__")
            if init is None:
                continue  # stateless specialization; base contract holds
            if not calls_method_on_super(init.body, "__init__"):
                yield ctx.finding(
                    self.rule_id, init.lineno,
                    f"{node.name}.__init__ does not chain "
                    f"super().__init__: base transport wiring "
                    f"(account, injector, tracer) is lost",
                )
            close = methods.get("close")
            if close is None:
                yield ctx.finding(
                    self.rule_id, node.lineno,
                    f"{node.name} adds construction-time state but "
                    f"does not override close(): its state outlives "
                    f"the close() contract",
                )
            elif not calls_method_on_super(close.body, "close"):
                yield ctx.finding(
                    self.rule_id, close.lineno,
                    f"{node.name}.close does not chain super().close():"
                    f" the flush-then-refuse contract is skipped",
                )

    def _is_transport_subclass(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else (
                base.attr if isinstance(base, ast.Attribute) else ""
            )
            if name.endswith(self.BASE_SUFFIX):
                return True
        return False


class NoSwallowedExceptionsRule(Rule):
    """EXC001: no silently swallowed exceptions.

    A bare ``except:`` (catches ``KeyboardInterrupt``) is never
    acceptable; ``except Exception: pass`` hides faults the resilience
    stack is specifically designed to count and report.  The
    best-effort recovery paths in the persistence layer are the
    sanctioned exception - and even they *record* what they swallow.
    """

    rule_id = "EXC001"
    description = ("no bare except / `except Exception: pass` outside "
                   "best-effort checkpoint recovery")
    hint = ("catch the narrowest exception that can actually occur "
            "and handle, count (stats/tracer), or re-raise it - the "
            "resilience stack exists to report faults, not eat them")

    #: modules whose recovery paths may swallow broad exceptions
    ALLOWED_MODULES = frozenset({
        "core/persistence.py",
        "core/kernel/checkpoint.py",
    })

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = ctx.module_path in self.ALLOWED_MODULES
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not allowed:
                    yield ctx.finding(
                        self.rule_id, node.lineno,
                        "bare `except:` catches KeyboardInterrupt and "
                        "SystemExit; name the exceptions",
                    )
                continue
            if allowed:
                continue
            if self._is_broad(node.type) and self._only_passes(node):
                yield ctx.finding(
                    self.rule_id, node.lineno,
                    "`except Exception: pass` silently swallows "
                    "faults; handle, count, or re-raise them",
                )

    @staticmethod
    def _is_broad(node: ast.expr) -> bool:
        names = []
        if isinstance(node, ast.Tuple):
            names = [e.id for e in node.elts
                     if isinstance(e, ast.Name)]
        elif isinstance(node, ast.Name):
            names = [node.id]
        return any(name in ("Exception", "BaseException")
                   for name in names)

    @staticmethod
    def _only_passes(node: ast.ExceptHandler) -> bool:
        return all(isinstance(statement, ast.Pass)
                   for statement in node.body)


class ReplicaReadOnlyRule(Rule):
    """REP001: replica/follower types never train their domains.

    The replication design rests on followers being *pure snapshots*:
    a follower that applies ``update()``/``train()`` to a domain or
    model diverges from its primary, so a later promotion would
    resurrect forked weights and the bounded-staleness guarantee (a
    failover answer is the primary's state as of some sync) would be
    silently false.  Any class whose name marks it as a replica-side
    type (``Replica``/``Follower``) must therefore neither define a
    mutating ``update``/``train`` method nor call one on model-side
    state.  Plain-container mutation (``self._cache.update(...)``) is
    fine - only receivers that name model-side state are flagged.
    """

    rule_id = "REP001"
    description = ("replica/follower classes never call update()/"
                   "train() on domain or model state")
    hint = ("route learning through the primary ShardedService and "
            "let replication ship the snapshot; a follower only "
            "load_state()s what its primary produced")

    #: class-name fragments that mark a replica-side type
    CLASS_MARKERS = ("Replica", "Follower")

    #: method names that mutate learned state
    MUTATORS = frozenset({"update", "train"})

    #: receiver-name fragments that identify model-side state (a
    #: receiver chain like ``self._domains[n].model`` or
    #: ``shard.domains[name]``); dict/set receivers like ``_cache``
    #: match none of these
    RECEIVER_MARKERS = ("domain", "model", "follower", "primary",
                        "target", "shard")

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(marker in node.name
                       for marker in self.CLASS_MARKERS):
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                if method.name in self.MUTATORS:
                    yield ctx.finding(
                        self.rule_id, method.lineno,
                        f"{node.name}.{method.name} defines a mutator "
                        f"on a replica type: followers are read-only "
                        f"snapshots and must never learn",
                    )
                    continue
                yield from self._check_calls(ctx, node, method)

    def _check_calls(self, ctx: FileContext, cls: ast.ClassDef,
                     method: ast.FunctionDef) -> Iterator[Finding]:
        for call in walk_calls(method):
            func = call.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in self.MUTATORS:
                continue
            receiver_node = func.value
            # Peel subscripts so ``shard.domains[name].update(...)``
            # resolves to the ``shard.domains`` chain.
            while isinstance(receiver_node, ast.Subscript):
                receiver_node = receiver_node.value
            receiver = dotted_name(receiver_node).lower()
            if any(marker in receiver
                   for marker in self.RECEIVER_MARKERS):
                yield ctx.finding(
                    self.rule_id, call.lineno,
                    f"{cls.name}.{method.name} calls "
                    f".{func.attr}() on {receiver or 'model-side'} "
                    f"state: replicas must stay read-only",
                )
