"""Process discovery and the yield-point race rules (RAC001-RAC003).

The sim engine is cooperative: a process is a generator body, and the
scheduler only ever switches at ``yield``.  That buys determinism, but
it also means every shared-state bug in the serving pipeline is a
*yield-point race*: two processes interleave writes to the same
attribute, a check and its dependent act straddle a yield, or one
future gets settled from two places.  These never crash a test - they
silently change which deterministic answer the run produces.

:class:`ProcessModel` finds the processes statically: any generator
function handed to a ``spawn(...)``/``sim(...)`` launch call inside
``core/serving/`` or ``bench/`` (the modules that register serving
processes - dispatcher ``start()``, the SLO monitor, load-generator
clients).  Each entry's transitive footprint comes from the
:class:`~repro.analysis.callgraph.ProgramIndex`.

The ownership model the rules enforce (docs/INVARIANTS.md): shared
mutable state belongs to a **sanctioned owner** - the request queue,
the dispatcher, the admission controller, the pipeline itself, the
completion future - and processes touch it only through those owners'
methods.  State written directly by two processes (RAC001), decisions
made on pre-yield reads (RAC002), and futures settleable from two
processes (RAC003) are the three ways the convention breaks.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.callgraph import (
    INIT_METHODS,
    FunctionSummary,
    ProgramIndex,
    attr_chain,
)
from repro.analysis.findings import Finding
from repro.analysis.rules.base import Rule

if TYPE_CHECKING:
    from repro.analysis.engine import Project

#: module-path prefixes scanned for process launch sites
PROCESS_MODULE_PREFIXES = ("core/serving/", "bench/")

#: call names that launch a generator as a sim process
SPAWN_NAMES = frozenset({"spawn", "sim"})

#: classes that own shared serving state; writes inside their methods -
#: and call paths that go through them - are mediated by construction
SANCTIONED_OWNERS = frozenset({
    "RequestQueue", "Dispatcher", "AdmissionController",
    "ServingPipeline", "CompletionFuture",
})

#: container methods that mutate their receiver in place (the "act"
#: half of a check-then-act can be an append as easily as an assign)
CONTAINER_MUTATORS = frozenset({
    "append", "appendleft", "extend", "insert", "add", "push", "pop",
    "popleft", "remove", "discard", "clear", "update", "setdefault",
})

#: receiver-name fragments that mark a settle call as future-like
FUTURE_MARKERS = ("future", "fut")


class ProcessEntry:
    """One discovered sim-process entry point."""

    __slots__ = ("fn", "spawn_module", "spawn_line")

    def __init__(self, fn: FunctionSummary, spawn_module: str,
                 spawn_line: int) -> None:
        self.fn = fn
        self.spawn_module = spawn_module
        self.spawn_line = spawn_line

    @property
    def label(self) -> str:
        return self.fn.qname


class ProcessModel:
    """Every discovered process and its transitive footprint."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.entries: dict[str, ProcessEntry] = {}
        self._full_reach: dict[str, dict] = {}
        self._owner_scoped_reach: dict[str, dict] = {}
        #: ``id`` of every ``body(...)`` call node found as a spawn
        #: argument: a process boundary, not a call edge - whoever
        #: spawns a process does not run its body
        self._spawned: set[int] = set()
        self._discover()

    @classmethod
    def for_project(cls, project: "Project") -> "ProcessModel":
        model = getattr(project, "_process_model", None)
        if model is None:
            model = cls(ProgramIndex.for_project(project))
            project._process_model = model  # type: ignore[attr-defined]
        return model

    def _discover(self) -> None:
        for module_path in sorted(self.index.modules):
            if not module_path.startswith(PROCESS_MODULE_PREFIXES):
                continue
            module = self.index.modules[module_path]
            for fn in self._module_functions(module):
                for site in fn.calls:
                    if site.name not in SPAWN_NAMES:
                        continue
                    for value in (*site.node.args,
                                  *(kw.value for kw
                                    in site.node.keywords)):
                        if not isinstance(value, ast.Call):
                            continue
                        body = self._resolve_body(value, fn)
                        if body is None or not body.is_generator:
                            continue
                        self._spawned.add(id(value))
                        self.entries.setdefault(
                            body.qname,
                            ProcessEntry(body, module_path,
                                         site.line))

    def _resolve_body(self, call: ast.Call,
                      fn: FunctionSummary) -> FunctionSummary | None:
        func = call.func
        if isinstance(func, ast.Name):
            site = _synthetic_site((), func.id, call)
        elif isinstance(func, ast.Attribute):
            site = _synthetic_site(attr_chain(func.value), func.attr,
                                   call)
        else:
            return None
        return self.index.resolve_call(site, fn)

    @staticmethod
    def _module_functions(module) -> Iterator[FunctionSummary]:
        stack = list(module.functions.values())
        for cls in module.classes.values():
            stack.extend(cls.methods.values())
        while stack:
            fn = stack.pop()
            yield fn
            stack.extend(fn.nested.values())

    # -- footprints --------------------------------------------------

    def full_reach(self, entry: ProcessEntry) -> dict:
        """Everything an entry can reach, owners included."""
        cached = self._full_reach.get(entry.label)
        if cached is None:
            cached = self.index.reachable(
                entry.fn, skip_calls=self._spawned)
            self._full_reach[entry.label] = cached
        return cached

    def owner_scoped_reach(self, entry: ProcessEntry) -> dict:
        """Reachability that stops at sanctioned-owner boundaries."""
        cached = self._owner_scoped_reach.get(entry.label)
        if cached is None:
            cached = self.index.reachable(
                entry.fn, stop_classes=SANCTIONED_OWNERS,
                skip_calls=self._spawned)
            self._owner_scoped_reach[entry.label] = cached
        return cached

    def entries_reaching(self, qname: str) -> list[ProcessEntry]:
        """Processes whose full footprint contains ``qname``."""
        return [entry for entry in self.sorted_entries()
                if qname in self.full_reach(entry)]

    def sorted_entries(self) -> list[ProcessEntry]:
        return [self.entries[label]
                for label in sorted(self.entries)]

    def process_reached_qnames(self) -> set[str]:
        reached: set[str] = set()
        for entry in self.sorted_entries():
            reached.update(self.full_reach(entry))
        return reached


def _synthetic_site(chain, name, node):
    from repro.analysis.callgraph import CallSite
    return CallSite(chain, name, node.lineno, node)


def _write_owner(index: ProgramIndex, fn: FunctionSummary,
                 chain: tuple[str, ...]) -> str | None:
    """Class owning the attribute a write chain stores to."""
    obj = chain[:-1]
    if obj == ("self",) or obj == ("cls",):
        return fn.owner_class
    return index.receiver_type(obj, fn)


def _entry_names(entries: list[ProcessEntry]) -> str:
    return ", ".join(entry.label for entry in entries)


class SharedWriteRule(Rule):
    """RAC001: one attribute, two writers, no sanctioned owner."""

    rule_id = "RAC001"
    description = ("shared attribute written by two sim processes (or "
                   "a process and the synchronous path) without going "
                   "through a sanctioned owner")
    hint = ("move the write behind a sanctioned owner (RequestQueue, "
            "Dispatcher, AdmissionController, ServingPipeline, "
            "CompletionFuture) or give each process its own counter "
            "and merge on the synchronous path")

    def finish(self, project: "Project") -> Iterator[Finding]:
        index = ProgramIndex.for_project(project)
        model = ProcessModel.for_project(project)

        # (owner class, attr) -> {entry label -> [(module, fn, write)]}
        proc_writes: dict[tuple[str, str], dict[str, list]] = {}
        for entry in model.sorted_entries():
            if entry.fn.owner_class in SANCTIONED_OWNERS:
                continue  # the owner's own process is mediated
            reach = model.owner_scoped_reach(entry)
            for reached in reach.values():
                fn = reached.fn
                if fn.name in INIT_METHODS:
                    continue
                for write in fn.writes:
                    owner = _write_owner(index, fn, write.chain)
                    if owner is None or owner in SANCTIONED_OWNERS:
                        continue
                    proc_writes.setdefault(
                        (owner, write.chain[-1]), {}
                    ).setdefault(entry.label, []).append((fn, write))

        # Synchronous writers, only for attributes a process touches.
        process_reached = model.process_reached_qnames()
        sync_writes: dict[tuple[str, str], list] = {}
        for qname in sorted(index.functions):
            fn = index.functions[qname]
            if qname in process_reached or fn.name in INIT_METHODS \
                    or fn.owner_class in SANCTIONED_OWNERS:
                continue
            for write in fn.writes:
                owner = _write_owner(index, fn, write.chain)
                if owner is None:
                    continue
                key = (owner, write.chain[-1])
                if key in proc_writes:
                    sync_writes.setdefault(key, []).append((fn, write))

        for key in sorted(proc_writes):
            owner, attr = key
            by_entry = proc_writes[key]
            sync = sync_writes.get(key, [])
            if len(by_entry) < 2 and not sync:
                continue
            # One finding per distinct write site, naming every
            # process that reaches it and whoever else writes.
            sites: dict[tuple[str, int], tuple] = {}
            for label in sorted(by_entry):
                for fn, write in by_entry[label]:
                    site = (fn.module.context.relpath, write.line)
                    entry = sites.setdefault(site, (fn, write, []))
                    if label not in entry[2]:
                        entry[2].append(label)
            for site in sorted(sites):
                fn, write, labels = sites[site]
                rivals = [lbl for lbl in sorted(by_entry)
                          if lbl not in labels]
                if rivals:
                    rival = f"process(es) {', '.join(rivals)}"
                elif sync:
                    rival = (f"the synchronous path "
                             f"({sync[0][0].qname})")
                else:
                    rival = (f"{len(labels)} interleaving processes "
                             f"at this one site")
                yield fn.module.context.finding(
                    self.rule_id, write.line,
                    f"{owner}.{attr} is written here by process(es) "
                    f"{', '.join(labels)} and also by {rival} "
                    f"without a sanctioned owner mediating: "
                    f"interleaving at a yield point makes the final "
                    f"value schedule-dependent",
                )


class CheckThenActRule(Rule):
    """RAC002: a guard read and its dependent write straddle a yield."""

    rule_id = "RAC002"
    description = ("read of shared state and a dependent write "
                   "separated by a reachable yield point (non-atomic "
                   "check-then-act)")
    hint = ("re-read the guarded state after the yield before acting, "
            "or move the check-and-act into one sanctioned-owner "
            "method that runs without yielding")

    def finish(self, project: "Project") -> Iterator[Finding]:
        index = ProgramIndex.for_project(project)
        model = ProcessModel.for_project(project)

        audited: set[str] = set()
        for entry in model.sorted_entries():
            for qname in sorted(model.full_reach(entry)):
                fn = index.functions.get(qname)
                if fn is None or not fn.is_generator \
                        or qname in audited:
                    continue
                audited.add(qname)
                yield from self._audit_generator(fn)

    def _audit_generator(self,
                         fn: FunctionSummary) -> Iterator[Finding]:
        for node in self._own_branch_nodes(fn.node):
            for read in self._guard_reads(node.test):
                finding = self._scan_branch(fn, node, read)
                if finding is not None:
                    yield finding

    @staticmethod
    def _own_branch_nodes(function: ast.AST) -> Iterator[ast.stmt]:
        stack = list(ast.iter_child_nodes(function))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, (ast.If, ast.While)):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _guard_reads(test: ast.expr) -> list[tuple[str, ...]]:
        """Attribute chains the guard condition reads."""
        reads: list[tuple[str, ...]] = []
        for node in ast.walk(test):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                chain = attr_chain(node)
                if chain and len(chain) >= 2 \
                        and chain not in reads:
                    reads.append(chain)
        # Keep maximal chains only: ``self.queue.depth`` subsumes the
        # ``self.queue`` sub-chain the same expression also loads.
        return [read for read in reads
                if not any(other != read
                           and other[:len(read)] == read
                           for other in reads)]

    @staticmethod
    def _match_object(read: tuple[str, ...]) -> tuple[str, ...]:
        """The object prefix whose writes invalidate the read.

        ``("self", "queue", "depth")`` guards the sub-object
        ``("self", "queue")``; a bare ``("self", "x")`` read guards
        only ``x`` itself (any-attribute matching on ``self`` would
        flag every stateful generator).
        """
        if len(read) == 2 and read[0] in ("self", "cls"):
            return read
        return read[:-1]

    def _scan_branch(self, fn: FunctionSummary, node: ast.stmt,
                     read: tuple[str, ...]) -> Finding | None:
        obj = self._match_object(read)
        events: list[tuple[int, int, str, ast.AST]] = []
        for stmt in node.body:
            for child in self._iter_own(stmt):
                if isinstance(child, (ast.Yield, ast.YieldFrom)):
                    events.append((child.lineno, child.col_offset,
                                   "yield", child))
                elif isinstance(child, ast.Attribute) \
                        and isinstance(child.ctx, ast.Load):
                    chain = attr_chain(child)
                    if chain and len(chain) > len(obj) \
                            and chain[:len(obj)] == obj:
                        events.append((child.lineno, child.col_offset,
                                       "read", child))
                elif isinstance(child, ast.Attribute) \
                        and isinstance(child.ctx, ast.Store):
                    chain = attr_chain(child)
                    if chain and chain[:len(obj)] == obj:
                        events.append((child.lineno, child.col_offset,
                                       "write", child))
                elif isinstance(child, ast.Call) \
                        and isinstance(child.func, ast.Attribute) \
                        and child.func.attr in CONTAINER_MUTATORS:
                    chain = attr_chain(child.func.value)
                    if chain and chain[:len(obj)] == obj:
                        events.append((child.lineno, child.col_offset,
                                       "write", child))
        events.sort(key=lambda item: (item[0], item[1]))
        yielded_at: int | None = None
        for line, _col, kind, _node in events:
            if kind == "yield":
                yielded_at = line
            elif yielded_at is None:
                continue
            elif kind == "read":
                return None  # re-read after the yield: fresh decision
            else:
                return fn.module.context.finding(
                    self.rule_id, line,
                    f"{fn.qname} checks {'.'.join(read)} before the "
                    f"yield at line {yielded_at} and acts on "
                    f"{'.'.join(obj)} after it: other processes run "
                    f"at the yield, so the guard may no longer hold",
                )
        return None

    @staticmethod
    def _iter_own(stmt: ast.stmt) -> Iterator[ast.AST]:
        stack = [stmt]
        while stack:
            node = stack.pop(0)
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))


class DoubleSettleRule(Rule):
    """RAC003: a future settle site reachable from two processes."""

    rule_id = "RAC003"
    description = ("CompletionFuture complete()/fail() call site "
                   "reachable from more than one sim process, risking "
                   "double settlement")
    hint = ("settle each future from exactly one owner (the "
            "dispatcher's done/failed callbacks); other processes "
            "wait on the future, they never settle it")

    SETTLE_METHODS = frozenset({"complete", "fail"})

    def finish(self, project: "Project") -> Iterator[Finding]:
        index = ProgramIndex.for_project(project)
        model = ProcessModel.for_project(project)

        for qname in sorted(index.functions):
            fn = index.functions[qname]
            if fn.owner_class == "CompletionFuture":
                continue  # the future settles itself by definition
            settle_sites = [
                site for site in fn.calls
                if site.name in self.SETTLE_METHODS
                and self._future_like(index, fn, site)
                and not self._locally_constructed(fn, site)
            ]
            if not settle_sites:
                continue
            reachers = model.entries_reaching(qname)
            if len(reachers) < 2:
                continue
            names = _entry_names(reachers)
            for site in settle_sites:
                receiver = ".".join(site.chain or ("<expr>",))
                yield fn.module.context.finding(
                    self.rule_id, site.line,
                    f"{receiver}.{site.name}() in {fn.qname} is "
                    f"reachable from {len(reachers)} processes "
                    f"({names}): whichever runs second raises on an "
                    f"already-settled future (or silently loses its "
                    f"result)",
                )

    @staticmethod
    def _future_like(index: ProgramIndex, fn: FunctionSummary,
                     site) -> bool:
        if not site.chain:
            return False
        last = site.chain[-1].lower()
        if any(marker in last for marker in FUTURE_MARKERS):
            return True
        rtype = index.receiver_type(site.chain, fn)
        return bool(rtype and "future" in rtype.lower())

    @staticmethod
    def _locally_constructed(fn: FunctionSummary, site) -> bool:
        """A function settling a future it (or a lexically enclosing
        function) just constructed owns that future's lifecycle."""
        if site.chain is None or len(site.chain) != 1:
            return False
        name = site.chain[0]
        return any(name in scope.constructed
                   for scope in fn.scope_chain())
