"""Whole-program layer: symbol tables, function summaries, reachability.

The per-file engine (PR 5) sees one AST at a time; the concurrency
rules (RAC001-RAC003) and the interprocedural QUE001 pass need to know
*who calls whom* across the tree.  This module builds that view once
per :class:`~repro.analysis.engine.Project`:

* a **module symbol table** per file (imports, module-level functions,
  classes with their methods);
* a **function summary** per ``def`` (attribute writes, call sites with
  their receiver chains, yield points, parameter/local type bindings,
  lexical nesting);
* **type inference** good enough for this codebase's idiom: ``__init__``
  parameter annotations (including string annotations like
  ``"ServingPipeline"`` and ``X | None`` unions), ``self.x =
  ClassName(...)`` constructor assignments, container comprehensions
  (``self.queues = [RequestQueue(...) for ...]`` models element type),
  and local aliases (``service = self.service``);
* **bounded-depth reachability** (:data:`MAX_CALL_DEPTH`) over resolved
  call edges, optionally stopping at sanctioned-owner class boundaries.

Everything here is deliberately heuristic and *conservative in the
direction of fewer findings*: an unresolvable receiver or callee
produces no edge and no claim, never a guess.  Subscripts are peeled
from attribute chains (``self.queues[i].push`` reads as
``self.queues.push``), which models a container of X as X - the right
call for per-shard queue/dispatcher lists.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.analysis.engine import FileContext, Project

#: default bound on interprocedural call-path depth (the longest real
#: chain today - loadgen client -> submit -> admission - is 4 edges)
MAX_CALL_DEPTH = 8

#: methods treated as initialization, not concurrent mutation
INIT_METHODS = frozenset({"__init__", "__post_init__", "__init_subclass__"})

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def attr_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``self.queue.items`` -> ``("self", "queue", "items")``.

    Subscripts are peeled (``self.queues[i]`` -> ``self.queues``);
    chains not rooted in a plain name resolve to ``None``.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def ann_type_name(node: ast.expr | None) -> str | None:
    """Best-effort class name out of an annotation expression.

    Handles ``Name``, dotted ``mod.Class``, string annotations
    (``"ServingPipeline | None"``), PEP 604 unions (first non-None
    arm), and ``Optional[X]``.  Containers (``list[X]``) are not
    modeled and resolve to ``None``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        for arm in node.value.split("|"):
            name = arm.strip().strip("\"'").split("[")[0]
            name = name.split(".")[-1].strip()
            if name and name != "None" and name.isidentifier():
                return name
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return ann_type_name(node.left) or ann_type_name(node.right)
    if isinstance(node, ast.Subscript):
        base = ann_type_name(node.value)
        if base == "Optional":
            return ann_type_name(node.slice)
        return None
    return None


class CallSite:
    """One call expression inside a function's own body."""

    __slots__ = ("chain", "name", "line", "node")

    def __init__(self, chain: tuple[str, ...] | None, name: str,
                 line: int, node: ast.Call) -> None:
        #: receiver chain (``("self", "queue")`` for
        #: ``self.queue.push(...)``); ``()`` for a plain ``f(...)``;
        #: ``None`` when the receiver is not a name chain
        self.chain = chain
        self.name = name
        self.line = line
        self.node = node


class AttrWrite:
    """One attribute store (``Assign``/``AugAssign``/``AnnAssign``)."""

    __slots__ = ("chain", "line", "augmented")

    def __init__(self, chain: tuple[str, ...], line: int,
                 augmented: bool) -> None:
        #: full target chain including the attribute written, e.g.
        #: ``("self", "stats", "served")``
        self.chain = chain
        self.line = line
        self.augmented = augmented


class FunctionSummary:
    """What one ``def`` does, without looking past its own body."""

    __slots__ = ("module", "class_name", "name", "node", "parent",
                 "is_generator", "yield_lines", "calls", "writes",
                 "param_types", "local_sources", "constructed",
                 "nested", "decorator_lines")

    def __init__(self, module: "ModuleSummary", class_name: str | None,
                 node: ast.FunctionDef | ast.AsyncFunctionDef,
                 parent: "FunctionSummary | None") -> None:
        self.module = module
        self.class_name = class_name
        self.name = node.name
        self.node = node
        self.parent = parent
        self.is_generator = False
        self.yield_lines: list[int] = []
        self.calls: list[CallSite] = []
        self.writes: list[AttrWrite] = []
        #: parameter name -> annotated class name
        self.param_types: dict[str, str] = {}
        #: local name -> ("call", ClassName) | ("attr", chain) |
        #: ("name", other) - resolved lazily by the index
        self.local_sources: dict[str, tuple] = {}
        #: locals bound to a direct constructor call in this body
        self.constructed: dict[str, str] = {}
        self.nested: dict[str, "FunctionSummary"] = {}
        self.decorator_lines: tuple[int, ...] = tuple(
            dec.lineno for dec in node.decorator_list
        )

    @property
    def qname(self) -> str:
        owner = f"{self.class_name}." if self.class_name else ""
        return f"{self.module.module_path}::{owner}{self.name}"

    @property
    def owner_class(self) -> str | None:
        """Class of the nearest enclosing method (for nested defs)."""
        fn: FunctionSummary | None = self
        while fn is not None:
            if fn.class_name is not None:
                return fn.class_name
            fn = fn.parent
        return None

    def scope_chain(self) -> Iterator["FunctionSummary"]:
        fn: FunctionSummary | None = self
        while fn is not None:
            yield fn
            fn = fn.parent


class ClassSummary:
    """One class: bases, methods, and inferred attribute types."""

    __slots__ = ("module", "name", "node", "bases", "methods",
                 "attr_types")

    def __init__(self, module: "ModuleSummary",
                 node: ast.ClassDef) -> None:
        self.module = module
        self.name = node.name
        self.node = node
        self.bases = tuple(
            base for base in (ann_type_name(b) for b in node.bases)
            if base
        )
        self.methods: dict[str, FunctionSummary] = {}
        #: attribute name -> inferred class name
        self.attr_types: dict[str, str] = {}


class ModuleSummary:
    """Symbol table for one parsed file."""

    __slots__ = ("context", "module_path", "imports", "functions",
                 "classes")

    def __init__(self, context: "FileContext") -> None:
        self.context = context
        self.module_path = context.module_path
        #: local alias -> ("module", dotted) | ("from", dotted, name)
        self.imports: dict[str, tuple] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.classes: dict[str, ClassSummary] = {}


class _SummaryBuilder:
    """Walks one module AST into a :class:`ModuleSummary`."""

    def __init__(self, context: "FileContext") -> None:
        self.module = ModuleSummary(context)

    def build(self) -> ModuleSummary:
        for node in self.module.context.tree.body:
            self._top_level(node)
        return self.module

    def _top_level(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                self.module.imports[local] = ("module", alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.module.imports[local] = (
                        "from", node.module, alias.name)
        elif isinstance(node, _FUNCTION_NODES):
            summary = self._function(node, class_name=None, parent=None)
            self.module.functions[node.name] = summary
        elif isinstance(node, ast.ClassDef):
            self._class(node)

    def _class(self, node: ast.ClassDef) -> None:
        cls = ClassSummary(self.module, node)
        self.module.classes[node.name] = cls
        for item in node.body:
            if isinstance(item, _FUNCTION_NODES):
                cls.methods[item.name] = self._function(
                    item, class_name=node.name, parent=None)
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                inferred = ann_type_name(item.annotation)
                if inferred:
                    cls.attr_types.setdefault(item.target.id, inferred)
        # __init__ first: constructor bindings win over later method
        # re-assignments when both claim an attribute's type.
        ordered = sorted(cls.methods.values(),
                         key=lambda fn: fn.name not in INIT_METHODS)
        for method in ordered:
            self._infer_attr_types(cls, method)

    def _infer_attr_types(self, cls: ClassSummary,
                          method: FunctionSummary) -> None:
        for stmt in ast.walk(method.node):
            if isinstance(stmt, ast.AnnAssign):
                chain = (attr_chain(stmt.target)
                         if isinstance(stmt.target, ast.Attribute)
                         else None)
                if chain and len(chain) == 2 and chain[0] == "self":
                    inferred = ann_type_name(stmt.annotation)
                    if inferred:
                        cls.attr_types.setdefault(chain[1], inferred)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if not isinstance(target, ast.Attribute):
                        continue
                    chain = attr_chain(target)
                    if not chain or len(chain) != 2 \
                            or chain[0] != "self":
                        continue
                    inferred = self._value_type(stmt.value, method)
                    if inferred:
                        cls.attr_types.setdefault(chain[1], inferred)

    def _value_type(self, value: ast.expr,
                    method: FunctionSummary) -> str | None:
        """Class name a value expression constructs or forwards."""
        if isinstance(value, ast.IfExp):
            return (self._value_type(value.body, method)
                    or self._value_type(value.orelse, method))
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            return self._value_type(value.elt, method)
        if isinstance(value, ast.List) and value.elts:
            return self._value_type(value.elts[0], method)
        if isinstance(value, ast.Call):
            return ann_type_name(value.func)
        if isinstance(value, ast.Name):
            return method.param_types.get(value.id)
        return None

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                  class_name: str | None,
                  parent: FunctionSummary | None) -> FunctionSummary:
        summary = FunctionSummary(self.module, class_name, node, parent)
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            inferred = ann_type_name(arg.annotation)
            if inferred:
                summary.param_types[arg.arg] = inferred

        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, _FUNCTION_NODES):
                summary.nested[child.name] = self._function(
                    child, class_name=None, parent=summary)
                continue
            if isinstance(child, ast.Lambda):
                continue
            if isinstance(child, (ast.Yield, ast.YieldFrom)):
                summary.is_generator = True
                summary.yield_lines.append(child.lineno)
            elif isinstance(child, ast.Call):
                self._record_call(summary, child)
            elif isinstance(child, ast.Assign):
                self._record_assign(summary, child)
            elif isinstance(child, ast.AugAssign):
                self._record_target(summary, child.target,
                                    child.lineno, augmented=True)
            elif isinstance(child, ast.AnnAssign) \
                    and child.value is not None:
                self._record_target(summary, child.target,
                                    child.lineno, augmented=False)
            stack.extend(ast.iter_child_nodes(child))
        summary.yield_lines.sort()
        return summary

    def _record_call(self, summary: FunctionSummary,
                     node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            summary.calls.append(
                CallSite((), func.id, node.lineno, node))
        elif isinstance(func, ast.Attribute):
            summary.calls.append(CallSite(
                attr_chain(func.value), func.attr, node.lineno, node))

    def _record_assign(self, summary: FunctionSummary,
                       node: ast.Assign) -> None:
        for target in node.targets:
            targets = (target.elts
                       if isinstance(target, (ast.Tuple, ast.List))
                       else [target])
            for item in targets:
                self._record_target(summary, item, node.lineno,
                                    augmented=False)
        # Single plain-name binding: remember where the value came
        # from so receiver types resolve through local aliases.
        if len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            self._record_local(summary, node.targets[0].id, node.value)

    def _record_local(self, summary: FunctionSummary, name: str,
                      value: ast.expr) -> None:
        if isinstance(value, ast.IfExp):
            self._record_local(summary, name, value.body)
            return
        if isinstance(value, ast.Call):
            callee = ann_type_name(value.func)
            if callee:
                summary.local_sources.setdefault(name, ("call", callee))
                summary.constructed.setdefault(name, callee)
        elif isinstance(value, ast.Attribute):
            chain = attr_chain(value)
            if chain:
                summary.local_sources.setdefault(name, ("attr", chain))
        elif isinstance(value, ast.Name):
            summary.local_sources.setdefault(name, ("name", value.id))

    def _record_target(self, summary: FunctionSummary, target: ast.expr,
                       line: int, augmented: bool) -> None:
        if isinstance(target, ast.Attribute):
            chain = attr_chain(target)
            if chain and len(chain) >= 2:
                summary.writes.append(AttrWrite(chain, line, augmented))


class Reached:
    """One function reached from an entry, with the edge that got there."""

    __slots__ = ("fn", "depth", "caller", "call_line")

    def __init__(self, fn: FunctionSummary, depth: int,
                 caller: str | None, call_line: int | None) -> None:
        self.fn = fn
        self.depth = depth
        #: qname of the caller (None for the entry itself)
        self.caller = caller
        self.call_line = call_line


class ProgramIndex:
    """The whole-program view the interprocedural rules query."""

    def __init__(self, project: "Project",
                 max_depth: int = MAX_CALL_DEPTH) -> None:
        self.project = project
        self.max_depth = max_depth
        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self._classes_by_name: dict[str, list[ClassSummary]] = {}
        for context in project.contexts:
            module = _SummaryBuilder(context).build()
            self.modules[module.module_path] = module
            for cls in module.classes.values():
                self._classes_by_name.setdefault(cls.name,
                                                 []).append(cls)
            for fn in module.functions.values():
                self._index_function(fn)
            for cls in module.classes.values():
                for method in cls.methods.values():
                    self._index_function(method)

    def _index_function(self, fn: FunctionSummary) -> None:
        self.functions[fn.qname] = fn
        for nested in fn.nested.values():
            self._index_function(nested)

    @classmethod
    def for_project(cls, project: "Project") -> "ProgramIndex":
        """One shared index per project (rules run back to back)."""
        index = getattr(project, "_program_index", None)
        if index is None:
            index = cls(project)
            project._program_index = index  # type: ignore[attr-defined]
        return index

    # -- symbol resolution -------------------------------------------

    def resolve_class(self, name: str | None) -> ClassSummary | None:
        """The unique class of that name; None when absent *or*
        ambiguous (two same-named classes make any claim unsafe)."""
        if not name:
            return None
        matches = self._classes_by_name.get(name)
        if matches and len(matches) == 1:
            return matches[0]
        return None

    def class_attr_type(self, cls: ClassSummary,
                        attr: str) -> str | None:
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            if attr in current.attr_types:
                return current.attr_types[attr]
            for base in current.bases:
                resolved = self.resolve_class(base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def find_method(self, class_name: str | None,
                    method: str) -> FunctionSummary | None:
        seen: set[str] = set()
        stack = [class_name] if class_name else []
        while stack:
            name = stack.pop()
            if name is None or name in seen:
                continue
            seen.add(name)
            cls = self.resolve_class(name)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            stack.extend(cls.bases)
        return None

    def module_for(self, dotted: str) -> ModuleSummary | None:
        """``repro.core.serving.queue`` -> the ``core/serving/queue.py``
        summary (package prefix stripped; fixture trees resolve their
        own relative layout the same way)."""
        parts = dotted.split(".")
        for start in range(len(parts)):
            candidate = "/".join(parts[start:]) + ".py"
            if candidate in self.modules:
                return self.modules[candidate]
            init = "/".join(parts[start:]) + "/__init__.py"
            if init in self.modules:
                return self.modules[init]
        return None

    def receiver_type(self, chain: tuple[str, ...],
                      fn: FunctionSummary,
                      _depth: int = 0) -> str | None:
        """Class name of the object a receiver chain denotes."""
        if not chain or _depth > 6:
            return None
        root, rest = chain[0], chain[1:]
        if root in ("self", "cls"):
            current = fn.owner_class
        else:
            current = self._name_type(root, fn, _depth)
        for attr in rest:
            cls = self.resolve_class(current)
            if cls is None:
                return None
            current = self.class_attr_type(cls, attr)
            if current is None:
                return None
        return current

    def _name_type(self, name: str, fn: FunctionSummary,
                   _depth: int) -> str | None:
        for scope in fn.scope_chain():
            if name in scope.param_types:
                return scope.param_types[name]
            source = scope.local_sources.get(name)
            if source is None:
                continue
            kind = source[0]
            if kind == "call":
                return (source[1]
                        if self.resolve_class(source[1]) else None)
            if kind == "attr":
                return self.receiver_type(source[1], scope, _depth + 1)
            if kind == "name":
                return self._name_type(source[1], scope, _depth + 1)
        return None

    def resolve_call(self, site: CallSite,
                     fn: FunctionSummary) -> FunctionSummary | None:
        """The summary a call site lands in, or None (no claim)."""
        if site.chain is None:
            return None
        if site.chain == ():
            return self._resolve_plain(site.name, fn)
        if site.chain == ("self",) or site.chain == ("cls",):
            return self.find_method(fn.owner_class, site.name)
        if len(site.chain) == 1:
            imported = fn.module.imports.get(site.chain[0])
            if imported is not None and imported[0] == "module":
                target = self.module_for(imported[1])
                if target is not None:
                    return target.functions.get(site.name)
        rtype = self.receiver_type(site.chain, fn)
        if rtype is not None:
            return self.find_method(rtype, site.name)
        return None

    def _resolve_plain(self, name: str,
                       fn: FunctionSummary) -> FunctionSummary | None:
        for scope in fn.scope_chain():
            if name in scope.nested:
                return scope.nested[name]
        if name in fn.module.functions:
            return fn.module.functions[name]
        imported = fn.module.imports.get(name)
        if imported is not None and imported[0] == "from":
            target = self.module_for(imported[1])
            if target is not None:
                if imported[2] in target.functions:
                    return target.functions[imported[2]]
                cls = target.classes.get(imported[2])
                if cls is not None:
                    return cls.methods.get("__init__")
        # Constructor call: descend into __init__ so init-time spawns
        # and writes stay visible (and stay init-exempt).
        cls_summary = self.resolve_class(name)
        if cls_summary is not None and fn.module.imports.get(name,
                (None,))[0] in (None, "from"):
            return cls_summary.methods.get("__init__")
        return None

    # -- reachability ------------------------------------------------

    def reachable(self, entry: FunctionSummary,
                  stop_classes: frozenset[str] = frozenset(),
                  skip_calls: frozenset[int] | set[int] = frozenset(),
                  ) -> dict[str, Reached]:
        """Bounded BFS over resolved call edges from ``entry``.

        ``stop_classes``: methods of these classes are neither entered
        nor traversed - call paths that go *through* a sanctioned owner
        are, by definition, mediated.  ``skip_calls``: ``id`` of call
        nodes that are no edge at all (a generator built to be handed
        to ``spawn`` runs in the process it becomes, not in whoever
        built it).
        """
        result: dict[str, Reached] = {
            entry.qname: Reached(entry, 0, None, None)
        }
        frontier = [entry]
        depth = 0
        while frontier and depth < self.max_depth:
            depth += 1
            next_frontier: list[FunctionSummary] = []
            for caller in frontier:
                for site in caller.calls:
                    if id(site.node) in skip_calls:
                        continue
                    callee = self.resolve_call(site, caller)
                    if callee is None or callee.qname in result:
                        continue
                    if callee.owner_class in stop_classes:
                        continue
                    result[callee.qname] = Reached(
                        callee, depth, caller.qname, site.line)
                    next_frontier.append(callee)
            frontier = next_frontier
        return result

    def call_path(self, reach: dict[str, Reached],
                  qname: str) -> list[str]:
        """Entry-to-target qname chain for a reached function."""
        path: list[str] = []
        current: str | None = qname
        while current is not None and current in reach:
            path.append(current)
            current = reach[current].caller
        path.reverse()
        return path
