"""Rules the source of ``src/repro`` keeps, checked by reading it.

Everything else the system promises is checked by running it (the state
machine in ``tests/test_machine.py``, the kind-coverage and close
contract tests, the plan type).  These three are about what the code
*says* whether or not a run reaches it, so they parse the tree:

* simulated time and seeded streams only - the modules that may import
  a wall clock or the process-global ``random`` are named below;
* no handler swallows every exception with a bare ``pass``;
* a sim process submits and never enters the kernel: a generator body
  outside the dispatcher calls no ``predict_batch``, and no ``update``
  on a kernel-shaped receiver.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
#: package-relative path -> parsed module
SOURCES = {path.relative_to(PACKAGE).as_posix():
           ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.rglob("*.py"))}

#: module -> the only files that may import it: the wall-clock harness,
#: and the two modules that wrap ``random`` in seeded streams
IMPORT_ALLOWED = {
    "time": {"bench/experiments/latency.py"},
    "datetime": {"bench/experiments/latency.py"},
    "random": {"sim/rng.py", "core/faults.py"},
}
#: the one sim process that enters the kernel
DISPATCHER = "core/serving/dispatch.py"
#: an ``update`` receiver naming one of these is the kernel, not a dict
KERNEL_RECEIVERS = ("service", "kernel", "shard", "svc")


def dotted(node):
    """An attribute chain's names, ``self.service``; a chain rooted in a
    call or subscript keeps its attributes (``service`` of
    ``shards[0].service``), and anything else is ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def own_nodes(function):
    """A function body's nodes, not those of a nested def or lambda
    (which runs wherever it is called, not in this frame)."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_the_tree_is_parsed():
    assert "core/serving/dispatch.py" in SOURCES
    assert len(SOURCES) > 50


def test_wall_clock_and_global_random_stay_in_their_modules():
    found = []
    for path, tree in SOURCES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                module = name.partition(".")[0]
                if module in IMPORT_ALLOWED \
                        and path not in IMPORT_ALLOWED[module]:
                    found.append(f"{path}:{node.lineno} imports {name}")
    assert found == []


def swallows_everything(handler):
    caught = handler.type
    if caught is None:
        names = ["BaseException"]
    elif isinstance(caught, ast.Tuple):
        names = [dotted(element) for element in caught.elts]
    else:
        names = [dotted(caught)]
    return any(name in ("Exception", "BaseException") for name in names) \
        and all(isinstance(statement, ast.Pass)
                for statement in handler.body)


def test_no_handler_swallows_every_exception():
    found = [f"{path}:{node.lineno}"
             for path, tree in SOURCES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler)
             and swallows_everything(node)]
    assert found == []


def test_only_the_dispatcher_enters_the_kernel_from_a_sim_process():
    found = []
    for path, tree in SOURCES.items():
        if path == DISPATCHER:
            continue
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            body = list(own_nodes(function))
            if not any(isinstance(node, (ast.Yield, ast.YieldFrom))
                       for node in body):
                continue        # not a generator: not a sim process
            for node in body:
                if not isinstance(node, ast.Call) \
                        or not isinstance(node.func, ast.Attribute):
                    continue
                receiver = dotted(node.func.value).lower()
                if node.func.attr == "predict_batch" or (
                        node.func.attr == "update"
                        and any(hint in receiver
                                for hint in KERNEL_RECEIVERS)):
                    found.append(f"{path}:{node.lineno} {function.name} "
                                 f"calls .{node.func.attr}()")
    assert found == []
