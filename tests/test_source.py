"""Rules the source of ``src/repro`` keeps, checked by reading it.

Everything else the system promises is checked by running it (the state
machine in ``tests/test_machine.py``, the kind-coverage and close
contract tests, the plan type).  These nine are about what the code
*says* whether or not a run reaches it, so they parse the tree:

* simulated time and seeded streams only - the modules that may import
  a wall clock or the process-global ``random`` are named below;
* no handler swallows every exception with a bare ``pass``;
* the kernel's by-name calls are the dispatcher's: nothing else calls
  ``predict``, ``predict_batch`` or ``update`` on a kernel-shaped
  receiver (everyone else goes through a handle or a client);
* the client, its transports and the kernel call what a handle or a
  model declares, and never probe for it: no ``getattr`` / ``hasattr``
  naming an attribute in a string literal (a computed name passes);
* a read on a crashed shard fails over in one place: only the
  ``Domain`` calls ``failover_predict``; and a write on one is refused
  in one place, ``Domain.refuse_write``;
* a lost update record is one handed over and not applied, decided
  where records are delivered: ``lost_records`` is written only by
  ``DomainHandle.update_batch`` and ``FaultLayer.flush``, and declared
  only as ``PSSError``'s default;
* the plain transports know nothing of injected faults: no function in
  ``core/transport.py`` names the injector or its stale die, and the
  module does not import ``repro.core.faults`` (injection is the
  ``FaultLayer`` in front of a transport);
* the serving pipeline judges its SLOs when asked, with no process of
  its own, so a run ends when its last request settles:
  ``core/serving/pipeline.py`` spawns nothing, and nothing in ``src``
  or ``tests`` calls ``mark_load_complete`` (a no-op ``perf/`` calls).

One more is about what the code *loads*: a fresh interpreter that
serves requests imports the request path and nothing else, so the
cold subsystems stay out of every start-up (pinned by running it).
"""

import ast
import os
import subprocess
import sys
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
TESTS = PACKAGE.parents[1] / "tests"
#: the one module that calls the kernel by domain name: a serving lane
DISPATCHER = "core/serving/dispatch.py"
#: the serving pipeline, which runs no sim process of its own
PIPELINE = "core/serving/pipeline.py"
#: a receiver naming one of these is the kernel, not a dict or a model
KERNEL_RECEIVERS = ("service", "kernel", "shard", "svc")
#: the modules that take a handle or a model as its type declares it
NO_PROBES = ("core/transport.py", "core/client.py", "core/kernel/")
#: the one class that applies the crash rule to a read, and its module
FAILS_OVER = ("core/kernel/domain.py", "Domain")
#: the plain transports, and the names only fault injection uses
TRANSPORTS = "core/transport.py"
INJECTION = {"injector", "_injector", "stale_read", "FaultInjector"}


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


def test_only_the_dispatcher_calls_the_kernel_by_name():
    found = [f"{path}:{node.lineno} calls {dotted(node.func)}()"
             for path, tree in SOURCES.items() if path != DISPATCHER
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("predict", "predict_batch", "update")
             and any(hint in dotted(node.func.value).lower()
                     for hint in KERNEL_RECEIVERS)]
    assert found == []


def test_no_capability_probes():
    found = []
    for path, tree in SOURCES.items():
        if not path.startswith(NO_PROBES):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Name) \
                    and node.func.id in ("getattr", "hasattr") \
                    and len(node.args) > 1 \
                    and isinstance(node.args[1], ast.Constant) \
                    and isinstance(node.args[1].value, str):
                found.append(f"{path}:{node.lineno} {node.func.id}"
                             f"(..., {node.args[1].value!r})")
    assert found == []


def test_only_the_domain_fails_a_read_over():
    """No reference to ``failover_predict`` - a call, or the bound
    method handed on - outside ``Domain``'s own methods."""
    path, name = FAILS_OVER
    allowed = {id(node)
               for cls in ast.walk(SOURCES[path])
               if isinstance(cls, ast.ClassDef) and cls.name == name
               for node in ast.walk(cls)}
    found = [f"{where}:{node.lineno}"
             for where, tree in SOURCES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr == "failover_predict"
             and id(node) not in allowed]
    assert found == []


def test_only_the_domain_refuses_a_write():
    """``core/kernel`` constructs a ``ShardDownError`` in two methods,
    once each: the write's refusal and the read's when no follower
    holds the domain."""
    found = sorted(f"{path}:{function.name}"
                   for path, tree in SOURCES.items()
                   if path.startswith("core/kernel/")
                   for function in ast.walk(tree)
                   if isinstance(function, ast.FunctionDef)
                   for node in own_nodes(function)
                   if isinstance(node, ast.Call)
                   and dotted(node.func) == "ShardDownError")
    assert found == ["core/kernel/domain.py:refuse_write",
                     "core/kernel/shard.py:failover_predict"]


def assigned_names(owner):
    """The names a function or class body sets: attributes, parameters,
    and a class body's own fields."""
    for node in own_nodes(owner):
        if isinstance(node, ast.arg):
            yield node.arg
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target]
                   if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        for target in targets:
            if isinstance(target, ast.Attribute):
                yield target.attr
            elif isinstance(target, ast.Name) \
                    and isinstance(owner, ast.ClassDef):
                yield target.id


def test_a_loss_is_decided_where_records_are_delivered():
    """``lost_records`` is written in two functions, once each - the
    handle every flushed batch enters, and the fault layer's flush,
    which adds the suffix it never delivered - and declared once, as
    ``PSSError``'s default of 0.  No function takes it as a
    parameter."""
    found = sorted(f"{path}:{owner.name}"
                   for path, tree in SOURCES.items()
                   for owner in ast.walk(tree)
                   if isinstance(owner, (ast.FunctionDef, ast.ClassDef))
                   for name in assigned_names(owner)
                   if name == "lost_records")
    assert found == ["core/errors.py:PSSError",
                     "core/faults.py:flush",
                     "core/kernel/domain.py:update_batch"]


def test_the_transports_name_no_injector():
    tree = SOURCES[TRANSPORTS]
    found = [f"{TRANSPORTS}:{node.lineno} imports {node.module}"
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "repro.core.faults"]
    for function in ast.walk(tree):
        if not isinstance(function, ast.FunctionDef):
            continue
        for node in ast.walk(function):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else node.arg if isinstance(node, ast.arg)
                    else node.name if isinstance(node, ast.FunctionDef)
                    else None)
            if name in INJECTION:
                found.append(f"{TRANSPORTS}:{node.lineno} "
                             f"{function.name} names {name}")
    assert found == []


def test_the_pipeline_needs_no_load_complete_mark():
    trees = list(SOURCES.items()) + [
        (path.as_posix(), ast.parse(text, filename=str(path)))
        for path in sorted(TESTS.rglob("*.py"))
        if "mark_load_complete" in (text := path.read_text())]
    found = [f"{path}:{node.lineno} calls {dotted(node.func)}"
             for path, tree in trees
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and (
                 dotted(node.func).endswith("mark_load_complete")
                 or path == PIPELINE
                 and dotted(node.func).rpartition(".")[2] == "spawn")]
    assert found == []


#: what a fresh interpreter runs before and during its first requests:
#: the imports of ``perf/drivers.load_program``, then a 2-shard kernel
#: with admission, a tracer and a registry, a vDSO client and a serving
#: pipeline, each driven once; it prints the ``repro`` modules loaded
REQUEST_PATH = """
import importlib, sys
core = importlib.import_module("repro.core")
importlib.import_module("repro.core.errors")
serving = importlib.import_module("repro.core.serving")
obs = importlib.import_module("repro.obs")
importlib.import_module("repro.sim.process")
config = core.PSSConfig(num_features=2)
service = core.ShardedService(
    num_shards=2, admission=core.AdmissionController(),
    tracer=obs.Tracer(), metrics=obs.MetricsRegistry())
client = service.connect("d", transport="vdso", batch_size=4,
                         config=config)
client.predict((1, 2))
client.update((1, 2), True)
client.flush()
client.predict_batch([(1, 2), (3, 4)])
pipeline = serving.ServingPipeline(
    service, serving.ServingConfig(shed_on_page=True,
                                   slo_threshold_ns=1000.0),
    slos=serving.serving_slos(1000.0))
future = pipeline.submit("d", (1, 2))
pipeline.submit("d", (1, 2), op="update", direction=False)
pipeline.run()
future.result()
service.reports()
service.metrics.snapshot()
print(*sorted(name for name in sys.modules
              if name.partition(".")[0] == "repro"))
"""
#: the modules of the request path; a module joins it only with a
#: reason, and the change that adds it re-pins this list
REQUEST_PATH_MODULES = [
    "repro",
    "repro.core",
    "repro.core.client",
    "repro.core.config",
    "repro.core.errors",
    "repro.core.features",
    "repro.core.hashing",
    "repro.core.kernel",
    "repro.core.kernel.admission",
    "repro.core.kernel.domain",
    "repro.core.kernel.service",
    "repro.core.kernel.shard",
    "repro.core.kernel.sharding",
    "repro.core.models",
    "repro.core.perceptron",
    "repro.core.plans",
    "repro.core.policy",
    "repro.core.service",
    "repro.core.serving",
    "repro.core.serving.dispatch",
    "repro.core.serving.future",
    "repro.core.serving.pipeline",
    "repro.core.stats",
    "repro.core.transport",
    "repro.core.weights",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.slo",
    "repro.obs.spanned",
    "repro.obs.trace",
    "repro.sim",
    "repro.sim.engine",
    "repro.sim.process",
]


def test_the_request_path_loads_only_what_it_runs():
    """Fault injection, persistence, checkpoints, migration, replicas,
    the ablation models, exporters, the flight recorder, postmortem,
    the CLI session and the sim's resources and RNG streams are not
    imported by serving a request: every start-up would compile them."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", REQUEST_PATH], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout.split() == REQUEST_PATH_MODULES
