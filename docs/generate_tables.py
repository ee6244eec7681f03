"""Generate the event / span / metric tables of docs/OBSERVABILITY.md,
and its watch-budget table.

The names come from the program's registries - ``EVENT_KINDS``,
``SPAN_NAMES`` and the ``pss_*`` name constants of
``repro.obs.metrics`` - and the prose from the rows below; a name
without a row, or a row naming something no registry holds, is an
error, so the tables cannot list what the stack does not emit or omit
what it does.  The watch-budget table holds each ``perf/`` workload's
budget for the observed twin against its committed ratio - the
untraced ``obs_overhead_x`` of its last seed-0 entry in
``BENCH_trajectory.json`` - and a ratio over its budget is an error
the same way.  ``tests/obs/test_doc_tables.py`` (tier 1) fails when the
committed tables differ from what this prints.

    PYTHONPATH=src python docs/generate_tables.py           # print
    PYTHONPATH=src python docs/generate_tables.py --write   # update the doc
    PYTHONPATH=src python docs/generate_tables.py --check   # exit 1 on drift
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

from repro.obs import metrics as metric_names
from repro.obs.spans import SPAN_NAMES
from repro.obs.trace import EVENT_KINDS

DOC = Path(__file__).with_name("OBSERVABILITY.md")
ROOT = DOC.parent.parent
TRAJECTORY = ROOT / "BENCH_trajectory.json"

#: the observed twin's budget per ``perf/`` workload: the most its
#: watched run may cost, as a multiple of its plain run
#: (``obs_overhead_x``).  Each is the median of the workload's seed-0
#: entry for ``src`` tree ``6efc139`` plus 10 %, capped at 1.5: a
#: change that makes watching dearer than that has to say so here.
WATCH_BUDGETS = {
    "sync_hot": 1.50,      # 1.374
    "sync_churn": 1.42,    # 1.294
    "batch_cold": 1.16,    # 1.058
    "serve_scalar": 1.42,  # 1.291
    "serve_batched": 1.45,  # 1.320
}

#: (kinds, emitted by, when) - one row per group of kinds
EVENT_ROWS = [
    (("predict", "update", "reset", "flush"), "transports",
     "an operation crossed (or was served at) the boundary.  A scalar "
     "vDSO read's `predict` is its only record - it opens no span, hit "
     "or miss - emitted when the read settles, `dur_ns` 4.19, and says "
     "which way its score-cache probe went in `detail.cache`: `\"hit\"` "
     "(the generation-keyed cache answered) or `\"miss\"` (the model "
     "was evaluated; a follower's `failover` comes first); there is no "
     "`cache` on a read that bypasses the cache (staleness injection "
     "armed).  A refused read's event adds `detail.outcome`, "
     "`\"error:<Type>\"`, which the error SLO counts bad.  One event per "
     "read, scalar or per row of a batch (a batch row's is emitted at "
     "its probe and names no outcome)"),
    (("predict_batch",), "syscall transport",
     "a batched crossing served N rows in one trap"),
    (("stale_read",), "vDSO transport",
     "injected staleness served an old score"),
    (("fault",), "transports",
     "a `TransportFault` was raised to the caller (detail carries the "
     "errno)"),
    (("fault_injected",), "`FaultInjector`",
     "the injector decided to inject (decision time; tracing never "
     "touches the injector's RNG, so fault sequences are identical with "
     "tracing on or off)"),
    (("retry", "fallback"), "`PSSClient` degrade ladder",
     "a failed operation was retried / the static fallback answered"),
    (("breaker_open", "breaker_close"), "`CircuitBreaker`",
     "state transitions"),
    (("checkpoint_save", "checkpoint_restore"),
     "`ShardedCheckpointManager`",
     "shard file written / restored (detail carries bytes, corruption, "
     "ok)"),
    (("checkpoint.corrupt",), "checkpoint layer",
     "a CRC mismatch was detected on restore"),
    (("shard_crash",), "sharded kernel",
     "a shard was crashed (chaos schedule or fault)"),
    (("failover",), "sharded kernel",
     "a read was served by a follower replica (detail carries the "
     "staleness `lag`)"),
    (("replica_sync", "replica_promote"), "replication layer",
     "follower refreshed from its primary / promoted to primary"),
    (("migration_start", "migration_commit", "migration_stall"),
     "live resharding", "per-domain migration lifecycle"),
    (("plan.compile", "plan.hit"), "plan cache",
     "a specialized shape plan was compiled / reused"),
    (("request",), "serving pipeline",
     "a submitted request settled - its one wide record: `ts_ns` the "
     "submit, `dur_ns` the sojourn, detail `{op, outcome, rows, trigger, "
     "collect_ns, drained_ns, settled_ns}` (the stamps split the sojourn "
     "into queue wait / batch window / crossing; see "
     "[SERVING.md](SERVING.md)).  A request its handle refused at "
     "submit has no sojourn and no batch: `dur_ns` 0, no shard, detail "
     "`{op, outcome: \"refused:domain|policy|quota|feature\"}`"),
    (("queue.shed",), "serving lane (`Dispatcher`)",
     "an admitted submit was shed (detail carries the shed reason); its "
     "only record"),
    (("batch.flush_timeout",), "serving lane (`Dispatcher`)",
     "a partial batch was flushed by window expiry"),
    (("slo.page",), "`SLOEngine`",
     "an SLO entered a fast-burn excursion (see below)"),
]

#: (names, opened by, covers)
SPAN_ROWS = [
    (("client.predict", "client.predict_batch", "client.update",
      "client.reset", "client.flush"), "`PSSClient`",
     "a call that entered the degrade ladder: the root of its retries "
     "and the parent of its `retry` / `fallback` events (a steady call "
     "opens no span)"),
    (("vdso.predict_batch",), "`VdsoTransport`",
     "a batch of reads `{rows}`; enters the kernel at most once, at the "
     "first miss"),
    (("vdso.flush",), "`VdsoTransport`",
     "a flush that carries records `{records}`: 68 + n x 1 ns (a "
     "buffered update opens no span)"),
    (("vdso.reset", "syscall.predict", "syscall.predict_batch",
      "syscall.update", "syscall.reset"), "transports",
     "one syscall crossing"),
    (("kernel.predict", "kernel.update"), "`DomainHandle`",
     "one scalar kernel call: a syscall's.  The service's by-name calls "
     "open none - a served request's `request` record is its one "
     "record"),
    (("kernel.predict_batch", "kernel.update_batch"), "`DomainHandle`",
     "one kernel call for a batch `{rows}` / a flush's records "
     "`{records}`"),
    (("kernel.admission",), "`DomainHandle`",
     "the per-tenant quota charge of a real batch, `{count}` > 1, on a "
     "service with an `AdmissionController` (a charge of one opens "
     "none: its parent, or a submit's `request` record, says how it "
     "ended)"),
    (("kernel.failover",), "`Shard`",
     "a follower replica served the read `{lag}`"),
    (("plan.execute",), "`Domain`",
     "one specialized-plan pass over a block of rows"),
    (("migrate.step",), "`SlotMigrator`", "one slot handoff"),
    (("serve.dispatch",), "serving lane (`Dispatcher`)",
     "one drained batch of two or more requests `{rows, trigger}`; a "
     "batch of one opens none (its `request` record says `rows: 1`)"),
]

#: (names, instrument, labels, meaning)
METRIC_ROWS = [
    (("pss_vdso_read_ns", "pss_syscall_ns"), "histogram",
     "`domain`, `transport`, `shard`", "boundary-crossing latency per "
     "path (the distribution behind the paper's 4.19 ns vs 68 ns "
     "headline)"),
    (("pss_op_ns",), "histogram", "`domain`, `transport`, `shard`, `op`",
     "the same time, broken down per operation"),
    (("pss_score_cache_hits_total", "pss_score_cache_misses_total"),
     "counter", "`domain`, `transport`, `shard`",
     "the vDSO score cache's probes.  With `pss_vdso_read_ns` and "
     "`pss_op_ns{op=\"predict\"}` of a vDSO transport these are counts "
     "filed when the registry is *read*, reads as count x cost"),
    (("pss_shard_crashes_total", "pss_failover_predictions_total"),
     "counter", "`shard`", "injected primary crashes / reads served by "
     "a follower replica"),
    (("pss_replica_lag_generations",), "gauge", "`shard`",
     "generations the furthest-behind follower trails its primary, at "
     "the last sync"),
    (("pss_migrated_slots_total",), "counter", "-",
     "slots handed off by completed live reshards"),
    (("pss_queue_depth",), "histogram", "`shard`",
     "serving queue depth at every enqueue, counted per depth and "
     "filed when the registry is *read*"),
    (("pss_batch_size",), "histogram", "`shard`",
     "rows per drained micro-batch"),
    (("pss_serve_latency_ns",), "histogram", "`shard`",
     "submit-to-completion sojourn of served requests"),
    (("pss_shed_total",), "counter", "`shard`, `reason`",
     "requests refused by back-pressure"),
]


def metric_constants() -> frozenset[str]:
    return frozenset(
        value for name, value in vars(metric_names).items()
        if name.isupper() and isinstance(value, str)
        and value.startswith("pss_"))


def _refuse(problems: list[str]) -> None:
    if problems:
        raise SystemExit("docs/generate_tables.py: " + "; ".join(problems))


def _markdown(header: tuple[str, ...], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(cells) + " |" for cells in rows]
    return "\n".join(lines)


def _table(header: tuple[str, ...], rows, registry: frozenset[str],
           what: str) -> str:
    named = [name for names, *_ in rows for name in names]
    _refuse(
        [f"{what} {name!r} has no row" for name in sorted(
            registry - set(named))]
        + [f"row names unknown {what} {name!r}" for name in sorted(
            set(named) - registry)]
        + [f"{what} {name!r} is in two rows" for name in sorted(
            {name for name in named if named.count(name) > 1})])
    return _markdown(header, [
        [" / ".join(f"`{name}`" for name in names), *cells]
        for names, *cells in rows])


def perf_workloads() -> list[str]:
    """The workload names ``perf/inputs.py`` declares, in its order."""
    spec = importlib.util.spec_from_file_location(
        "perf_inputs", ROOT / "perf" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look it up
    spec.loader.exec_module(module)
    return list(module.WORKLOADS)


def committed_ratios() -> dict[str, tuple[int, float, float, float, str]]:
    """Workload -> (n, q1, median, q3, src tree) of the untraced
    ``obs_overhead_x`` in its last seed-0 trajectory entry."""
    ratios = {}
    for entry in json.loads(TRAJECTORY.read_text())["trajectory"]:
        if entry["seed"] != 0:
            continue
        for workload, run, metric, _unit, n, q1, median, q3 \
                in entry["rows"]:
            if run == "untraced" and metric == "obs_overhead_x":
                ratios[workload] = (n, q1, median, q3,
                                    entry["src_tree"][:7])
    return ratios


def watch_budget_table() -> str:
    workloads = perf_workloads()
    ratios = committed_ratios()
    _refuse(
        [f"workload {name!r} has no watch budget" for name in workloads
         if name not in WATCH_BUDGETS]
        + [f"watch budget for unknown workload {name!r}"
           for name in WATCH_BUDGETS if name not in workloads]
        + [f"workload {name!r} has no seed-0 obs_overhead_x"
           for name in workloads if name not in ratios]
        + [f"workload {name!r}: obs_overhead_x {ratios[name][2]} is over "
           f"its budget {WATCH_BUDGETS[name]}" for name in workloads
           if name in ratios and name in WATCH_BUDGETS
           and ratios[name][2] > WATCH_BUDGETS[name]])
    rows = []
    for name in workloads:
        n, q1, median, q3, tree = ratios[name]
        rows.append([f"`{name}`", f"{WATCH_BUDGETS[name]:.2f}",
                     f"{median:.3f}", f"{q1:.3f} - {q3:.3f}", str(n),
                     f"`{tree}`"])
    return _markdown(("workload", "budget", "`obs_overhead_x` median",
                      "q1 - q3", "runs", "`src` tree"), rows)


def tables() -> dict[str, str]:
    """Section name -> generated markdown table."""
    return {
        "events": _table(("kind", "emitted by", "when"), EVENT_ROWS,
                         EVENT_KINDS, "event kind"),
        "spans": _table(("span", "opened by", "covers"), SPAN_ROWS,
                        SPAN_NAMES, "span name"),
        "metrics": _table(("metric", "instrument", "labels", "meaning"),
                          METRIC_ROWS, metric_constants(), "metric"),
        "watch-budget": watch_budget_table(),
    }


def _block(section: str) -> re.Pattern[str]:
    """The marked block of the doc that holds ``section``'s table."""
    return re.compile(
        rf"(<!-- generated:{section} -->\n)(.*?)(\n<!-- /generated -->)",
        re.DOTALL)


def committed(text: str) -> dict[str, str | None]:
    """Section name -> the table currently between its markers."""
    found = {}
    for section in tables():
        match = _block(section).search(text)
        found[section] = match.group(2) if match else None
    return found


def main(argv: list[str]) -> int:
    generated = tables()
    if not argv:
        for section, table in generated.items():
            print(f"<!-- generated:{section} -->\n{table}\n"
                  f"<!-- /generated -->\n")
        return 0
    text = DOC.read_text(encoding="utf-8")
    if argv == ["--check"]:
        stale = [section for section, table in committed(text).items()
                 if table != generated[section]]
        if stale:
            print(f"{DOC.name}: stale generated tables: {stale}; run "
                  f"docs/generate_tables.py --write", file=sys.stderr)
        return 1 if stale else 0
    if argv == ["--write"]:
        for section, table in generated.items():
            text, count = _block(section).subn(
                lambda match: match.group(1) + table + match.group(3),
                text)
            if count != 1:
                raise SystemExit(
                    f"{DOC.name}: no '<!-- generated:{section} -->' block")
        DOC.write_text(text, encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
