"""Event-driven serving sweep: offered load vs throughput and latency.

This is the load harness for the serving-pipeline refactor: a
Zipf-skewed open-loop client population (10k to 1M simulated clients)
drives one :class:`~repro.core.serving.pipeline.ServingPipeline` per
(client count, shard count, batch window) point, and the driver reports
achieved throughput and completion-sojourn p50/p99 against offered
load.  Every point runs with a bounded queue and SLO-page shedding
enforced, so the overloaded points show real back-pressure: refused
requests counted per shard, admitted ones completing inside the
latency SLO.

A final **back-pressure comparison** re-runs the heaviest point twice -
throttled (bounded queues + shedding) and unthrottled (unbounded, no
shedding) - and reports both shed counts and SLO page rates.  The
headline claim: the throttled run sheds (shed > 0) *and* pages less
than the unthrottled one, i.e. refusing load early keeps the served
requests healthy.

A cell is one sweep point; the back-pressure pair is one more cell,
because its per-shard table is read after both of its runs.  Results
are written as ``BENCH_serving.json`` (schema below,
``validate_bench_serving`` checks it) and printed as tables.
Everything is deterministic in ``--seed``: same seed, byte-identical
JSON and report.

Run with ``python -m repro serve`` (``--quick`` for the reduced sweep
CI runs; ``--out PATH`` to choose where the JSON lands - a ``--quick``
run writes it only then).
"""

from __future__ import annotations

import json
from typing import Any, NamedTuple

from repro.bench.loadgen import LoadGenerator, LoadSpec
from repro.bench.runner import SEED, Experiment, flag
from repro.bench.tables import serving_table, shard_table
from repro.core.kernel.admission import AdmissionController
from repro.core.kernel.service import ShardedService
from repro.core.serving import (
    ServingConfig,
    ServingPipeline,
    serving_slos,
)

#: BENCH_serving.json schema version
SCHEMA = 1

#: client populations swept (offered load scales linearly with these)
CLIENT_SWEEP = (10_000, 100_000, 1_000_000)

SHARD_SWEEP = (1, 2, 4)
QUICK_SHARD_SWEEP = (1, 2)

#: micro-batch windows swept: 0 is the scalar-equivalent baseline
WINDOW_SWEEP = (0.0, 200.0)

REQUESTS = 3_000
QUICK_REQUESTS = 1_000

MAX_BATCH = 32

#: bounded-queue depth for the throttled runs: 48 scalar crossings
#: (~3.5 us of queueing) keeps an admitted request's worst-case sojourn
#: under the 4 us serve SLO threshold, so shedding - not queueing - is
#: what absorbs overload
QUEUE_LIMIT = 48

SLO_THRESHOLD_NS = 4_000.0

#: per-client request rate (requests per simulated ns): 1M clients
#: offer ~7x one shard's scalar capacity, 10k clients ~7%
PER_CLIENT_RATE = 1e-7

#: keys every sweep row must carry (validate_bench_serving)
ROW_KEYS = frozenset({
    "clients", "shards", "batch_window_ns", "offered_per_us",
    "throughput_per_us", "p50_ns", "p99_ns", "submitted", "completed",
    "shed", "batches", "flush_timeouts", "mean_batch", "evals",
    "page_evals", "sim_ns",
})

#: keys each back-pressure branch must carry
BACKPRESSURE_KEYS = frozenset({
    "shed", "completed", "evals", "page_evals", "page_rate",
    "p99_ns",
})


def _round(value: float) -> float:
    """Stable rounding for the JSON payload (byte-identical reruns)."""
    return round(float(value), 6)


def run_point(clients: int, shards: int, window_ns: float, *,
              seed: int = 0, requests: int = REQUESTS,
              queue_limit: int = QUEUE_LIMIT,
              shed_on_page: bool = True,
              tracer=None, metrics=None,
              ) -> tuple[dict[str, Any], ServingPipeline]:
    """Run one load point; returns (sweep row, finished pipeline)."""
    spec = LoadSpec(clients=clients, requests=requests,
                    per_client_rate=PER_CLIENT_RATE)
    service = ShardedService(
        tracer=tracer, metrics=metrics,
        num_shards=shards, admission=AdmissionController(),
    )
    for name in spec.domain_names():
        service.create_domain(name)
    pipeline = ServingPipeline(
        service,
        ServingConfig(
            max_batch=MAX_BATCH, batch_window_ns=window_ns,
            queue_limit=queue_limit, shed_on_page=shed_on_page,
            slo_threshold_ns=SLO_THRESHOLD_NS,
        ),
        tracer=tracer, metrics=metrics,
        slos=serving_slos(SLO_THRESHOLD_NS),
    )
    generator = LoadGenerator(spec, seed=seed)
    generator.start_open_loop(pipeline)
    pipeline.run()

    snap = pipeline.snapshot()
    sim_ns = pipeline.engine.now
    latency = snap["latency"]
    row = {
        "clients": clients,
        "shards": shards,
        "batch_window_ns": _round(window_ns),
        "offered_per_us": _round(spec.offered_rate * 1e3),
        "throughput_per_us": _round(
            snap["completed"] / sim_ns * 1e3 if sim_ns else 0.0),
        "p50_ns": _round(latency["p50"]),
        "p99_ns": _round(latency["p99"]),
        "submitted": snap["submitted"],
        "completed": snap["completed"],
        "shed": snap["shed"],
        "batches": snap["batches"],
        "flush_timeouts": snap["flush_timeouts"],
        "mean_batch": _round(snap["mean_batch"]),
        "evals": snap["slo"]["evals"],
        "page_evals": snap["slo"]["page_evals"],
        "sim_ns": _round(sim_ns),
    }
    return row, pipeline


class Point(NamedTuple):
    """One cell: a sweep point, or the back-pressure pair at one."""

    clients: int
    shards: int
    window_ns: float
    seed: int
    requests: int
    backpressure: bool = False


def grid(args) -> list[Point]:
    """The (clients x shards x window) sweep in stable order, then the
    back-pressure pair at the heaviest point."""
    shard_sweep = QUICK_SHARD_SWEEP if args.quick else SHARD_SWEEP
    requests = QUICK_REQUESTS if args.quick else REQUESTS
    return [
        Point(clients, shards, window_ns, args.seed, requests)
        for clients in CLIENT_SWEEP
        for shards in shard_sweep
        for window_ns in WINDOW_SWEEP
    ] + [Point(CLIENT_SWEEP[-1], shard_sweep[0], 0.0, args.seed, requests,
               backpressure=True)]


def cell(point: Point, tracer, metrics):
    """A sweep point's row, or the back-pressure pair's comparison."""
    if point.backpressure:
        return run_backpressure_comparison(point, tracer, metrics)
    row, _pipeline = run_point(
        point.clients, point.shards, point.window_ns, seed=point.seed,
        requests=point.requests, tracer=tracer, metrics=metrics,
    )
    return row


def run_backpressure_comparison(
    point: Point, tracer=None, metrics=None,
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """``point`` throttled vs unthrottled, at window 0.

    Returns the comparison block for the JSON payload plus the
    throttled run's serving-annotated shard summaries (the shard_table
    view of queue/shed visibility).
    """

    def branch(queue_limit: int, shed_on_page: bool
               ) -> tuple[dict[str, Any], ServingPipeline]:
        row, pipeline = run_point(
            point.clients, point.shards, 0.0, seed=point.seed,
            requests=point.requests, queue_limit=queue_limit,
            shed_on_page=shed_on_page, tracer=tracer, metrics=metrics,
        )
        evals = row["evals"]
        summary = {
            "shed": row["shed"],
            "completed": row["completed"],
            "evals": evals,
            "page_evals": row["page_evals"],
            "page_rate": _round(
                row["page_evals"] / evals if evals else 0.0),
            "p99_ns": row["p99_ns"],
        }
        return summary, pipeline

    throttled, throttled_pipeline = branch(QUEUE_LIMIT, True)
    unthrottled, _ = branch(0, False)
    comparison = {
        "clients": point.clients,
        "shards": point.shards,
        "batch_window_ns": 0.0,
        "throttled": throttled,
        "unthrottled": unthrottled,
        #: the headline property: shedding engaged, and it kept the
        #: page rate below the unthrottled run's
        "backpressure_effective": bool(
            throttled["shed"] > 0
            and throttled["page_rate"] < unthrottled["page_rate"]
        ),
    }
    summaries = throttled_pipeline.annotate_summaries(
        throttled_pipeline.service.shard_summaries())
    return comparison, summaries


def build_payload(results: list, args) -> dict[str, Any]:
    """The BENCH_serving payload from the grid's rows."""
    *rows, (comparison, _summaries) = results
    return validate_bench_serving({
        "schema": SCHEMA,
        "seed": args.seed,
        "quick": args.quick,
        "spec": {
            "per_client_rate": PER_CLIENT_RATE,
            "requests": QUICK_REQUESTS if args.quick else REQUESTS,
            "max_batch": MAX_BATCH,
            "queue_limit": QUEUE_LIMIT,
            "slo_threshold_ns": SLO_THRESHOLD_NS,
            "client_sweep": list(CLIENT_SWEEP),
            "shard_sweep": list(QUICK_SHARD_SWEEP if args.quick
                                else SHARD_SWEEP),
            "window_sweep": [_round(w) for w in WINDOW_SWEEP],
        },
        "rows": rows,
        "backpressure": comparison,
    })


def validate_bench_serving(payload: dict[str, Any]) -> dict[str, Any]:
    """Structural check of a BENCH_serving payload; raises ValueError.

    Used by the CI smoke job and the determinism tests, so schema
    drift fails loudly instead of producing silently-wrong artifacts.
    """
    for key in ("schema", "seed", "quick", "spec", "rows",
                "backpressure"):
        if key not in payload:
            raise ValueError(f"BENCH_serving missing key {key!r}")
    if payload["schema"] != SCHEMA:
        raise ValueError(
            f"BENCH_serving schema {payload['schema']!r} != {SCHEMA}")
    rows = payload["rows"]
    if not isinstance(rows, list) or not rows:
        raise ValueError("BENCH_serving rows must be a non-empty list")
    for index, row in enumerate(rows):
        missing = ROW_KEYS - set(row)
        if missing:
            raise ValueError(
                f"row {index} missing keys {sorted(missing)}")
    if len({row["clients"] for row in rows}) < 3:
        raise ValueError(
            "sweep must cover at least 3 offered-load points")
    comparison = payload["backpressure"]
    for branch in ("throttled", "unthrottled"):
        if branch not in comparison:
            raise ValueError(f"backpressure missing {branch!r}")
        missing = BACKPRESSURE_KEYS - set(comparison[branch])
        if missing:
            raise ValueError(
                f"backpressure.{branch} missing {sorted(missing)}")
    if "backpressure_effective" not in comparison:
        raise ValueError(
            "backpressure missing 'backpressure_effective'")
    return payload


def render(results: list, args) -> str:
    payload = build_payload(results, args)
    comparison = payload["backpressure"]
    throttled = comparison["throttled"]
    unthrottled = comparison["unthrottled"]
    _comparison, summaries = results[-1]
    lines = [
        "Event-driven serving sweep (open-loop Zipf load, "
        "queue-aware micro-batching)",
        f"  seed: {payload['seed']}  requests/point: "
        f"{payload['spec']['requests']}  max batch: "
        f"{payload['spec']['max_batch']}  queue limit: "
        f"{payload['spec']['queue_limit']}",
        "",
        serving_table(payload["rows"]),
        "",
        f"back-pressure @ {comparison['clients']} clients, "
        f"{comparison['shards']} shard(s), window 0:",
        f"  throttled:   shed={throttled['shed']} "
        f"completed={throttled['completed']} "
        f"page-rate={throttled['page_rate']:.2f} "
        f"p99={throttled['p99_ns']:.0f}ns",
        f"  unthrottled: shed={unthrottled['shed']} "
        f"completed={unthrottled['completed']} "
        f"page-rate={unthrottled['page_rate']:.2f} "
        f"p99={unthrottled['p99_ns']:.0f}ns",
        "  back-pressure effective: "
        + ("yes" if comparison["backpressure_effective"] else "NO"),
        "",
        "throttled run, per shard:",
        shard_table(summaries),
    ]
    return "\n".join(lines)


def write_payload(payload: dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def write(results: list, args) -> str:
    """The JSON, to ``--out``; a ``--quick`` run writes only there, so
    it never overwrites the committed full sweep."""
    if args.quick and not args.out:
        return ""
    path = args.out or "BENCH_serving.json"
    write_payload(build_payload(results, args), path)
    return f"\nwrote {path}"


SERVE = Experiment(
    "serve", "Event-driven serving sweep (10k-1M clients)",
    grid, cell, render, write=write,
    flags=(SEED, flag("--out", metavar="PATH",
                      help="where to write the JSON results (default: "
                           "BENCH_serving.json; a --quick run writes "
                           "only when given a PATH)")),
)
