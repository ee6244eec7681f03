"""Plain-text table/series formatting for the experiment drivers.

The drivers print the same rows and series the paper's figures plot, as
aligned text tables - the reproduction's equivalent of regenerating the
figure.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render rows as an aligned text table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def pct(value: float) -> str:
    """Format a ratio as a signed percentage."""
    return f"{value:+.1%}"


def column_table(columns, items) -> str:
    """Render ``items`` through ``(header, cell, shown)`` columns.

    Each optional column is spelled once - its header, how an item
    fills it, and whether this table shows it - instead of once while
    building rows and again while building headers.
    """
    shown = [(header, cell) for header, cell, show in columns if show]
    return format_table(
        [header for header, _cell in shown],
        [[cell(item) for _header, cell in shown] for item in items],
    )


def percentile_columns(percentiles, shown: bool) -> list[tuple]:
    """vDSO/syscall p50/p99 columns; ``percentiles(item)`` maps a
    latency path to its histogram snapshot (absent paths render ``-``)."""

    def column(path: str, key: str):
        def cell(item) -> str:
            snap = percentiles(item).get(path)
            return f"{snap[key]:.2f}" if snap else "-"
        return cell

    return [
        (f"{short}-{key}", column(path, key), shown)
        for short, path in (("vdso", "vdso_read_ns"), ("sys", "syscall_ns"))
        for key in ("p50", "p99")
    ]


def fastpath_table(labeled_reports) -> str:
    """Fast-path effectiveness table from labeled domain reports.

    ``labeled_reports`` is an iterable of ``(label, DomainReport)`` pairs
    (the label names the scenario/workload the domain served).  Shown per
    row: prediction volume, how many predictions client-side score caches
    absorbed, the model-side index-cache hit rate, and the final weight
    generation - the ``--report`` view of how much work the caches saved.

    Reports carrying latency-histogram percentiles (a service run with a
    metrics registry attached) get extra vDSO/syscall p50/p99 columns.
    """
    labeled = list(labeled_reports)
    return column_table([
        ("scenario", lambda entry: entry[0], True),
        ("domain", lambda entry: entry[1].name, True),
        # Shard column only when some domain actually lives off shard
        # 0, keeping single-shard report output byte-identical to
        # pre-sharding.
        ("shard", lambda entry: entry[1].shard,
         any(report.shard for _label, report in labeled)),
        ("predicts", lambda entry: entry[1].stats.predictions, True),
        ("cached", lambda entry: entry[1].stats.cached_predictions, True),
        ("cached%",
         lambda entry: pct_plain(entry[1].cached_prediction_rate), True),
        ("idx-hit%",
         lambda entry: pct_plain(entry[1].index_cache_hit_rate), True),
        ("weight-gen", lambda entry: entry[1].generation, True),
        *percentile_columns(
            lambda entry: entry[1].latency_percentiles,
            any(report.latency_percentiles for _label, report in labeled)),
    ], labeled)


def pct_plain(value: float) -> str:
    """Format a ratio as an unsigned percentage."""
    return f"{value:.1%}"


def boundary_table(labeled_accounts) -> str:
    """Boundary-crossing cost table from labeled LatencyAccounts.

    Accounts sharing a label are folded together with
    :meth:`~repro.core.stats.LatencyAccount.merge`, so multi-client runs
    report one row per label; a final ``all`` row merges everything when
    there is more than one label.
    """
    from repro.core.stats import LatencyAccount

    merged: dict[str, LatencyAccount] = {}
    order: list[str] = []
    for label, account in labeled_accounts:
        if label not in merged:
            merged[label] = LatencyAccount()
            order.append(label)
        merged[label].merge(account)

    def row(label: str, acct: LatencyAccount) -> list[object]:
        return [
            label,
            acct.vdso_calls,
            f"{acct.mean_vdso_ns:.2f}",
            acct.syscalls,
            f"{acct.mean_syscall_ns:.2f}",
            pct_plain(acct.cache_hit_rate),
            f"{acct.total_ns / 1e3:.1f}",
        ]

    total = LatencyAccount()
    rows = []
    for label in order:
        total.merge(merged[label])
        rows.append(row(label, merged[label]))
    if len(order) > 1:
        rows.append(row("all", total))
    return format_table(
        ["client", "vdso-calls", "vdso-mean", "syscalls", "sys-mean",
         "cache-hit%", "total-us"],
        rows,
    )


def shard_table(summaries) -> str:
    """Shard-scaling table from ``ShardedService.shard_summaries()``.

    One row per shard: how many domains landed there, aggregate
    prediction/update volume, and - when the service ran with a metrics
    registry - vDSO/syscall latency percentiles merged over the shard's
    domains.  The ``tenants`` experiment prints one of these per shard
    count to show how stable hashing spreads the tenant mix.
    """
    summaries = list(summaries)
    with_replicas = any("replica_lag" in s for s in summaries)
    with_plans = any("plans" in s for s in summaries)
    # Serving columns only when a pipeline annotated the summaries
    # (ServingPipeline.annotate_summaries), keeping synchronous-path
    # reports byte-identical to earlier releases.
    with_serving = any("serving" in s for s in summaries)

    def serving_cell(key: str):
        return lambda s: s["serving"][key] if s.get("serving") else "-"

    table = column_table([
        ("shard", lambda s: f"{s['shard']}!" if s.get("down")
         else str(s["shard"]), True),
        ("slots", lambda s: s.get("slots", "-"), True),
        ("domains", lambda s: s["domains"], True),
        ("predicts", lambda s: s["predictions"], True),
        ("updates", lambda s: s["updates"], True),
        ("total-us", lambda s: f"{s['latency'].total_ns / 1e3:.1f}", True),
        ("lag", lambda s: s.get("replica_lag", "-"), with_replicas),
        ("failovers", lambda s: s.get("failover_predictions", 0),
         with_replicas),
        ("plans", lambda s: s.get("plans", "-"), with_plans),
        ("queued", serving_cell("enqueued"), with_serving),
        ("shed", serving_cell("shed"), with_serving),
        ("max-q", serving_cell("max_depth"), with_serving),
        ("batches", serving_cell("batches"), with_serving),
        ("t-flush", serving_cell("flush_timeouts"), with_serving),
        *percentile_columns(
            lambda s: s.get("latency_percentiles", {}),
            any(s.get("latency_percentiles") for s in summaries)),
    ], summaries)
    if with_plans:
        # The plan cache is kernel-global; summarize sharing once below
        # the per-shard rows instead of repeating it per row.
        cache = next(
            s["plan_cache"] for s in summaries if "plan_cache" in s
        )
        table += (
            f"\nplan cache: {cache['plans']} compiled, "
            f"{cache['hits']} shared bindings, {cache['misses']} compiles"
        )
    return table


def serving_table(rows) -> str:
    """Offered-load sweep table for the ``serve`` experiment.

    One row per (client population, shard count, batch window) point:
    offered vs achieved throughput (requests per simulated us),
    completion-sojourn p50/p99, mean micro-batch size, and the
    back-pressure counters (sheds, SLO page evaluations).  ``rows`` is
    the ``rows`` list of a BENCH_serving payload.
    """
    materialized = list(rows)
    if not materialized:
        return "<no serve measurements>"
    table_rows = []
    for entry in materialized:
        table_rows.append([
            entry["clients"],
            entry["shards"],
            f"{entry['batch_window_ns']:.0f}",
            f"{entry['offered_per_us']:.2f}",
            f"{entry['throughput_per_us']:.2f}",
            f"{entry['p50_ns']:.0f}",
            f"{entry['p99_ns']:.0f}",
            f"{entry['mean_batch']:.1f}",
            entry["shed"],
            entry["page_evals"],
        ])
    return format_table(
        ["clients", "shards", "window-ns", "offered/us", "served/us",
         "p50-ns", "p99-ns", "batch", "shed", "pages"],
        table_rows,
    )


def tenant_table(usage_rows) -> str:
    """Per-tenant consumption table from
    ``AdmissionController.usage_rows()``."""

    def limit(value) -> str:
        return "-" if value is None else str(value)

    rows = []
    for identity, usage, quota in usage_rows:
        rows.append([
            f"{identity.program}(uid={identity.uid})",
            f"{usage.domains}/{limit(quota.max_domains)}",
            f"{usage.predictions}/{limit(quota.predict_budget)}",
            f"{usage.updates}/{limit(quota.update_budget)}",
            usage.rejections,
        ])
    if not rows:
        return "<no tenants>"
    return format_table(
        ["tenant", "domains", "predicts", "updates", "rejected"],
        rows,
    )


def health_table(verdicts) -> str:
    """SLO health table from :meth:`SLOEngine.evaluate` verdicts.

    One row per SLO: the long-window good/bad counts, both burn rates
    (1.0 = spending the error budget exactly as fast as the objective
    allows), the remaining budget fraction, and the ok/warn/page
    verdict the multi-window alerting rule produced.
    """
    rows = []
    for verdict in verdicts:
        rows.append([
            verdict.slo,
            verdict.scope,
            verdict.kind,
            verdict.good,
            verdict.bad,
            f"{verdict.short_burn:.2f}",
            f"{verdict.long_burn:.2f}",
            f"{verdict.budget_remaining:.2f}",
            verdict.verdict,
        ])
    if not rows:
        return "<no SLOs configured>"
    return format_table(
        ["slo", "scope", "kind", "good", "bad", "burn(s)", "burn(l)",
         "budget", "verdict"],
        rows,
    )


def series_summary(series: Sequence[float], points: int = 8) -> str:
    """Downsample a long numeric series for textual display."""
    if not series:
        return "<empty>"
    if len(series) <= points:
        sampled = list(series)
    else:
        step = (len(series) - 1) / (points - 1)
        sampled = [series[round(i * step)] for i in range(points)]
    return " -> ".join(f"{v:.3g}" for v in sampled)
