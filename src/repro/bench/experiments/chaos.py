"""Chaos schedule: crashes and live resharding on one replicated kernel.

A seeded fault schedule against one replicated sharded service - shard
crashes, live reshards (``--reshard-at``), replica failover and
promotion - while a driver-side ledger mirrors every delivered update.
At the end the ledger is replayed onto fresh models and compared
weight-for-weight against the live service: the headline invariant is
that **no update is lost beyond the documented flush/replication
window** (writes refused while a shard is down, and deliveries since
the last follower sync destroyed by a crash, are counted and reported;
anything else is a violation and exit status 1).

The tenant mix is the ``tenants`` experiment's domains.  The whole
schedule is one cell, deterministic in ``--seed``: two runs with the
same seed produce byte-identical reports and ``--snapshot-out`` JSON,
with or without ``--trace``.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field

from repro.bench.runner import SEED, Experiment, flag
from repro.bench.tables import format_table, shard_table
from repro.core import PredictionService
from repro.core.config import PSSConfig, ResilienceConfig
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel.checkpoint import ShardedCheckpointManager
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.models import create_model
from repro.sim.rng import RngStreams

#: the tenant mix: the domains the ``tenants`` sweep creates
CHAOS_DOMAINS = (
    "hle-genome", "hle-ssca2",
    "jit-atax", "jit-gesummv", "jit-trisolv", "jit-mvt",
    "reclaim", "scavenger",
)

#: updates are batched this small so crashes land mid-stream often
CHAOS_BATCH_SIZE = 4

#: slot handoffs attempted per chaos round while a reshard is live
CHAOS_SLOTS_PER_ROUND = 8

#: probe vectors scored per domain for the deterministic final report
CHAOS_PROBES = ((1, 2), (7, 11), (13, 3))


def parse_reshard_schedule(spec: str) -> dict[int, int]:
    """Parse ``--reshard-at ROUND:SHARDS[,ROUND:SHARDS...]``."""
    schedule: dict[int, int] = {}
    if not spec:
        return schedule
    for part in spec.split(","):
        try:
            round_text, count_text = part.split(":")
            round_index, count = int(round_text), int(count_text)
        except ValueError:
            raise SystemExit(
                f"--reshard-at expects ROUND:SHARDS pairs, got {part!r}"
            ) from None
        if round_index < 0 or count < 1:
            raise SystemExit(
                f"--reshard-at needs round >= 0 and shards >= 1, "
                f"got {part!r}"
            )
        schedule[round_index] = count
    return schedule


@dataclass
class ChaosResult:
    """One chaos schedule's outcome, renderable deterministically."""

    seed: int
    replicas: int
    rounds: int
    ops_per_round: int
    reshard_schedule: dict[int, int]
    crashes: int = 0
    promotions: int = 0
    reshards_completed: int = 0
    migrated_slots: int = 0
    migration_stalls: int = 0
    replica_syncs: int = 0
    lagged_refreshes: int = 0
    failover_predictions: int = 0
    refused_predictions: int = 0
    updates_delivered: int = 0
    #: deliveries destroyed by a crash since the last follower sync
    #: (inside the documented replication window)
    window_lost: int = 0
    #: updates refused while their shard was down (documented window)
    downtime_lost: int = 0
    checkpoints_written: int = 0
    final_num_shards: int = 0
    shard_summaries: list = field(default_factory=list)
    #: (domain, generation, probe scores) rows, sorted by domain
    final_rows: list = field(default_factory=list)
    #: domains whose ledger replay mismatched the live weights
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def event_rows(self) -> list:
        return [
            ("shard crashes", self.crashes),
            ("replica promotions", self.promotions),
            ("live reshards completed", self.reshards_completed),
            ("slots migrated", self.migrated_slots),
            ("migration stalls", self.migration_stalls),
            ("follower refreshes", self.replica_syncs),
            ("lagged refreshes (injected)", self.lagged_refreshes),
            ("failover predictions", self.failover_predictions),
            ("predictions refused (no follower)",
             self.refused_predictions),
            ("updates delivered", self.updates_delivered),
            ("updates lost to crash window", self.window_lost),
            ("updates refused while down", self.downtime_lost),
            ("rolling checkpoints written", self.checkpoints_written),
        ]

    def render(self) -> str:
        schedule = ", ".join(
            f"round {r} -> {c} shards"
            for r, c in sorted(self.reshard_schedule.items())
        ) or "none"
        lines = [
            "Chaos schedule (crashes + live resharding on one "
            "replicated kernel)",
            f"  seed: {self.seed}  replicas/shard: {self.replicas}  "
            f"rounds: {self.rounds}  ops/round: {self.ops_per_round}",
            f"  reshard schedule: {schedule}",
            f"  final topology: {self.final_num_shards} shards",
            "",
            format_table(["event", "count"], self.event_rows()),
            "",
            "shards:",
            shard_table(self.shard_summaries),
            "",
            "final domain state:",
        ]
        rows = [
            (name, generation,
             " ".join(str(score) for score in scores))
            for name, generation, scores in self.final_rows
        ]
        lines.append(format_table(
            ["domain", "generation", "probe scores"], rows
        ))
        lines.append("")
        if self.ok:
            lines.append(
                "ledger replay: OK - every delivered update is in the "
                "final weights (losses above are inside the documented "
                "window)"
            )
        else:
            lines.append(
                "ledger replay: VIOLATION - updates lost outside the "
                "documented window in: "
                + ", ".join(sorted(self.violations))
            )
        return "\n".join(lines)

    def snapshot(self, service) -> dict:
        """JSON-dumpable final state for cross-run determinism diffs."""
        domains = {}
        for name in service.domain_names():
            domain = service.domain(name)
            domains[name] = {
                "state": domain.model.to_state(),
                "generation": domain.generation,
                "predictions": domain.stats.predictions,
                "updates": domain.stats.updates,
                "failover_predictions":
                    domain.stats.failover_predictions,
            }
        return {
            "seed": self.seed,
            "replicas": self.replicas,
            "final_num_shards": self.final_num_shards,
            "events": {name: count for name, count in self.event_rows()},
            "ok": self.ok,
            "violations": sorted(self.violations),
            "domains": domains,
        }


def run_chaos(seed: int = 0, replicas: int = 2,
              reshard_schedule: dict[int, int] | None = None,
              rounds: int = 24, ops_per_round: int = 48,
              crash_rate: float = 0.15,
              tracer=None, metrics=None,
              ) -> tuple[ChaosResult, PredictionService]:
    """Run one seeded chaos schedule; see the module docstring.

    Returns the result plus the (still live) service so callers can
    snapshot its final state.
    """
    if reshard_schedule is None:
        reshard_schedule = {}
    streams = RngStreams(seed)
    traffic = streams.stream("chaos.traffic")
    victims = streams.stream("chaos.victims")
    injector = FaultInjector(FaultPlan(
        seed=seed,
        shard_crash_rate=crash_rate,
        migration_stall_rate=0.05,
        replica_lag_rate=0.05,
    ))
    service = PredictionService(
        tracer=tracer, metrics=metrics, num_shards=2, num_replicas=replicas,
    )
    result = ChaosResult(
        seed=seed, replicas=replicas, rounds=rounds,
        ops_per_round=ops_per_round,
        reshard_schedule=dict(reshard_schedule),
    )

    clients = {}
    #: every update the service acknowledged, in delivery order
    delivered: dict[str, list] = {}
    #: updates handed to the client but not yet flushed (mirrors the
    #: client's batch buffer exactly)
    pending: dict[str, list] = {}
    #: generation -> delivered-prefix length at the sync that observed
    #: it; a promoted follower's generation looks up exactly the prefix
    #: its restored weights replay to
    synced_prefix: dict[str, dict[int, int]] = {}
    # The ledger counts each refused op once, off the client's stats:
    # no retry, and a breaker that never trips (a threshold above the
    # run's op count, flushes included).
    ladder = ResilienceConfig(
        max_attempts=1,
        breaker_threshold=rounds * (ops_per_round + len(CHAOS_DOMAINS)) + 1,
    )
    for name in CHAOS_DOMAINS:
        service.create_domain(name, config=PSSConfig())
        clients[name] = service.connect(
            name, transport="vdso", batch_size=CHAOS_BATCH_SIZE,
            resilience=ladder,
        )
        delivered[name] = []
        pending[name] = []
        synced_prefix[name] = {}

    def record_sync_boundary() -> None:
        for name in CHAOS_DOMAINS:
            generation = service.domain(name).generation
            synced_prefix[name][generation] = len(delivered[name])

    result.replica_syncs += service.sync_replicas(injector=injector)
    record_sync_boundary()

    def dropped(name: str, call, *args) -> int:
        """Run one client call; the update records it dropped (a
        down shard refused their delivery)."""
        stats = clients[name].stats
        before = stats.dropped_updates
        call(*args)
        return stats.dropped_updates - before

    def flush_client(name: str) -> None:
        lost = dropped(name, clients[name].flush)
        if lost:
            result.downtime_lost += lost
            pending[name].clear()
            return
        if clients[name].pending_updates == 0 and pending[name]:
            delivered[name].extend(pending[name])
            pending[name].clear()

    def crash_one_shard() -> None:
        """Fault-inject one primary crash, preferring a populated
        shard, and settle the ledger: deliveries newer than the
        freshest follower snapshot die with the primary (the
        documented replication window)."""
        up = [s.shard_id for s in service.shards if not s.down]
        populated = [
            shard_id for shard_id in up if len(service.shard(shard_id))
        ]
        if not up:
            return
        victim = victims.choice(populated or up)
        shard = service.shard(victim)
        lost_names = sorted(shard.domains)
        service.crash_shard(victim)
        result.crashes += 1
        for name in lost_names:
            freshest = max(
                (replica.followers[name].generation
                 for replica in shard.replicas
                 if name in replica.followers),
                default=None,
            )
            covered = (
                synced_prefix[name].get(freshest, 0)
                if freshest is not None else 0
            )
            result.window_lost += len(delivered[name]) - covered
            del delivered[name][covered:]

    with tempfile.TemporaryDirectory() as snapshot_dir:
        checkpoints = ShardedCheckpointManager(
            service, snapshot_dir, interval=ops_per_round * 2,
        )
        promoter = ReplicaPromoter(
            service, checkpoints=checkpoints, tracer=tracer,
        )
        migrator = None
        finished_reports = []

        for round_index in range(rounds):
            # 1. scheduled live reshard (deferred while one is active)
            target = reshard_schedule.get(round_index)
            if target is not None and target != service.num_shards \
                    and (migrator is None or migrator.done):
                if migrator is not None:
                    finished_reports.append(migrator.report())
                migrator = service.begin_reshard(
                    target, injector=injector
                )

            # 2. migration slot handoffs, interleaved with the traffic
            if migrator is not None and not migrator.done:
                for _step in range(CHAOS_SLOTS_PER_ROUND):
                    if migrator.step():
                        break

            # 3. client traffic, with the crash roll landing mid-round
            # so each crash destroys a real post-sync delivery window
            # *and* gets half a round of failover traffic before the
            # end-of-round promotion revives the shard
            for op_index in range(ops_per_round):
                if op_index == ops_per_round // 2 \
                        and injector.shard_crash():
                    crash_one_shard()
                name = traffic.choice(CHAOS_DOMAINS)
                features = [traffic.randrange(16), traffic.randrange(16)]
                if traffic.random() < 0.65:
                    stats = clients[name].stats
                    fallbacks = stats.fallback_predictions
                    clients[name].predict(features)
                    result.refused_predictions += \
                        stats.fallback_predictions - fallbacks
                else:
                    direction = traffic.random() < 0.7
                    pending[name].append((tuple(features), direction))
                    lost = dropped(name, clients[name].update,
                                   features, direction)
                    if lost:
                        result.downtime_lost += lost
                        pending[name].clear()
                        continue
                    if clients[name].pending_updates == 0:
                        delivered[name].extend(pending[name])
                        pending[name].clear()

            # 4. zero-downtime promotion of any crashed shard, then a
            # flush/sync boundary (the documented loss window closes)
            for shard in service.shards:
                if shard.down:
                    promoter.promote(shard.shard_id)
                    result.promotions += 1
            for name in CHAOS_DOMAINS:
                flush_client(name)
            # Replication is a coarser boundary than flushing: every
            # *other* round, so a crash can land on deliveries the
            # followers have not yet seen - the replication window the
            # headline invariant is documented over.
            if round_index % 2 == 1:
                result.replica_syncs += \
                    service.sync_replicas(injector=injector)
                record_sync_boundary()
            checkpoints.tick(ops_per_round)

        if migrator is not None and not migrator.done:
            # Drain the tail of an unfinished reshard: every shard was
            # promoted at the last round boundary, so only injected
            # stalls remain and the plan must converge.
            while not migrator.step():
                pass
        if migrator is not None:
            finished_reports.append(migrator.report())
        checkpoints.checkpoint()

    # -- verdict: replay the ledger against the live weights ----------------
    for name in sorted(CHAOS_DOMAINS):
        domain = service.domain(name)
        replay = create_model(domain.model_name, domain.config)
        for features, direction in delivered[name]:
            replay.update(features, direction)
        if replay.to_state() != domain.model.to_state():
            result.violations.append(name)
        result.updates_delivered += len(delivered[name])
        result.final_rows.append((
            name, domain.generation,
            [service.predict(name, probe) for probe in CHAOS_PROBES],
        ))

    result.migration_stalls = sum(
        report.stalls for report in finished_reports
    )
    result.migrated_slots = sum(
        report.moved_slots for report in finished_reports
    )
    result.reshards_completed = len(finished_reports)
    result.lagged_refreshes = sum(
        replica.lagged_refreshes
        for shard in service.shards for replica in shard.replicas
    )
    # Counted from domain stats, not shard counters: domains carry
    # their history across migrations, while a shrinking reshard
    # truncates shard objects (and their counters) away.
    result.failover_predictions = sum(
        service.domain(name).stats.failover_predictions
        for name in CHAOS_DOMAINS
    )
    result.checkpoints_written = checkpoints.checkpoints_written
    result.final_num_shards = service.num_shards
    result.shard_summaries = service.shard_summaries()
    return result, service


def grid(args) -> list[tuple]:
    return [(args.seed, parse_reshard_schedule(args.reshard_at))]


def cell(spec, tracer, metrics) -> tuple[ChaosResult, dict]:
    """The schedule's result and its final-state snapshot."""
    seed, schedule = spec
    result, service = run_chaos(seed=seed, reshard_schedule=schedule,
                                tracer=tracer, metrics=metrics)
    return result, result.snapshot(service)


def write(results, args) -> str:
    if args.snapshot_out:
        ((_result, snapshot),) = results
        with open(args.snapshot_out, "w") as handle:
            json.dump(snapshot, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return ""


CHAOS = Experiment(
    "chaos", "Crash/reshard chaos schedule (tenants mix)",
    grid, cell, lambda results, args: results[0][0].render(),
    flags=(
        SEED,
        flag("--reshard-at", default="", metavar="ROUND:SHARDS[,...]",
             help="live-reshard schedule, e.g. '6:4,14:3' migrates to "
                  "4 shards at round 6 and down to 3 at 14"),
        flag("--snapshot-out", metavar="PATH",
             help="write the final domain state as JSON to PATH (for "
                  "cross-run determinism diffs)"),
    ),
    write=write,
    status=lambda results: 0 if results[0][0].ok else 1,
)
