"""Snapshot and restore of service state (paper Section 3.3).

"One of the most interesting aspects of a system-service approach to
prediction is that learning can happen across application invocations."
The Figure 6 experiment exercises this directly: PSS-run1 through PSS-run4
are successive benchmark runs that inherit the previous run's weights.

Snapshots are plain JSON so they are durable, diffable, and independent of
Python pickling.  A snapshot captures, per domain: the configuration, the
model name and model state, and (optionally) accumulated statistics.
Policies and owners are intentionally *not* persisted - they belong to the
running system's security configuration, not to learned state - so a
restore into a live service leaves them as they are and a cold restart
brings domains back open and unowned.

Robustness guarantees (the service must survive its own restarts):

* every snapshot embeds a CRC-32 ``checksum`` over its domain payload, so
  a torn or bit-flipped file is *detected* (:class:`PersistenceError`)
  instead of silently restoring garbage weights;
* :func:`restore_service` is atomic - it stages every domain's state off
  to the side and only installs it into the service once the whole
  snapshot has validated, so a malformed snapshot leaves prior state
  untouched;
* :func:`write_checkpoint` writes a snapshot atomically (temp file,
  then rename), which :class:`~repro.core.kernel.checkpoint
  .ShardedCheckpointManager` turns into a crash-recovery loop over one
  file per shard: periodic checkpoints while the service runs,
  best-effort recovery when it comes back up.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from pathlib import Path
from typing import Any, Protocol

from repro.core.config import PSSConfig, ServiceConfig
from repro.core.errors import PersistenceError, PSSError
from repro.core.faults import FaultInjector
from repro.core.models import create_model
from repro.core.service import Domain
from repro.core.stats import PredictionStats
from repro.obs.trace import TracerLike

#: bumped whenever the snapshot layout changes incompatibly
SNAPSHOT_VERSION = 1


class SnapshotSource(Protocol):
    """What a snapshot reads from a service.

    Structural, not nominal, on purpose: a full
    :class:`~repro.core.service.PredictionService` satisfies it, and so
    does the per-shard :class:`~repro.core.kernel.checkpoint.ShardView`
    - which is how one snapshot format persists either a whole service
    or a single shard's slice of one.
    """

    def domain_names(self) -> tuple[str, ...]: ...

    def domain(self, name: str) -> Domain: ...


class SnapshotTarget(SnapshotSource, Protocol):
    """What a restore also needs: a whole service, never a slice of
    one - a snapshot's domains land wherever the service places them."""

    @property
    def config(self) -> ServiceConfig: ...

    def has_domain(self, name: str) -> bool: ...

    def remove_domain(self, name: str) -> None: ...

    def create_domain(self, name: str,
                      config: PSSConfig | None = ...,
                      model: str = ...) -> Domain: ...


def _domains_checksum(domains: dict[str, Any]) -> int:
    """CRC-32 over the canonical JSON encoding of the domain payload."""
    canonical = json.dumps(domains, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(canonical.encode("utf-8"))


def snapshot_service(service: SnapshotSource,
                     include_stats: bool = True) -> dict[str, Any]:
    """Capture every domain's learned state as a JSON-serializable dict."""
    domains: dict[str, Any] = {}
    for name in service.domain_names():
        domain = service.domain(name)
        entry: dict[str, Any] = {
            "config": dataclasses.asdict(domain.config),
            "model_name": domain.model_name,
            "model_state": domain.model.to_state(),
        }
        if include_stats:
            entry["stats"] = dataclasses.asdict(domain.stats)
        domains[name] = entry
    return {
        "version": SNAPSHOT_VERSION,
        "domains": domains,
        "checksum": _domains_checksum(domains),
    }


def restore_service(service: SnapshotTarget,
                    snapshot: dict[str, Any]) -> None:
    """Install the snapshot's learned state into ``service``.

    A domain the service hosts under the snapshot's config and model
    name stays the object it is - open handles, policy, owner, shard -
    and takes the state through :meth:`Domain.install`; one hosted
    under another shape is removed and re-created, and a name not
    hosted is created (both open and unowned: a snapshot carries
    neither policy nor owner).  Raises :class:`PersistenceError` on
    version, checksum, or shape mismatches; on any failure the service
    keeps its prior state untouched (every entry is staged - its state
    loaded into a scratch model - and committed only once the whole
    snapshot has validated).
    """
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise PersistenceError(
            f"snapshot version {version!r} is not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    try:
        domains = snapshot["domains"]
        if "checksum" in snapshot:
            expected = snapshot["checksum"]
            actual = _domains_checksum(domains)
            if actual != expected:
                raise PersistenceError(
                    f"snapshot checksum mismatch (stored {expected!r}, "
                    f"computed {actual}): refusing to restore corrupt state"
                )
        #: name -> (config, model name, model state, stats or None)
        staged: dict[str, tuple[PSSConfig, str, Any, Any]] = {}
        for name, entry in domains.items():
            config = PSSConfig(**entry["config"])
            state = entry["model_state"]
            create_model(entry["model_name"], config).load_state(state)
            stats = (PredictionStats(**entry["stats"])
                     if "stats" in entry else None)
            staged[name] = config, entry["model_name"], state, stats
        new_names = set(staged) - set(service.domain_names())
        room = service.config.max_domains - len(service.domain_names())
        if len(new_names) > room:
            raise PersistenceError(
                f"snapshot holds {len(new_names)} new domains but the "
                f"service only has room for {room}"
            )
    except PersistenceError:
        raise
    except (PSSError, AttributeError, KeyError, TypeError,
            ValueError) as exc:
        raise PersistenceError(f"malformed snapshot: {exc}") from exc
    # Commit point: everything validated, install the state.
    for name, (config, model_name, state, stats) in staged.items():
        domain = service.domain(name) if service.has_domain(name) else None
        if domain is not None and (
                domain.config, domain.model_name) != (config, model_name):
            service.remove_domain(name)
            domain = None
        if domain is None:
            domain = service.create_domain(
                name, config=config, model=model_name
            )
        domain.install(state)
        if stats is not None:
            domain.stats = stats


def save_service(service: SnapshotSource, path: str | Path,
                 include_stats: bool = True) -> None:
    """Write a snapshot of ``service`` to ``path`` as JSON."""
    snapshot = snapshot_service(service, include_stats=include_stats)
    try:
        Path(path).write_text(json.dumps(snapshot, indent=1))
    except OSError as exc:
        raise PersistenceError(f"cannot write snapshot: {exc}") from exc


def load_service(service: SnapshotTarget, path: str | Path) -> None:
    """Restore ``service`` domains from a JSON snapshot at ``path``."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"cannot read snapshot: {exc}") from exc
    try:
        snapshot = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"snapshot is not valid JSON: {exc}") from exc
    if not isinstance(snapshot, dict):
        raise PersistenceError(
            f"snapshot root must be an object, got {type(snapshot).__name__}"
        )
    restore_service(service, snapshot)


def write_checkpoint(source: SnapshotSource, path: Path,
                     include_stats: bool,
                     injector: FaultInjector | None,
                     tracer: TracerLike) -> None:
    """Snapshot ``source`` to ``path`` atomically (temp file, then
    rename over), through the injector's corruption dice if any."""
    snapshot = snapshot_service(source, include_stats=include_stats)
    text = json.dumps(snapshot, indent=1)
    corrupted = False
    if injector is not None and injector.corrupt_snapshot():
        text, corrupted = injector.corrupt_text(text), True
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        tmp.replace(path)
    except OSError as exc:
        raise PersistenceError(f"cannot write checkpoint: {exc}") from exc
    if tracer.enabled:
        tracer.record(
            "checkpoint_save", transport="checkpoint",
            detail={"bytes": len(text), "corrupted": corrupted,
                    "domains": len(snapshot["domains"])},
        )
