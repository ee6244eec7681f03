"""Independently checkpointable shard state: manifest + per-shard files.

Whole-service snapshots (:mod:`repro.core.persistence`) scale linearly
with total domain count: one hot domain forces rewriting every cold
one.  The sharded kernel instead checkpoints each shard into its own
CRC-checked file - the whole-service snapshot format and atomic write
(:func:`~repro.core.persistence.write_checkpoint`), read through a
:class:`ShardView` of the shard's slice - plus a ``manifest.json``
recording the shard topology and a CRC-32 per shard file.

Layout under ``directory``::

    manifest.json      {"version", "num_shards", "shards": {id: {...}}}
    shard-0000.json    ordinary CRC-checked service snapshot (shard 0)
    shard-0001.json    ...

Write ordering is shards first, manifest last, each file atomically
(temp + rename): a crash mid-checkpoint leaves either the previous
manifest (pointing at previous files, which still exist byte-identical
or were atomically replaced - a replaced file fails the manifest CRC
and is skipped at recovery) or the new manifest over fully written new
files.  Recovery is best-effort per shard: a corrupt shard file costs
only that shard's learned state.  A service of one shard is one file
and the manifest, so this is the checkpoint daemon for any shard count.

Because placement is a pure function of the domain name
(:class:`~repro.core.kernel.sharding.SlotRing`), restoring routes
every domain through the live service and therefore lands it on the
correct shard even when the manifest was written with a *different*
shard count - per-shard checkpoints double as a resharding path.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.errors import PersistenceError
from repro.core.kernel.domain import Domain
from repro.obs.trace import TracerLike

if TYPE_CHECKING:
    from repro.core.faults import FaultInjector
    from repro.core.kernel.service import ShardedService

#: bumped whenever the manifest layout changes incompatibly
MANIFEST_VERSION = 1

MANIFEST_NAME = "manifest.json"


def shard_file_name(shard_id: int) -> str:
    return f"shard-{shard_id:04d}.json"


class RecoveryResult(int):
    """How a best-effort recovery went: an ``int`` (shards restored,
    so existing ``recover() == n`` callers keep working) that also
    carries the shard files that had to be *skipped* - recovery is
    allowed to lose a corrupt shard, but never to lose it silently.
    """

    #: shard file names skipped by this recovery (corrupt or missing)
    skipped: tuple[str, ...]
    #: the validation error recorded for each skipped file, in order
    errors: tuple[str, ...]

    def __new__(cls, restored: int,
                skipped: tuple[str, ...] = (),
                errors: tuple[str, ...] = ()) -> "RecoveryResult":
        result = super().__new__(cls, restored)
        result.skipped = skipped
        result.errors = errors
        return result

    @property
    def restored(self) -> int:
        return int(self)


class ShardView:
    """One shard's slice of the service, as a snapshot source: exactly
    what :func:`~repro.core.persistence.snapshot_service` reads,
    restricted to the shard's domains.  Restores go through the service
    itself, which places every name on the shard that owns it now.
    """

    def __init__(self, service: ShardedService, shard_id: int) -> None:
        self._service = service
        self.shard_id = shard_id

    def domain_names(self) -> tuple[str, ...]:
        return self._service.shard(self.shard_id).domain_names()

    def domain(self, name: str) -> Domain:
        return self._service.domain(name)


class ShardedCheckpointManager:
    """Periodic per-shard checkpoints plus best-effort recovery: the
    daemon that keeps learned state alive across service restarts.

    :meth:`tick` counts service operations and, on interval
    boundaries, checkpoints only the shards whose state actually
    changed (tracked via :meth:`Shard.dirty_signature`), then rewrites
    the manifest.  :meth:`recover` restores every shard file
    the manifest vouches for, skipping - never raising on - corrupt or
    missing ones.

    A :class:`~repro.core.faults.FaultInjector` may be attached to
    corrupt checkpoint bytes on their way to disk, exercising the
    detect-don't-trust path per shard.
    """

    def __init__(self, service: ShardedService, directory: str | Path,
                 interval: int = 256,
                 include_stats: bool = True,
                 injector: FaultInjector | None = None,
                 tracer: TracerLike | None = None) -> None:
        if interval < 1:
            raise PersistenceError(
                f"checkpoint interval must be positive, got {interval}"
            )
        self.service = service
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval = interval
        self.include_stats = include_stats
        self.injector = injector
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else service.tracer)
        #: last-checkpointed dirty signature per shard id (absent = never)
        self._written_signatures: dict[int, tuple[Any, ...]] = {}
        self.ticks = 0
        self.checkpoints_written = 0
        self.corrupt_detected = 0
        self.last_error: str | None = None

    def _write_shard(self, shard_id: int) -> None:
        """One shard's slice to its own file - looked up by id at every
        write, so shards grown by a live reshard are covered and shards
        truncated away simply stop being visited."""
        # Deferred import: persistence imports the service facade, which
        # imports the kernel package this module belongs to.
        from repro.core.persistence import write_checkpoint

        write_checkpoint(ShardView(self.service, shard_id),
                         self.directory / shard_file_name(shard_id),
                         self.include_stats, self.injector, self.tracer)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    # -- writing -----------------------------------------------------------

    def tick(self, count: int = 1) -> bool:
        """Record ``count`` operations; checkpoint on interval boundaries.

        Returns True when this tick triggered a checkpoint (of however
        many shards were dirty).
        """
        before = self.ticks // self.interval
        self.ticks += count
        if self.ticks // self.interval == before:
            return False
        self.checkpoint()
        return True

    def checkpoint_shard(self, shard_id: int) -> None:
        """Unconditionally checkpoint one shard and refresh the manifest."""
        self._write_shard(shard_id)
        self._written_signatures[shard_id] = \
            self.service.shard(shard_id).dirty_signature()
        self.checkpoints_written += 1
        self._write_manifest()

    def checkpoint(self) -> int:
        """Checkpoint every dirty shard; returns how many were written.

        A shard is dirty when its :meth:`~repro.core.kernel.shard.Shard
        .dirty_signature` moved since its last checkpoint - cold shards
        cost nothing, which is the point of sharded state.  A *down*
        shard is never checkpointed: its in-memory models are the
        post-crash cold state, and overwriting the last good snapshot
        with it would turn a transient crash into durable data loss.
        """
        written = 0
        live_ids = set()
        for shard in self.service.shards:
            live_ids.add(shard.shard_id)
            if shard.down:
                continue
            signature = shard.dirty_signature()
            if signature == self._written_signatures.get(shard.shard_id):
                continue
            self._write_shard(shard.shard_id)
            self._written_signatures[shard.shard_id] = signature
            written += 1
        for gone in set(self._written_signatures) - live_ids:
            del self._written_signatures[gone]
        if written:
            self.checkpoints_written += written
            self._write_manifest()
        return written

    def _write_manifest(self) -> None:
        shards: dict[str, dict[str, Any]] = {}
        for shard in self.service.shards:
            path = self.directory / shard_file_name(shard.shard_id)
            if not path.exists():
                continue
            shards[str(shard.shard_id)] = {
                "file": path.name,
                "checksum": zlib.crc32(path.read_bytes()),
                "domains": len(shard),
            }
        manifest = {
            "version": MANIFEST_VERSION,
            "num_shards": self.service.num_shards,
            "shards": shards,
        }
        tmp = self.manifest_path.with_suffix(".json.tmp")
        try:
            tmp.write_text(json.dumps(manifest, indent=1))
            tmp.replace(self.manifest_path)
        except OSError as exc:
            raise PersistenceError(
                f"cannot write manifest: {exc}"
            ) from exc

    # -- recovery ----------------------------------------------------------

    def read_manifest(self) -> dict[str, Any] | None:
        """The manifest dict, or None when missing or corrupt; a corrupt
        one is recorded like a skipped shard file (:meth:`_skip`)."""
        if not self.manifest_path.exists():
            return None
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError) as exc:    # ValueError: bad UTF-8 too
            reason = f"corrupt manifest: {exc}"
        else:
            if not isinstance(manifest, dict) \
                    or manifest.get("version") != MANIFEST_VERSION:
                version = (manifest.get("version")
                           if isinstance(manifest, dict) else manifest)
                reason = f"unsupported manifest version {version!r}"
            elif not isinstance(manifest.get("shards"), dict):
                reason = "corrupt manifest: its shards are not a table"
            else:
                return manifest
        self._skip("", MANIFEST_NAME, reason)
        return None

    def _skip(self, shard_key: str, file_name: str, reason: str) -> None:
        """Record one unrecoverable shard file - counted, remembered,
        and *traced*: a silently dropped shard is indistinguishable
        from a clean cold start, which is how snapshots get lost."""
        self.corrupt_detected += 1
        self.last_error = reason
        if self.tracer.enabled:
            self.tracer.record(
                "checkpoint.corrupt", transport="checkpoint",
                shard=shard_key,
                detail={"file": file_name, "reason": reason},
            )

    def recover(self) -> RecoveryResult:
        """Restore every recoverable shard; returns how many restored.

        A missing manifest is a clean cold start (0), and a corrupt one
        restores nothing and is skipped itself.  Each shard file is
        validated twice - against the manifest's whole-file CRC and
        against the snapshot's embedded domain checksum - and skipped
        when either fails, when it is missing, or when its manifest
        entry names no file.  Every skip updates
        ``corrupt_detected``/``last_error``, emits a
        ``checkpoint.corrupt`` trace event, and lands in the returned
        :class:`RecoveryResult`'s ``skipped`` list, so callers can see
        exactly which shards' learned state was lost rather than
        inferring it from missing domains.  A manifest written with a
        different shard count still restores: domains re-route through
        the live service's router.
        """
        if not self.manifest_path.exists():
            return RecoveryResult(0)
        manifest = self.read_manifest()
        if manifest is None:
            return RecoveryResult(0, (MANIFEST_NAME,),
                                  (self.last_error or "",))
        restored = 0
        skipped: list[str] = []
        errors: list[str] = []
        for shard_key, entry in manifest["shards"].items():
            file_name = entry.get("file") if isinstance(entry, dict) \
                else None
            if isinstance(file_name, str):
                reason = self._restore_shard(shard_key, file_name,
                                             entry.get("checksum"))
            else:
                reason = f"manifest entry names no shard file: {entry!r}"
                file_name = f"shard {shard_key}"
            if reason is None:
                restored += 1
                continue
            self._skip(shard_key, file_name, reason)
            skipped.append(file_name)
            errors.append(reason)
        return RecoveryResult(restored, tuple(skipped), tuple(errors))

    def _restore_shard(self, shard_key: str, file_name: str,
                       checksum: Any) -> str | None:
        """Restore one shard file the manifest vouches for with
        ``checksum``: None when it did, else why it is skipped."""
        from repro.core.persistence import load_service

        path = self.directory / file_name
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"missing shard file {file_name}: {exc.strerror}"
        if zlib.crc32(data) != checksum:
            return f"manifest checksum mismatch for {file_name}"
        # Restore into the service, not a shard's view of it: state is
        # installed into (or a domain created on) whichever shard owns
        # the name now, and room is counted over all of them.
        try:
            load_service(self.service, path)
        except PersistenceError as exc:
            return str(exc)
        if self.tracer.enabled:
            self.tracer.record(
                "checkpoint_restore", transport="checkpoint",
                shard=shard_key, detail={"ok": True},
            )
        return None
