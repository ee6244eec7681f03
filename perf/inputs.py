"""Workload definitions and seed-determined input generation.

Everything the program is fed comes from here, generated from the
harness's own ``random.Random`` seeded by ``--seed``; the program sees
rows, labels and arrival times, never the seed.  ``repro.bench.loadgen``
is deliberately not used, so later changes may alter it freely without
moving the benchmark's inputs.

A *chunk* is the unit of timing: a fixed, seed-determined slice of work.
Sync and serve workloads draw their chunks from a pool of distinct
schedules and cycle through it (sync stacks keep learning, so a replayed
schedule is not a replayed computation; serve chunks run on a fresh
stack each, so chunk ``k`` and chunk ``k + pool`` must produce the same
outputs, which the runner checks).  ``batch_cold`` generates each
chunk's never-repeated rows on demand from the chunk index.
"""

from __future__ import annotations

import random
import zlib
from bisect import bisect_left
from dataclasses import dataclass

NUM_FEATURES = 8
ENTRIES_PER_FEATURE = 1024
WORKING_SET = 64          # rows the sync workloads re-present
BATCH_ROWS = 256          # rows per predict_batch call on batch_cold
UPDATE_BATCH = 32         # vDSO update-buffer capacity
TRAIN_ROWS = 4096         # rows batch_cold's domain is pre-trained on
SERVE_DOMAINS = 12
SERVE_ROWS = 256          # rows per serve domain
ZIPF_S = 1.1
SERVE_UPDATE_SHARE = 0.2
#: deep enough that Poisson bursts at serve_batched's rate are never
#: refused (deepest queue seen in sizing: 62), so no workload has
#: failing operations; the depth check itself still runs per request
QUEUE_LIMIT = 96
SLO_LIMIT_NS = 4_000.0
#: the sweep's fixed rates; each serve workload passes its own rate and
#: fails decisively two steps on (scalar: 15 passes, 25 sheds ~90%;
#: batched: 150 passes, 200 sheds ~20%), so the result does not flip
#: with the seed
SLO_RATES_PER_US = (1, 5, 10, 15, 25, 50, 100, 150, 200)
SLO_OK_SHARE = 0.99


@dataclass(frozen=True)
class Workload:
    """One traffic mix; ``why`` is the reason it is in the benchmark."""

    name: str
    kind: str                 # "sync" | "batch" | "serve"
    why: str
    transport: str = ""       # sync/batch: the client's transport
    update_share: float = 0.0
    label_noise: float = 0.0
    rate_per_us: float = 0.0  # serve: offered load on the sim clock
    shards: int = 2
    window_ns: float = 0.0


WORKLOADS = {w.name: w for w in (
    Workload(
        "sync_hot", "sync",
        "closed loop re-presenting 64 rows, 90% predict: the paper's "
        "regime; score cache hits, so client/transport/handle plumbing "
        "is the cost",
        transport="vdso", update_share=0.10),
    Workload(
        "sync_churn", "sync",
        "same rows, 50% noisy updates: weights move constantly, so "
        "flushes, cache invalidation and perceptron.update dominate",
        transport="vdso", update_share=0.50, label_noise=0.30),
    Workload(
        "batch_cold", "batch",
        "predict_batch of 256 never-repeated rows: plans, weights and "
        "hashing do the work and every cache is bypassed",
        transport="syscall"),
    Workload(
        "serve_scalar", "serve",
        "open loop at 10 req/us, window 0, below saturation: sim engine "
        "events, queue/dispatcher/future machinery and admission "
        "dominate",
        rate_per_us=10.0, shards=2, window_ns=0.0),
    Workload(
        "serve_batched", "serve",
        "open loop at 100 req/us onto one shard, 200 ns window: few "
        "events per request, micro-batches of ~32 through "
        "predict_batch dominate, SLO monitor live",
        rate_per_us=100.0, shards=1, window_ns=200.0),
)}


@dataclass(frozen=True)
class Sizes:
    """How much work a chunk holds and how many chunks are mandatory."""

    sync_ops: int           # client calls per sync chunk
    cold_batches: int       # predict_batch calls per batch_cold chunk
    serve_requests: int     # submitted requests per serve chunk
    client_pool: int        # sync, batch: distinct chunks, and the
    serve_pool: int         # chunks the simulated metrics are taken
                            # over on every run (so never host-dependent)
    warmup_chunks: int      # untimed plain chunks per stack replica
    warmup_updates: int     # training updates during set-up
    check_ops: int          # ops replayed against the reference model
    slo_requests: int       # requests per rate of the SLO-rate sweep


#: A chunk is normalised by the two calibration slices around it, and
#: the host's speed moves within a fraction of a second, so chunks want
#: to be short; but the first milliseconds after a slice run on caches
#: the slice has emptied, so they must not be too short either
#: (batch_cold reads 7% dearer at 16 batches a chunk than at 64, 12% at
#: 4).  batch_cold and the serve workloads stay at >= 50 ms; a sync
#: chunk, whose working set is tiny, is ~25 ms so that its observed
#: twin, 4-5x dearer, is still tracked.  The serve p99 has 1000 samples
#: beyond it (serve_pool * serve_requests = 100k).
FULL = Sizes(sync_ops=6_400, cold_batches=64, serve_requests=5_000,
             client_pool=8, serve_pool=20, warmup_chunks=2,
             warmup_updates=20_000, check_ops=2_000, slo_requests=5_000)

#: same code paths, a few percent of the work (perf/test_harness.py)
SMOKE = Sizes(sync_ops=1_024, cold_batches=4, serve_requests=400,
              client_pool=2, serve_pool=2, warmup_chunks=1,
              warmup_updates=5_000, check_ops=400, slo_requests=400)


def _rng(workload: Workload, seed: int, stream: str) -> random.Random:
    # str seeds are hashed with sha512, independent of PYTHONHASHSEED
    return random.Random(f"{workload.name}/{seed}/{stream}")


def _random_rows(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(1 << 16) for _ in range(NUM_FEATURES))
            for _ in range(count)]


def _digest(*parts: object) -> int:
    crc = 0
    for part in parts:
        data = part if isinstance(part, bytes) else repr(part).encode()
        crc = zlib.crc32(data, crc)
    return crc


class SyncInputs:
    """64 rows with learnable labels and a pool of op schedules.

    A schedule is a ``bytes`` object, one op per byte:
    ``row << 2 | is_update << 1 | direction``.
    """

    def __init__(self, workload: Workload, seed: int, sizes: Sizes) -> None:
        self.workload = workload
        self.sizes = sizes
        rng = _rng(workload, seed, "rows")
        self.rows = _random_rows(rng, WORKING_SET)
        self.labels = [rng.random() < 0.5 for _ in self.rows]
        self.warmup = self._schedule(
            _rng(workload, seed, "warmup"), sizes.warmup_updates,
            update_share=1.0, label_noise=workload.label_noise)
        self.pool = [
            self._schedule(_rng(workload, seed, f"chunk{k}"),
                           sizes.sync_ops, workload.update_share,
                           workload.label_noise)
            for k in range(sizes.client_pool)
        ]
        self.digest = _digest(self.rows, self.labels, self.warmup,
                              *self.pool)

    def _schedule(self, rng: random.Random, count: int,
                  update_share: float, label_noise: float) -> bytes:
        raw = rng.randbytes(3 * count)
        update_below = round(256 * update_share)
        flip_below = round(256 * label_noise)
        labels = self.labels
        codes = bytearray(count)
        for i in range(count):
            row = raw[3 * i] & (WORKING_SET - 1)
            if raw[3 * i + 1] < update_below:
                direction = labels[row] ^ (raw[3 * i + 2] < flip_below)
                codes[i] = row << 2 | 2 | direction
            else:
                codes[i] = row << 2
        return bytes(codes)

    def chunk(self, index: int) -> bytes:
        return self.pool[index % len(self.pool)]

    @staticmethod
    def ops_in(chunk: bytes) -> int:
        return len(chunk)


class BatchInputs:
    """A training set for the domain, and never-repeated rows on demand."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes) -> None:
        self.workload = workload
        self.sizes = sizes
        rng = _rng(workload, seed, "train")
        self.train_rows = _random_rows(rng, TRAIN_ROWS)
        self.train_labels = [rng.random() < 0.5 for _ in self.train_rows]
        self.train_order = [rng.randrange(TRAIN_ROWS)
                            for _ in range(sizes.warmup_updates)]
        # odd multipliers are bijections mod 2**32, so feature 0 alone
        # already makes every generated row distinct
        self._mix = [(rng.randrange(1 << 32) | 1, rng.randrange(1 << 32))
                     for _ in range(NUM_FEATURES)]
        self.digest = _digest(self.train_rows, self.train_labels,
                              self.train_order, self._mix)

    def fresh_rows(self, first: int, count: int) -> list[tuple[int, ...]]:
        """Rows number ``first`` .. ``first + count - 1`` of the endless
        never-repeating sequence."""
        mix = self._mix
        return [tuple([(n * m + a) & 0xFFFFFFFF for m, a in mix])
                for n in range(first, first + count)]

    def chunk(self, index: int) -> list[list[tuple[int, ...]]]:
        per_chunk = self.sizes.cold_batches * BATCH_ROWS
        rows = self.fresh_rows(index * per_chunk, per_chunk)
        return [rows[i:i + BATCH_ROWS]
                for i in range(0, per_chunk, BATCH_ROWS)]

    @staticmethod
    def ops_in(chunk: list[list[tuple[int, ...]]]) -> int:
        return sum(len(batch) for batch in chunk)


#: one serve request: (delay since the previous arrival in sim-ns,
#: domain, row, is_update, direction)
ServeRequest = tuple[float, str, tuple[int, ...], bool, bool]


class ServeInputs:
    """Zipf-popular domains and a pool of Poisson arrival schedules."""

    def __init__(self, workload: Workload, seed: int, sizes: Sizes) -> None:
        self.workload = workload
        self.sizes = sizes
        rng = _rng(workload, seed, "rows")
        self.names = [f"dom-{rank:02d}" for rank in range(SERVE_DOMAINS)]
        self.rows = {name: _random_rows(rng, SERVE_ROWS)
                     for name in self.names}
        self.labels = {name: [rng.random() < 0.5
                              for _ in range(SERVE_ROWS)]
                       for name in self.names}
        self._cumulative: list[float] = []
        total = 0.0
        for rank in range(SERVE_DOMAINS):
            total += 1.0 / (rank + 1) ** ZIPF_S
            self._cumulative.append(total)
        self.pool = [
            self.schedule(_rng(workload, seed, f"chunk{k}"),
                          sizes.serve_requests, workload.rate_per_us)
            for k in range(sizes.serve_pool)
        ]
        self.seed = seed
        self.digest = _digest(self.rows, self.labels, *self.pool)

    def schedule(self, rng: random.Random, count: int,
                 rate_per_us: float) -> list[ServeRequest]:
        cumulative = self._cumulative
        mean_gap_ns = 1_000.0 / rate_per_us
        out: list[ServeRequest] = []
        for _ in range(count):
            delay = rng.expovariate(1.0) * mean_gap_ns
            name = self.names[bisect_left(
                cumulative, rng.random() * cumulative[-1])]
            index = rng.randrange(SERVE_ROWS)
            is_update = rng.random() < SERVE_UPDATE_SHARE
            out.append((delay, name, self.rows[name][index], is_update,
                        self.labels[name][index]))
        return out

    def slo_schedule(self, rate_per_us: float) -> list[ServeRequest]:
        """The schedule the SLO-rate sweep offers at one fixed rate."""
        return self.schedule(
            _rng(self.workload, self.seed, f"slo{rate_per_us}"),
            self.sizes.slo_requests, rate_per_us)

    def chunk(self, index: int) -> list[ServeRequest]:
        return self.pool[index % len(self.pool)]


_INPUT_CLASSES = {"sync": SyncInputs, "batch": BatchInputs,
                  "serve": ServeInputs}


def make_inputs(workload: Workload, seed: int, sizes: Sizes):
    """The inputs of one workload; a pure function of its arguments."""
    return _INPUT_CLASSES[workload.kind](workload, seed, sizes)
