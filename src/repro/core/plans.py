"""White-box plan specialization for the prediction hot path.

PRETZEL's end-to-end optimization (PAPERS.md) observes that a model
server which treats pipelines as black boxes re-pays generic dispatch
on every request, and that freezing a pipeline's *shape* into a
specialized plan - then sharing that plan across every pipeline with
the same shape - removes most of the per-request overhead.  The PSS
analogue: a domain's scoring loop is fully determined by its
``(num_features, entries_per_feature, seed)`` configuration, so the
hash/index arithmetic can be compiled once into a
:class:`SpecializedPlan` and reused by every domain that shares the
shape.  The compiled ``select`` hashes a *row*, not a feature: the
values are packed one per 128-bit lane of a single Python int and one
splitmix64 pass mixes every lane at once, with the per-slot salts, the
table masks (power-of-two widths) and the row-major table bases folded
into lane-wide constants - about fifteen big-int operations per row
whatever the feature count, where a per-feature body pays fourteen per
feature (docs/PERFORMANCE.md, "The plan", has the layout and the
numbers).  When numpy is importable the plan additionally carries a
vectorized block scorer that hashes a whole batch of rows in a handful
of uint64 array operations, which wins from about a dozen rows up;
uint64 wraparound arithmetic is bit-identical to the masked Python
arithmetic, and the pure-Python compiled path remains as the
always-available fallback (no new hard dependency).  numpy is imported
by the first block that asks for it, not with this module: a process
that never scores a block - a scalar client, most CLI commands - does
not pay its ~0.15 s and ~12 MB.

Plan lifecycle (see docs/PERFORMANCE.md, "Batched and specialized
prediction"):

* A :class:`PlanCompiler` caches plans by :func:`plan_signature`; the
  kernel owns one compiler per service, so identical-shape domains of
  different tenants resolve to the *same* read-only plan instance
  (cache hits/misses are counted and traced as ``plan.hit`` /
  ``plan.compile``).
* Plans are immutable after ``__init__`` (enforced statically by the
  PLN001 invariant rule): they capture salts and table geometry only,
  never weights, which is what makes cross-tenant sharing safe.
* A :class:`~repro.core.weights.WeightMatrix` *binds* a plan lazily and
  drops the binding whenever a snapshot restore swaps its learned state
  wholesale (:meth:`~repro.core.weights.WeightMatrix.load_state`) -
  the same event that bumps the weight generation and thereby clears
  the transport score cache.  Re-binding is a compiler cache hit, not a
  recompile.

Bit-identity is non-negotiable: every lane computes exactly
:func:`repro.core.hashing.salted_hash`, property-tested against that
function in ``tests/core/test_plans.py`` and against the frozen
reference implementation in ``tests/core/reference_impl.py``.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Any, Callable, Sequence

from repro.core.config import PSSConfig
from repro.core.hashing import _MASK64, salt_table
from repro.obs.trace import NULL_TRACER, TracerLike

#: what freezes a domain's scoring loop: feature count, table width,
#: and the hash seed (weights and thresholds are deliberately absent -
#: they vary per tenant, the plan must not)
PlanSignature = tuple[int, int, int]

#: splitmix64 finalizer constants, inlined into generated plan code
#: (must match :func:`repro.core.hashing.mix64` exactly)
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def plan_signature(config: PSSConfig) -> PlanSignature:
    """The model-shape key two domains must share to share a plan."""
    return (config.num_features, config.entries_per_feature, config.seed)


def _lanes(values: Sequence[int]) -> int:
    """``values`` packed one per 128-bit lane, slot 0 in the lowest."""
    return sum(value << 128 * i for i, value in enumerate(values))


def _generate_source(signature: PlanSignature,
                     salts: tuple[int, ...]) -> str:
    """Source for one shape's ``select``/``score_rows``: one hash per row.

    The row's values are packed one per 128-bit lane of a single int
    and splitmix64 (exactly :func:`~repro.core.hashing.salted_hash`)
    runs on every lane at once, the per-slot salts, table masks and
    row-major bases folded into lane constants.  A 64x64-bit product
    fits its lane; a right shift drags the next lane's low bits into
    this lane's top, so the mask follows each *shift* - before the
    multiply, which would otherwise carry them into the neighbour.
    ``pack`` refuses a value outside 0..2**64-1; the row is then packed
    again as ``v & _MASK64`` (two's complement, low 64 bits) and runs
    through the same lines.  Only a table width that is not a power of
    two reduces per lane, after unpacking.
    """
    num_features, entries, _seed = signature
    mask = _lanes([_MASK64] * num_features)
    bases = [i * entries for i in range(num_features)]
    as_bytes = f".to_bytes({16 * num_features}, 'little')"
    if entries & (entries - 1) == 0:
        folded = (f"((z ^ z >> 31) & {_lanes([entries - 1] * num_features)})"
                  f" + {_lanes(bases)}")
        reduce = [f"selected = unpack(({folded}){as_bytes})"]
    else:
        reduce = [
            f"z = unpack(((z ^ z >> 31) & {mask}){as_bytes})",
            "selected = ({})".format("".join(
                f"{base} + z[{i}] % {entries}, "
                for i, base in enumerate(bases))),
        ]
    body = [
        "try:",
        "    z = from_bytes(pack(*row), 'little')",
        "except struct_error:",
        f"    z = from_bytes(pack(*[v & {_MASK64} for v in row]), 'little')",
        f"z ^= {_lanes(salts)}",
        f"z = (z ^ (z >> 30 & {mask})) * {_MIX_A} & {mask}",
        f"z = (z ^ (z >> 27 & {mask})) * {_MIX_B} & {mask}",
        *reduce,
    ]
    return "\n".join([
        "def select(row):",
        *(f"    {line}" for line in body),
        "    return selected",
        "",
        "def score_rows(flat, bias, rows):",
        "    getitem = flat.__getitem__",
        "    out = []",
        "    append = out.append",
        "    for row in rows:",
        *(f"        {line}" for line in body),
        "        append(bias + sum(map(getitem, selected)))",
        "    return out",
    ])


@lru_cache(maxsize=64)
def _vector_engine(salts: tuple[int, ...], entries: int) -> Any:
    """numpy and one shape's uint64 lane constants - ``(np, salts,
    bases, entries)`` - or None where numpy is not installed (optional
    acceleration; the compiled Python path is the fallback).

    The first call is what imports numpy.  Kept here, by shape, because
    a plan is immutable after ``__init__`` (PLN001) and building three
    arrays per block would cost a short block more than hashing it.
    """
    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is in the dev image
        return None
    return (np, np.array(salts, dtype=np.uint64),
            np.arange(len(salts), dtype=np.uint64) * np.uint64(entries),
            np.uint64(entries))


def _rows_as_u64(_np: Any, keys: Sequence[tuple[int, ...]]) -> Any:
    """Feature rows as a uint64 matrix, or None when they cannot be.

    Mirrors ``value & _MASK64`` (two's complement for negatives, low 64
    bits for huge ints).  The common all-machine-word case converts
    directly; anything outside falls back one step at a time, and rows
    numpy cannot represent at all return None so the caller uses the
    compiled Python path (bit-identical either way).
    """
    try:
        return _np.array(keys, dtype=_np.uint64)
    except (OverflowError, ValueError, TypeError):
        pass
    try:  # negative machine words: int64 -> uint64 is two's complement
        return _np.array(keys, dtype=_np.int64).astype(_np.uint64)
    except (OverflowError, ValueError, TypeError):
        pass
    try:  # arbitrary Python ints: mask down to 64 bits first
        return _np.array(
            [[value & _MASK64 for value in key] for key in keys],
            dtype=_np.uint64,
        )
    except (OverflowError, ValueError, TypeError):
        return None


class SpecializedPlan:
    """One compiled, immutable scorer for a model shape.

    ``select(row)`` maps a feature tuple to the selected flat weight
    indices; ``score_rows(flat, bias, rows)`` scores a whole batch
    against a caller-supplied weight array without touching any index
    cache; :meth:`score_select_rows` is the vectorized block variant.
    No closure holds weights: a plan is pure shape, shared read-only
    across every same-shape domain (PLN001 forbids any ``self``
    assignment outside ``__init__``).
    """

    __slots__ = ("signature", "num_features", "entries_per_feature",
                 "salts", "select", "score_rows")

    def __init__(self, signature: PlanSignature,
                 salts: tuple[int, ...],
                 select: Callable[[Sequence[int]], tuple[int, ...]],
                 score_rows: Callable[..., list[int]]) -> None:
        self.signature = signature
        self.num_features = signature[0]
        self.entries_per_feature = signature[1]
        self.salts = salts
        self.select = select
        self.score_rows = score_rows

    def __repr__(self) -> str:
        return (f"SpecializedPlan(features={self.num_features}, "
                f"entries={self.entries_per_feature})")

    def score_select_rows(
        self, weights: Sequence[int], bias: int,
        keys: Sequence[tuple[int, ...]],
    ) -> tuple[list[int], list[tuple[int, ...]]] | None:
        """Vectorized (scores, selected indices) for a block of rows.

        Returns None when the vector engine is unavailable or the rows
        cannot be represented as uint64; the caller then falls back to
        the compiled per-row path.  uint64 wraparound multiplication is
        exactly the ``& _MASK64`` arithmetic, so both paths produce
        bit-identical indices and scores.
        """
        engine = _vector_engine(self.salts, self.entries_per_feature)
        if engine is None:  # pragma: no cover - numpy is in the dev image
            return None
        _np, salts, bases, entries = engine
        rows = _rows_as_u64(_np, keys)
        if rows is None or rows.ndim != 2:
            return None
        with _np.errstate(over="ignore"):
            z = rows ^ salts
            z = (z ^ (z >> _np.uint64(30))) * _np.uint64(_MIX_A)
            z = (z ^ (z >> _np.uint64(27))) * _np.uint64(_MIX_B)
            z = z ^ (z >> _np.uint64(31))
            flat_indices = z % entries + bases
        table = _np.frombuffer(weights, dtype=weights.typecode)
        scores = (table[flat_indices].sum(axis=1) + bias).tolist()
        return scores, [tuple(row) for row in flat_indices.tolist()]


def compile_plan(config: PSSConfig) -> SpecializedPlan:
    """Compile one shape into a :class:`SpecializedPlan` (uncached)."""
    signature = plan_signature(config)
    salts = salt_table(config.num_features, config.seed)
    source = _generate_source(signature, salts)
    lanes = struct.Struct("<" + "Q8x" * config.num_features)
    namespace: dict[str, object] = {
        "__name__": __name__,  # warnings raised in a plan name this module
        "pack": lanes.pack, "unpack": lanes.unpack,
        "from_bytes": int.from_bytes, "struct_error": struct.error,
    }
    exec(compile(source, f"<plan {signature}>", "exec"), namespace)
    return SpecializedPlan(
        signature, salts,
        namespace["select"],       # type: ignore[arg-type]
        namespace["score_rows"],   # type: ignore[arg-type]
    )


class PlanCompiler:
    """Signature-keyed plan cache: PRETZEL's cross-pipeline sharing.

    The kernel owns one compiler per service; every domain created on
    any shard binds its weight matrix through it, so two tenants whose
    domains share a shape get the *same* plan object.  ``hits`` /
    ``misses`` count cache outcomes, and each is traced (``plan.hit``
    / ``plan.compile``) when a tracer is attached.
    """

    def __init__(self, tracer: TracerLike | None = None) -> None:
        self.tracer: TracerLike = (tracer if tracer is not None
                                   else NULL_TRACER)
        self._plans: dict[PlanSignature, SpecializedPlan] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def plan_for(self, config: PSSConfig) -> SpecializedPlan:
        """The shared plan for ``config``'s shape, compiling on miss."""
        signature = plan_signature(config)
        plan = self._plans.get(signature)
        if plan is not None:
            self.hits += 1
            if self.tracer.enabled:
                self.tracer.record(
                    "plan.hit", transport="plan",
                    detail={"signature": list(signature)},
                )
            return plan
        self.misses += 1
        plan = compile_plan(config)
        self._plans[signature] = plan
        if self.tracer.enabled:
            self.tracer.record(
                "plan.compile", transport="plan",
                detail={"signature": list(signature)},
            )
        return plan

    def stats(self) -> dict[str, int]:
        """Cache outcome counters for reports and shard tables."""
        return {"plans": len(self._plans), "hits": self.hits,
                "misses": self.misses}


#: process-wide fallback compiler: weight matrices that were never
#: adopted by a service kernel (unit tests, direct model use) still get
#: plan sharing per shape
DEFAULT_COMPILER = PlanCompiler()
