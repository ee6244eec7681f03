"""Saturating weight storage for the hashed perceptron.

A :class:`WeightMatrix` is the paper's "weight matrix": one row per feature,
``entries_per_feature`` columns, plus a single bias weight.  Weights saturate
at the configured bit width rather than wrapping, matching hardware-style
perceptron tables (Jimenez & Lin).

Hot-path layout (see docs/PERFORMANCE.md): the matrix is stored as one flat
``array`` in row-major order rather than a list of lists, the per-slot hash
salts are precomputed once per shape (in the bound
:class:`~repro.core.plans.SpecializedPlan`), and a bounded LRU cache maps
feature vectors to their selected flat indices so a vector that repeats is
hashed exactly once; a gather compiled for the feature count
(:func:`~repro.core.plans.compile_gather`) sums the selected cells.  All
of it is bit-identical to the plain list-of-lists implementation (kept as
the reference model in ``tests/core/reference_impl.py``).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict, deque
from itertools import chain, filterfalse, islice, repeat
from typing import Iterable, Iterator, Sequence

from repro.core.config import PSSConfig
from repro.core.errors import FeatureError
from repro.core.models import VersionWord
from repro.core.plans import (
    DEFAULT_COMPILER,
    SpecializedPlan,
    compile_gather,
    plan_signature,
)


def saturate(value: int, lo: int, hi: int) -> int:
    """Clamp ``value`` into the inclusive range ``[lo, hi]``."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value


def _weight_typecode(weight_bits: int) -> str:
    """Smallest stdlib array typecode that holds the signed weight range."""
    for code in ("b", "h", "i", "l", "q"):
        if array(code).itemsize * 8 >= weight_bits:
            return code
    return "q"


class WeightMatrix:
    """Per-feature hashed weight tables with saturating arithmetic.

    The matrix holds one flat signed array (row-major, so the cell for
    feature ``i`` column ``c`` lives at ``i * entries_per_feature + c``),
    a bias, and the index arithmetic to go from a feature vector to the
    selected cells.  Every model-level behaviour (thresholds, training
    policy) lives in :mod:`repro.core.perceptron`.
    """

    #: bound on the feature-vector -> selected-indices LRU cache
    INDEX_CACHE_ENTRIES = 4096

    def __init__(self, config: PSSConfig) -> None:
        self._config = config
        self._entries = config.entries_per_feature
        #: the saturation bounds, read once: the config is frozen
        self._weight_min = config.weight_min
        self._weight_max = config.weight_max
        self._flat = array(
            _weight_typecode(config.weight_bits),
            [0] * (config.num_features * self._entries),
        )
        self._bias = 0
        #: ``gather(flat, selected)``, compiled for the feature count:
        #: every score is ``bias + gather(self._flat, selected)``
        self._gather = compile_gather(config.num_features)
        #: feature tuple -> tuple of selected flat indices (LRU-bounded).
        #: An OrderedDict, not a plain dict: evicting the oldest entry of
        #: a churning plain dict (``pop(next(iter(cache)))``) rescans an
        #: ever-growing prefix of tombstones, which dominated the
        #: uncached hot path; ``popitem(last=False)`` is O(1) with the
        #: exact same eviction order.  Written only with a vector's real
        #: index tuple, by the scalar miss and by :meth:`dot_batch`'s
        #: replay of it or block append - never a placeholder.
        self._index_cache: OrderedDict[
            tuple[int, ...], tuple[int, ...]
        ] = OrderedDict()
        self.index_cache_hits = 0
        self.index_cache_misses = 0
        #: the published version word every weight mutation bumps (the
        #: model holding the matrix publishes the same object)
        self.version = VersionWord()
        #: bound SpecializedPlan (lazily compiled/shared; dropped on
        #: wholesale state swaps, like the generation-keyed score cache)
        self._plan: SpecializedPlan | None = None

    @property
    def config(self) -> PSSConfig:
        return self._config

    @property
    def bias(self) -> int:
        return self._bias

    @property
    def generation(self) -> int:
        """:attr:`version`'s value, bumped by every weight mutation.

        Read-only caches (the vDSO transport's score cache) key their
        validity on the word: a cached score is current iff the value
        it was observed at is still the word's.
        """
        return self.version.value

    def _check_features(self, feats: Sequence[int]) -> None:
        if len(feats) != self._config.num_features:
            raise FeatureError(
                f"expected {self._config.num_features} features, "
                f"got {len(feats)}"
            )
        for value in feats:
            # exact ints (every row the drivers build) pass on one
            # pointer compare; only subclasses pay the isinstance pair
            if type(value) is not int and (
                    not isinstance(value, int) or isinstance(value, bool)):
                raise FeatureError(
                    f"features must be ints, got {value!r}"
                )

    def _flat_indices(self, features: Iterable[int]) -> tuple[int, ...]:
        """Selected flat-array index per feature, cached per vector.

        Validation runs once, on the cache miss that first admits a
        vector; later lookups of the same vector skip straight to the
        cached indices.  (A numerically equal spelling of an
        already-admitted vector - ``1.0`` for ``1`` - therefore also
        takes the fast path: tuples compare by value.)
        """
        key = features if type(features) is tuple else tuple(features)
        cache = self._index_cache
        cached = cache.get(key)
        if cached is not None:
            cache.move_to_end(key)  # most recently used
            self.index_cache_hits += 1
            return cached
        self.index_cache_misses += 1
        self._check_features(key)
        result = self.plan.select(key)
        if len(cache) >= self.INDEX_CACHE_ENTRIES:
            cache.popitem(last=False)
        cache[key] = result
        return result

    def indices(self, features: Iterable[int]) -> list[int]:
        """Hashed column index selected by each feature value."""
        entries = self._entries
        return [
            flat - row * entries
            for row, flat in enumerate(self._flat_indices(features))
        ]

    def selected(self, features: Iterable[int]) -> list[int]:
        """Weights selected by a feature vector (excluding the bias)."""
        flat = self._flat
        return [flat[i] for i in self._flat_indices(features)]

    def dot(self, features: Iterable[int]) -> int:
        """Bias plus the sum of the selected weights.

        This is the perceptron output the service returns from ``predict``:
        its sign is the decision, its magnitude the confidence.
        """
        return self._bias + self._gather(
            self._flat, self._flat_indices(features))

    def dot_and_indices(
        self, features: Iterable[int]
    ) -> tuple[int, tuple[int, ...]]:
        """Score plus the flat indices that produced it, in one pass.

        The indices can be handed straight to :meth:`adjust_at`, so a
        train-after-predict sequence hashes the vector at most once
        (zero times when the index cache already holds it).
        """
        selected = self._flat_indices(features)
        return self._bias + self._gather(self._flat, selected), selected

    # -- specialized batch path (see repro.core.plans) -----------------------

    @property
    def plan(self) -> SpecializedPlan:
        """The bound :class:`~repro.core.plans.SpecializedPlan`.

        Binds lazily through the process-wide compiler when no service
        kernel attached one; either way the plan is shared read-only by
        every matrix with the same shape.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = DEFAULT_COMPILER.plan_for(self._config)
        return plan

    def attach_plan(self, plan: SpecializedPlan) -> None:
        """Bind a compiler-owned plan (kernel wiring).

        The plan must describe this matrix's exact shape: a mismatched
        plan would silently select wrong table cells.
        """
        if plan.signature != plan_signature(self._config):
            raise FeatureError(
                f"plan signature {plan.signature} does not match "
                f"matrix shape {plan_signature(self._config)}"
            )
        self._plan = plan

    #: miss blocks at least this large go through the plan's vectorized
    #: block hasher; smaller blocks stay on the compiled per-row path
    #: (same results either way - this is purely a crossover point,
    #: measured in docs/PERFORMANCE.md: 12 rows at 8 features, 16 at 4)
    VECTOR_MIN_ROWS = 14

    def dot_batch(self, rows: Sequence[Sequence[int]]) -> list[int]:
        """Batch of :meth:`dot` scores in one pass, bit-identical.

        *Resolve, then replay.*  The loop walks the rows with the
        scalar probe itself - same hit/miss counters, same LRU reorder
        on hit, same eviction victims - so interleaving ``dot_batch``
        with scalar calls cannot perturb any downstream bit-identity
        claim.  At the first miss, :meth:`_resolve_block` hashes every
        distinct not-yet-cached vector among the rows still to come as
        one block through the bound
        :class:`~repro.core.plans.SpecializedPlan` *without writing
        anything*; the replay then carries on with those answers in
        hand and writes each one where the scalar path would have.  The
        cache therefore only ever holds real index tuples, and a batch
        that raises has nothing to undo.

        When every row still to come is a distinct vector the cache
        does not hold - a block of first touches, every row of a cold
        batch - the replay's result is known: each row misses, scores
        its block score, evicts the oldest entry once the cache is full
        and is appended.  :meth:`_admit_block` writes that state in one
        step instead of row by row, and no replay position map is built.

        Resolution waits for the first miss because CPython does not
        cache tuple hashes: resolving up front would hash every row
        once more, which an all-hit batch (the served, hot case) would
        pay for nothing (+19 % per row on 25 hot rows).

        The block validates its vectors in one pass, so a bad row raises
        :class:`~repro.core.errors.FeatureError` at the batch's first
        miss: no score is returned, nothing was written, and cache and
        counters stand where a scalar replay that failed at that miss
        would have left them.  The one miss the block does not cover -
        a vector cached when the block was resolved and evicted by this
        very batch since - goes through :meth:`dot`.

        A one-row batch *is* the scalar path, without setting up the
        block machinery for a block of one.
        """
        if len(rows) == 1:
            return [self.dot(rows[0])]
        cache = self._index_cache
        cache_get = cache.get
        move_to_end = cache.move_to_end
        popitem = cache.popitem
        limit = self.INDEX_CACHE_ENTRIES
        gather = self._gather
        flat = self._flat
        bias = self._bias
        scores: list[int] = []
        append = scores.append
        hits = 0
        misses = 0
        #: from the first miss on: the resolved ``(scores, selected
        #: indices)`` lists, and each resolved vector's position in them
        block: tuple[list[int], list[tuple[int, ...]]] | None = None
        slots: dict[tuple[int, ...], int]
        try:
            for row in rows:
                key = row if type(row) is tuple else tuple(row)
                selected = cache_get(key)
                if selected is not None:
                    hits += 1
                    move_to_end(key)
                    append(bias + gather(flat, selected))
                    continue
                misses += 1
                if block is None:
                    keys, block = self._resolve_block(rows[len(scores):])
                    if len(keys) == len(rows) - len(scores):
                        # every row still to come is a distinct first
                        # touch: the replay's result is known
                        self._admit_block(keys, block[1])
                        misses += len(keys) - 1
                        scores += block[0]
                        break
                    slots = dict(zip(keys, range(len(keys))))
                slot = slots.get(key)
                if slot is None:
                    misses -= 1  # the scalar call counts it
                    append(self.dot(key))
                    continue
                if len(cache) >= limit:
                    popitem(last=False)
                cache[key] = block[1][slot]
                append(block[0][slot])
        finally:
            self.index_cache_hits += hits
            self.index_cache_misses += misses
        return scores

    def _resolve_block(
        self, rows: Sequence[Sequence[int]]
    ) -> tuple[list[tuple[int, ...]],
               tuple[list[int], list[tuple[int, ...]]]]:
        """Every distinct vector in ``rows`` the cache does not hold, in
        order, validated and then hashed as one block - vectorized when
        the block is large enough, the compiled per-row selector
        otherwise.  Returns the vectors and the block's ``(scores,
        selected indices)``.  Reads the cache, never writes it.

        Each step up to the hash is a C-level pass over the block,
        whatever its length; only a block whose row lengths or value
        types fail the one test is walked by :meth:`_check_features`."""
        cache = self._index_cache
        distinct = dict.fromkeys(map(tuple, rows))
        keys = list(distinct if cache.keys().isdisjoint(distinct)
                    else filterfalse(cache.__contains__, distinct))
        width = self._config.num_features
        if (list(map(len, keys)) != [width] * len(keys)
                or list(map(type, chain.from_iterable(keys)))
                != [int] * (width * len(keys))):
            for key in keys:
                self._check_features(key)
        flat = self._flat
        bias = self._bias
        plan = self.plan
        block = (plan.score_select_rows(flat, bias, keys,
                                        widths_checked=True)
                 if len(keys) >= self.VECTOR_MIN_ROWS else None)
        if block is None:
            selected = [plan.select(key) for key in keys]
            gather = self._gather
            block = [bias + gather(flat, one) for one in selected], selected
        return keys, block

    def _admit_block(self, keys: Iterable[tuple[int, ...]],
                     selected: list[tuple[int, ...]]) -> None:
        """Cache a block of distinct vectors the cache does not hold, in
        order, in one step - a C-driven ``popitem(last=False)`` pass and
        one ``update`` - leaving the state the scalar misses leave one
        by one, each evicting the oldest entry once the cache is full."""
        cache = self._index_cache
        evict = len(selected) - max(0, self.INDEX_CACHE_ENTRIES - len(cache))
        pairs: Iterable[tuple[tuple[int, ...], tuple[int, ...]]] = zip(
            keys, selected)
        if evict > len(cache):
            # a block longer than the cache evicts everything cached,
            # then its own first ``evict - len(cache)`` entries
            pairs = islice(pairs, evict - len(cache), None)
            cache.clear()
        else:
            deque(map(cache.popitem, repeat(False, evict)), 0)
        cache.update(pairs)

    def train_batch(
        self, records: Sequence[tuple[Sequence[int], bool]],
        threshold: int, margin: int,
    ) -> None:
        """Margin-rule training on every ``(features, direction)``
        record, in order: what :meth:`dot_and_indices`, the perceptron's
        margin test and :meth:`adjust_at` do per record, as one loop.

        The loop is the scalar index-cache probe itself - same hit and
        miss counters, same LRU reorder on a hit, a miss goes through
        :meth:`_flat_indices` - and each record is scored against the
        weights the records before it left, so weights, bias, every
        generation bump and the cache's order are what the scalar calls
        leave.  A record that fails validation costs only itself: the
        others are applied, then the first
        :class:`~repro.core.errors.FeatureError` is raised with the
        ``refused`` positions.
        """
        cache = self._index_cache
        cache_get = cache.get
        move_to_end = cache.move_to_end
        gather = self._gather
        flat = self._flat
        adjust_at = self.adjust_at
        refused: list[int] = []
        first_error: FeatureError | None = None
        for position, (features, direction) in enumerate(records):
            key = features if type(features) is tuple else tuple(features)
            selected = cache_get(key)
            if selected is not None:
                move_to_end(key)
                self.index_cache_hits += 1
            else:
                try:
                    selected = self._flat_indices(key)
                except FeatureError as error:
                    if first_error is None:
                        first_error = error
                    refused.append(position)
                    continue
            score = self._bias + gather(flat, selected)
            if (score >= threshold) == direction and abs(score) > margin:
                continue
            adjust_at(selected, 1 if direction else -1)
        if first_error is not None:
            first_error.refused = tuple(refused)
            raise first_error

    def adjust(self, features: Iterable[int], delta: int) -> None:
        """Add ``delta`` to every selected weight and the bias, saturating."""
        self.adjust_at(self._flat_indices(features), delta)

    def adjust_at(self, flat_indices: Sequence[int], delta: int) -> None:
        """Apply ``delta`` at already-selected indices (saturation inlined)."""
        lo, hi = self._weight_min, self._weight_max
        flat = self._flat
        for i in flat_indices:
            value = flat[i] + delta
            if value > hi:
                value = hi
            elif value < lo:
                value = lo
            flat[i] = value
        value = self._bias + delta
        if value > hi:
            value = hi
        elif value < lo:
            value = lo
        self._bias = value
        self.version.value += 1

    def reset_entry(self, features: Iterable[int]) -> None:
        """Zero only the cells selected by ``features`` (selective reset).

        Implements the paper's ``reset(features, len, all=False)``: "clean a
        specific entry" so part of the state can be reused.
        """
        flat = self._flat
        for i in self._flat_indices(features):
            flat[i] = 0
        self.version.value += 1

    def reset_all(self) -> None:
        """Zero every weight and the bias (``reset(..., all=True)``).

        One slice assignment from a zeroed array: the same array object
        is zeroed in place, so a block hasher's ``np.frombuffer`` view
        of it reads the zeroed table."""
        flat = self._flat
        flat[:] = array(flat.typecode, bytes(flat.itemsize * len(flat)))
        self._bias = 0
        self.version.value += 1

    def nonzero_count(self) -> int:
        """Number of non-zero weights (bias included); used by tests."""
        count = 1 if self._bias else 0
        count += sum(1 for w in self._flat if w)
        return count

    def iter_weights(self) -> Iterator[int]:
        """Yield every weight, bias last (stable order for snapshots)."""
        yield from self._flat
        yield self._bias

    def to_state(self) -> dict:
        """Serializable snapshot of the matrix (list-of-lists layout)."""
        entries = self._entries
        flat = self._flat.tolist()
        return {
            "rows": [
                flat[row * entries:(row + 1) * entries]
                for row in range(self._config.num_features)
            ],
            "bias": self._bias,
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`to_state`."""
        rows = state["rows"]
        if len(rows) != self._config.num_features or any(
            len(row) != self._entries for row in rows
        ):
            raise FeatureError("snapshot shape does not match configuration")
        lo, hi = self._weight_min, self._weight_max
        restored = array(self._flat.typecode)
        for row in rows:
            restored.extend(saturate(int(w), lo, hi) for w in row)
        self._flat = restored
        self._bias = saturate(int(state["bias"]), lo, hi)
        self.version.value += 1
        # A wholesale state swap invalidates the plan binding exactly as
        # the version bump clears transport score caches; re-binding
        # is a compiler cache hit (the shape did not change), never a
        # recompile.
        self._plan = None
