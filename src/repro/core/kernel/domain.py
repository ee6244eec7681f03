"""Domains and policy-checked handles: the kernel's innermost layer.

A :class:`Domain` is one named predictor (model + config + policy +
stats); a :class:`DomainHandle` is the policy- and admission-checked
view of a domain that transports dispatch into.  Both moved here
verbatim from the pre-kernel ``core/service.py`` monolith; the only
additions are the back-reference to the :class:`~repro.core.kernel
.shard.Shard` hosting each domain and the optional admission charge on
the handle's client-facing operations.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NoReturn, Sequence

from repro.core.config import PSSConfig
from repro.core.errors import (
    FeatureError,
    QuotaExceededError,
    ShardDownError,
)
from repro.core.models import PredictorModel, VersionWord, create_model
from repro.core.plans import DEFAULT_COMPILER, PlanCompiler
from repro.core.policy import ClientIdentity, DomainPolicy, open_policy
from repro.core.stats import DomainReport, PredictionStats
from repro.obs.spanned import named, spanned
from repro.obs.trace import (
    NULL_SPAN_HANDLE,
    NULL_TRACER,
    SpanHandleLike,
    TracerLike,
)

if TYPE_CHECKING:
    from repro.core.kernel.admission import (
        AdmissionController,
        TenantMeter,
    )
    from repro.core.kernel.shard import Shard


@dataclass
class Domain:
    """One named predictor hosted by the service."""

    name: str
    config: PSSConfig
    model: PredictorModel
    model_name: str
    policy: DomainPolicy = field(default_factory=open_policy)
    stats: PredictionStats = field(default_factory=PredictionStats)
    #: identity charged for this domain by admission control, if any
    created_by: ClientIdentity | None = None
    #: where the domain lives: the :class:`~repro.core.kernel.shard
    #: .Shard` hosting it (None while no service hosts it).  The one
    #: stored copy of its placement - :meth:`Shard.adopt` and
    #: :meth:`Shard.evict` move it, the id and the obs label below are
    #: read off it, and a read consults it for crash failover
    shard: "Shard | None" = field(default=None, repr=False)
    #: the plan compiler every model this domain ever holds binds
    #: through (:meth:`bind`): the hosting kernel's, shared by shape
    compiler: PlanCompiler = field(default=DEFAULT_COMPILER, init=False,
                                   repr=False)
    #: the published weight generation: the word of the model the
    #: domain was created with, which every model :meth:`install` puts
    #: in its place adopts - so the object a handle or transport bound
    #: once is the one every later mutation bumps
    version: VersionWord = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.version = self.model.version

    @property
    def shard_id(self) -> int:
        """Id of the hosting shard (0 while hosted nowhere)."""
        shard = self.shard
        return shard.shard_id if shard is not None else 0

    @property
    def shard_label(self) -> str:
        """Obs label of the hosting shard - ``str(shard_id)`` on a
        service of any size - and "" while hosted nowhere."""
        shard = self.shard
        return shard.label if shard is not None else ""

    @property
    def generation(self) -> int:
        """:attr:`version`'s value: changes whenever the weights may have.

        Read-only fast paths (the vDSO transport's score cache) treat a
        cached score as current exactly while the word is unchanged -
        the paper's vDSO semantics, where the mapping exposes the
        kernel's latest published weight version.  One rule: the model
        bumps the word per mutation (the hashed perceptron only for
        those that moved a weight, so feedback the margin rule discarded
        does not invalidate anything) and :meth:`install` sets it above
        every value it has had across a swap of the whole state.
        """
        return self.version.value

    def bind(self, compiler: PlanCompiler) -> None:
        """Adopt the hosting kernel's plan compiler and bind the model
        through it."""
        self.compiler = compiler
        self.model.bind_plan(compiler)

    def install(self, state: dict[str, Any] | None) -> None:
        """Replace the learned state - the one way it is replaced:
        ``None`` restarts the model cold (a crash), anything else is a
        :meth:`~repro.core.models.PredictorModel.to_state` snapshot
        loaded into the live model (a promotion, a restore).

        The domain object stays - and with it every open handle, the
        policy, ``created_by``, the shard, its accounts and its
        :attr:`version` word, which a cold model adopts; the word ends
        one above every value it has had, so score caches keyed on it
        self-invalidate; a cold model binds its plan through the
        domain's compiler and a loaded one keeps the binding it has
        (the shape survived even if the state did not).
        """
        word = self.version
        survivor = word.value
        if state is None:
            self.model = create_model(self.model_name, self.config)
            self.model.adopt(word)
            self.model.bind_plan(self.compiler)
        else:
            self.model.load_state(state)
        word.value = survivor + 1

    def predict(self, features: Sequence[int]) -> int:
        """The read every path ends in.  The crash rule is written here
        and in :meth:`predict_batch` only: on a crashed primary a
        follower answers (:meth:`Shard.failover_predict`, which raises
        :class:`~repro.core.errors.ShardDownError` when none holds the
        domain) - reads survive the outage."""
        shard = self.shard
        if shard is not None and shard.down:
            return shard.failover_predict(self, features)
        score = self.model.predict(features)
        self.stats.record_prediction(score, self.config.threshold)
        return score

    def refuse_write(self, lost_records: int = 0) -> NoReturn:
        """A write's crash rule: a crashed primary cannot apply a record
        anywhere (replicas are read-only).  Each write path tests
        ``shard.down`` inline - a handle's between policy and charge -
        and raises through here."""
        raise ShardDownError(self.shard_id, self.name,
                             lost_records=lost_records)

    def _tracer(self) -> TracerLike:
        shard = self.shard
        return shard.tracer if shard is not None else NULL_TRACER

    def kernel_span(self, name: str,
                    detail: dict[str, Any] | None = None
                    ) -> SpanHandleLike:
        """Span for one kernel-side operation on this domain, tracer
        and shard label both read off the shard hosting it now (nested
        spans inherit the enclosing transport span's simulated clock)."""
        shard = self.shard
        if shard is None:   # hosted nowhere: no tracer, no label
            return NULL_SPAN_HANDLE
        return shard.tracer.span(name, self.name, "kernel", shard.label,
                                 None, detail)

    def _plan_span(self, feature_rows: Sequence[Sequence[int]]
                   ) -> SpanHandleLike | None:
        """One span per batched pass over the weights: this is where
        the specialized plan (when the model holds one) executes.  A
        crashed primary runs none: its rows' ``kernel.failover`` spans
        stand in the caller's tree."""
        shard = self.shard
        if shard is not None and shard.down:
            return None
        return self.kernel_span("plan.execute",
                                {"rows": len(feature_rows)})

    @spanned(_plan_span, tracer="_tracer()")
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Scores for a whole batch, bit-identical to a scalar replay.

        Batch-aware models (the hashed perceptron) score all rows in
        one pass over their weights; others inherit the scalar loop.
        Stats count every row either way.  A crashed primary has no
        block: a follower answers each row in turn, as :meth:`predict`
        does, and the first row refused raises with the rows before it
        served.
        """
        shard = self.shard
        if shard is not None and shard.down:
            return [shard.failover_predict(self, features)
                    for features in feature_rows]
        scores = self.model.predict_batch(feature_rows)
        self.stats.record_predictions(scores, self.config.threshold)
        return scores

    def record_cached_prediction(self, score: int) -> None:
        """Account a prediction a client served from its score cache."""
        self.stats.record_cached_prediction(score, self.config.threshold)

    def update(self, features: Sequence[int], direction: bool) -> None:
        self.model.update(features, direction)
        self.stats.record_update(direction)

    def update_batch(
        self, records: Sequence[tuple[Sequence[int], bool]]
    ) -> None:
        """:meth:`update` for every ``(features, direction)`` record, in
        order: the state a scalar replay leaves, stats filed once.

        A batch-aware model (the hashed perceptron) trains on all
        records in one pass; others inherit the scalar loop.  Either
        way a record that fails validation costs only itself: the
        others are applied and counted, then the first
        :class:`FeatureError` is raised with the ``refused`` positions.
        """
        try:
            self.model.update_batch(records)
        except FeatureError as error:
            self.stats.record_updates(
                [direction
                 for position, (_, direction) in enumerate(records)
                 if position not in error.refused])
            raise
        self.stats.record_updates([direction for _, direction in records])

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        self.model.reset(features, reset_all)
        self.stats.record_reset()

    def report(self) -> DomainReport:
        hits, misses = self.model.index_cache_stats()
        return DomainReport(
            name=self.name, model=self.model_name, stats=self.stats,
            generation=self.generation,
            shard=self.shard_id,
            index_cache_hits=hits,
            index_cache_misses=misses,
        )


class DomainHandle:
    """Policy- and admission-checked view of a domain for one identity.

    This is the object transports call into; it is what the kernel-side
    of the vDSO/syscall boundary would dispatch to.  ``admission`` is
    the owning service's :class:`AdmissionController` (or None): every
    client-facing prediction and delivered update record is charged to
    the handle's identity, after the policy check.

    Both decisions are a function of things that change only when
    somebody changes them, so the handle carries them instead of
    re-deriving them per call: the policy's three verdicts for its
    identity, read again only when ``domain.policy`` is another object
    (a :class:`DomainPolicy` is immutable), and the identity's
    :class:`TenantMeter`, bound at the first charge.  Every call is
    still checked and charged; it no longer hashes and compares to find
    out who is asking.
    """

    def __init__(self, domain: Domain, identity: ClientIdentity,
                 admission: "AdmissionController | None" = None) -> None:
        self._domain = domain
        self._identity = identity
        self._admission = admission
        #: the domain's published version word, read-only and with no
        #: policy: the vDSO page's version word, which transports load
        #: to decide whether their cached scores are still current.
        #: Bound once - the domain outlives every crash, promotion and
        #: restore (:meth:`Domain.install`), and its word with it
        self.version = domain.version
        #: bound by the first charge, so that a handle which never
        #: operates never makes its identity a known tenant
        self._meter: "TenantMeter | None" = None
        self._judge()

    @property
    def domain_name(self) -> str:
        return self._domain.name

    @property
    def threshold(self) -> int:
        return self._domain.config.threshold

    @property
    def shard_id(self) -> int:
        """Shard owning the underlying domain."""
        return self._domain.shard_id

    @property
    def generation(self) -> int:
        """The domain's weight generation: :attr:`version`'s value."""
        return self.version.value

    def _tracer(self) -> TracerLike:
        shard = self._domain.shard
        return shard.tracer if shard is not None else NULL_TRACER

    def _kernel_span(self, name: str,
                     detail: dict[str, Any] | None = None
                     ) -> SpanHandleLike:
        """Span for one kernel-side dispatch into this handle's
        domain."""
        return self._domain.kernel_span(name, detail)

    def _judge(self) -> None:
        """Read the domain's current policy: its verdicts for this
        identity stand until ``domain.policy`` is another object.  A
        False verdict still goes through ``policy.check_*``, which
        raises the :class:`~repro.core.errors.PolicyError` (or, once
        the domain was removed, the ``DomainError``)."""
        #: the policy object the verdicts below were read from
        policy = self._policy = self._domain.policy
        who = self._identity
        self._may_predict = policy.may_predict(who)
        self._may_update = policy.may_update(who)
        self._may_reset = policy.may_reset(who)

    def _bind_meter(self, admission: "AdmissionController"
                    ) -> "TenantMeter":
        meter = self._meter = admission.meter(self._identity)
        return meter

    def _admit_predict(self, count: int = 1) -> None:
        """Who may, then what it costs: the policy verdict and the
        admission charge every read passes, called or submitted.
        Traced, a real batch's charge is a span of its own in the
        calling operation's tree; a charge of one tells nothing its
        parent (or a submit's ``request`` record) does not, and opens
        none."""
        domain = self._domain
        if domain.policy is not self._policy:
            self._judge()
        if not self._may_predict:
            self._policy.check_predict(self._identity, domain.name)
        admission = self._admission
        if admission is None:
            return
        meter = self._meter or self._bind_meter(admission)
        if count > 1 and self._tracer().enabled:
            with self._kernel_span("kernel.admission", {"count": count}):
                meter.charge_predict(count)
            return
        meter.charge_predict(count)

    def _admit_update(self) -> None:
        """The write's contract: the policy verdict, then the shard (a
        crashed primary cannot apply the record anywhere - replicas
        are read-only - so it refuses before the tenant's budget is
        charged), then the charge."""
        domain = self._domain
        if domain.policy is not self._policy:
            self._judge()
        if not self._may_update:
            self._policy.check_update(self._identity, domain.name)
        shard = domain.shard
        if shard is not None and shard.down:
            domain.refuse_write()
        admission = self._admission
        if admission is not None:
            (self._meter or self._bind_meter(admission)).charge_update()

    def admit(self, op: str, features: Sequence[int]) -> Domain:
        """Decide, without running it, everything about one request
        that does not depend on when it runs - what a serving pipeline
        asks at submit - and return the domain it is to run against.

        Raises what the synchronous ``predict`` / ``update`` would, in
        the order it would, with the same charge: the policy verdict
        (:class:`DomainError` from the policy a removed domain is left
        with: a handle outlives its domain), a down shard's write, the
        tenant's budget, the feature count (:class:`FeatureError`).  A
        request this returns for can still fail, but only for its
        shard's reasons.
        """
        domain = self._domain
        if op == "predict":
            self._admit_predict()
        else:
            self._admit_update()
        if len(features) != domain.config.num_features:
            raise FeatureError(
                f"expected {domain.config.num_features} features, "
                f"got {len(features)}")
        return domain

    @spanned(named(_kernel_span, "kernel.predict"), tracer="_tracer()")
    def predict(self, features: Sequence[int]) -> int:
        self._admit_predict()
        return self._domain.predict(features)

    #: :meth:`predict` as a vDSO read reaches it - the same checks,
    #: charge and failover without the ``kernel.predict`` span: a read
    #: of the mapped page never enters the kernel (it is charged 4.19
    #: ns hit or miss), so watched it is its ``predict`` event alone
    predict_mapped = inspect.unwrap(predict)

    @spanned(named(_kernel_span, "kernel.predict_batch", "rows"),
             tracer="_tracer()")
    def predict_batch(
        self, feature_rows: Sequence[Sequence[int]]
    ) -> list[int]:
        """Policy- and admission-checked batch predict.

        The policy decision is stateless per identity/domain, so one
        check covers the batch; admission is charged as N predicts
        against the tenant budget in one all-or-nothing step (see
        :meth:`AdmissionController.charge_predict`).  On a crashed
        primary every row fails over as a scalar predict would
        (:meth:`Domain.predict_batch`).  An empty batch is no dispatch
        at all: nothing is checked, charged or spanned.
        """
        if not feature_rows:
            return []
        self._admit_predict(len(feature_rows))
        return self._domain.predict_batch(feature_rows)

    def record_cached_prediction(self, score: int) -> None:
        """Account a cache-served prediction, with the same policy and
        admission checks a real predict would have passed."""
        domain = self._domain
        if domain.policy is not self._policy:
            self._judge()
        if not self._may_predict:
            self._policy.check_predict(self._identity, domain.name)
        admission = self._admission
        if admission is not None:
            (self._meter or self._bind_meter(admission)).charge_predict()
        domain.record_cached_prediction(score)

    @spanned(named(_kernel_span, "kernel.update"), tracer="_tracer()")
    def update(self, features: Sequence[int], direction: bool) -> None:
        self._admit_update()
        self._domain.update(features, direction)

    @spanned(named(_kernel_span, "kernel.update_batch", "records"),
             tracer="_tracer()")
    def update_batch(
        self, records: Sequence[tuple[Sequence[int], bool]]
    ) -> None:
        """Policy- and admission-checked delivery of a batch of update
        records - what a flushed buffer is - in one dispatch.

        One policy check and one shard-down test cover the batch (a
        crashed primary refuses before anything is charged, every
        record lost), and admission charges the records in one step
        (:meth:`TenantMeter.charge_updates`): the prefix the budget
        covers is applied and the refusal raised with the suffix as its
        ``lost_records`` - what delivering the records one by one and
        stopping at the first refusal does.  Records the domain itself
        refused (:meth:`Domain.update_batch`) are lost with it.
        """
        if not records:
            return
        domain = self._domain
        if domain.policy is not self._policy:
            self._judge()
        if not self._may_update:
            self._policy.check_update(self._identity, domain.name)
        shard = domain.shard
        if shard is not None and shard.down:
            domain.refuse_write(len(records))
        admission = self._admission
        if admission is not None:
            meter = self._meter or self._bind_meter(admission)
            try:
                meter.charge_updates(len(records))
            except QuotaExceededError as refusal:
                fits = len(records) - refusal.lost_records
                if fits:
                    try:
                        domain.update_batch(records[:fits])
                    except FeatureError as error:
                        refusal.lost_records += error.lost_records
                raise
        domain.update_batch(records)

    def reset(self, features: Sequence[int], reset_all: bool) -> None:
        domain = self._domain
        if domain.policy is not self._policy:
            self._judge()
        if not self._may_reset:
            self._policy.check_reset(self._identity, domain.name)
        shard = domain.shard
        if shard is not None and shard.down:
            domain.refuse_write()
        domain.reset(features, reset_all)
