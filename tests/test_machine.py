"""The whole system as one state machine, checked against a reference.

The paper's contract is that a failing prediction service may cost
performance but never correctness.  :class:`SystemMachine` drives the
public operations in whatever order hypothesis finds: domains created
and removed under an open, a private or a read-only policy, and live
domains given another policy; clients of three identities over both
transports; sync reads, batches, writes, flushes and resets; kernel
batches by name; submits through the serving pipeline (shedding on SLO
pages or not), with closed-loop sim clients interleaving, idle gaps and
drains; fault plans, shard crashes, promotions, live reshard steps
(some stalled); replica syncs, checkpoints, a corrupted checkpoint file
and restores.
After every step the system must equal the reference: per domain,
the frozen perceptron of ``tests/core/reference_impl.py`` (what the
live model holds), the model each shard's follower last synced and
what each checkpoint saved, plus :class:`Tenants`, the policy and quota
rules written out once more, and the update records each domain's
clients counted lost and the retries they made.  Every update record
a domain's clients accepted is applied, pending in a buffer or counted
lost (:meth:`SystemMachine.check_ledger`).  No span is left open, and
no request is shed for a page whose bad samples have all aged out.

The budget is the machine's settings at the bottom of this file:
``max_examples=500`` runs of up to ``stateful_step_count=50`` steps,
about 25-35 s of tier-1 wall time on a 2-vCPU host, and a failing
example is reported unshrunk.
"""

import dataclasses
import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.bench.loadgen import LoadGenerator, LoadSpec
from repro.core import PredictionService, PSSConfig, ResilienceConfig
from repro.core.errors import (
    DomainError,
    FeatureError,
    PolicyError,
    PSSError,
    QuotaExceededError,
    RequestShedError,
    ShardDownError,
    TransportFault,
)
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.kernel.admission import (
    AdmissionController,
    TenantQuota,
    TenantUsage,
)
from repro.core.kernel.checkpoint import (
    ShardedCheckpointManager,
    shard_file_name,
)
from repro.core.kernel.replica import ReplicaPromoter
from repro.core.persistence import load_service, save_service
from repro.core.policy import (
    ClientIdentity,
    DomainPolicy,
    SharingMode,
)
from repro.core.serving import ServingConfig, ServingPipeline, serving_slos
from repro.core.stats import PredictionStats
from repro.obs import MetricsRegistry, Tracer
from repro.obs.metrics import (
    SCORE_CACHE_HITS_TOTAL,
    SCORE_CACHE_MISSES_TOTAL,
    VDSO_READ_NS,
)
from repro.obs.postmortem import request_stages
from tests.core.reference_impl import ReferencePerceptron
from tests.obs.shard_labels import mixed_label_spans

CONFIG = PSSConfig(num_features=2, entries_per_feature=16)
#: the closed-loop sim clients' load: bare-name submits over NAMES
SPEC = LoadSpec(clients=2, requests=4, domains=2, per_client_rate=1e-3,
                update_fraction=0.3, feature_space=4)
NAMES = tuple(SPEC.domain_names())
OWNER = ClientIdentity(uid=1, program="owner")
OTHER = ClientIdentity(uid=2, program="other")    # the finite quota
ANONYMOUS = ClientIdentity()                       # a bare name
GOOD = st.tuples(st.integers(0, 2), st.integers(0, 1))
#: mostly well-formed: wrong length and a non-int entry one row in six
ROWS = st.one_of(*[GOOD] * 5, st.sampled_from([(1,), (1, 2, 3), (1, "2")]))
PICK = st.integers(0, 15)
WHO = st.sampled_from([OWNER, OTHER, ANONYMOUS])
CLIENT = st.fixed_dictionaries({
    "name": st.sampled_from(NAMES), "who": WHO,
    "transport": st.sampled_from(["vdso", "syscall"]),
    "batch": st.sampled_from([2, 3])})
#: a client's static answer, above any score the model reaches
FALLBACK = 1_000
#: tries per client call
ATTEMPTS = ResilienceConfig().max_attempts
#: a client call that ends in one of these serves its fallback
DEGRADED = (QuotaExceededError, TransportFault, ShardDownError)
#: the fallback of a client update: the record is dropped and counted
LOST = object()
#: the longest a bad serving sample can hold a page up: its long window,
#: plus the up-to-one-interval age of the latest grid point judged
PAGE_MEMORY_NS = (serving_slos()[0].long_window_ns
                  + ServingConfig().slo_eval_interval_ns)
#: emitters acting for one shard: what they record about a domain names
#: the shard hosting it
SHARD_SIDE = {"vdso", "syscall", "kernel", "serving", "replica"}


def well_formed(row):
    return len(row) == 2 and all(type(value) is int for value in row)


def copy_of(model):
    twin = ReferencePerceptron(CONFIG)
    twin.load_state(model.to_state())
    return twin


def outcome(call):
    """The call's value, or the type of the PSSError it raised."""
    try:
        return call()
    except PSSError as error:
        return type(error)


def injected(conn):
    """The crossings ``conn``'s injector has failed so far, and the
    flushes it dropped or cut short."""
    if conn.injector is None:
        return 0, 0
    stats = conn.injector.stats
    return stats.syscall_faults, \
        stats.dropped_flushes + stats.partial_flushes


def settled(future):
    error = future.error
    return future.result() if error is None else type(error)


class Ref:
    """What one ``Domain`` object must hold."""

    def __init__(self, domain, owner=None, creator=None):
        self.domain = domain
        self.owner = owner          # None: open to everyone
        self.mode = SharingMode.SHARED
        self.creator = creator      # charged one domain for it
        self.model = ReferencePerceptron(CONFIG)
        self.stats = PredictionStats()
        #: shard id -> the model that shard's follower last synced
        self.followers = {}
        self.removed = False
        self.generation = domain.generation
        #: update records its clients dropped, and the attempts they
        #: retried: ``dropped_updates`` and ``retries`` of the
        #: resilience stats they share
        self.dropped = self.retries = 0
        #: the ledger's terms: update records its clients accepted,
        #: writes by name applied, and what restores moved the
        #: applied count by
        self.accepted = self.by_name = self.restored = 0


class Tenants:
    """Who may touch a domain and what it costs, once more."""

    def __init__(self, quotas):
        self.quotas = quotas
        self.usage = {who: TenantUsage() for who in quotas}

    def refusal(self, who, ref, op, down):
        if ref.removed:
            return DomainError
        writes = op != "predict"        # an update or a reset
        if ref.owner not in (None, who) and (
                writes or ref.mode is SharingMode.PRIVATE):
            return PolicyError
        return ShardDownError if writes and down else None

    def charge_domain(self, who):
        usage, limit = self.usage[who], self.quotas[who].max_domains
        if limit is not None and usage.domains >= limit:
            usage.rejections += 1
            return False
        usage.domains += 1
        return True

    def charge_predict(self, who, count):
        usage, budget = self.usage[who], self.quotas[who].predict_budget
        if budget is not None and usage.predictions + count > budget:
            usage.rejections += 1
            return QuotaExceededError
        usage.predictions += count
        return None

    def charge_updates(self, who, count):
        """How many of ``count`` records the budget admits: a prefix."""
        usage, budget = self.usage[who], self.quotas[who].update_budget
        fits = count if budget is None else \
            max(0, min(count, budget - usage.updates))
        usage.updates += fits
        usage.rejections += fits < count
        return fits


class Conn:
    """One open client and what the reference expects of it."""

    def __init__(self, client, who, ref, batch):
        self.client = client
        self.who = who
        self.ref = ref
        self.batch = batch              # the vDSO buffer's capacity
        self.transport = client._transport
        self.vdso = client.transport_name == "vdso"
        self.pending = []               # the vDSO buffer's records
        self.reads = self.hits = self.misses = 0
        self.injector = None


@dataclasses.dataclass
class Tracked:
    """One submit the pipeline accepted into a queue."""

    future: object
    ref: Ref
    op: str
    row: tuple
    direction: bool
    by_name: bool


@dataclasses.dataclass
class Before:
    """A client's state just before a call, read off the system."""

    cache: dict
    blocked: bool
    faults: int
    rolls: int          # flushes the injector dropped or cut short
    delivered: int
    fallbacks: int


class SystemMachine(RuleBasedStateMachine):
    @initialize(shards=st.sampled_from([1, 2, 4]),
                replicas=st.sampled_from([0, 1]),
                window=st.sampled_from([0.0, 100.0, 1000.0]),
                max_batch=st.sampled_from([2, 8, 32]),
                queue_limit=st.sampled_from([0, 4]),
                quota=st.builds(TenantQuota,
                                max_domains=st.sampled_from([1, None]),
                                update_budget=st.sampled_from([0, 4, 16]),
                                predict_budget=st.sampled_from([3, 24])),
                mode=st.sampled_from(SharingMode),
                clients=st.lists(CLIENT, min_size=1, max_size=3),
                shed_on_page=st.booleans())
    def build(self, shards, replicas, window, max_batch, queue_limit,
              quota, mode, clients, shed_on_page):
        self.admission = AdmissionController(quotas={OTHER: quota})
        self.tenants = Tenants({OWNER: TenantQuota(), OTHER: quota,
                                ANONYMOUS: TenantQuota()})
        self.tracer, self.metrics = Tracer(), MetricsRegistry()
        self.service = PredictionService(
            num_shards=shards, num_replicas=replicas,
            admission=self.admission, tracer=self.tracer,
            metrics=self.metrics)
        self.replicas, self.queue_limit = replicas, queue_limit
        self.pipeline = ServingPipeline(
            self.service, ServingConfig(max_batch=max_batch,
                                        batch_window_ns=window,
                                        queue_limit=queue_limit,
                                        shed_on_page=shed_on_page),
            slos=serving_slos())
        # Every submit - a client's, a load process's - passes the
        # reference first, and every SLO sample is counted, the time of
        # the latest bad one kept.
        self.real_submit = self.pipeline.submit
        self.pipeline.submit = self.submitted
        observe = self.pipeline.slo_engine.observe
        self.last_bad = -math.inf

        def counted(slo_name, ts_ns, good):
            self.samples += 1
            if not good:
                self.last_bad = ts_ns
            observe(slo_name, ts_ns, good)

        self.pipeline.slo_engine.observe = counted
        self.dir = Path(tempfile.mkdtemp())
        self.shard_checkpoints = ShardedCheckpointManager(
            self.service, self.dir / "shards")
        self.refs, self.by_domain, self.conns = {}, {}, []
        self.down, self.migration = set(), None
        self.saved, self.shard_files, self.manifest = None, {}, {}
        self.corrupt = set()        # shards whose file holds a bad byte
        self.signatures, self.series = {}, {}
        self.tracked, self.wrong, self.records = [], [], []
        self.samples = self.served = self.refused = self.shed = 0
        self.refusals = 0
        # A run starts with both domains and a client or more open.
        self.create(NAMES[0], OWNER, SharingMode.SHARED)
        self.create(NAMES[1], OWNER, mode)
        for client in clients:
            self.connect(**client)

    def teardown(self):
        if not hasattr(self, "dir"):
            return
        try:
            # Whatever was queued settles, each future once.
            for _ in range(20):
                if all(t.future.done for t in self.tracked):
                    break
                self.pipeline.run(until=self.pipeline.engine.now + 10_000)
            assert all(t.future.done for t in self.tracked)
            self.agrees_with_the_reference()
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- the reference's kernel ---------------------------------------------

    def adopt(self, domain, owner, creator):
        ref = self.refs[domain.name] = Ref(domain, owner, creator)
        self.by_domain[id(domain)] = ref
        return ref

    def is_down(self, ref):
        return ref.domain.shard_id in self.down

    def answer(self, ref, row):
        """What the kernel answers for ``row`` now, counting nothing."""
        model = ref.model
        if self.is_down(ref):
            model = ref.followers.get(ref.domain.shard_id)
            if model is None:
                return ShardDownError
        return model.predict(row) if well_formed(row) else FeatureError

    def read(self, ref, row):
        score = self.answer(ref, row)
        if type(score) is int:
            ref.stats.record_prediction(score, CONFIG.threshold)
            ref.stats.failover_predictions += self.is_down(ref)
        return score

    def apply(self, ref, row, direction):
        if not well_formed(row):
            return FeatureError
        ref.model.update(row, direction)
        ref.stats.record_update(direction)
        return None

    def handle_predict(self, who, ref, rows):
        """``DomainHandle.predict_batch``; a scalar predict is one row."""
        if not rows:
            return []
        refused = (self.tenants.refusal(who, ref, "predict", False)
                   or self.tenants.charge_predict(who, len(rows)))
        if refused:
            return refused
        if not self.is_down(ref) and not all(map(well_formed, rows)):
            return FeatureError     # the block refused, nothing counted
        scores = []
        for row in rows:            # a down shard's rows fail over in turn
            score = self.read(ref, row)
            if type(score) is not int:
                return score
            scores.append(score)
        return scores

    def handle_update(self, who, ref, records):
        """``DomainHandle.update_batch``; a scalar update is one record."""
        if not records:
            return None
        refused = self.tenants.refusal(who, ref, "update", self.is_down(ref))
        if refused:
            return refused
        fits = self.tenants.charge_updates(who, len(records))
        applied = [self.apply(ref, row, direction)
                   for row, direction in records[:fits]]
        if fits < len(records):
            return QuotaExceededError
        return FeatureError if FeatureError in applied else None

    def handle_reset(self, who, ref, row, reset_all):
        """``DomainHandle.reset``: the policy's verdict and the shard,
        then ``ReferenceDomain.reset`` - the model's, and one more
        reset counted; a selective reset validates its row."""
        refused = self.tenants.refusal(who, ref, "reset", self.is_down(ref))
        if refused:
            return refused
        if not (reset_all or well_formed(row)):
            return FeatureError
        ref.model.reset(row, reset_all)
        ref.stats.record_reset()
        return None

    # -- the reference's clients --------------------------------------------

    def before(self, conn):
        transport = conn.transport
        breaker = conn.client._breaker
        faults, rolls = injected(conn)
        return Before(
            cache=(dict(transport._score_cache) if conn.vdso
                   and transport._score_cache_generation
                   == conn.ref.domain.generation else {}),
            blocked=(breaker.state == "open"
                     and breaker._cooldown_left > 0),
            faults=faults,
            rolls=rolls,
            delivered=conn.client.latency.update_records,
            fallbacks=conn.client.stats.fallback_predictions)

    def ladder(self, conn, before, attempt, fallback):
        """A client call: ``attempt()`` is one crossing that reached the
        handle; the crossings the injector failed are read off its
        counter (a down shard is the one kernel answer retried)."""
        if before.blocked:
            return fallback
        faults = injected(conn)[0] - before.faults
        result, tries = TransportFault, faults
        for _ in range(ATTEMPTS - faults):
            tries += 1
            result = attempt()
            if result is not ShardDownError:
                break
        conn.ref.retries += tries - 1
        return fallback if result in DEGRADED else result

    def hit(self, conn, row):
        conn.hits += 1
        refused = (self.tenants.refusal(conn.who, conn.ref, "predict", False)
                   or self.tenants.charge_predict(conn.who, 1))
        if refused:
            return refused
        score = self.answer(conn.ref, row)
        if type(score) is int:
            conn.ref.stats.record_cached_prediction(score, CONFIG.threshold)
        return score

    def vdso_read(self, conn, cache, rows):
        """One ``VdsoTransport.predict_batch``: hits before the first
        miss, then every distinct uncached row resolved in one call."""
        cache, scores, fresh = set(cache), [], None
        for at, row in enumerate(rows):
            conn.reads += 1
            if row in cache:
                score = self.hit(conn, row)
            else:
                conn.misses += 1
                if fresh is None:
                    missing = [r for r in dict.fromkeys(rows[at:])
                               if r not in cache]
                    resolved = self.handle_predict(conn.who, conn.ref,
                                                   missing)
                    if type(resolved) is not list:
                        return resolved
                    fresh = dict(zip(missing, resolved))
                score = fresh.pop(row)
                cache.add(row)
            if type(score) is not int:
                return score
            scores.append(score)
        return scores

    def flush_records(self, conn, delivered):
        """One ``VdsoTransport.flush`` of what was buffered, of which the
        crossing delivered ``delivered``: its outcome, and the records
        its error names lost - every one not applied."""
        records, conn.pending = conn.pending, []
        if not records:
            return None, 0
        applied = conn.ref.stats.updates
        refused = (self.handle_update(conn.who, conn.ref,
                                      records[:delivered])
                   if delivered else None)
        lost = len(records) - (conn.ref.stats.updates - applied)
        if refused in (PolicyError, DomainError):
            return refused, lost
        return (TransportFault if delivered < len(records)
                else refused), lost

    def buffered(self, conn, before, record):
        conn.ref.accepted += 1
        if before.blocked:
            conn.ref.dropped += 1                       # dropped
            return None
        conn.pending.append(record)
        if len(conn.pending) < conn.batch:
            return None
        result, lost = self.flush_records(
            conn, conn.client.latency.update_records - before.delivered)
        if result in (TransportFault, ShardDownError):
            conn.pending.append(record)     # the retry buffers it again
            lost -= 1                       # ... and it is not lost
            conn.ref.retries += 1
        conn.ref.dropped += lost
        return None if result in DEGRADED else result

    def resets(self, conn, before, row, reset_all):
        """A client's reset: a syscall whose first attempt flushes the
        vDSO buffer before it rolls its own die and reaches the
        handle; a later attempt finds the buffer empty."""
        if before.blocked:
            return None                                 # dropped
        attempts = ATTEMPTS
        faults, rolls = injected(conn)
        faults -= before.faults
        if conn.pending:
            records = len(conn.pending)
            delivered = conn.client.latency.update_records \
                - before.delivered
            flushed, lost = self.flush_records(conn, delivered)
            conn.ref.dropped += lost
            if flushed is not None:     # the attempt ended in its flush
                attempts -= 1
                if delivered < records and rolls == before.rolls:
                    faults -= 1         # the flush's own crossing
                if flushed not in (TransportFault, ShardDownError):
                    return None if flushed in DEGRADED else flushed
        # tried so far: an attempt its flush ended, crossings that failed
        result, tries = TransportFault, ATTEMPTS - attempts + faults
        for _ in range(attempts - faults):
            tries += 1
            result = self.handle_reset(conn.who, conn.ref, row, reset_all)
            if result is not ShardDownError:
                break
        conn.ref.retries += tries - 1
        return None if result in DEGRADED else result

    def check_fallback_flag(self, conn, before, fell_back):
        rose = conn.client.stats.fallback_predictions > before.fallbacks
        assert conn.client.last_prediction_was_fallback \
            == rose == fell_back

    # -- rules: domains and clients -----------------------------------------

    @rule(name=st.sampled_from(NAMES), who=st.sampled_from([OWNER, OTHER]),
          mode=st.sampled_from(SharingMode))
    def create(self, name, who, mode):
        """A domain open to everyone, private to its creator, or
        readable by everyone and written by its creator only."""
        shared = mode is SharingMode.SHARED
        got = outcome(lambda: self.service.create_domain(
            name, config=CONFIG, identity=who,
            policy=None if shared else DomainPolicy(owner=who, mode=mode)))
        if name in self.refs:
            assert got is DomainError
        elif not self.tenants.charge_domain(who):
            assert got is QuotaExceededError
        else:
            self.adopt(got, None if shared else who, who).mode = mode

    @rule(name=st.sampled_from(NAMES), who=WHO,
          mode=st.sampled_from(SharingMode))
    def set_policy(self, name, who, mode):
        """A live domain given another policy: every open handle reads
        its verdicts again at its next call, a flush of records
        buffered under the old one included."""
        ref = self.refs.get(name)
        if ref is None:
            return
        ref.domain.policy = DomainPolicy(owner=who, mode=mode)
        ref.owner = None if mode is SharingMode.SHARED else who
        ref.mode = mode

    @rule(name=st.sampled_from(NAMES))
    def remove(self, name):
        got = outcome(lambda: self.service.remove_domain(name))
        ref = self.refs.pop(name, None)
        if ref is None:
            assert got is DomainError
            return
        assert got is None
        ref.removed = True
        if ref.creator is not None:
            usage = self.tenants.usage[ref.creator]
            usage.domains = max(0, usage.domains - 1)

    @rule(name=st.sampled_from(NAMES), who=WHO,
          transport=st.sampled_from(["vdso", "syscall"]),
          batch=st.sampled_from([2, 3]))
    def connect(self, name, who, transport, batch):
        got = outcome(lambda: self.service.connect(
            name, identity=who, transport=transport, config=CONFIG,
            batch_size=batch, fallback=FALLBACK))
        ref = self.refs.get(name)
        if ref is None:         # connect creates it, as the caller's
            if not self.tenants.charge_domain(who):
                assert got is QuotaExceededError
                return
            ref = self.adopt(self.service.domain(name), None, who)
        got.attach_pipeline(self.pipeline)
        self.conns.append(Conn(got, who, ref, batch))

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, seed=st.integers(0, 9))
    def inject(self, pick, seed):
        self.attach(self.conns[pick % len(self.conns)], FaultPlan(
            seed=seed, syscall_failure_rate=0.4, flush_drop_rate=0.2,
            partial_flush_rate=0.3))

    @precondition(lambda self: any(conn.vdso for conn in self.conns))
    @rule(seed=st.integers(0, 9), behind=st.lists(
        st.tuples(ROWS, st.booleans()), min_size=1, max_size=2))
    def flush_partial(self, seed, behind):
        """Every vDSO client's flushes cut short from now on, and each
        flushes behind the updates ``behind``: a delivered prefix then
        meets the kernel's refusals - a policy's, a quota's - with a
        suffix lost."""
        for pick, conn in enumerate(self.conns):
            if conn.vdso:
                self.attach(conn, FaultPlan(seed=seed,
                                            partial_flush_rate=1.0))
                self.flush(pick, behind)

    def attach(self, conn, plan):
        conn.injector = FaultInjector(plan)
        conn.client.attach_fault_injector(conn.injector)

    # -- rules: the synchronous calls ---------------------------------------

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, row=ROWS)
    def predict(self, pick, row):
        conn = self.conns[pick % len(self.conns)]
        before = self.before(conn)
        got = outcome(lambda: conn.client.predict(row))
        want = self.reads(conn, before, [tuple(row)], FALLBACK)
        want = want[0] if type(want) is list else want
        assert got == want, (got, want)
        self.check_fallback_flag(conn, before, want == FALLBACK)

    def reads(self, conn, before, rows, fallback):
        """A client's predict of ``rows`` (a scalar predict is one)."""
        if conn.vdso:
            def attempt():
                return self.vdso_read(conn, before.cache, rows)
        else:
            def attempt():
                return self.handle_predict(conn.who, conn.ref, rows)
        return self.ladder(conn, before, attempt, fallback)

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, rows=st.lists(ROWS, max_size=4))
    def predict_batch(self, pick, rows):
        conn = self.conns[pick % len(self.conns)]
        rows = [tuple(row) for row in rows]
        before = self.before(conn)
        got = outcome(lambda: conn.client.predict_batch(rows))
        fallback = [FALLBACK] * len(rows)
        want = self.reads(conn, before, rows, fallback) if rows else []
        assert got == want, (got, want)
        if rows:
            self.check_fallback_flag(conn, before, want == fallback)

    @rule(requests=st.lists(st.tuples(st.sampled_from(NAMES), ROWS),
                            min_size=2, max_size=5))
    def kernel_batch(self, requests):
        """``ShardedService.predict_batch`` by name, kernel-internal:
        no policy, no charge, and row by row what the scalar read
        answers - an unknown name, a crashed shard, a malformed row."""
        requests = [(name, tuple(row)) for name, row in requests]
        got = [type(outcome) if isinstance(outcome, PSSError) else outcome
               for outcome in self.service.predict_batch(requests)]
        want = [self.read(self.refs[name], row) if name in self.refs
                else DomainError for name, row in requests]
        assert got == want, (got, want)

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, row=ROWS, direction=st.booleans())
    def update(self, pick, row, direction):
        conn = self.conns[pick % len(self.conns)]
        before = self.before(conn)
        got = outcome(lambda: conn.client.update(row, direction))
        if conn.vdso:
            want = self.buffered(conn, before, (tuple(row), direction))
        else:
            want = self.ladder(conn, before, lambda: self.handle_update(
                conn.who, conn.ref, [(row, direction)]), LOST)
            if want is LOST:
                conn.ref.dropped += 1
                want = None
            conn.ref.accepted += want is None
        assert got == want, (got, want)

    @precondition(lambda self: self.conns)
    @rule(pick=PICK,
          behind=st.lists(st.tuples(ROWS, st.booleans()), max_size=2))
    def flush(self, pick, behind):
        """A flush, made behind the updates ``behind`` as a reset is,
        so that it often carries more than one record."""
        conn = self.conns[pick % len(self.conns)]
        self.updates_behind(pick, conn, behind)
        before = self.before(conn)
        got = outcome(conn.client.flush)
        want = None
        if conn.pending and not before.blocked:
            want, lost = self.flush_records(
                conn, conn.client.latency.update_records - before.delivered)
            conn.ref.dropped += lost
            if want in DEGRADED:
                want = None
        assert got == want, (got, want)

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, row=ROWS, reset_all=st.booleans(),
          behind=st.lists(st.tuples(ROWS, st.booleans()), max_size=2))
    def reset(self, pick, row, reset_all, behind):
        """The paper's third call, made behind the updates ``behind``
        (each an ``update`` step of its own, short of filling a vDSO
        buffer), so that the flush a vDSO reset crosses first is not
        left to chance."""
        conn = self.conns[pick % len(self.conns)]
        self.updates_behind(pick, conn, behind)
        before = self.before(conn)
        got = outcome(lambda: conn.client.reset(row, reset_all=reset_all))
        want = self.resets(conn, before, tuple(row), reset_all)
        assert got == want, (got, want)

    def updates_behind(self, pick, conn, updates):
        """``update`` steps on ``conn``, short of filling its vDSO
        buffer."""
        room = conn.batch - 1 - len(conn.pending) if conn.vdso else 2
        for features, direction in updates[:room]:
            self.update(pick, features, direction)

    # -- rules: the pipeline ------------------------------------------------

    def submitted(self, target, features, op="predict", direction=False):
        """``ServingPipeline.submit``, with the reference deciding first
        what the handle admits and charges."""
        if isinstance(target, str):
            who, ref = ANONYMOUS, self.refs.get(target)
        else:
            who, ref = target._identity, self.by_domain[id(target._domain)]
        row = tuple(features)
        want = DomainError if ref is None else (
            self.tenants.refusal(who, ref, op, self.is_down(ref))
            or (self.tenants.charge_predict(who, 1) if op == "predict"
                else None if self.tenants.charge_updates(who, 1)
                else QuotaExceededError)
            or (FeatureError if len(row) != 2 else None))
        if want is None:
            lane = ref.domain.shard_id
            lanes = self.pipeline.lanes
            depth = len(lanes[lane].items) if lane < len(lanes) else 0
            if self.queue_limit and depth >= self.queue_limit:
                want = RequestShedError
        future = self.last_submit = self.real_submit(
            target, features, op=op, direction=direction)
        if want is None and isinstance(future.error, RequestShedError) \
                and future.error.reason == "slo_page":
            # A page stands on bad samples in the windows of the latest
            # grid point judged, which is at most an interval old: with
            # none that recent, the pipeline must not shed.
            now = self.pipeline.engine.now
            if self.last_bad < now - PAGE_MEMORY_NS:
                self.wrong.append(("shed on a stale page", now,
                                   self.last_bad))
            want = RequestShedError
        if want is not None:
            if not (future.done and type(future.error) is want):
                self.wrong.append(("admitted", op, row, want, future.error))
            if want is RequestShedError:
                self.shed += 1
            else:
                self.refused += 1
                self.refusals += 1
            return future
        tracked = Tracked(future, ref, op, row, direction,
                          isinstance(target, str))
        self.tracked.append(tracked)
        if future.done:
            self.wrong.append(("settled at submit", op, row, future.error))
        future.add_done_callback(lambda done: self.served_one(tracked))
        return future

    def served_one(self, tracked):
        """A queued request settles: it is what the reference's kernel
        gives it now, alone, whatever shared its batch."""
        ref = tracked.ref
        if ref.removed:
            want = DomainError
        elif tracked.op == "predict":
            want = self.read(ref, tracked.row)
        elif self.is_down(ref):
            want = ShardDownError
        else:
            want = self.apply(ref, tracked.row, tracked.direction)
            ref.by_name += tracked.by_name and want is None
        got = settled(tracked.future)
        if got != want:
            self.wrong.append(("served", tracked.op, tracked.row, want, got))
        self.served += 1
        self.records.append((ref.domain.name, ref.domain.shard_label,
                             "ok" if tracked.future.error is None else
                             f"error:{type(tracked.future.error).__name__}"))

    @precondition(lambda self: self.conns)
    @rule(pick=PICK, row=ROWS, update=st.booleans(),
          direction=st.booleans())
    def submit(self, pick, row, update, direction):
        conn = self.conns[pick % len(self.conns)]
        if update:
            outer = conn.client.submit_update(row, direction)
        else:
            outer = conn.client.submit(row)
        # The handle's own request; the client's future answers from
        # its fallback instead of failing for what its ladder absorbs.
        inner = self.last_submit

        def check(done):
            degraded = isinstance(inner.error, DEGRADED)
            if update and degraded:
                conn.ref.dropped += 1
            want = ((None if update else FALLBACK) if degraded
                    else settled(inner))
            if update and want is None:
                conn.ref.accepted += 1
            if settled(done) != want:
                self.wrong.append(("degraded", want, settled(done)))
            if not update and \
                    conn.client.last_prediction_was_fallback != degraded:
                self.wrong.append(("fallback flag", degraded))

        outer.add_done_callback(check)

    @rule(name=st.sampled_from(NAMES), row=ROWS, update=st.booleans(),
          direction=st.booleans(), burst=st.integers(1, 3))
    def submit_by_name(self, name, row, update, direction, burst):
        for _ in range(burst):
            self.pipeline.submit(name, row, op="update" if update else
                                 "predict", direction=direction)

    @rule(seed=st.integers(0, 3), count=st.integers(1, 3))
    def closed_loop(self, seed, count):
        LoadGenerator(SPEC, seed=seed).start_closed_loop(
            self.pipeline, requests_per_client=count)

    @rule(duration=st.sampled_from([0.0, 100.0, 1_000.0, 5_000.0]))
    def run(self, duration):
        self.pipeline.run(until=self.pipeline.engine.now + duration)

    @rule(gap=st.floats(0.0, 1e6))
    def idle(self, gap):
        """Time passes with nothing submitted: pages age out."""
        self.pipeline.run(until=self.pipeline.engine.now + gap)

    @rule()
    def drain(self):
        """A run with no ``until`` ends when its last request settles,
        with nothing told that the load is complete."""
        self.pipeline.run()
        assert self.pipeline.in_flight == 0
        assert self.pipeline.engine.pending() == 0

    # -- rules: shards, replicas, checkpoints -------------------------------

    @rule(shard=st.integers(0, 3))
    def crash(self, shard):
        shard %= self.service.num_shards
        got = outcome(lambda: self.service.crash_shard(shard))
        if shard in self.down:
            assert got is DomainError
            return
        for ref in self.refs.values():
            if ref.domain.shard_id == shard:
                ref.model = ReferencePerceptron(CONFIG)
        self.down.add(shard)

    @rule(shard=st.integers(0, 3))
    def promote(self, shard):
        shard %= self.service.num_shards
        got = outcome(lambda: ReplicaPromoter(self.service).promote(shard))
        if shard not in self.down:
            assert got is DomainError
            return
        for ref in self.refs.values():
            follower = ref.followers.get(shard)
            if ref.domain.shard_id == shard and follower is not None:
                ref.model = copy_of(follower)
        self.down.discard(shard)

    @rule()
    def sync_replicas(self):
        self.service.sync_replicas()
        for shard in range(self.service.num_shards):
            if shard in self.down or not self.replicas:
                continue
            for ref in self.refs.values():
                if ref.domain.shard_id == shard:
                    ref.followers[shard] = copy_of(ref.model)
                else:
                    ref.followers.pop(shard, None)

    @rule(count=st.integers(1, 4), seed=st.integers(0, 9))
    def reshard_step(self, count, seed):
        """One handoff of a live reshard, begun if none is; a third of
        the steps stall."""
        if self.migration is None:
            self.migration = self.service.begin_reshard(
                count, injector=FaultInjector(FaultPlan(
                    seed=seed, migration_stall_rate=0.3)))
        generations = [ref.domain.generation for ref in self.refs.values()]
        self.migration.step()
        # a move replaces nothing: a warm score cache stays current
        assert generations == [ref.domain.generation
                               for ref in self.refs.values()]
        if self.migration.done:
            self.migration = None
        shards = self.service.num_shards
        self.down = {shard for shard in self.down if shard < shards}
        for ref in self.refs.values():
            ref.followers = {shard: model for shard, model
                             in ref.followers.items() if shard < shards}

    def saved_state(self, refs):
        return {ref.domain.name: (copy_of(ref.model),
                                  dataclasses.replace(ref.stats))
                for ref in refs}

    def restore(self, content):
        for name, (model, stats) in content.items():
            ref = self.refs.get(name) or self.adopt(
                self.service.domain(name), None, None)
            ref.model = copy_of(model)
            ref.restored += stats.updates - ref.stats.updates
            ref.stats = dataclasses.replace(stats)

    @rule(action=st.sampled_from(["save", "load", "checkpoint",
                                  "recover", "corrupt"]), pick=PICK)
    def persist(self, action, pick):
        """A whole-service snapshot saved or loaded, or the per-shard
        checkpoint written or recovered - after, for ``corrupt``, one
        written shard file had a byte turned to invalid UTF-8."""
        if action == "save":
            save_service(self.service, self.dir / "service.json")
            self.saved = self.saved_state(self.refs.values())
        elif action == "load" and self.saved is not None:
            load_service(self.service, self.dir / "service.json")
            self.restore(self.saved)
        elif action == "checkpoint":
            self.shard_checkpoints.checkpoint()
            self.checkpointed()
        elif action == "corrupt" and self.manifest:
            shard = sorted(self.manifest)[pick % len(self.manifest)]
            path = self.dir / "shards" / shard_file_name(shard)
            data = bytearray(path.read_bytes())
            data[pick * len(data) // 16] = 0xFF
            path.write_bytes(data)
            self.corrupt.add(shard)
            self.recovered()
        elif action == "recover":
            self.recovered()

    def recovered(self):
        """What ``ShardedCheckpointManager.recover`` restores: every
        manifest entry but a corrupted file, whose domains keep their
        live state."""
        self.shard_checkpoints.recover()
        for shard, content in self.manifest.items():
            if shard not in self.corrupt:
                self.restore(content)

    def checkpointed(self):
        """What ``ShardedCheckpointManager.checkpoint`` wrote: every up
        shard whose signature moved, and the manifest when any was."""
        shards = self.service.num_shards
        written = False
        for shard in range(shards):
            if shard in self.down:
                continue
            hosted = sorted((name, ref) for name, ref in self.refs.items()
                            if ref.domain.shard_id == shard)
            signature = tuple(
                (name, ref.domain.generation, ref.stats.predictions,
                 ref.stats.updates, ref.stats.resets)
                for name, ref in hosted)
            if signature == self.signatures.get(shard):
                continue
            self.signatures[shard] = signature
            self.shard_files[shard] = self.saved_state(
                ref for _, ref in hosted)
            self.corrupt.discard(shard)
            written = True
        self.signatures = {shard: signature for shard, signature
                           in self.signatures.items() if shard < shards}
        if written:
            self.manifest = {shard: self.shard_files[shard]
                             for shard in range(shards)
                             if shard in self.shard_files}

    # -- after every step ----------------------------------------------------

    @invariant()
    def agrees_with_the_reference(self):
        assert not self.wrong, self.wrong
        self.check_domains()
        self.check_clients()
        self.check_ledger()
        self.check_pipeline()
        self.check_records()
        assert self.tracer.open_spans() == []   # every span closed
        self.tracer.clear()

    def check_domains(self):
        service = self.service
        assert service.domain_names() == tuple(sorted(self.refs))
        for name, ref in self.refs.items():
            domain = ref.domain
            assert service.domain(name) is domain
            assert domain.shard_id == service.shard_of(name)
            assert domain.model.to_state() == ref.model.to_state()
            assert domain.model.version is domain.version
            assert domain.model.weights.plan \
                is service.plans.plan_for(CONFIG)
            assert domain.stats == ref.stats
        for ref in self.by_domain.values():
            assert ref.domain.generation >= ref.generation
            ref.generation = ref.domain.generation
        assert {shard.shard_id for shard in service.shards
                if shard.down} == self.down
        for shard in service.shards:
            want = {name: ref.followers[shard.shard_id].to_state()
                    for name, ref in self.refs.items()
                    if shard.shard_id in ref.followers}
            for replica in shard.replicas:
                assert {name: follower.model.to_state() for name, follower
                        in replica.followers.items()} == want
        for who, usage in self.tenants.usage.items():
            assert self.admission.usage_for(who) == usage

    def check_clients(self):
        for conn in self.conns:
            for other in self.conns:
                assert (conn.client.stats is other.client.stats) \
                    == (conn.ref is other.ref)
        for report in self.service.reports():
            shared = [conn.client.stats for conn in self.conns
                      if conn.ref is self.refs[report.name]]
            assert report.resilience is None \
                or any(report.resilience is stats for stats in shared)
        for conn in self.conns:
            stats = conn.client.stats
            assert (stats.dropped_updates, stats.retries) \
                == (conn.ref.dropped, conn.ref.retries)
            transport = conn.transport
            assert transport._version is conn.ref.domain.version
            if not conn.vdso:
                continue
            account = conn.client.latency
            assert transport._records == conn.pending
            assert (account.vdso_calls, account.cache_hits,
                    account.cache_misses) == (conn.reads, conn.hits,
                                              conn.misses)
            cache = transport._score_cache
            assert all(type(score) is int for score in cache.values())
            if not conn.ref.removed and transport._score_cache_generation \
                    == conn.ref.domain.generation:
                for row, score in cache.items():
                    assert score == self.answer(conn.ref, row)
        # The series a vDSO read files when the registry is read.
        counters, histograms = self.metrics.counters(), \
            self.metrics.histograms()
        for name in {conn.ref.domain.name for conn in self.conns}:
            mine = [conn.client.latency for conn in self.conns
                    if conn.vdso and conn.ref.domain.name == name]
            label = ("domain", name)
            for metric, field in ((SCORE_CACHE_HITS_TOTAL, "cache_hits"),
                                  (SCORE_CACHE_MISSES_TOTAL,
                                   "cache_misses")):
                assert sum(counter.value for (key, labels), counter
                           in counters
                           if key == metric and label in labels) \
                    == sum(getattr(account, field) for account in mine)
            assert sum(histogram.count for (key, labels), histogram
                       in histograms
                       if key == VDSO_READ_NS and label in labels) \
                == sum(account.vdso_calls for account in mine)

    def check_ledger(self):
        """Per domain object: the update records its clients accepted,
        and the writes by name, are applied, pending in a client's
        buffer or counted lost - restores moving the applied count by
        a term of their own."""
        pending, dropped = {}, {}
        for conn in self.conns:
            key = id(conn.ref)
            pending[key] = pending.get(key, 0) + conn.client.pending_updates
            dropped[key] = conn.client.stats.dropped_updates
        for ref in self.by_domain.values():
            key = id(ref)
            assert ref.accepted + ref.by_name + ref.restored \
                == ref.domain.stats.updates + pending.get(key, 0) \
                + dropped.get(key, 0), ref.domain.name

    def check_pipeline(self):
        pipeline = self.pipeline
        waiting = sum(not t.future.done for t in self.tracked)
        assert pipeline.submitted == len(self.tracked) + self.refused \
            + self.shed
        assert pipeline.submitted == pipeline.completed + pipeline.failed \
            + pipeline.shed_count + pipeline.in_flight
        assert pipeline.in_flight == waiting
        assert pipeline.shed_count == self.shed
        assert pipeline.completed + pipeline.failed \
            == self.refused + self.served
        assert self.samples == self.served
        if self.queue_limit:
            assert all(lane.max_depth <= self.queue_limit
                       for lane in pipeline.lanes)

    def check_records(self):
        events, spans = self.tracer.events(), self.tracer.spans()
        requests = [event for event in events if event.kind == "request"]
        served = [event for event in requests
                  if "settled_ns" in event.detail]
        assert len(requests) - len(served) == self.refusals
        assert [(event.domain, event.shard, event.detail["outcome"])
                for event in served] == self.records
        for event in served:
            stages = request_stages(event)
            assert min(stages.values()) >= 0
            assert math.isclose(sum(stages.values()), event.dur_ns,
                                abs_tol=1e-6)
        self.records, self.refusals = [], 0
        owner = {name: ref.domain.shard_label
                 for name, ref in self.refs.items()}
        # a name whose domain was removed is ambiguous on a record
        orphaned = {ref.domain.name for ref in self.by_domain.values()
                    if ref.removed}
        for record in (*events, *spans):
            if record.domain not in owner or record.domain in orphaned \
                    or record.kind == "request":
                continue
            if record.shard or record.transport in SHARD_SIDE:
                assert record.shard == owner[record.domain], record
        assert mixed_label_spans([span.as_dict() for span in spans]) == []
        # and so does every series of a domain that grew this step
        series = {key: counter.value
                  for key, counter in self.metrics.counters()}
        series.update((key, histogram.count)
                      for key, histogram in self.metrics.histograms())
        for key, held in series.items():
            labels = dict(key[1])
            name = labels.get("domain")
            if held != self.series.get(key) and "shard" in labels \
                    and name in owner and name not in orphaned:
                assert labels["shard"] == owner[name], key
        self.series = series


# No shrinking: a failing example is reported as found, in the run's
# time, not after minutes of shrinking one of 50 steps at a time.
SystemMachine.TestCase.settings = settings(
    max_examples=500, stateful_step_count=50, deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
    suppress_health_check=[HealthCheck.too_slow,
                           HealthCheck.filter_too_much])
TestSystem = SystemMachine.TestCase
