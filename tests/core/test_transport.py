"""Tests for vDSO/syscall transports and the batch update buffer."""

from collections.abc import Sized

import pytest

from repro.core import PredictionService, PSSConfig
from repro.core.config import LatencyModel
from repro.core.errors import TransportClosedError, TransportError
from repro.core.faults import FaultInjector, FaultPlan
from repro.core.transport import (
    SyscallTransport,
    Transport,
    VdsoTransport,
    make_transport,
)
from tests.core.fake_handle import FakeHandle

LAT = LatencyModel(vdso_predict_ns=4.19, syscall_ns=68.0,
                   batch_record_ns=1.0)


def real_handle():
    """A handle on a fresh two-feature domain."""
    return PredictionService().handle("d", config=PSSConfig(num_features=2))


class TestSyscallTransport:
    def test_predict_charges_syscall(self):
        target = FakeHandle()
        t = SyscallTransport(target, LAT)
        assert t.predict([1, 2]) == 7
        assert t.account.syscall_ns == 68.0
        assert t.account.vdso_ns == 0.0

    def test_update_immediate_delivery(self):
        target = FakeHandle()
        t = SyscallTransport(target, LAT)
        t.update([1, 2], True)
        assert target.calls == [("update", (1, 2), True)]
        assert t.account.update_records == 1

    def test_ten_calls_cost_ten_syscalls(self):
        t = SyscallTransport(real_handle(), LAT)
        for _ in range(5):
            t.predict([1, 2])
            t.update([1, 2], True)
        assert t.account.syscalls == 10
        assert t.account.syscall_ns == pytest.approx(680.0)


class TestVdsoTransport:
    def test_predict_charges_vdso_only(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT)
        assert t.predict([1, 2]) == 7
        assert t.account.vdso_ns == pytest.approx(4.19)
        assert t.account.syscall_ns == 0.0

    def test_updates_buffered_until_batch_full(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT, batch_size=3)
        t.update([1, 2], True)
        t.update([3, 4], False)
        assert target.calls == []  # nothing delivered yet
        assert t.pending_updates == 2
        t.update([5, 6], True)  # fills the batch -> flush
        assert len(target.calls) == 3
        assert t.pending_updates == 0

    def test_flush_preserves_order(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 1], True)
        t.update([2, 2], False)
        t.flush()
        assert target.calls == [
            ("update", (1, 1), True),
            ("update", (2, 2), False),
        ]

    def test_batch_cost_amortizes_boundary(self):
        t = VdsoTransport(real_handle(), LAT, batch_size=32)
        for _ in range(32):
            t.update([1, 2], True)
        # One syscall of 68 + 32 * 1 record ns, not 32 * 68.
        assert t.account.syscalls == 1
        assert t.account.syscall_ns == pytest.approx(68.0 + 32.0)
        assert t.account.update_records == 32

    def test_empty_flush_is_free(self):
        t = VdsoTransport(real_handle(), LAT)
        t.flush()
        assert t.account.syscalls == 0

    def test_reset_flushes_pending_first(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 2], True)
        t.reset([0, 0], reset_all=True)
        kinds = [c[0] for c in target.calls]
        assert kinds == ["update", "reset"]

    def test_close_flushes(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 2], True)
        t.close()
        assert ("update", (1, 2), True) in target.calls

    def test_vdso_vs_syscall_speedup_matches_paper(self):
        # The paper reports a >16x latency reduction for predictions.
        assert LAT.speedup_factor > 16


class TestBatchUpdateBuffer:
    """The vDSO transport's local buffer of update records."""

    def test_rejects_zero_capacity(self):
        with pytest.raises(TransportError):
            VdsoTransport(real_handle(), LAT, batch_size=0)


class TestScoreCache:
    def test_repeat_predicts_hit_cache_without_crossing(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT)
        for _ in range(5):
            assert t.predict([1, 2]) == 7
        # Only the first predict reached the service.
        assert len(target.calls) == 1
        assert t.account.cache_hits == 4
        assert t.account.cache_misses == 1
        # Cached serves were still accounted to the domain.
        assert target.cached == [7, 7, 7, 7]
        # And every read still paid the vDSO cost.
        assert t.account.vdso_calls == 5

    def test_generation_bump_invalidates(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT)
        assert t.predict([1, 2]) == 7
        assert t.predict([1, 2]) == 7
        target.mutate(score=11)
        assert t.predict([1, 2]) == 11  # fresh read after invalidation
        assert t.predict([1, 2]) == 11  # cached again at the new gen
        assert len(target.calls) == 2
        assert t.account.cache_hits == 2
        assert t.account.cache_misses == 2

    def test_distinct_vectors_cached_independently(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT)
        t.predict([1, 2])
        t.predict([3, 4])
        t.predict([1, 2])
        t.predict([3, 4])
        assert len(target.calls) == 2
        assert t.account.cache_hits == 2

    def test_score_cache_is_bounded(self):
        t = VdsoTransport(real_handle(), LAT)
        for i in range(VdsoTransport.SCORE_CACHE_ENTRIES + 10):
            t.predict([i, i])
        assert t.score_cache_size == VdsoTransport.SCORE_CACHE_ENTRIES

    def test_op_aggregates_split_predict_and_flush(self):
        t = VdsoTransport(real_handle(), LAT, batch_size=2)
        t.predict([1, 2])
        t.update([1, 2], True)
        t.update([1, 2], True)  # fills the batch -> flush
        assert t.account.op_calls["predict"] == 1
        assert t.account.mean_op_ns("predict") == pytest.approx(4.19)
        assert t.account.op_calls["flush"] == 1
        assert t.account.mean_op_ns("flush") == pytest.approx(68.0 + 2.0)

    @pytest.mark.parametrize("extra", [[], [(1, 2)]])
    def test_refused_batch_leaves_nothing_in_the_cache(self, extra):
        """A quota-refused ``predict_batch`` used to leave its misses'
        ``None`` placeholders in the score cache: once the quota was
        lifted, the same batch came back ``[None] * 4`` (``KeyError``
        when it also repeated a row)."""
        from repro.core import PredictionService, PSSConfig
        from repro.core.errors import QuotaExceededError
        from repro.core.kernel.admission import (
            AdmissionController,
            TenantQuota,
        )
        from repro.core.policy import ClientIdentity

        who = ClientIdentity()
        admission = AdmissionController()
        admission.set_quota(who, TenantQuota(predict_budget=3))
        service = PredictionService(admission=admission)
        service.create_domain("dom", config=PSSConfig(num_features=2))
        client = VdsoTransport(service.handle("dom", identity=who), LAT)
        service.domain("dom").update((1, 2), True)   # scores worth comparing
        rows = [(1, 2), (3, 4), (5, 6), (7, 8), *extra]
        with pytest.raises(QuotaExceededError):
            client.predict_batch(rows)
        assert client.score_cache_size == 0
        admission.set_quota(who, TenantQuota())
        scores = client.predict_batch(rows)
        assert None not in scores
        assert scores == [client.predict(row) for row in rows]

    def test_faulted_batch_call_writes_nothing(self):
        """The misses are scored before any is written, so a service
        call that raises leaves the cache as the hits found it."""
        target = FakeHandle()
        t = VdsoTransport(target, LAT)
        assert t.predict_batch([(1, 2), (3, 4)]) == [7, 7]
        # same generation: the cache stays valid
        target.error = TransportError("service side failed")
        with pytest.raises(TransportError):
            t.predict_batch([(1, 2), (5, 6), (3, 4), (5, 6)])
        assert dict(t._score_cache) == {(1, 2): 7, (3, 4): 7}
        target.error, target.score = None, 9
        assert t.predict_batch([(5, 6), (1, 2), (5, 6)]) == [9, 7, 9]
        assert list(t._score_cache) == [(1, 2), (3, 4), (5, 6)]


class TestMakeTransport:
    def test_known_kinds(self):
        target = real_handle()
        assert make_transport("vdso", target).name == "vdso"
        assert make_transport("syscall", target).name == "syscall"

    def test_unknown_kind_raises(self):
        with pytest.raises(TransportError):
            make_transport("pigeon", real_handle())


#: every transport there is, named as ``make_transport`` names it
TRANSPORTS = pytest.mark.parametrize(
    "cls", Transport.__subclasses__(), ids=lambda cls: cls.name)


class TestCloseContract:
    @TRANSPORTS
    def test_use_after_close_raises(self, cls):
        t = cls(real_handle(), LAT)
        t.close()
        assert t.closed
        with pytest.raises(TransportClosedError):
            t.predict([1, 2])
        with pytest.raises(TransportClosedError):
            t.update([1, 2], True)
        with pytest.raises(TransportClosedError):
            t.reset([1, 2], False)
        with pytest.raises(TransportClosedError):
            t.flush()

    @TRANSPORTS
    def test_close_is_idempotent(self, cls):
        t = cls(real_handle(), LAT)
        t.close()
        t.close()  # must not raise
        assert t.closed

    @TRANSPORTS
    def test_close_releases_what_the_transport_holds(self, cls):
        """Whatever a transport holds beyond the base's fields (its
        buffer, its score and stale-read caches) is empty once it is
        closed: a closed mapping keeps no answer or record alive past
        the handle it was read through."""
        base = set(vars(Transport(real_handle(), LAT)))
        t = cls(real_handle(), LAT)
        t.predict([1, 2])
        t.predict_batch([(3, 4), (5, 6)])
        t.update([1, 2], True)
        t.attach_injector(FaultInjector(FaultPlan(seed=0,
                                                  stale_read_rate=0.5)))
        for row in ([1, 2], [3, 4], [1, 2], [3, 4]):
            t.predict(row)
        t.close()
        held = {name: value for name, value in vars(t).items()
                if name not in base and isinstance(value, Sized)
                and len(value)}
        assert held == {}

    def test_closed_error_is_a_transport_error(self):
        # Callers catching the broad transport error keep working.
        assert issubclass(TransportClosedError, TransportError)

    def test_close_flushes_pending_batch_once(self):
        target = FakeHandle()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 2], True)
        t.close()
        t.close()
        assert target.calls.count(("update", (1, 2), True)) == 1
