"""Tests for vDSO/syscall transports and the batch update buffer."""

import pytest

from repro.core.config import LatencyModel
from repro.core.errors import TransportClosedError, TransportError
from repro.core.models import VersionWord
from repro.core.transport import (
    BatchUpdateBuffer,
    SyscallTransport,
    VdsoTransport,
    make_transport,
)


class RecordingTarget:
    """Minimal service target recording the calls it receives."""

    def __init__(self):
        self.calls = []

    def predict(self, features):
        self.calls.append(("predict", tuple(features)))
        return 7

    def update(self, features, direction):
        self.calls.append(("update", tuple(features), direction))

    def reset(self, features, reset_all):
        self.calls.append(("reset", tuple(features), reset_all))


LAT = LatencyModel(vdso_predict_ns=4.19, syscall_ns=68.0,
                   batch_record_ns=1.0)


class TestSyscallTransport:
    def test_predict_charges_syscall(self):
        target = RecordingTarget()
        t = SyscallTransport(target, LAT)
        assert t.predict([1, 2]) == 7
        assert t.account.syscall_ns == 68.0
        assert t.account.vdso_ns == 0.0

    def test_update_immediate_delivery(self):
        target = RecordingTarget()
        t = SyscallTransport(target, LAT)
        t.update([1, 2], True)
        assert target.calls == [("update", (1, 2), True)]
        assert t.account.update_records == 1

    def test_ten_calls_cost_ten_syscalls(self):
        target = RecordingTarget()
        t = SyscallTransport(target, LAT)
        for _ in range(5):
            t.predict([1, 2])
            t.update([1, 2], True)
        assert t.account.syscalls == 10
        assert t.account.syscall_ns == pytest.approx(680.0)


class TestVdsoTransport:
    def test_predict_charges_vdso_only(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT)
        assert t.predict([1, 2]) == 7
        assert t.account.vdso_ns == pytest.approx(4.19)
        assert t.account.syscall_ns == 0.0

    def test_updates_buffered_until_batch_full(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT, batch_size=3)
        t.update([1, 2], True)
        t.update([3, 4], False)
        assert target.calls == []  # nothing delivered yet
        assert t.pending_updates == 2
        t.update([5, 6], True)  # fills the batch -> flush
        assert len(target.calls) == 3
        assert t.pending_updates == 0

    def test_flush_preserves_order(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 1], True)
        t.update([2, 2], False)
        t.flush()
        assert target.calls == [
            ("update", (1, 1), True),
            ("update", (2, 2), False),
        ]

    def test_batch_cost_amortizes_boundary(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT, batch_size=32)
        for _ in range(32):
            t.update([1, 2], True)
        # One syscall of 68 + 32 * 1 record ns, not 32 * 68.
        assert t.account.syscalls == 1
        assert t.account.syscall_ns == pytest.approx(68.0 + 32.0)
        assert t.account.update_records == 32

    def test_empty_flush_is_free(self):
        t = VdsoTransport(RecordingTarget(), LAT)
        t.flush()
        assert t.account.syscalls == 0

    def test_reset_flushes_pending_first(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 2], True)
        t.reset([0, 0], reset_all=True)
        kinds = [c[0] for c in target.calls]
        assert kinds == ["update", "reset"]

    def test_close_flushes(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 2], True)
        t.close()
        assert ("update", (1, 2), True) in target.calls

    def test_vdso_vs_syscall_speedup_matches_paper(self):
        # The paper reports a >16x latency reduction for predictions.
        assert LAT.speedup_factor > 16


class TestBatchUpdateBuffer:
    def test_rejects_zero_capacity(self):
        with pytest.raises(TransportError):
            BatchUpdateBuffer(0)

    def test_add_past_capacity_raises(self):
        buf = BatchUpdateBuffer(1)
        buf.add([1], True)
        with pytest.raises(TransportError):
            buf.add([2], True)

    def test_drain_empties(self):
        buf = BatchUpdateBuffer(4)
        buf.add([1], True)
        records = buf.drain()
        assert records == [((1,), True)]
        assert len(buf) == 0
        assert buf.drain() == []


class VersionedTarget(RecordingTarget):
    """Recording target that also publishes a version word."""

    def __init__(self):
        super().__init__()
        self.version = VersionWord()
        self.cached_recorded = []
        self.score = 7

    def predict(self, features):
        self.calls.append(("predict", tuple(features)))
        return self.score

    def record_cached_prediction(self, score):
        self.cached_recorded.append(score)

    def mutate(self, score):
        self.score = score
        self.version.value += 1


class TestScoreCache:
    def test_no_generation_means_no_caching(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT)
        for _ in range(3):
            t.predict([1, 2])
        assert len(target.calls) == 3
        assert t.account.cache_hits == 0
        assert t.account.cache_misses == 0

    def test_repeat_predicts_hit_cache_without_crossing(self):
        target = VersionedTarget()
        t = VdsoTransport(target, LAT)
        for _ in range(5):
            assert t.predict([1, 2]) == 7
        # Only the first predict reached the service.
        assert len(target.calls) == 1
        assert t.account.cache_hits == 4
        assert t.account.cache_misses == 1
        # Cached serves were still accounted to the domain.
        assert target.cached_recorded == [7, 7, 7, 7]
        # And every read still paid the vDSO cost.
        assert t.account.vdso_calls == 5

    def test_generation_bump_invalidates(self):
        target = VersionedTarget()
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
        target = VersionedTarget()
        t = VdsoTransport(target, LAT)
        t.predict([1, 2])
        t.predict([3, 4])
        t.predict([1, 2])
        t.predict([3, 4])
        assert len(target.calls) == 2
        assert t.account.cache_hits == 2

    def test_score_cache_is_bounded(self):
        target = VersionedTarget()
        t = VdsoTransport(target, LAT)
        for i in range(VdsoTransport.SCORE_CACHE_ENTRIES + 10):
            t.predict([i, i])
        assert t.score_cache_size == VdsoTransport.SCORE_CACHE_ENTRIES

    def test_op_aggregates_split_predict_and_flush(self):
        target = VersionedTarget()
        t = VdsoTransport(target, LAT, batch_size=2)
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
        client = service.connect(
            "dom", config=PSSConfig(num_features=2), identity=who)
        service.update("dom", (1, 2), True)   # scores worth comparing
        rows = [(1, 2), (3, 4), (5, 6), (7, 8), *extra]
        with pytest.raises(QuotaExceededError):
            client.predict_batch(rows)
        assert client._transport.score_cache_size == 0
        admission.set_quota(who, TenantQuota())
        scores = client.predict_batch(rows)
        assert None not in scores
        assert scores == [client.predict(row) for row in rows]

    def test_faulted_batch_call_writes_nothing(self):
        """The misses are scored before any is written, so a service
        call that raises leaves the cache as the hits found it."""
        class FlakyTarget(VersionedTarget):
            def predict_batch(self, rows):
                if self.score < 0:
                    raise TransportError("service side failed")
                return [self.predict(row) for row in rows]

        target = FlakyTarget()
        t = VdsoTransport(target, LAT)
        assert t.predict_batch([(1, 2), (3, 4)]) == [7, 7]
        target.score = -1   # same generation: the cache stays valid
        with pytest.raises(TransportError):
            t.predict_batch([(1, 2), (5, 6), (3, 4), (5, 6)])
        assert dict(t._score_cache) == {(1, 2): 7, (3, 4): 7}
        target.score = 9
        assert t.predict_batch([(5, 6), (1, 2), (5, 6)]) == [9, 7, 9]
        assert list(t._score_cache) == [(1, 2), (3, 4), (5, 6)]


class TestMakeTransport:
    def test_known_kinds(self):
        target = RecordingTarget()
        assert make_transport("vdso", target).name == "vdso"
        assert make_transport("syscall", target).name == "syscall"

    def test_unknown_kind_raises(self):
        with pytest.raises(TransportError):
            make_transport("pigeon", RecordingTarget())


class TestCloseContract:
    @pytest.mark.parametrize("kind", ["vdso", "syscall"])
    def test_use_after_close_raises(self, kind):
        t = make_transport(kind, RecordingTarget(), LAT)
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

    @pytest.mark.parametrize("kind", ["vdso", "syscall"])
    def test_close_is_idempotent(self, kind):
        t = make_transport(kind, RecordingTarget(), LAT)
        t.close()
        t.close()  # must not raise
        assert t.closed

    def test_closed_error_is_a_transport_error(self):
        # Callers catching the broad transport error keep working.
        assert issubclass(TransportClosedError, TransportError)

    def test_close_flushes_pending_batch_once(self):
        target = RecordingTarget()
        t = VdsoTransport(target, LAT, batch_size=10)
        t.update([1, 2], True)
        t.close()
        t.close()
        assert target.calls.count(("update", (1, 2), True)) == 1
