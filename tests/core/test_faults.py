"""Tests for the deterministic fault-injection framework."""

import pytest

from repro.core import (
    LatencyModel,
    PredictionService,
    PSSConfig,
    TransportFault,
)
from repro.core.errors import ConfigError, PolicyError
from repro.core.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    attach_injector,
)
from repro.core.policy import ClientIdentity, DomainPolicy, SharingMode
from repro.core.transport import SyscallTransport, VdsoTransport
from tests.core.fake_handle import FakeHandle

LAT = LatencyModel(vdso_predict_ns=4.19, syscall_ns=68.0,
                   batch_record_ns=1.0)


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(syscall_failure_rate=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(stale_read_rate=-0.1)

    def test_flush_budget_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(flush_drop_rate=0.7, partial_flush_rate=0.7)

    def test_uniform_splits_flush_budget(self):
        plan = FaultPlan.uniform(0.4, seed=3)
        assert plan.syscall_failure_rate == 0.4
        assert plan.flush_drop_rate + plan.partial_flush_rate == \
            pytest.approx(0.4)
        assert plan.stale_read_rate == plan.corruption_rate == 0.4

    def test_zero_plan_has_no_faults(self):
        rates = {name: rate for name, rate in vars(FaultPlan()).items()
                 if name.endswith("_rate")}
        assert len(rates) == 8
        assert not any(rates.values())


class TestInjectorDeterminism:
    def drive(self, injector):
        decisions = []
        for _ in range(200):
            fault = injector.syscall_fault()
            decisions.append(fault.errno_name if fault else None)
            decisions.append(injector.stale_read())
            decisions.append(injector.flush_outcome(8))
        return decisions

    def test_same_seed_same_sequence(self):
        plan = FaultPlan.uniform(0.3, seed=11)
        a = self.drive(FaultInjector(plan))
        b = self.drive(FaultInjector(plan))
        assert a == b

    def test_different_seed_different_sequence(self):
        a = self.drive(FaultInjector(FaultPlan.uniform(0.3, seed=1)))
        b = self.drive(FaultInjector(FaultPlan.uniform(0.3, seed=2)))
        assert a != b

    def test_zero_rates_never_inject(self):
        injector = FaultInjector(FaultPlan(seed=5))
        for _ in range(100):
            assert injector.syscall_fault() is None
            assert not injector.stale_read()
            assert injector.flush_outcome(4) == 4
            assert not injector.corrupt_snapshot()
        assert injector.stats == FaultStats()

    def test_stats_count_injections(self):
        injector = FaultInjector(FaultPlan(seed=0,
                                           syscall_failure_rate=1.0))
        for _ in range(10):
            assert injector.syscall_fault() is not None
        assert injector.stats == FaultStats(syscall_faults=10)

    def test_corrupt_text_changes_one_character(self):
        injector = FaultInjector(FaultPlan(seed=0, corruption_rate=1.0))
        text = '{"version": 1, "domains": {}}'
        mangled = injector.corrupt_text(text)
        assert mangled != text
        assert len(mangled) == len(text)
        assert sum(a != b for a, b in zip(text, mangled)) == 1


class TestSyscallTransportFaults:
    def test_failed_predict_raises_but_charges(self):
        t = SyscallTransport(FakeHandle(score=0), LAT)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, syscall_failure_rate=1.0)))
        with pytest.raises(TransportFault) as exc:
            t.predict([1, 2])
        assert exc.value.errno_name in ("EAGAIN", "EINTR")
        assert t.account.syscalls == 1

    def test_failed_update_delivers_nothing(self):
        target = FakeHandle(score=0)
        t = SyscallTransport(target, LAT)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, syscall_failure_rate=1.0)))
        with pytest.raises(TransportFault) as exc:
            t.update([1, 2], True)
        assert exc.value.lost_records == 0
        assert target.updates == []
        assert t.account.update_records == 0

    def test_detaching_injector_heals(self):
        t = SyscallTransport(FakeHandle(score=0), LAT)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, syscall_failure_rate=1.0)))
        with pytest.raises(TransportFault):
            t.predict([1])
        attach_injector(t, None)
        assert t.predict([1]) == 0


class TestVdsoTransportFaults:
    def test_stale_read_returns_previous_score(self):
        target = FakeHandle(score=0)
        t = VdsoTransport(target, LAT, batch_size=4)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, stale_read_rate=1.0)))
        target.score = 5
        assert t.predict([1, 2]) == 5  # first read: nothing cached yet
        target.score = 9
        # Every read is stale, so the cached score keeps being served.
        assert t.predict([1, 2]) == 5

    def test_stale_reads_never_raise(self):
        t = VdsoTransport(FakeHandle(score=0), LAT, batch_size=4)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, stale_read_rate=1.0)))
        for i in range(50):
            t.predict([i % 4])

    def test_dropped_flush_loses_whole_batch(self):
        target = FakeHandle(score=0)
        t = VdsoTransport(target, LAT, batch_size=4)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, flush_drop_rate=1.0)))
        with pytest.raises(TransportFault) as exc:
            for i in range(4):
                t.update([i], True)
        assert exc.value.lost_records == 4
        assert target.updates == []
        assert t.pending_updates == 0

    def test_partial_flush_delivers_prefix(self):
        target = FakeHandle(score=0)
        t = VdsoTransport(target, LAT, batch_size=8)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=1, partial_flush_rate=1.0)))
        for i in range(7):
            t.update([i], True)
        with pytest.raises(TransportFault) as exc:
            t.flush()
        delivered = len(target.updates)
        assert 0 <= delivered < 7
        assert exc.value.lost_records == 7 - delivered
        # Delivery order is preserved: the delivered part is a prefix.
        assert target.updates == [((i,), True) for i in range(delivered)]

    def test_a_policy_refused_partial_flush_counts_its_suffix(self):
        """A partial flush the domain's policy refuses raises the
        refusal, and it names every buffered record lost: the refused
        prefix and the suffix that never crossed."""
        owner, other = ClientIdentity(1, "a"), ClientIdentity(2, "b")
        service = PredictionService()
        service.create_domain(
            "d", config=PSSConfig(num_features=2), identity=owner,
            policy=DomainPolicy(owner=owner, mode=SharingMode.READ_ONLY))
        client = service.connect(
            "d", identity=other, transport="vdso", batch_size=8,
            fault_plan=FaultPlan(seed=1, partial_flush_rate=1.0))
        for i in range(5):
            client.update((i, i + 1), True)
        with pytest.raises(PolicyError) as refused:
            client.flush()
        assert refused.value.lost_records == 5
        assert client.stats.dropped_updates == 5
        assert service.domain("d").stats.updates == 0

    def test_failed_flush_still_charges_syscall(self):
        t = VdsoTransport(FakeHandle(score=0), LAT, batch_size=4)
        attach_injector(
            t, FaultInjector(FaultPlan(seed=0, syscall_failure_rate=1.0)))
        t.update([1], True)
        with pytest.raises(TransportFault):
            t.flush()
        assert t.account.syscalls == 1
        assert t.account.update_records == 0

    def test_no_injector_means_no_behaviour_change(self):
        target = FakeHandle(score=0)
        t = VdsoTransport(target, LAT, batch_size=2)
        for i in range(6):
            t.update([i], True)
        assert len(target.updates) == 6
