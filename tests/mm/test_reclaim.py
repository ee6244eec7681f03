"""Tests for reclaim scanning, direct reclaim, kswapd, and throttles."""

import pytest

from repro.core import PredictionService, PSSConfig
from repro.mm.blockdev import BlockDevice
from repro.mm.reclaim import ReclaimController, SCAN_CHUNK
from repro.mm.state import MemoryState
from repro.mm.throttle import (
    EFFICIENCY_THRESHOLD,
    GormanThrottle,
    NeverThrottle,
    PSSThrottle,
    ReclaimWindow,
    VanillaCongestionWait,
)
from repro.sim.engine import Engine
from repro.sim.process import spawn
from repro.sim.rng import RngStreams


def make_world(policy=None, total=1000):
    engine = Engine()
    mm = MemoryState(total=total)
    device = BlockDevice(engine, service_ns_per_page=1000,
                         queue_limit=64)
    controller = ReclaimController(
        engine, mm, device, policy or NeverThrottle(), RngStreams(0)
    )
    return engine, mm, device, controller


def drain(engine, body):
    result = []

    def wrapper():
        value = yield from body
        result.append(value)

    spawn(engine, wrapper())
    engine.run()
    return result[0] if result else None


class TestScanRound:
    def test_clean_pages_reclaimed_first(self):
        engine, mm, device, controller = make_world()
        for _ in range(100):
            mm.allocate("file_clean")
        window = controller.scan_round()
        assert window.nr_reclaimed > 0
        assert window.nr_scanned <= SCAN_CHUNK
        mm.check()

    def test_dirty_pages_go_to_writeback(self):
        engine, mm, device, controller = make_world()
        for _ in range(100):
            mm.allocate("file_dirty")
        window = controller.scan_round()
        assert window.nr_reclaimed == 0
        assert mm.writeback > 0
        assert device.queue_depth == mm.writeback
        mm.check()

    def test_writeback_completion_frees_pages(self):
        engine, mm, device, controller = make_world()
        for _ in range(50):
            mm.allocate("file_dirty")
        controller.scan_round()
        free_before = mm.free
        engine.run()
        assert mm.free > free_before
        assert mm.writeback == 0
        mm.check()

    def test_empty_memory_scans_nothing(self):
        engine, mm, device, controller = make_world()
        window = controller.scan_round()
        assert window.nr_scanned == 0

    def test_anon_pages_swapped(self):
        engine, mm, device, controller = make_world()
        for _ in range(200):
            mm.allocate("anon")
        controller.scan_round()
        assert mm.stats.writeback_submitted > 0
        mm.check()


class TestDirectReclaim:
    def test_recovers_free_pages(self):
        engine, mm, device, controller = make_world()
        # Fill memory with clean pages past the min watermark.
        while not mm.below_min:
            mm.allocate("file_clean")
        drain(engine, controller.direct_reclaim())
        assert not mm.below_min
        assert mm.stats.direct_reclaims == 1
        mm.check()

    def test_bounded_rounds_under_hopeless_pressure(self):
        engine, mm, device, controller = make_world()
        # All dirty, tiny device: reclaim cannot finish in one call.
        while mm.free > 0:
            mm.allocate("file_dirty")
        drain(engine, controller.direct_reclaim())
        mm.check()  # must terminate and conserve pages

    def test_allocate_blocks_until_success(self):
        engine, mm, device, controller = make_world()
        while mm.free > 0:
            mm.allocate("file_dirty")
        got = drain(engine, controller.allocate("anon"))
        assert got is True
        assert mm.anon == 1
        mm.check()

    def test_throttle_sleep_counted(self):
        policy = VanillaCongestionWait(timeout_ns=1000)
        engine, mm, device, controller = make_world(policy)
        while mm.free > 0:
            mm.allocate("file_dirty")
        device.submit(60)  # force congestion
        drain(engine, controller.direct_reclaim())
        assert mm.stats.throttle_sleeps > 0
        assert mm.stats.throttle_sleep_ns > 0


class TestKswapd:
    def test_kswapd_reclaims_below_low(self):
        engine, mm, device, controller = make_world()
        while mm.free >= mm.low_pages:
            mm.allocate("file_clean")
        spawn(engine, controller.kswapd())
        engine.run(until=5_000_000)
        assert mm.stats.kswapd_runs > 0
        assert mm.free >= mm.low_pages
        mm.check()


class TestThrottlePolicies:
    def window(self, scanned=32, reclaimed=4):
        return ReclaimWindow(nr_scanned=scanned, nr_reclaimed=reclaimed)

    def test_never_never_sleeps(self):
        engine, mm, device, _ = make_world()
        assert NeverThrottle().consider(self.window(), mm, device, 0) == 0

    def test_vanilla_sleeps_full_timeout_when_congested(self):
        engine, mm, device, _ = make_world()
        policy = VanillaCongestionWait(timeout_ns=5000)
        assert policy.consider(self.window(), mm, device, 0) == 0
        device.submit(60)
        assert policy.consider(self.window(), mm, device, 0) == 5000

    def test_gorman_efficiency_gate(self):
        engine, mm, device, _ = make_world()
        policy = GormanThrottle(timeout_ns=8000)
        efficient = ReclaimWindow(nr_scanned=32, nr_reclaimed=16)
        assert policy.consider(efficient, mm, device, 0) == 0
        inefficient = ReclaimWindow(nr_scanned=32, nr_reclaimed=1)
        assert inefficient.efficiency < EFFICIENCY_THRESHOLD
        assert policy.consider(inefficient, mm, device, 0) > 0

    def test_gorman_dirty_pressure_case(self):
        engine, mm, device, _ = make_world()
        policy = GormanThrottle()
        while mm.free > mm.total * 0.3:
            mm.allocate("file_dirty")
        device.submit(40)
        efficient = ReclaimWindow(nr_scanned=32, nr_reclaimed=20)
        assert policy.consider(efficient, mm, device, 0) > 0

    def make_pss(self):
        service = PredictionService()
        client = service.connect(
            "reclaim", config=PSSConfig(num_features=3), batch_size=1,
        )
        return PSSThrottle(client), service

    def test_pss_cold_start_does_not_sleep(self):
        engine, mm, device, _ = make_world()
        policy, _ = self.make_pss()
        # Cold perceptron predicts >= 0, i.e. "do not sleep".
        assert policy.consider(self.window(), mm, device, 0) == 0.0

    def test_pss_learns_to_sleep_when_gaps_shrink(self):
        """Entries arriving ever faster after no-sleep decisions must
        teach the predictor to sleep."""
        engine, mm, device, _ = make_world()
        policy, _ = self.make_pss()
        window = ReclaimWindow(nr_scanned=32, nr_reclaimed=0)
        now = 0.0
        slept = False
        gap = 50_000.0
        for _ in range(200):
            sleep = policy.consider(window, mm, device, now)
            if sleep > 0:
                slept = True
                break
            gap *= 0.9  # entries keep accelerating
            now += gap
        assert slept

    def test_pss_probe_prevents_permanent_sleep(self):
        engine, mm, device, _ = make_world()
        policy, service = self.make_pss()
        # Force the predictor deeply negative.
        for _ in range(60):
            service.handle("reclaim").update([0, 30, 1000], False)
        window = ReclaimWindow(nr_scanned=32, nr_reclaimed=0)
        decisions = [
            policy.consider(window, mm, device, float(i) * 1000)
            for i in range(2 * policy.PROBE_INTERVAL + 2)
        ]
        assert any(d == 0 for d in decisions[1:])  # probes fired

    def test_pss_update_flow_reaches_service(self):
        engine, mm, device, _ = make_world()
        policy, service = self.make_pss()
        window = self.window()
        for i in range(5):
            policy.consider(window, mm, device, float(i) * 10_000)
        policy.client.flush()
        assert service.domain("reclaim").stats.predictions >= 5
        assert service.domain("reclaim").stats.updates >= 1
