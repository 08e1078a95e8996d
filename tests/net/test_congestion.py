"""ECN marking, bounded backoff, and golden-parity of the disabled path."""

import pytest

from repro.net import (
    CongestionConfig,
    CongestionControl,
    Fabric,
    LinkParams,
    TopologySpec,
)
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator


def _topo(bandwidth=10e9):
    t = TopologySpec(name="cc")
    t.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=bandwidth))
    t.add_link("b", "c", LinkParams(latency=1e-6, bandwidth=bandwidth))
    return t


class TestConfig:
    def test_defaults_valid(self):
        cfg = CongestionConfig()
        assert cfg.ecn_threshold == 2e-6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ecn_threshold": -1.0},
            {"decrease": 0.0},
            {"decrease": 1.0},
            {"recover": -0.1},
            {"min_rate": 0.0},
            {"min_rate": 1.5},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CongestionConfig(**kwargs)


class TestControlLoop:
    def test_mark_halves_rate(self):
        cc = CongestionControl(CongestionConfig())
        assert cc.observe("a", 5e-6) is True
        assert cc.rate("a") == 0.5
        assert cc.marks == 1

    def test_rate_floor(self):
        cc = CongestionControl(CongestionConfig())
        for _ in range(10):
            cc.observe("a", 1.0)
        assert cc.rate("a") == CongestionConfig().min_rate

    def test_unmarked_recovers_additively(self):
        cc = CongestionControl(CongestionConfig())
        cc.observe("a", 1.0)  # -> 0.5
        assert cc.observe("a", 0.0) is False
        assert cc.rate("a") == pytest.approx(0.55)
        for _ in range(20):
            cc.observe("a", 0.0)
        assert cc.rate("a") == 1.0  # capped

    def test_injection_delay_only_when_throttled(self):
        cc = CongestionControl(CongestionConfig())
        assert cc.injection_delay("a", 1e-6) == 0.0
        assert cc.backoffs == 0
        cc.observe("a", 1.0)  # rate 0.5
        assert cc.injection_delay("a", 1e-6) == pytest.approx(1e-6)
        assert cc.backoffs == 1

    def test_sources_independent(self):
        cc = CongestionControl(CongestionConfig())
        cc.observe("a", 1.0)
        assert cc.rate("b") == 1.0

    def test_stats(self):
        cc = CongestionControl(CongestionConfig())
        cc.observe("a", 1.0)
        s = cc.stats()
        assert s["cc.marks"] == 1.0
        assert s["cc.rate.a"] == 0.5


class TestFabricIntegration:
    def test_flood_marks_and_backs_off(self, loaded_schedule):
        sim = Simulator()
        f = Fabric(sim, _topo(bandwidth=1e9), congestion=CongestionConfig())
        # 64 KiB at 1 GB/s = 65.5 us occupancy: queueing explodes fast.
        for _ in range(8):
            f.transfer("a", "c", 65536)
        assert f.cc.marks > 0
        assert f.cc.backoffs > 0
        assert f.cc.rate("a") < 1.0
        # The loop also engages beside adaptive routing on a dragonfly.
        f, _deliveries = loaded_schedule("adaptive", congestion=CongestionConfig())
        assert f.cc.marks > 0 and f.cc.backoffs > 0
        assert any(
            rate < 1.0 for key, rate in f.cc.stats().items() if key.startswith("cc.rate.")
        )

    def test_backoff_stretches_schedule(self):
        def total_time(congestion):
            sim = Simulator()
            f = Fabric(sim, _topo(bandwidth=1e9), congestion=congestion)
            last = 0.0
            for _ in range(8):
                last = f.transfer("a", "c", 65536).arrival
            return last

        assert total_time(CongestionConfig()) > total_time(None)

    def test_disabled_path_is_byte_identical(self):
        """congestion=None must not perturb a single float of the schedule."""

        def arrivals(**kwargs):
            sim = Simulator()
            f = Fabric(sim, _topo(), **kwargs)
            return [f.transfer("a", "c", 4096).arrival for _ in range(5)]

        assert arrivals() == arrivals(congestion=None)

    def test_below_threshold_is_also_identical(self):
        """An enabled loop that never marks changes no arrival either."""
        lenient = CongestionConfig(ecn_threshold=1.0)
        sim1, sim2 = Simulator(), Simulator()
        f1 = Fabric(sim1, _topo())
        f2 = Fabric(sim2, _topo(), congestion=lenient)
        a1 = [f1.transfer("a", "c", 4096).arrival for _ in range(5)]
        a2 = [f2.transfer("a", "c", 4096).arrival for _ in range(5)]
        assert a1 == a2
        assert f2.cc.marks == 0

    def test_metrics_counters_and_util_timeline(self):
        reg = MetricsRegistry()
        sim = Simulator()
        f = Fabric(
            sim, _topo(bandwidth=1e9), metrics=reg, congestion=CongestionConfig()
        )
        for _ in range(8):
            f.transfer("a", "c", 65536)
        snap = reg.snapshot()
        assert snap["net.cc.marks"] == f.cc.marks > 0
        assert snap["net.cc.backoffs"] == f.cc.backoffs > 0
        util = snap["net.link.util.a<->b"]
        assert util and all(v > 0 for _t, v in util)

    def test_deterministic_replay(self):
        def run():
            sim = Simulator()
            f = Fabric(
                sim,
                _topo(bandwidth=1e9),
                routing="adaptive",
                congestion=CongestionConfig(),
            )
            return [f.transfer("a", "c", 65536).arrival for _ in range(10)]

        assert run() == run()
