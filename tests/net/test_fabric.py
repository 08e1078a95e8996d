"""Fabric transfers: timing, contention, injection ports, multi-hop."""

import pytest

from repro.net import Fabric, LinkParams, TopologySpec
from repro.sim import Simulator, Tracer


def _fabric(sim, *, channels=1, injection_bw=None, gap=0.0):
    topo = TopologySpec(name="t")
    topo.add_link(
        "a", "b", LinkParams(latency=1e-6, bandwidth=10e9, channels=channels, gap=gap)
    )
    topo.add_link("b", "c", LinkParams(latency=2e-6, bandwidth=5e9))
    if injection_bw:
        topo.set_injection("a", LinkParams(latency=0.0, bandwidth=injection_bw))
    return Fabric(sim, topo)


class TestSingleHop:
    def test_arrival_time(self, sim):
        f = _fabric(sim)
        d = f.transfer("a", "b", 10000)  # 1 us wire + 1 us bytes
        sim.run(until=d.event)
        assert sim.now == pytest.approx(2e-6)

    def test_payload_delivered(self, sim):
        f = _fabric(sim)
        d = f.transfer("a", "b", 8, payload={"k": 1})
        got = sim.run(until=d.event)
        assert got == {"k": 1}

    def test_zero_bytes_pays_latency(self, sim):
        f = _fabric(sim)
        d = f.transfer("a", "b", 0)
        sim.run(until=d.event)
        assert sim.now == pytest.approx(1e-6)

    def test_contention_serialises(self, sim):
        f = _fabric(sim)
        d1 = f.transfer("a", "b", 10000)
        d2 = f.transfer("a", "b", 10000)
        assert d1.arrival == pytest.approx(2e-6)
        # Second message starts injecting after the first finishes (1 us),
        # arrives 1 us wire + 1 us bytes later.
        assert d2.arrival == pytest.approx(3e-6)

    def test_reverse_direction_not_contended(self, sim):
        f = _fabric(sim)
        f.transfer("a", "b", 10000)
        d = f.transfer("b", "a", 10000)
        assert d.arrival == pytest.approx(2e-6)

    def test_negative_bytes_rejected(self, sim):
        with pytest.raises(ValueError):
            _fabric(sim).transfer("a", "b", -1)

    @pytest.mark.parametrize("earliest", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_earliest_rejected_before_any_port(self, sim, earliest):
        f = _fabric(sim, injection_bw=20e9)
        ports = [f._injection["a"], f.link("a", "b").channel("a", "b")]
        with pytest.raises(ValueError, match="earliest"):
            f.transfer("a", "b", 1000, earliest=earliest)
        assert [ch._next_free for ch in ports] == [[0.0], [0.0]]
        assert [ch.messages_carried for ch in ports] == [0, 0]
        assert f.total_messages == 0
        assert f.transfer("a", "b", 1000).start == 0.0

    @pytest.mark.parametrize("earliest", [-1.0, 0.0])
    def test_past_earliest_means_now(self, sim, earliest):
        f = _fabric(sim)
        sim.run(until=f.transfer("a", "b", 10000).event)  # now = 2 us
        assert f.transfer("a", "b", 10000, earliest=earliest).start == sim.now


class TestMultiHop:
    def test_latencies_accumulate(self, sim):
        f = _fabric(sim)
        d = f.transfer("a", "c", 0)
        assert d.arrival == pytest.approx(3e-6)

    def test_tail_at_bottleneck_rate(self, sim):
        f = _fabric(sim)
        d = f.transfer("a", "c", 10000)
        # head: 1 us + 2 us; tail: 10000 B / 5 GB/s = 2 us behind the head.
        assert d.arrival == pytest.approx(5e-6)


class TestLoopback:
    def test_loopback_uses_local_engine(self, sim):
        f = _fabric(sim)
        d = f.transfer("a", "a", 1000)
        assert d.arrival < 1e-6  # far below wire latency

    def test_loopback_serialises(self, sim):
        f = _fabric(sim)
        d1 = f.transfer("a", "a", 2_000_000)
        d2 = f.transfer("a", "a", 2_000_000)
        assert d2.arrival > d1.arrival


class TestChannelsAndInjection:
    def test_subchannels_carry_concurrent_messages(self, sim):
        f = _fabric(sim, channels=2)
        d1 = f.transfer("a", "b", 10000)
        d2 = f.transfer("a", "b", 10000)
        # Each uses its own 5 GB/s sub-channel: both arrive together.
        assert d1.arrival == pytest.approx(d2.arrival)
        assert d1.arrival == pytest.approx(1e-6 + 2e-6)

    def test_injection_port_staggers(self, sim):
        f = _fabric(sim, channels=4, injection_bw=20e9)
        d1 = f.transfer("a", "b", 10000)
        d2 = f.transfer("a", "b", 10000)
        # Injection at 20 GB/s staggers the second start by 0.5 us.
        assert d2.start - d1.start == pytest.approx(0.5e-6)

    def test_split_speedup_emerges(self, sim):
        """The Fig. 10 mechanism at fabric level: 4 chunks on 4 channels
        beat 1 big message once the volume is large."""
        V = 4_000_000
        f1 = _fabric(Simulator(), channels=4, injection_bw=20e9)
        one = f1.transfer("a", "b", V)
        f2 = _fabric(Simulator(), channels=4, injection_bw=20e9)
        chunks = [f2.transfer("a", "b", V / 4) for _ in range(4)]
        t_split = max(c.arrival for c in chunks)
        assert one.arrival / t_split > 1.5


class TestAccounting:
    def test_totals(self, sim):
        f = _fabric(sim)
        f.transfer("a", "b", 100)
        f.transfer("a", "b", 200)
        assert f.total_messages == 2
        assert f.total_bytes == 300

    def test_link_stats(self, sim):
        f = _fabric(sim)
        f.transfer("a", "b", 128)
        stats = f.link_stats()
        assert stats["a->b.bytes"] == 128

    def test_trace_emission(self):
        sim = Simulator()
        topo = TopologySpec(name="t")
        topo.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=1e9))
        tracer = Tracer()
        f = Fabric(sim, topo, tracer)
        f.transfer("a", "b", 64)
        assert tracer.count("net.transfer") == 1
        rec = tracer.filter(kind="net.transfer")[0]
        assert rec.detail["nbytes"] == 64
