"""Link channels: serialisation, gaps, sub-channel striping, atomics — each
reservation made by the hop walk over a one-link fabric."""

import pytest

from repro.net import Fabric, LinkParams, TopologySpec
from repro.net.link import Link


def _one_link(sim, **params):
    """A fabric of one link ``a <-> b``: ``transfer("a", "b", ...)`` walks
    exactly one port, whose channel is returned beside the fabric."""
    topo = TopologySpec(name="one-link")
    topo.add_link("a", "b", LinkParams(**params))
    fabric = Fabric(sim, topo)
    return fabric, fabric.link("a", "b").channel("a", "b")


class TestChannelReservation:
    def test_single_message_timing(self, sim):
        f, ch = _one_link(sim, latency=1e-6, bandwidth=1e9)
        d = f.transfer("a", "b", 1000, earliest=0.0)
        head_out = d.arrival - 1000 * ch._G  # the tail trails the head by B*G
        assert d.start == 0.0
        assert head_out == pytest.approx(1e-6)

    def test_back_to_back_spaced_by_transmission(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=1e9)
        f.transfer("a", "b", 1000)  # occupies 1 us
        start2 = f.transfer("a", "b", 1000).start
        assert start2 == pytest.approx(1e-6)

    def test_gap_dominates_small_messages(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=1e9, gap=5e-6)
        f.transfer("a", "b", 8)
        start2 = f.transfer("a", "b", 8).start
        assert start2 == pytest.approx(5e-6)

    def test_atomic_gap_used_for_atomics(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=1e9, gap=1e-7, atomic_gap=1e-6)
        f.transfer("a", "b", 16, atomic=True)
        start2 = f.transfer("a", "b", 16, atomic=True).start
        assert start2 == pytest.approx(1e-6)
        # Non-atomic traffic still uses the small gap.
        start3 = f.transfer("a", "b", 16).start
        assert start3 == pytest.approx(2e-6)

    def test_multi_channel_parallel_messages(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=4e9, channels=4)
        starts = [f.transfer("a", "b", 1000).start for _ in range(4)]
        assert starts == [0.0, 0.0, 0.0, 0.0]
        # The fifth message queues behind the first sub-channel.
        start5 = f.transfer("a", "b", 1000).start
        assert start5 == pytest.approx(1e-6)  # 1000 B / 1 GB/s sub-channel

    def test_counters(self, sim):
        f, ch = _one_link(sim, latency=0.0, bandwidth=1e9)
        f.transfer("a", "b", 100)
        f.transfer("a", "b", 200)
        assert ch.bytes_carried == 300
        assert ch.messages_carried == 2

    def test_negative_bytes_rejected(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=1e9)
        with pytest.raises(ValueError):
            f.transfer("a", "b", -1)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_bytes_rejected(self, sim, nbytes):
        f, ch = _one_link(sim, latency=0.0, bandwidth=1e9)
        with pytest.raises(ValueError):
            f.transfer("a", "b", nbytes)
        # The rejected message left no trace: the port is still free at 0.
        assert f.transfer("a", "b", 8).start == 0.0
        assert ch.messages_carried == 1

    def test_sub_channel_tie_breaks_to_lowest_index(self, sim):
        f, ch = _one_link(sim, latency=0.0, bandwidth=3e9, channels=3)
        for expect_idx in (0, 1, 2):  # all free at 0: claimed in index order
            f.transfer("a", "b", 1000)
            busy = [k for k, t in enumerate(ch._next_free) if t > 0.0]
            assert busy == list(range(expect_idx + 1))
        ch._next_free[:] = [5.0, 2.0, 2.0]  # tie between 1 and 2
        f.transfer("a", "b", 1000)
        assert ch._next_free[1] > 2.0 and ch._next_free[2] == 2.0


class TestLink:
    def test_directions_are_independent(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=1e9)
        f.transfer("a", "b", 1000)
        # Reverse direction is still free at t=0.
        start = f.transfer("b", "a", 1000).start
        assert start == 0.0

    def test_unknown_direction_rejected(self):
        link = Link("a", "b", LinkParams(latency=0.0, bandwidth=1e9))
        with pytest.raises(KeyError):
            link.channel("a", "c")

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "a", LinkParams(latency=0.0, bandwidth=1e9))

    def test_stats_per_direction(self, sim):
        f, _ch = _one_link(sim, latency=0.0, bandwidth=1e9)
        f.transfer("a", "b", 100)
        stats = f.link("a", "b").stats()
        assert stats["a->b.bytes"] == 100
        assert stats["b->a.bytes"] == 0
