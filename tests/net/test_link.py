"""Link channels: serialisation, gaps, sub-channel striping, atomics."""

import pytest

from repro.net import LinkParams
from repro.net.link import Channel, Link


class TestChannelReservation:
    def test_single_message_timing(self, sim):
        ch = Channel(sim, LinkParams(latency=1e-6, bandwidth=1e9))
        start, head_out = ch.reserve(1000, earliest=0.0)
        assert start == 0.0
        assert head_out == pytest.approx(1e-6)

    def test_back_to_back_spaced_by_transmission(self, sim):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=1e9))
        ch.reserve(1000, 0.0)  # occupies 1 us
        start2, _ = ch.reserve(1000, 0.0)
        assert start2 == pytest.approx(1e-6)

    def test_gap_dominates_small_messages(self, sim):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=1e9, gap=5e-6))
        ch.reserve(8, 0.0)
        start2, _ = ch.reserve(8, 0.0)
        assert start2 == pytest.approx(5e-6)

    def test_atomic_gap_used_for_atomics(self, sim):
        ch = Channel(
            sim, LinkParams(latency=0.0, bandwidth=1e9, gap=1e-7, atomic_gap=1e-6)
        )
        ch.reserve(16, 0.0, atomic=True)
        start2, _ = ch.reserve(16, 0.0, atomic=True)
        assert start2 == pytest.approx(1e-6)
        # Non-atomic traffic still uses the small gap.
        start3, _ = ch.reserve(16, 0.0)
        assert start3 == pytest.approx(2e-6)

    def test_multi_channel_parallel_messages(self, sim):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=4e9, channels=4))
        starts = [ch.reserve(1000, 0.0)[0] for _ in range(4)]
        assert starts == [0.0, 0.0, 0.0, 0.0]
        # The fifth message queues behind the first sub-channel.
        start5, _ = ch.reserve(1000, 0.0)
        assert start5 == pytest.approx(1e-6)  # 1000 B / 1 GB/s sub-channel

    def test_counters(self, sim):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=1e9))
        ch.reserve(100, 0.0)
        ch.reserve(200, 0.0)
        assert ch.bytes_carried == 300
        assert ch.messages_carried == 2

    def test_negative_bytes_rejected(self, sim):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=1e9))
        with pytest.raises(ValueError):
            ch.reserve(-1, 0.0)

    @pytest.mark.parametrize("nbytes", [float("nan"), float("inf")])
    def test_non_finite_bytes_rejected(self, sim, nbytes):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=1e9))
        with pytest.raises(ValueError):
            ch.reserve(nbytes, 0.0)
        # The rejected message left no trace: the port is still free at 0.
        assert ch.reserve(8, 0.0)[0] == 0.0
        assert ch.messages_carried == 1

    def test_sub_channel_tie_breaks_to_lowest_index(self, sim):
        ch = Channel(sim, LinkParams(latency=0.0, bandwidth=3e9, channels=3))
        for expect_idx in (0, 1, 2):  # all free at 0: claimed in index order
            ch.reserve(1000, 0.0)
            busy = [k for k, t in enumerate(ch._next_free) if t > 0.0]
            assert busy == list(range(expect_idx + 1))
        ch._next_free[:] = [5.0, 2.0, 2.0]  # tie between 1 and 2
        ch.reserve(1000, 0.0)
        assert ch._next_free[1] > 2.0 and ch._next_free[2] == 2.0


class TestLink:
    def test_directions_are_independent(self, sim):
        link = Link(sim, "a", "b", LinkParams(latency=0.0, bandwidth=1e9))
        link.channel("a", "b").reserve(1000, 0.0)
        # Reverse direction is still free at t=0.
        start, _ = link.channel("b", "a").reserve(1000, 0.0)
        assert start == 0.0

    def test_unknown_direction_rejected(self, sim):
        link = Link(sim, "a", "b", LinkParams(latency=0.0, bandwidth=1e9))
        with pytest.raises(KeyError):
            link.channel("a", "c")

    def test_self_link_rejected(self, sim):
        with pytest.raises(ValueError):
            Link(sim, "a", "a", LinkParams(latency=0.0, bandwidth=1e9))

    def test_stats_per_direction(self, sim):
        link = Link(sim, "a", "b", LinkParams(latency=0.0, bandwidth=1e9))
        link.channel("a", "b").reserve(100, 0.0)
        stats = link.stats()
        assert stats["a->b.bytes"] == 100
        assert stats["b->a.bytes"] == 0
