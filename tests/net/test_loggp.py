"""LogGP parameter objects and the Message Roofline timing identities
they feed."""

import pytest

from repro.net import LinkParams, LogGPParams
from repro.roofline import MessageRoofline


class TestLogGPParams:
    def test_peak_bandwidth_is_inverse_G(self):
        p = LogGPParams(L=1e-6, o=1e-7, g=1e-7, G=1e-9)
        assert p.peak_bandwidth == pytest.approx(1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            LogGPParams(L=-1, o=0, g=0, G=1e-9)
        with pytest.raises(ValueError):
            LogGPParams(L=0, o=0, g=0, G=0)
        with pytest.raises(ValueError):
            LogGPParams(L=0, o=0, g=0, G=1e-9, o_sync=-1)

    def test_pipelined_reduces_to_single_at_n1(self):
        p = LogGPParams(L=1e-6, o=2e-7, g=1e-7, G=1e-9, o_sync=3e-7)
        t1 = float(MessageRoofline(p).time(100, 1))
        assert t1 == pytest.approx(2e-7 + 100e-9 + 1e-6 + 3e-7)

    def test_pipelined_marginal_cost_is_max_of_o_g_BG(self):
        p = LogGPParams(L=1e-6, o=2e-7, g=5e-7, G=1e-9)
        t10, t11 = MessageRoofline(p).time(100, [10, 11])
        # Small message: the gap dominates o and B*G; they overlap, so the
        # marginal cost is max(o, g, B*G) = g.
        assert t11 - t10 == pytest.approx(5e-7)

    def test_gap_cannot_be_overlapped(self):
        """The paper's LogGP point: g bounds message rate regardless of n."""
        p = LogGPParams(L=1e-6, o=1e-9, g=1e-6, G=1e-12)
        bw_inf = float(MessageRoofline(p).bandwidth(8, 1_000_000))
        assert bw_inf <= 8 / p.g * 1.01

    def test_bandwidth_monotone_in_n(self):
        p = LogGPParams(L=5e-6, o=3e-7, g=2e-7, G=1e-9, o_sync=2e-6)
        bws = list(MessageRoofline(p).bandwidth(1024, [1, 4, 16, 64, 256]))
        assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))

    def test_invalid_pipelined_args(self):
        roof = MessageRoofline(LogGPParams(L=0, o=0, g=0, G=1e-9))
        with pytest.raises(ValueError):
            roof.time(100, 0)
        with pytest.raises(ValueError):
            roof.time(100, [1, 0])
        with pytest.raises(ValueError):
            roof.bandwidth(0, 1)


class TestLinkParams:
    def test_single_channel_G(self):
        lp = LinkParams(latency=1e-6, bandwidth=100e9)
        assert lp.G == pytest.approx(1e-11)
        assert lp.channel_bandwidth == 100e9

    def test_multi_channel_single_message_rate(self):
        lp = LinkParams(latency=1e-6, bandwidth=100e9, channels=4)
        # A single message only sees one sub-channel: 25 GB/s.
        assert lp.channel_bandwidth == pytest.approx(25e9)
        assert lp.G == pytest.approx(1 / 25e9)

    def test_atomic_gap_defaults_to_gap(self):
        lp = LinkParams(latency=0, bandwidth=1e9, gap=3e-7)
        assert lp.effective_atomic_gap == 3e-7
        lp2 = LinkParams(latency=0, bandwidth=1e9, gap=3e-7, atomic_gap=1e-6)
        assert lp2.effective_atomic_gap == 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkParams(latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            LinkParams(latency=0, bandwidth=1e9, channels=0)
        with pytest.raises(ValueError):
            LinkParams(latency=0, bandwidth=1e9, atomic_gap=-1)
