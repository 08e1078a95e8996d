"""Message Roofline model: sharp vs rounded, ceilings, overlap gains."""

import numpy as np
import pytest

from repro.net import LogGPParams
from repro.roofline import MessageRoofline


@pytest.fixture
def roofline():
    # L=2us, o=0.3us, g=0.2us, peak 32 GB/s, o_sync=1us.
    return MessageRoofline(
        LogGPParams(L=2e-6, o=3e-7, g=2e-7, G=1 / 32e9, o_sync=1e-6)
    )


class TestTimeModel:
    def test_n1_rounded_time(self, roofline):
        p = roofline.params
        t = float(roofline.time(1024, 1))
        assert t == pytest.approx(p.o + 1024 * p.G + p.L + p.o_sync)

    def test_rounded_matches_loggp_pipelined(self, roofline):
        p = roofline.params
        for B, n in [(64, 1), (1024, 16), (1 << 20, 256)]:
            spacing = max(p.o, p.g, B * p.G)
            longhand = p.o + (n - 1) * spacing + B * p.G + p.L + p.o_sync
            assert float(roofline.time(B, n)) == pytest.approx(longhand)

    def test_sharp_never_slower_than_rounded(self, roofline):
        B = np.logspace(1, 7, 30)
        for n in (1, 10, 1000):
            assert np.all(
                roofline.time(B, n, sharp=True) <= roofline.time(B, n) + 1e-15
            )

    def test_vectorised_over_sizes(self, roofline):
        B = np.array([64.0, 1024.0, 65536.0])
        bw = roofline.bandwidth(B, 10)
        assert bw.shape == (3,)
        assert np.all(np.diff(bw) > 0)  # larger messages => higher bandwidth

    def test_invalid_inputs(self, roofline):
        with pytest.raises(ValueError):
            roofline.time(-1, 1)
        with pytest.raises(ValueError):
            roofline.time(64, 0)
        with pytest.raises(ValueError):
            roofline.bandwidth(0, 1)


class TestCeilings:
    def test_peak_is_horizontal_ceiling(self, roofline):
        assert roofline.peak_bandwidth == pytest.approx(32e9)
        bw = float(roofline.bandwidth(1 << 26, 1000))
        assert bw < 32e9
        assert bw > 0.95 * 32e9

    def test_bandwidth_never_exceeds_peak(self, roofline):
        B = np.logspace(1, 8, 50)
        for n in (1, 100, 100_000):
            assert np.all(roofline.bandwidth(B, n) <= 32e9 * (1 + 1e-12))

    def test_saturation_bounded_by_gap(self, roofline):
        # Tiny messages: even n -> inf is bounded by B / max(o, g).
        sat = float(roofline.saturation_bandwidth(8))
        assert sat == pytest.approx(8 / 3e-7)

    def test_knee_moves_left_with_n(self, roofline):
        assert roofline.knee_size(1) > roofline.knee_size(100)


class TestMsgSyncAxis:
    def test_bandwidth_monotone_in_n(self, roofline):
        bws = [float(roofline.bandwidth(256, n)) for n in (1, 4, 16, 64, 256)]
        assert all(b2 > b1 for b1, b2 in zip(bws, bws[1:]))

    def test_latency_per_message_decreases_with_n(self, roofline):
        lats = [float(roofline.latency_per_message(256, n)) for n in (1, 10, 100)]
        assert lats[0] > lats[1] > lats[2]

    def test_overlap_gain_large_for_latency_bound(self, roofline):
        # L + o_sync = 3 us dominates small messages; marginal is o=0.3us.
        gain = float(roofline.overlap_gain(64, 1_000_000))
        assert gain > 8

    def test_overlap_gain_nil_for_bandwidth_bound(self, roofline):
        gain = float(roofline.overlap_gain(1 << 26, 100))
        assert gain < 1.05

    def test_max_overlap_gain_is_limit(self, roofline):
        B = 64
        finite = float(roofline.overlap_gain(B, 10_000_000))
        limit = float(roofline.max_overlap_gain(B))
        assert finite == pytest.approx(limit, rel=0.01)


class TestSeriesAndBounds:
    def test_bound_query_fields(self, roofline):
        b = roofline.bound(1024, 10)
        assert b["bound_bandwidth"] < roofline.peak_bandwidth
        assert 0 < b["fraction_of_peak"] < 1
        assert b["bound_time_per_sync"] == pytest.approx(
            float(roofline.time(1024, 10))
        )
