"""The inverse roofline query: concurrency needed for a bandwidth target."""

import pytest

from repro.net import LogGPParams
from repro.roofline import MessageRoofline


@pytest.fixture
def roofline():
    return MessageRoofline(
        LogGPParams(L=2e-6, o=3e-7, g=2e-7, G=1 / 32e9, o_sync=1e-6)
    )


class TestRequiredMsgsPerSync:
    def test_result_actually_reaches_target(self, roofline):
        for B in (64.0, 4096.0, 262144.0):
            for frac in (0.3, 0.6, 0.9):
                n = roofline.required_msgs_per_sync(B, frac)
                assert n is not None
                target = frac * float(roofline.saturation_bandwidth(B))
                assert float(roofline.bandwidth(B, n)) >= target * (1 - 1e-9)

    def test_result_is_minimal(self, roofline):
        B = 512.0
        n = roofline.required_msgs_per_sync(B, 0.8)
        assert n is not None and n > 1
        target = 0.8 * float(roofline.saturation_bandwidth(B))
        assert float(roofline.bandwidth(B, n - 1)) < target

    def test_bandwidth_bound_messages_need_one(self, roofline):
        # Huge messages: already at the wire limit with a single message.
        assert roofline.required_msgs_per_sync(1 << 26, 0.5) == 1

    def test_full_saturation_unreachable_in_finite_n(self, roofline):
        # Exactly 1.0 of the asymptote can never be reached at finite n for
        # latency-bound sizes (the limit is approached, not attained).
        n = roofline.required_msgs_per_sync(64.0, 1.0)
        assert n is None

    def test_higher_targets_need_more_concurrency(self, roofline):
        B = 256.0
        ns = [roofline.required_msgs_per_sync(B, f) for f in (0.2, 0.5, 0.9)]
        assert all(n is not None for n in ns)
        assert ns[0] <= ns[1] <= ns[2]

    def test_validation(self, roofline):
        with pytest.raises(ValueError):
            roofline.required_msgs_per_sync(64.0, 0.0)
        with pytest.raises(ValueError):
            roofline.required_msgs_per_sync(64.0, 1.5)
        with pytest.raises(ValueError):
            roofline.required_msgs_per_sync(0.0, 0.5)

    def test_on_machine_params(self):
        """Sanity on a real machine: reaching 90% of the small-message
        saturation on Perlmutter one-sided takes tens of msgs/sync —
        the paper's '100 messages per sync' guidance territory."""
        from repro.machines import perlmutter_cpu
        from repro.transport import get_backend

        params = get_backend("one_sided").loggp(perlmutter_cpu(), "batch")
        roof = MessageRoofline(params)
        n = roof.required_msgs_per_sync(64.0, 0.9)
        assert n is not None
        assert 10 <= n <= 500
