"""GPU-initiated ring allreduce (paper §V future work): NCCL's ring on the
``shmem`` runtime, numerically right and shaped by the NVLink port group.
"""

import numpy as np
import pytest

from repro.collectives import CollectiveError, run_collective
from repro.machines import perlmutter_gpu, summit_gpu


def ring(machine, nranks, nelems, **kwargs):
    return run_collective(
        machine, "shmem", "allreduce", nranks=nranks, nelems=nelems,
        algorithm="ring", **kwargs,
    )


class TestCorrectness:
    @pytest.mark.parametrize("P", [1, 2, 3, 4])
    def test_matches_numpy_sum(self, P):
        rng = np.random.default_rng(P)
        n = 12 * P
        values = [rng.normal(size=n) for _ in range(P)]
        expected = np.sum(values, axis=0)
        for got in ring(perlmutter_gpu(), P, n, values=values).results:
            assert np.allclose(got, expected)

    def test_summit_six_gpus(self):
        rng = np.random.default_rng(7)
        n = 24
        values = [rng.normal(size=n) for _ in range(6)]
        for got in ring(summit_gpu(), 6, n, values=values).results:
            assert np.allclose(got, np.sum(values, axis=0))


class TestPerformanceShape:
    def test_large_buffers_approach_link_bandwidth(self):
        """Ring allreduce is bandwidth-optimal: for large buffers the
        bus bandwidth approaches the per-message link rate."""
        r = ring(perlmutter_gpu(), 4, 4_000_000)
        # One NVLink3 sub-channel carries 25 GB/s per hop.
        assert r.bus_bandwidth > 0.5 * 25e9

    def test_small_buffers_latency_bound(self):
        small = ring(perlmutter_gpu(), 4, 16)
        big = ring(perlmutter_gpu(), 4, 4_000_000)
        assert small.bus_bandwidth < big.bus_bandwidth

    def test_simulate_and_execute_same_time(self):
        rng = np.random.default_rng(3)
        n = 64
        values = [rng.normal(size=n) for _ in range(4)]
        t_sim = ring(perlmutter_gpu(), 4, n).time
        t_exe = ring(perlmutter_gpu(), 4, n, values=values).time
        assert t_sim == pytest.approx(t_exe, rel=1e-12)

    def test_single_stream_ring_misses_port_group(self):
        """An unstriped ring sees only one NVLink3 port (25 GB/s) on A100
        while V100's single 50 GB/s link serves it fully — NCCL's
        motivation for multiple rings."""
        t_pm = ring(perlmutter_gpu(), 4, 400_000).time
        t_sm = ring(summit_gpu(), 4, 400_000).time
        assert t_sm < t_pm  # V100 wins the single-stream ring

    def test_striping_engages_the_port_group(self):
        base = ring(perlmutter_gpu(), 4, 4_000_000)
        striped = ring(perlmutter_gpu(), 4, 4_000_000, stripes=4)
        assert striped.time < base.time / 2
        # With all four ports engaged, A100 overtakes V100.
        t_sm = ring(summit_gpu(), 4, 4_000_000).time
        assert striped.time < t_sm

    def test_striped_ring_still_correct(self):
        rng = np.random.default_rng(11)
        n = 48
        values = [rng.normal(size=n) for _ in range(4)]
        r = ring(perlmutter_gpu(), 4, n, values=values, stripes=4)
        expected = np.sum(values, axis=0)
        for got in r.results:
            assert np.allclose(got, expected)

    def test_invalid_stripes(self):
        with pytest.raises(CollectiveError, match="stripes"):
            ring(perlmutter_gpu(), 4, 8, stripes=0)
