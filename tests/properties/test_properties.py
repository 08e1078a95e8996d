"""Property-based tests (hypothesis) on core invariants.

Covers: the Message Roofline's mathematical invariants, LogGP timing, fabric
causality, matching-engine conservation, decomposition partitioning, the
hashtable's insert conservation, and triangular-solve correctness over
random matrices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import LinkParams, LogGPParams, TopologySpec
from repro.net.fabric import Fabric
from repro.roofline import MessageRoofline, SplitModel
from repro.sim import Simulator
from repro.workloads.stencil import ProcessGrid

# Bounded, physically sensible parameter ranges.  The rounded model's
# monotonicity properties hold on the physical domain g <= o + L (an
# injection gap can re-arm within the one-message cost); an unbounded gap
# would mean the port re-arms slower than an entire message completes,
# which no real link exhibits.
lat = st.floats(1e-8, 1e-4)
ovh = st.floats(1e-9, 1e-5)
bw = st.floats(1e8, 1e12)
sizes = st.floats(8.0, 2.0**26)
msgs = st.integers(1, 100_000)


def params_strategy():
    def build(L, o, g_frac, b, s):
        g = g_frac * (o + L)
        return LogGPParams(L=L, o=o, g=g, G=1.0 / b, o_sync=s)

    return st.builds(
        build, lat, ovh, st.floats(0.0, 1.0), bw, st.floats(0.0, 1e-4)
    )


class TestRooflineProperties:
    @settings(max_examples=150)
    @given(params_strategy(), sizes, msgs)
    def test_bandwidth_never_exceeds_peak(self, p, B, n):
        r = MessageRoofline(p)
        assert float(r.bandwidth(B, n)) <= p.peak_bandwidth * (1 + 1e-9)

    @settings(max_examples=150)
    @given(params_strategy(), sizes, msgs)
    def test_sharp_bound_dominates_rounded(self, p, B, n):
        r = MessageRoofline(p)
        assert float(r.bandwidth(B, n, sharp=True)) >= float(
            r.bandwidth(B, n)
        ) * (1 - 1e-9)

    @settings(max_examples=100)
    @given(params_strategy(), sizes, st.integers(1, 1000))
    def test_bandwidth_nondecreasing_in_n(self, p, B, n):
        r = MessageRoofline(p)
        assert float(r.bandwidth(B, n + 1)) >= float(r.bandwidth(B, n)) * (
            1 - 1e-12
        )

    @settings(max_examples=100)
    @given(params_strategy(), sizes, msgs)
    def test_time_positive_and_additive(self, p, B, n):
        r = MessageRoofline(p)
        t = float(r.time(B, n))
        assert t > 0
        # Doubling the batch never more than doubles the time + one sync.
        assert float(r.time(B, 2 * n)) <= 2 * t

    @settings(max_examples=100)
    @given(params_strategy(), sizes)
    def test_overlap_gain_at_least_one(self, p, B):
        r = MessageRoofline(p)
        assert float(r.max_overlap_gain(B)) >= 1 - 1e-9

    @settings(max_examples=100)
    @given(params_strategy(), sizes, msgs)
    def test_time_matches_loggp_pipelined(self, p, B, n):
        r = MessageRoofline(p)
        spacing = max(p.o, p.g, B * p.G)
        longhand = p.o + (n - 1) * spacing + B * p.G + p.L + p.o_sync
        assert float(r.time(B, n)) == pytest.approx(longhand)


class TestSplitModelProperties:
    @settings(max_examples=100)
    @given(
        st.floats(0.0, 1e-5),
        st.floats(0.0, 1e-5),
        st.floats(1e9, 1e11),
        st.floats(2.0, 20.0),
        st.integers(1, 8),
        st.floats(1e3, 1e9),
    )
    def test_time_positive_and_k1_consistent(self, o, L, chan_bw, inj_mult, k, V):
        m = SplitModel(
            o=o, L=L, channel_bandwidth=chan_bw,
            injection_bandwidth=chan_bw * inj_mult, channels=4,
        )
        t = float(m.time(V, k))
        assert t > 0
        if k == 1:
            assert t == pytest.approx(o + L + V / chan_bw)

    @settings(max_examples=50)
    @given(st.integers(2, 8))
    def test_asymptote_bounded_by_k_and_channels(self, k):
        m = SplitModel(
            o=1e-7, L=1e-7, channel_bandwidth=25e9,
            injection_bandwidth=1e15, channels=4,
        )
        assert m.asymptotic_speedup(k) <= min(k, 4) + 1e-9


class TestFabricProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1e6), min_size=1, max_size=12),
        st.floats(1e-8, 1e-5),
        st.floats(1e8, 1e11),
    )
    def test_causality_and_fifo(self, sizes_list, latency, bandwidth):
        """Arrivals never precede sends and same-channel order holds."""
        sim = Simulator()
        topo = TopologySpec(name="p")
        topo.add_link("a", "b", LinkParams(latency=latency, bandwidth=bandwidth))
        fab = Fabric(sim, topo)
        arrivals = [fab.transfer("a", "b", s).arrival for s in sizes_list]
        assert all(a >= latency for a in arrivals)
        # Monotone up to float associativity noise.
        for a, b in zip(arrivals, arrivals[1:]):
            assert b >= a - 1e-12 * max(1.0, abs(a))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(8, 1e8), st.integers(1, 8))
    def test_conservation_of_bytes(self, nbytes, nmsgs):
        sim = Simulator()
        topo = TopologySpec(name="p")
        topo.add_link("a", "b", LinkParams(latency=1e-6, bandwidth=1e10))
        fab = Fabric(sim, topo)
        for _ in range(nmsgs):
            fab.transfer("a", "b", nbytes)
        assert fab.total_bytes == pytest.approx(nbytes * nmsgs)
        assert fab.link_stats()["a->b.messages"] == nmsgs


class TestDecompositionProperties:
    @settings(max_examples=100)
    @given(st.integers(1, 64), st.integers(8, 300), st.integers(8, 300))
    def test_blocks_partition_grid(self, p, nx, ny):
        g = ProcessGrid.square_ish(p)
        if nx < g.px or ny < g.py:
            return
        cells = 0
        row_starts = set()
        for r in range(g.nranks):
            rows, cols = g.block(r, nx, ny)
            assert 0 <= rows.start < rows.stop <= ny
            assert 0 <= cols.start < cols.stop <= nx
            cells += (rows.stop - rows.start) * (cols.stop - cols.start)
            row_starts.add((rows.start, cols.start))
        assert cells == nx * ny
        assert len(row_starts) == g.nranks  # disjoint origins

    @settings(max_examples=100)
    @given(st.integers(1, 128))
    def test_neighbor_symmetry(self, p):
        g = ProcessGrid.square_ish(p)
        for r in range(g.nranks):
            for d, nb in g.neighbors(r).items():
                assert g.neighbors(nb)[ProcessGrid.opposite(d)] == r


class TestHashtableProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(10, 300), st.integers(1, 6), st.integers(0, 1000))
    def test_all_inserts_conserved(self, total, nranks, seed):
        from repro.machines import perlmutter_cpu
        from repro.workloads.hashtable import (
            HashTableConfig,
            generate_keys,
            run_hashtable,
        )

        cfg = HashTableConfig(total_inserts=total, seed=seed)
        keys = np.concatenate(generate_keys(cfg, nranks))
        res = run_hashtable(perlmutter_cpu(), "one_sided", cfg, nranks)
        assert sorted(res.extras["values"]) == sorted(keys.tolist())


class TestSpTrsvProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(4, 16), st.integers(0, 100), st.integers(1, 6))
    def test_solve_matches_scipy_random_matrices(self, n_sn, seed, nranks):
        from repro.machines import perlmutter_cpu
        from repro.workloads.sptrsv import (
            MatrixSpec,
            SpTrsvConfig,
            generate_matrix,
            reference_solve,
            run_sptrsv,
        )

        m = generate_matrix(
            MatrixSpec(n_supernodes=n_sn, width_lo=1, width_hi=8, seed=seed)
        )
        b = np.ones(m.n)
        res = run_sptrsv(
            perlmutter_cpu(), "two_sided", m, nranks,
            cfg=SpTrsvConfig(mode="execute"), b=b,
        )
        assert np.allclose(res.extras["x"], reference_solve(m, b), atol=1e-9)
