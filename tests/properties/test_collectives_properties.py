"""Property-based tests on the executed collectives.

Random rank counts, payload lengths, values and algorithms — the
collectives must always match numpy computed on the gathered inputs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.collectives import ALGORITHMS, run_collective
from repro.machines import perlmutter_cpu

ranks = st.integers(1, 9)
veclen = st.integers(1, 6)
seeds = st.integers(0, 10_000)


def _inputs(P, n, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(P)]


def _algorithms(coll):
    return st.sampled_from(ALGORITHMS[coll])


def _run(coll, algorithm, P, n, values, **kwargs):
    return run_collective(
        perlmutter_cpu(), "two_sided", coll, nranks=P, nelems=n,
        algorithm=algorithm, values=values, **kwargs,
    ).results


class TestCollectiveProperties:
    @settings(max_examples=30, deadline=None)
    @given(ranks, veclen, seeds, _algorithms("allreduce"))
    def test_allreduce_equals_numpy_sum(self, P, n, seed, algorithm):
        data = _inputs(P, n, seed)
        expected = np.sum(data, axis=0)
        for got in _run("allreduce", algorithm, P, n, data):
            assert np.allclose(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(ranks, veclen, seeds, st.integers(0, 8), _algorithms("broadcast"))
    def test_bcast_from_any_root(self, P, n, seed, root_pick, algorithm):
        root = root_pick % P
        data = _inputs(P, n, seed)
        values = [data[r] if r == root else None for r in range(P)]
        for got in _run("broadcast", algorithm, P, n, values, root=root):
            assert np.allclose(got, data[root])

    @settings(max_examples=25, deadline=None)
    @given(ranks, veclen, seeds, _algorithms("allgather"))
    def test_allgather_equals_concatenation(self, P, n, seed, algorithm):
        data = _inputs(P, n, seed)
        expected = np.concatenate(data)
        for got in _run("allgather", algorithm, P, n, data):
            assert np.allclose(got, expected)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), seeds, st.booleans())
    def test_alltoall_is_transpose(self, P, seed, pairwise):
        # The XOR schedule only exists for power-of-two P.
        algorithm = "pairwise" if pairwise and P & (P - 1) == 0 else "ring"
        rng = np.random.default_rng(seed)
        payload = rng.normal(size=(P, P))
        res = _run("alltoall", algorithm, P, 1, list(payload))
        for j in range(P):
            assert np.allclose(res[j], payload[:, j])

    @settings(max_examples=20, deadline=None)
    @given(ranks, seeds, _algorithms("allreduce"))
    def test_allreduce_deterministic(self, P, seed, algorithm):
        data = _inputs(P, 3, seed)
        a = _run("allreduce", algorithm, P, 3, data)
        b = _run("allreduce", algorithm, P, 3, data)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
