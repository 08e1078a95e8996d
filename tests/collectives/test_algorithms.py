"""Execute-mode numerical correctness for every algorithm schedule.

Each (collective, algorithm) pair runs in execute mode — real payloads
through the transport window — and the per-rank outputs are checked
against the numpy-computed truth, across power-of-two and non-power-of-
two rank counts, reduction ops, broadcast roots, and ring striping.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.collectives import run_collective
from repro.collectives.core import REDUCE_OPS
from repro.collectives.plan import ALGORITHMS, STRIPEABLE
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.transport import SHMEM, TWO_SIDED
from repro.transport.api import part_bounds

ALL_PAIRS = [(c, a) for c, algs in sorted(ALGORITHMS.items()) for a in algs]


def expected(coll, vals, P, n, op=np.add, root=0):
    """Numpy ground truth per rank for each collective's convention."""
    if coll == "allreduce":
        total = functools.reduce(op, vals)
        return [total] * P
    if coll == "allgather":
        cat = np.concatenate(vals)
        return [cat] * P
    if coll == "reduce_scatter":
        total = functools.reduce(op, vals)
        return [total[lo:hi] for lo, hi in part_bounds(n, P)]
    if coll == "alltoall":
        return [
            np.concatenate(
                [vals[src][me * n : (me + 1) * n] for src in range(P)]
            )
            for me in range(P)
        ]
    if coll == "broadcast":
        return [vals[root]] * P
    raise AssertionError(coll)


def check(machine, runtime, coll, algorithm, P, n, *, op="sum", root=0,
          stripes=1, vals=None):
    if vals is None:
        rng = np.random.default_rng(hash((coll, algorithm, P, n)) % 2**32)
        length = P * n if coll == "alltoall" else n
        vals = [
            rng.integers(-9, 9, size=length).astype(np.float64)
            for _ in range(P)
        ]
    if coll == "broadcast":
        inputs = [vals[root] if r == root else None for r in range(P)]
    else:
        inputs = vals
    r = run_collective(
        machine, runtime, coll, nranks=P, nelems=n, algorithm=algorithm,
        stripes=stripes, values=inputs, op=op, root=root,
    )
    assert r.executed
    assert r.algorithm == algorithm
    assert len(r.results) == P
    want = expected(coll, vals, P, n, op=REDUCE_OPS[op], root=root)
    for rank, (got, exp) in enumerate(zip(r.results, want)):
        np.testing.assert_array_equal(
            got, exp, err_msg=f"{coll}/{algorithm} P={P} n={n} rank={rank}"
        )
    assert r.time > 0 or P == 1
    return r


@pytest.mark.parametrize("P", [1, 2, 3, 4, 5, 7, 8, 12])
@pytest.mark.parametrize(("coll", "algorithm"), ALL_PAIRS)
def test_matches_numpy(coll, algorithm, P):
    """The full schedule matrix against numpy, pow2 and non-pow2 P."""
    if coll == "barrier":
        pytest.skip("barrier moves no data")
    if (coll, algorithm) == ("alltoall", "pairwise") and P & (P - 1):
        pytest.skip("pairwise requires power-of-two nranks")
    check(perlmutter_cpu(), TWO_SIDED, coll, algorithm, P, 5)


@pytest.mark.parametrize(("coll", "algorithm"), ALL_PAIRS)
def test_matches_numpy_on_shmem(coll, algorithm):
    """Spot-check the same truth through the GPU-initiated backend."""
    if coll == "barrier":
        pytest.skip("barrier moves no data")
    check(perlmutter_gpu(), SHMEM, coll, algorithm, 4, 3)


@pytest.mark.parametrize("op", ["sum", "prod", "max", "min"])
@pytest.mark.parametrize("coll", ["allreduce", "reduce_scatter"])
def test_reduction_ops(coll, op):
    for algorithm in ALGORITHMS[coll]:
        check(perlmutter_cpu(), TWO_SIDED, coll, algorithm, 4, 6, op=op)


@pytest.mark.parametrize("root", [0, 1, 2, 4])
@pytest.mark.parametrize("algorithm", ALGORITHMS["broadcast"])
def test_broadcast_roots(algorithm, root):
    check(perlmutter_cpu(), TWO_SIDED, "broadcast", algorithm, 5, 4,
          root=root)


@pytest.mark.parametrize("stripes", [2, 3])
@pytest.mark.parametrize(("coll", "algorithm"), sorted(STRIPEABLE))
def test_striped_rings(coll, algorithm, stripes):
    """Striping splits round messages; the values must still be exact."""
    check(perlmutter_cpu(), TWO_SIDED, coll, algorithm, 4, 6,
          stripes=stripes)


def test_barrier_runs_everywhere():
    for algorithm in ALGORITHMS["barrier"]:
        r = run_collective(
            perlmutter_cpu(), TWO_SIDED, "barrier", nranks=5,
            algorithm=algorithm,
        )
        assert r.nelems == 0
        assert r.stats.bytes_moved == 0.0
        assert r.stats.messages > 0
        assert r.time > 0
        assert r.alg_bandwidth == 0.0


def test_iters_accumulate_stats():
    r1 = run_collective(perlmutter_cpu(), TWO_SIDED, "allreduce", nranks=4,
                        nelems=8, algorithm="ring", iters=1)
    r3 = run_collective(perlmutter_cpu(), TWO_SIDED, "allreduce", nranks=4,
                        nelems=8, algorithm="ring", iters=3)
    assert r3.stats.ops == 3 * r1.stats.ops
    assert r3.stats.messages == 3 * r1.stats.messages
    assert r3.stats.bytes_moved == 3 * r1.stats.bytes_moved
    # Per-iteration time stays in the same regime (fresh slots per op;
    # only warm-up/pipelining effects may shift it).
    assert 0.5 * r1.time <= r3.time <= 2.0 * r1.time
