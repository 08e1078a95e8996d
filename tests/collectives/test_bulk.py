"""A collective round never depends on the bulk engine.

Every backend sends a striped round as one scalar message per stripe (a
round has concurrent senders, so a batch's issue-time reservations would
reorder them), so toggling :func:`repro.perf.vectorized` must never change
a simulated time, a stats count, or an output value.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import perf
from repro.collectives import run_collective
from repro.machines import perlmutter_gpu, summit_gpu
from repro.transport import ONE_SIDED, ONE_SIDED_HW, SHMEM, TWO_SIDED


def _both(machine, rt, **kwargs):
    with perf.vectorized(False):
        scalar = run_collective(machine, rt, **kwargs)
    with perf.vectorized(True):
        bulk = run_collective(machine, rt, **kwargs)
    return scalar, bulk


def _assert_equal(scalar, bulk):
    assert bulk.time == scalar.time
    assert bulk.time_total == scalar.time_total
    assert bulk.stats.as_dict() == scalar.stats.as_dict()
    for got, want in zip(bulk.results, scalar.results):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("stripes", [1, 2, 4])
@pytest.mark.parametrize(
    ("coll", "algorithm", "nelems"),
    [
        ("allreduce", "ring", 4096),
        ("reduce_scatter", "ring", 4096),
        ("allgather", "ring", 1024),
        ("alltoall", "ring", 512),
        ("broadcast", "ring", 2048),
    ],
)
def test_shmem_bulk_is_time_exact(coll, algorithm, nelems, stripes):
    scalar, bulk = _both(
        perlmutter_gpu(), SHMEM, coll=coll, nranks=4, nelems=nelems,
        algorithm=algorithm, stripes=stripes,
    )
    _assert_equal(scalar, bulk)


def test_shmem_bulk_is_value_exact():
    rng = np.random.default_rng(3)
    vals = [rng.integers(-9, 9, size=16).astype(np.float64)
            for _ in range(4)]
    scalar, bulk = _both(
        perlmutter_gpu(), SHMEM, coll="allreduce", nranks=4, nelems=16,
        algorithm="ring", stripes=4, values=vals,
    )
    _assert_equal(scalar, bulk)
    for out in bulk.results:
        np.testing.assert_array_equal(out, np.sum(vals, axis=0))


def test_hw_put_signal_bulk_is_exact(cpu_all_runtimes):
    scalar, bulk = _both(
        cpu_all_runtimes, ONE_SIDED_HW, coll="allreduce", nranks=4,
        nelems=2048, algorithm="ring", stripes=4,
    )
    _assert_equal(scalar, bulk)


def test_summit_dumbbell_stays_scalar_and_exact():
    """Six ranks over Summit's dumbbell NVLink, whose X-links are shared."""
    scalar, bulk = _both(
        summit_gpu(), SHMEM, coll="allreduce", nranks=6, nelems=1536,
        algorithm="ring", stripes=2,
    )
    _assert_equal(scalar, bulk)


@pytest.mark.parametrize("rt", [ONE_SIDED, TWO_SIDED])
def test_non_signal_backends_unaffected_by_toggle(cpu_all_runtimes, rt):
    """rma and two-sided take the scalar path under either setting."""
    scalar, bulk = _both(
        cpu_all_runtimes, rt, coll="allreduce", nranks=4, nelems=2048,
        algorithm="ring", stripes=4,
    )
    _assert_equal(scalar, bulk)


def test_vectorized_toggle_is_honoured():
    with perf.vectorized(False):
        assert not perf.enabled()
    with perf.vectorized(True):
        assert perf.enabled()
