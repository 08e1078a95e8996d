"""The explicit edge cases: P=1, non-power-of-two folds, tiny vectors.

These are the degenerate shapes real launchers hit constantly — a
single-rank job, 5 GPUs on a 4-slot algorithm, a 2-element vector on a
6-rank ring — and each one has a documented contract in
:mod:`repro.collectives.algorithms`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import CollectiveError, explain_collective, run_collective
from repro.collectives.plan import ALGORITHMS, COLLECTIVES, CollectivePlan, plan_collective
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.transport import SHMEM, TWO_SIDED
from repro.transport.api import part_bounds

from tests.collectives.test_algorithms import check

PM = perlmutter_cpu


# ---------------------------------------------------------------------------
# nranks == 1: every collective is a local no-op
# ---------------------------------------------------------------------------


ALL_PAIRS = [(c, a) for c, algs in sorted(ALGORITHMS.items()) for a in algs]


@pytest.mark.parametrize(("coll", "algorithm"), ALL_PAIRS)
def test_single_rank_is_noop(coll, algorithm):
    plan = CollectivePlan(coll=coll, algorithm=algorithm, nranks=1,
                          nelems=0 if coll == "barrier" else 4)
    assert plan.rounds == 0
    kwargs = {} if coll == "barrier" else {"nelems": 4}
    if coll != "barrier":
        kwargs["values"] = [np.arange(4.0)]
    r = run_collective(PM(), TWO_SIDED, coll, nranks=1,
                       algorithm=algorithm, **kwargs)
    assert r.stats.rounds == 0
    assert r.stats.messages == 0
    assert r.stats.bytes_moved == 0.0
    if coll == "barrier":
        return
    out = r.results[0]
    if coll in ("allreduce", "allgather", "reduce_scatter", "alltoall",
                "broadcast"):
        np.testing.assert_array_equal(out, np.arange(4.0))


# ---------------------------------------------------------------------------
# non-power-of-two ranks: the MPICH fold
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("P", [3, 5, 6, 7])
@pytest.mark.parametrize(
    ("coll", "algorithm"),
    [
        ("allreduce", "recursive_doubling"),
        ("allgather", "recursive_doubling"),
        ("reduce_scatter", "recursive_halving"),
    ],
)
def test_fold_round_count(coll, algorithm, P):
    """Non-pow2 P pays exactly two extra rounds: fold in, fold out."""
    plan = CollectivePlan(coll=coll, algorithm=algorithm, nranks=P, nelems=8)
    pof2 = 1 << (P.bit_length() - 1)
    L = pof2.bit_length() - 1
    assert plan.rounds == L + (2 if P != pof2 else 0)


@pytest.mark.parametrize("P", [3, 5, 6, 7])
@pytest.mark.parametrize(
    ("coll", "algorithm"),
    [
        ("allreduce", "recursive_doubling"),
        ("allgather", "recursive_doubling"),
        ("reduce_scatter", "recursive_halving"),
    ],
)
def test_fold_correctness(coll, algorithm, P):
    """Values survive the fold: odd front ranks merge in and fold out."""
    check(PM(), TWO_SIDED, coll, algorithm, P, 7)


# ---------------------------------------------------------------------------
# nelems < nranks: empty chunks ride as zero-word rounds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(("coll", "algorithm"), [
    ("allreduce", "ring"),
    ("reduce_scatter", "ring"),
    ("reduce_scatter", "recursive_halving"),
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_vector_smaller_than_ring(coll, algorithm, n):
    P = 5
    check(PM(), TWO_SIDED, coll, algorithm, P, n)
    # The balanced chunking really does leave empty chunks here.
    assert any(hi == lo for lo, hi in part_bounds(n, P))


def test_empty_chunk_rounds_still_count_as_messages():
    """A zero-word round message is pure notification — it is counted
    (the schedule sent it) but moves no bytes."""
    r = run_collective(PM(), TWO_SIDED, "reduce_scatter", nranks=5,
                       nelems=2, algorithm="ring")
    # P ranks x (P-1) rounds, regardless of how many chunks are empty.
    assert r.stats.messages == 5 * 4
    # Only the non-empty chunks contribute bytes.
    moved = sum(
        (hi - lo) * 8
        for me in range(5)
        for rnd in range(4)
        for lo, hi in [part_bounds(2, 5)[(me - rnd - 1) % 5]]
    )
    assert r.stats.bytes_moved == moved


# ---------------------------------------------------------------------------
# plan/API validation
# ---------------------------------------------------------------------------


def test_size_argument_is_exactly_one_of():
    with pytest.raises(CollectiveError, match="exactly one"):
        run_collective(PM(), TWO_SIDED, "allreduce", nranks=4)
    with pytest.raises(CollectiveError, match="exactly one"):
        run_collective(PM(), TWO_SIDED, "allreduce", nranks=4, nelems=4,
                       nbytes=32)
    # barrier needs neither and ignores both.
    r = run_collective(PM(), TWO_SIDED, "barrier", nranks=4, nelems=100)
    assert r.nelems == 0


def test_nbytes_rounds_up_to_whole_words():
    r = run_collective(PM(), TWO_SIDED, "allreduce", nranks=2, nbytes=10)
    assert r.nelems == 2  # ceil(10 / 8)
    r = run_collective(PM(), TWO_SIDED, "allreduce", nranks=2, nbytes=1)
    assert r.nelems == 1


@pytest.mark.parametrize(
    ("kwargs", "match"),
    [
        (dict(coll="nonesuch", nelems=4), "unknown collective"),
        (dict(coll="allreduce", nelems=4, algorithm="tree"),
         "unknown allreduce algorithm"),
        (dict(coll="allreduce", nelems=0), "nelems >= 1"),
        (dict(coll="allreduce", nelems=4, iters=0), "iters"),
        (dict(coll="allreduce", nelems=4, stripes=0), "stripes"),
        (dict(coll="broadcast", nelems=4, algorithm="tree", stripes=2),
         "striping"),
        (dict(coll="alltoall", nelems=4, algorithm="pairwise"),
         "power-of-two"),
        (dict(coll="allreduce", nelems=4, op="xor"), "unknown reduction"),
        (dict(coll="broadcast", nelems=4, root=7), "root"),
        (dict(coll="allreduce", nbytes=0), "nelems >= 1"),
        (dict(coll="allreduce", nbytes=float("nan")), "nbytes must be finite"),
        (dict(coll="allreduce", nbytes=float("inf")), "nbytes must be finite"),
        (dict(coll="allreduce", nelems=float("nan")),
         "nelems must be an integer >= 0, got nan"),
        (dict(coll="allreduce", nelems=float("inf")),
         "nelems must be an integer >= 0, got inf"),
    ],
)
def test_invalid_requests_raise(kwargs, match):
    coll = kwargs.pop("coll")
    op = kwargs.pop("op", "sum")
    root = kwargs.pop("root", 0)
    with pytest.raises(CollectiveError, match=match):
        run_collective(PM(), TWO_SIDED, coll, nranks=5, op=op, root=root,
                       **kwargs)


@pytest.mark.parametrize("nranks", [0, -1])
@pytest.mark.parametrize("coll", COLLECTIVES)
def test_auto_checks_nranks_before_selecting(coll, nranks, monkeypatch):
    """``algorithm="auto"`` (the default) rejects a bad rank count with the
    same typed error as an explicit algorithm, before the selector's cost
    model ever sees it."""
    from repro.collectives import selector

    def select(*args, **kwargs):
        raise AssertionError("the selector ran on an invalid request")

    monkeypatch.setattr(selector, "select", select)
    size = {} if coll == "barrier" else dict(nbytes=64)
    with pytest.raises(CollectiveError, match=f"nranks must be an integer >= 1, got {nranks}"):
        run_collective(perlmutter_gpu(), SHMEM, coll, nranks=nranks, **size)


NAN = float("nan")


def _explain(**kwargs):
    return explain_collective(perlmutter_gpu(), SHMEM, "allreduce",
                              **{"nranks": 4, **kwargs})


def _run(**kwargs):
    return run_collective(PM(), TWO_SIDED, "allreduce",
                          **{"nranks": 4, "nelems": 8, **kwargs})


@pytest.mark.parametrize(
    ("call", "want"),
    [
        # explain prices the whole words run_collective moves.
        pytest.param(lambda: _explain(nbytes=100).nbytes, 104.0,
                     id="explain-prices-whole-words"),
        pytest.param(lambda: _explain(nranks=0, nbytes=64),
                     "nranks must be an integer >= 1, got 0", id="explain-nranks-0"),
        pytest.param(lambda: _explain(nbytes=NAN),
                     "nbytes must be finite and >= 0, got nan", id="explain-nbytes-nan"),
        pytest.param(lambda: _explain(nbytes=-1),
                     "nbytes must be finite and >= 0, got -1", id="explain-nbytes-negative"),
        pytest.param(lambda: _run(iters=2.5),
                     "iters must be an integer >= 1, got 2.5", id="run-iters-fraction"),
        pytest.param(lambda: _run(iters=NAN),
                     "iters must be an integer >= 1, got nan", id="run-iters-nan"),
        pytest.param(lambda: _run(algorithm="ring", stripes=2.5),
                     "stripes must be an integer >= 1, got 2.5",
                     id="run-stripes-fraction"),
        pytest.param(lambda: _run(algorithm="ring", stripes=NAN),
                     "stripes must be an integer >= 1, got nan", id="run-stripes-nan"),
        pytest.param(lambda: _run(nranks=2.5),
                     "nranks must be an integer >= 1, got 2.5", id="run-nranks-fraction"),
        pytest.param(lambda: _run(nelems=2.5),
                     "nelems must be an integer >= 0, got 2.5", id="run-nelems-fraction"),
        pytest.param(lambda: CollectivePlan(coll="allreduce", algorithm="ring",
                                            nranks=2.5, nelems=8),
                     "nranks must be an integer >= 1, got 2.5",
                     id="plan-nranks-fraction"),
        pytest.param(lambda: _run(nelems=None, nbytes=-8),
                     "nbytes must be finite and >= 0, got -8", id="run-nbytes-negative"),
    ],
)
def test_one_size_path(call, want):
    """run_collective, explain_collective and the plan check sizes on one
    path: the size priced is the size moved, and a bad argument is a
    CollectiveError that names it."""
    if isinstance(want, str):
        with pytest.raises(CollectiveError, match=want):
            call()
    else:
        assert call() == want


def test_execute_mode_validates_value_length():
    with pytest.raises(CollectiveError, match="length"):
        run_collective(PM(), TWO_SIDED, "allreduce", nranks=2, nelems=4,
                       algorithm="ring", values=[np.ones(3), np.ones(3)])


def test_execute_mode_requires_values_except_nonroot_broadcast():
    with pytest.raises(CollectiveError, match="needs per-rank values"):
        run_collective(PM(), TWO_SIDED, "allreduce", nranks=2, nelems=4,
                       algorithm="ring",
                       values=lambda rank: np.ones(4) if rank == 0 else None)


def test_auto_needs_machine_context():
    with pytest.raises(CollectiveError, match="auto"):
        plan_collective("allreduce", nranks=4, nelems=8)


def test_time_is_the_whole_window_after_the_opening_barrier():
    """The timed window opens at the barrier's release, so it holds no
    barrier to subtract: one iteration takes the whole window."""
    r = run_collective(perlmutter_gpu(), SHMEM, "allreduce", nranks=4, nbytes=8)
    assert r.time == r.time_total > 0
