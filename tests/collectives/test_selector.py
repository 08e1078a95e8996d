"""The LogGP algorithm selector: picks argmin, explains itself.

The selector's contract: evaluate every candidate under the Hockney
alpha-beta model from the machine's calibrated LogGP, return the
cheapest (preference order breaks ties), and show its work via
:meth:`Selection.explain`.
"""

from __future__ import annotations

import pytest

from repro.collectives import explain_collective, run_collective
from repro.collectives.plan import ALGORITHMS, STRIPEABLE
from repro.collectives.selector import model_time, select
from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.transport import SHMEM, TWO_SIDED


@pytest.mark.parametrize("coll", sorted(ALGORITHMS))
@pytest.mark.parametrize("nbytes", [8, 4096, 1 << 22])
def test_selects_argmin_of_its_own_cost_table(coll, nbytes):
    sel = select(coll, nranks=4, nbytes=nbytes, machine=perlmutter_cpu(),
                 runtime=TWO_SIDED)
    best = min(sel.costs, key=lambda c: c[1])
    assert sel.algorithm == best[0]
    assert dict(sel.costs)[sel.algorithm] == best[1]


def test_size_regimes_flip_the_allreduce_choice():
    """Small messages are alpha-bound (recursive doubling: log P rounds);
    large ones are beta-bound (ring: 1.5x fewer wire bytes at P=4)."""
    m = perlmutter_cpu()
    small = select("allreduce", nranks=4, nbytes=8, machine=m,
                   runtime=TWO_SIDED)
    large = select("allreduce", nranks=4, nbytes=64 << 20, machine=m,
                   runtime=TWO_SIDED)
    assert small.algorithm == "recursive_doubling"
    assert large.algorithm == "ring"


def test_barrier_always_dissemination():
    """Dissemination is Lc rounds, the tree 2Lc — never a tie to lose."""
    for P in (2, 3, 8, 17):
        sel = select("barrier", nranks=P, nbytes=0, machine=perlmutter_cpu(),
                     runtime=TWO_SIDED)
        assert sel.algorithm == "dissemination"


def test_pairwise_skipped_for_non_pow2():
    sel = select("alltoall", nranks=6, nbytes=1024, machine=perlmutter_cpu(),
                 runtime=TWO_SIDED)
    assert sel.algorithm == "ring"
    assert [a for a, _ in sel.costs] == ["ring"]
    # On a power of two the tie goes to the preference order: pairwise.
    sel = select("alltoall", nranks=8, nbytes=1024, machine=perlmutter_cpu(),
                 runtime=TWO_SIDED)
    assert sel.algorithm == "pairwise"


def test_single_rank_costs_nothing():
    sel = select("allreduce", nranks=1, nbytes=1 << 20,
                 machine=perlmutter_cpu(), runtime=TWO_SIDED)
    assert sel.alpha == 0.0 and sel.beta == 0.0
    assert all(t == 0.0 for _, t in sel.costs)


def test_explain_reports_the_choice():
    sel = explain_collective(perlmutter_gpu(), SHMEM, "allreduce", nranks=4,
                             nbytes=1 << 20)
    text = sel.explain()
    assert "<- selected" in text
    assert sel.algorithm in text
    assert "alpha=" in text and "beta=" in text
    for alg in ALGORITHMS["allreduce"]:
        assert alg in text
    # Exactly one candidate is marked selected.
    assert text.count("<- selected") == 1


def test_auto_threads_selection_into_the_result():
    m = perlmutter_cpu()
    r = run_collective(m, TWO_SIDED, "allreduce", nranks=4, nelems=512)
    assert r.selection is not None
    assert r.algorithm == r.selection.algorithm
    explicit = run_collective(m, TWO_SIDED, "allreduce", nranks=4, nelems=512,
                              algorithm="ring")
    assert explicit.selection is None
    assert explicit.algorithm == "ring"


def test_explain_matches_run_auto():
    """explain_collective predicts exactly what run(algorithm='auto') does."""
    m = perlmutter_gpu()
    for coll in ("allgather", "allreduce"):
        for nbytes in (64, 1 << 20, 4 << 20):
            sel = explain_collective(m, SHMEM, coll, nranks=4, nbytes=nbytes)
            r = run_collective(m, SHMEM, coll, nranks=4, nbytes=nbytes)
            assert r.algorithm == sel.algorithm


def test_model_time_alpha_beta_decomposition():
    """Barrier is pure alpha; bandwidth term scales with beta."""
    assert model_time("barrier", "dissemination", 8, 0, 2e-6, 1e-10) == (
        pytest.approx(3 * 2e-6)
    )
    t1 = model_time("allreduce", "ring", 4, 1 << 20, 1e-6, 1e-10)
    t2 = model_time("allreduce", "ring", 4, 1 << 20, 1e-6, 2e-10)
    # Doubling beta doubles only the wire term: 2(P-1) alpha stays.
    assert t2 - t1 == pytest.approx(2 * 3 / 4 * (1 << 20) * 1e-10)


STRIPED_COLLS = sorted({coll for coll, _ in STRIPEABLE})


@pytest.mark.parametrize("coll", STRIPED_COLLS)
def test_auto_with_stripes_picks_among_stripeable(coll):
    """``algorithm="auto"`` with ``stripes > 1`` runs the cheapest
    strategy that stripes — here one the unstriped selector passes over."""
    m = perlmutter_gpu()
    unstriped = explain_collective(m, SHMEM, coll, nranks=4, nbytes=64)
    assert (coll, unstriped.algorithm) not in STRIPEABLE
    r = run_collective(m, SHMEM, coll, nranks=4, nbytes=64, stripes=2)
    assert (coll, r.algorithm) in STRIPEABLE
    assert all((coll, alg) in STRIPEABLE for alg, _ in r.selection.costs)
    assert r.algorithm == min(r.selection.costs, key=lambda c: c[1])[0]
