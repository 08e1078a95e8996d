"""Distributed SpTRSV: correctness vs scipy and paper-shape behaviours."""

import numpy as np
import pytest

from repro.machines import perlmutter_cpu, perlmutter_gpu, summit_gpu
from repro.workloads.sptrsv import (
    BlockCyclicLayout,
    SpTrsvConfig,
    reference_solve,
    run_sptrsv,
)

EXEC = SpTrsvConfig(mode="execute")


@pytest.mark.parametrize(
    "runtime,machine_factory,nranks",
    [
        ("two_sided", perlmutter_cpu, 1),
        ("two_sided", perlmutter_cpu, 4),
        ("two_sided", perlmutter_cpu, 6),
        ("one_sided", perlmutter_cpu, 4),
        ("one_sided", perlmutter_cpu, 6),
        ("shmem", perlmutter_gpu, 4),
        ("shmem", summit_gpu, 6),
    ],
)
class TestCorrectness:
    def test_solution_matches_scipy(
        self, runtime, machine_factory, nranks, small_matrix, rhs
    ):
        xref = reference_solve(small_matrix, rhs)
        res = run_sptrsv(
            machine_factory(), runtime, small_matrix, nranks, cfg=EXEC, b=rhs
        )
        assert np.allclose(res.extras["x"], xref, atol=1e-9)


class TestCorrectnessVariants:
    def test_random_rhs(self, small_matrix):
        rng = np.random.default_rng(0)
        b = rng.normal(size=small_matrix.n)
        xref = reference_solve(small_matrix, b)
        res = run_sptrsv(
            perlmutter_cpu(), "two_sided", small_matrix, 4, cfg=EXEC, b=b
        )
        assert np.allclose(res.extras["x"], xref, atol=1e-9)

    def test_non_square_layout(self, small_matrix, rhs):
        xref = reference_solve(small_matrix, rhs)
        res = run_sptrsv(
            perlmutter_cpu(),
            "two_sided",
            small_matrix,
            8,
            cfg=EXEC,
            b=rhs,
            layout=BlockCyclicLayout(4, 2),
        )
        assert np.allclose(res.extras["x"], xref, atol=1e-9)

    def test_wrong_rhs_length_rejected(self, small_matrix):
        with pytest.raises(ValueError, match="length"):
            run_sptrsv(
                perlmutter_cpu(), "two_sided", small_matrix, 2,
                cfg=EXEC, b=np.ones(3),
            )

    def test_layout_mismatch_rejected(self, small_matrix):
        with pytest.raises(ValueError, match="!= nranks"):
            run_sptrsv(
                perlmutter_cpu(), "two_sided", small_matrix, 4,
                layout=BlockCyclicLayout(1, 2),
            )

    @pytest.mark.parametrize("runtime", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("nranks", [0, -1])
    def test_fewer_than_one_rank_rejected(self, small_matrix, runtime, nranks):
        with pytest.raises(ValueError, match=f"nranks must be an integer >= 1, got {nranks}"):
            run_sptrsv(perlmutter_cpu(), runtime, small_matrix, nranks)

    def test_unknown_runtime_rejected(self, small_matrix):
        with pytest.raises((ValueError, KeyError)):
            run_sptrsv(perlmutter_cpu(), "mystery", small_matrix, 2)


class TestPaperShapes:
    def test_one_message_per_sync(self, medium_matrix):
        res = run_sptrsv(perlmutter_cpu(), "two_sided", medium_matrix, 4)
        # Sends are fire-and-forget; each expected message is a blocking
        # recv (its own sync) — msg/sync ~ 1 by design.
        assert res.counters.msgs_per_sync() == pytest.approx(1.0, abs=0.5)

    def test_one_sided_uses_4x_operations(self, medium_matrix):
        two = run_sptrsv(perlmutter_cpu(), "two_sided", medium_matrix, 4)
        one = run_sptrsv(perlmutter_cpu(), "one_sided", medium_matrix, 4)
        # One-sided: 2 puts + 2 flushes per logical message (data and
        # signal travel separately, so the message counter doubles) and
        # substantially more runtime calls overall.
        assert one.counters.messages == 2 * two.counters.messages
        assert one.counters.operations > 1.3 * two.counters.operations

    def test_one_sided_slower_on_cpu(self, medium_matrix):
        """The paper's headline SpTRSV result (Fig. 8)."""
        for P in (4, 16):
            two = run_sptrsv(perlmutter_cpu(), "two_sided", medium_matrix, P)
            one = run_sptrsv(perlmutter_cpu(), "one_sided", medium_matrix, P)
            assert one.time > two.time

    def test_simulate_and_execute_same_time(self, small_matrix, rhs):
        """Virtual time must not depend on whether real numerics ran."""
        sim = run_sptrsv(perlmutter_cpu(), "two_sided", small_matrix, 4)
        ex = run_sptrsv(
            perlmutter_cpu(), "two_sided", small_matrix, 4, cfg=EXEC, b=rhs
        )
        assert sim.time == pytest.approx(ex.time, rel=1e-12)

    def test_message_count_independent_of_runtime_timing(self, medium_matrix):
        """The comm pattern is static (Table II: deterministic & variable):
        message counts depend only on matrix + layout."""
        a = run_sptrsv(perlmutter_cpu(), "two_sided", medium_matrix, 4)
        b = run_sptrsv(summit_gpu_like_cpu(), "two_sided", medium_matrix, 4)
        assert a.counters.messages == b.counters.messages

    def test_extras_describe_plan(self, small_matrix):
        res = run_sptrsv(perlmutter_cpu(), "two_sided", small_matrix, 2)
        assert "supernodes" in res.extras["plan"]
        assert res.extras["nnz"] == small_matrix.nnz


def summit_gpu_like_cpu():
    from repro.machines import summit_cpu

    return summit_cpu()
