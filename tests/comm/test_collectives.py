"""Collectives in their in-program form: a rank program runs the next
planned collective on its :class:`~repro.collectives.CollectiveComm`
endpoint, like any other verb.  Correctness at awkward rank counts plus
cost-scaling sanity."""

import numpy as np
import pytest

from repro.collectives import CollectiveComm, CollectiveError, CollectivePlan
from repro.comm import Job
from repro.machines import perlmutter_cpu

PS = [1, 2, 3, 4, 5, 7, 8, 12]


def run(machine, P, coll, algorithm, nelems, local, **kwargs):
    """One collective inside a rank program; per-rank (result, elapsed)."""
    job = Job(machine, P, "two_sided", placement="spread")
    plan = CollectivePlan(coll, algorithm, P, nelems)
    comm = CollectiveComm(job, plan, execute=True)

    def program(ctx):
        t0 = ctx.sim.now
        got = yield from comm.endpoint(ctx).run(local(ctx.rank), **kwargs)
        return got, ctx.sim.now - t0

    return job.run(program).results


def values(results):
    return [got for got, _elapsed in results]


class TestBcast:
    @pytest.mark.parametrize("P", PS)
    def test_all_ranks_get_root_value(self, pm_cpu, P):
        res = run(pm_cpu, P, "broadcast", "tree", 5,
                  lambda rank: np.arange(5.0) if rank == 0 else None)
        for got in values(res):
            assert np.array_equal(got, np.arange(5.0))

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_nonzero_root(self, pm_cpu, root):
        res = run(pm_cpu, 3, "broadcast", "tree", 3,
                  lambda rank: np.full(3, 9.0) if rank == root else None,
                  root=root)
        assert all(np.all(g == 9.0) for g in values(res))

    def test_invalid_root(self, pm_cpu):
        with pytest.raises(CollectiveError, match="root"):
            run(pm_cpu, 2, "broadcast", "tree", 1, lambda rank: np.ones(1),
                root=7)

    def test_log_rounds_cost(self):
        """A binomial tree costs ~log2(P) latencies, far below P."""

        def elapsed(P):
            res = run(perlmutter_cpu(), P, "broadcast", "tree", 1,
                      lambda rank: np.zeros(1) if rank == 0 else None)
            return max(t for _got, t in res)

        assert elapsed(16) < 6 * elapsed(2)  # log2(16)=4 rounds, not 15


class TestAllreduce:
    @pytest.mark.parametrize("P", PS)
    def test_sum_everywhere(self, pm_cpu, P):
        res = run(pm_cpu, P, "allreduce", "recursive_doubling", 2,
                  lambda rank: np.array([float(rank + 1), 1.0]))
        expected = np.array([P * (P + 1) / 2, float(P)])
        for got in values(res):
            assert np.allclose(got, expected)

    @pytest.mark.parametrize("P", [3, 5, 6, 7])
    def test_non_power_of_two_fold(self, pm_cpu, P):
        """The remainder fold must neither drop nor double-count ranks."""
        res = run(pm_cpu, P, "allreduce", "recursive_doubling", 1,
                  lambda rank: np.array([2.0**rank]))
        expected = sum(2.0**r for r in range(P))
        for got in values(res):
            assert got[0] == pytest.approx(expected)

    def test_max_op(self, pm_cpu):
        res = run(pm_cpu, 6, "allreduce", "recursive_doubling", 1,
                  lambda rank: np.array([float(rank)]), op="max")
        assert all(g[0] == 5.0 for g in values(res))


class TestAllgather:
    @pytest.mark.parametrize("P", PS)
    def test_concatenates_in_rank_order(self, pm_cpu, P):
        res = run(pm_cpu, P, "allgather", "ring", 2,
                  lambda rank: np.array([float(rank)] * 2))
        expected = np.concatenate([[float(r)] * 2 for r in range(P)])
        for got in values(res):
            assert np.array_equal(got, expected)


class TestAlltoall:
    @pytest.mark.parametrize("P", [1, 2, 4, 8, 3, 6])
    def test_transpose_property(self, pm_cpu, P):
        """out[i] at rank j == the block rank i prepared for rank j."""
        algorithm = "ring" if P & (P - 1) else "pairwise"
        res = run(pm_cpu, P, "alltoall", algorithm, 1,
                  lambda rank: np.array([10.0 * rank + j for j in range(P)]))
        for j, got in enumerate(values(res)):
            for i in range(P):
                assert got[i] == pytest.approx(10.0 * i + j)

    def test_wrong_block_count(self, pm_cpu):
        with pytest.raises(CollectiveError, match="length"):
            run(pm_cpu, 2, "alltoall", "pairwise", 1,
                lambda rank: np.zeros(1))


class TestDisseminationBarrier:
    @staticmethod
    def barrier_job(machine, P):
        job = Job(machine, P, "two_sided", placement="spread")
        plan = CollectivePlan("barrier", "dissemination", P, 0)
        return job, CollectiveComm(job, plan)

    @pytest.mark.parametrize("P", [2, 3, 5, 8])
    def test_no_rank_escapes_early(self, pm_cpu, P):
        """No rank may leave the barrier before the slowest rank arrives."""
        arrive = {}
        leave = {}
        job, comm = self.barrier_job(pm_cpu, P)

        def program(ctx):
            yield from ctx.compute(seconds=(ctx.rank + 1) * 1e-5)
            arrive[ctx.rank] = ctx.sim.now
            yield from comm.endpoint(ctx).run()
            leave[ctx.rank] = ctx.sim.now

        job.run(program)
        assert min(leave.values()) >= max(arrive.values())

    def test_single_rank_noop(self, pm_cpu):
        job, comm = self.barrier_job(pm_cpu, 1)

        def program(ctx):
            yield from comm.endpoint(ctx).run()
            return ctx.sim.now

        assert job.run(program).results == [0.0]
