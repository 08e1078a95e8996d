"""Job runner: lifecycle, collectives, results, validation."""

import numpy as np
import pytest

from repro.comm import Job


class TestLifecycle:
    def test_single_rank_job(self, pm_cpu):
        def program(ctx):
            yield from ctx.compute(seconds=1e-3)
            return ctx.rank

        res = Job(pm_cpu, 1, "two_sided").run(program)
        assert res.results == [0]
        assert res.time == pytest.approx(1e-3)

    def test_results_ordered_by_rank(self, pm_cpu):
        def program(ctx):
            yield from ctx.compute(seconds=0)
            return ctx.rank * 10

        res = Job(pm_cpu, 4, "two_sided").run(program)
        assert res.results == [0, 10, 20, 30]

    def test_program_args_forwarded(self, pm_cpu):
        def program(ctx, a, b=0):
            yield from ctx.compute(seconds=0)
            return a + b + ctx.rank

        res = Job(pm_cpu, 2, "two_sided").run(program, 100, b=1)
        assert res.results == [101, 102]

    def test_time_is_makespan(self, pm_cpu):
        def program(ctx):
            yield from ctx.compute(seconds=(ctx.rank + 1) * 1e-3)

        res = Job(pm_cpu, 3, "two_sided").run(program)
        assert res.time == pytest.approx(3e-3)

    def test_capacity_validation(self, pm_cpu):
        with pytest.raises(ValueError, match="capacity"):
            Job(pm_cpu, 129, "two_sided")
        with pytest.raises(ValueError):
            Job(pm_cpu, 0, "two_sided")

    def test_unknown_runtime(self, pm_cpu):
        from repro.transport import UnknownBackendError

        with pytest.raises(UnknownBackendError, match="valid backends"):
            Job(pm_cpu, 2, "nccl")

    def test_gpu_machine_caps_at_device_count(self, pm_gpu):
        with pytest.raises(ValueError):
            Job(pm_gpu, 5, "shmem")

    def test_events_processed_reported(self, pm_cpu):
        def program(ctx):
            yield from ctx.compute(seconds=1e-6)

        res = Job(pm_cpu, 2, "two_sided").run(program)
        assert res.events_processed > 0


class TestCollectives:
    def test_barrier_synchronises(self, pm_cpu):
        def program(ctx):
            yield from ctx.compute(seconds=ctx.rank * 1e-4)
            yield from ctx.barrier()
            return ctx.sim.now

        res = Job(pm_cpu, 4, "two_sided").run(program)
        assert max(res.results) - min(res.results) < 1e-12

    def test_barrier_cost_grows_with_log_p(self, pm_cpu):
        from repro.machines import perlmutter_cpu

        def program(ctx):
            t0 = ctx.sim.now
            yield from ctx.barrier()
            return ctx.sim.now - t0

        t2 = Job(perlmutter_cpu(), 2, "two_sided").run(program).results[0]
        t32 = Job(perlmutter_cpu(), 32, "two_sided").run(program).results[0]
        assert t32 > t2
        assert t32 == pytest.approx(t2 * 5, rel=0.01)  # log2(32)/log2(2)

    def test_repeated_barriers(self, pm_cpu):
        def program(ctx):
            for _ in range(3):
                yield from ctx.barrier()
            return True

        res = Job(pm_cpu, 3, "two_sided").run(program)
        assert all(res.results)

    def test_allreduce_sum(self, pm_cpu):
        def program(ctx):
            total = yield from ctx.allreduce_sum(float(ctx.rank + 1))
            return total

        res = Job(pm_cpu, 4, "two_sided").run(program)
        assert res.results == [10.0] * 4

    def test_barrier_costs_its_delay_after_the_last_arrival(self, pm_cpu):
        """Every rank leaves a barrier exactly ``_barrier_delay`` after the
        last one arrives, also after an allreduce on the same rendezvous —
        the flood's window subtracts ``_barrier_delay`` per iteration on
        that."""
        job = Job(pm_cpu, 4, "two_sided")

        def program(ctx):
            spans = []
            for skew in (ctx.rank, 3 - ctx.rank):
                yield from ctx.compute(seconds=skew * 1e-6)
                arrived = ctx.sim.now
                yield from ctx.barrier()
                spans.append((arrived, ctx.sim.now))
                total = yield from ctx.allreduce_sum(float(ctx.rank))
            return spans, total

        res = job.run(program)
        assert job._barrier_delay > 0
        for k in range(2):
            last = max(spans[k][0] for spans, _ in res.results)
            assert {spans[k][1] for spans, _ in res.results} == {
                last + job._barrier_delay
            }
        assert [total for _, total in res.results] == [6.0] * 4

    def test_single_rank_barrier_free(self, pm_cpu):
        def program(ctx):
            t0 = ctx.sim.now
            yield from ctx.barrier()
            return ctx.sim.now - t0

        assert Job(pm_cpu, 1, "two_sided").run(program).results[0] == 0.0


class TestWindows:
    def test_window_per_rank_buffers(self, pm_cpu):
        job = Job(pm_cpu, 3, "one_sided")
        win = job.window(4, dtype=np.int32, fill=9)
        assert len(win.buffers) == 3
        assert win.local(2).dtype == np.int32
        assert win.local(0)[0] == 9
        # Buffers are independent.
        win.local(0)[0] = 1
        assert win.local(1)[0] == 9

    def test_window_count_validation(self, pm_cpu):
        job = Job(pm_cpu, 2, "one_sided")
        with pytest.raises(ValueError):
            job.window(0)

    def test_gups_helper(self, pm_cpu):
        def program(ctx):
            yield from ctx.compute(seconds=1e-3)

        res = Job(pm_cpu, 1, "two_sided").run(program)
        assert res.gups(1000) == pytest.approx(1000 / 1e-3 / 1e9)


class TestDeterminism:
    def test_identical_runs_identical_times(self, small_matrix):
        from repro.machines import perlmutter_cpu
        from repro.workloads.sptrsv import run_sptrsv

        t1 = run_sptrsv(perlmutter_cpu(), "two_sided", small_matrix, 4).time
        t2 = run_sptrsv(perlmutter_cpu(), "two_sided", small_matrix, 4).time
        assert t1 == t2
