"""Window atomics: CAS, fetch-and-add, swap, target serialisation."""

import numpy as np
import pytest

from repro.comm import CommError, Job


def job_n(machine, n=2, runtime="one_sided"):
    return Job(machine, n, runtime, placement="spread")


class TestCas:
    def test_cas_success_swaps(self, pm_cpu):
        job = job_n(pm_cpu)
        win = job.window(4, dtype=np.int64)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                old = yield from h.cas_blocking(1, 0, 0, 42)
                return old
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 0
        assert win.local(1)[0] == 42

    def test_cas_failure_leaves_value(self, pm_cpu):
        job = job_n(pm_cpu)
        win = job.window(4, dtype=np.int64, fill=7)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                old = yield from h.cas_blocking(1, 0, 0, 42)
                return old
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 7
        assert win.local(1)[0] == 7  # unchanged

    def test_concurrent_cas_exactly_one_winner(self, pm_cpu):
        job = Job(pm_cpu, 4, "one_sided", placement="spread")
        win = job.window(1, dtype=np.int64)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from ctx.compute(seconds=0)
                return None
            old = yield from h.cas_blocking(0, 0, 0, ctx.rank)
            return old == 0  # True for the winner

        res = job.run(program)
        winners = [r for r in res.results[1:] if r]
        assert len(winners) == 1
        assert win.local(0)[0] in (1, 2, 3)

    def test_atomic_offset_bounds(self, pm_cpu):
        job = job_n(pm_cpu)
        win = job.window(2, dtype=np.int64)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.cas_blocking(1, 5, 0, 1)
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError, match="out of bounds"):
            job.run(program)


class TestFetchOps:
    def test_faa_returns_old_and_adds(self, pm_cpu):
        job = job_n(pm_cpu)
        win = job.window(1, dtype=np.int64, fill=10)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                old = yield from h.faa_blocking(1, 0, 5)
                return old
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 10
        assert win.local(1)[0] == 15

    def test_concurrent_faa_all_unique(self, pm_cpu):
        """Fetch-and-add as an allocator: every rank gets a distinct index
        (the hashtable overflow-heap idiom)."""
        job = Job(pm_cpu, 8, "one_sided", placement="spread")
        win = job.window(1, dtype=np.int64)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from ctx.compute(seconds=0)
                return None
            old = yield from h.faa_blocking(0, 0, 1)
            return old

        res = job.run(program)
        indices = res.results[1:]
        assert sorted(indices) == list(range(7))
        assert win.local(0)[0] == 7


class TestAtomicTiming:
    def test_atomics_serialise_at_target(self, pm_cpu):
        """Two concurrent atomics on the same target are spaced at least by
        atomic_apply at the target's atomic unit."""
        job = Job(pm_cpu, 3, "one_sided", placement="spread")
        win = job.window(1, dtype=np.int64)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from ctx.compute(seconds=0)
                return None
            t0 = ctx.sim.now
            yield from h.faa_blocking(0, 0, 1)
            return ctx.sim.now - t0

        res = job.run(program)
        t1, t2 = sorted(res.results[1:])
        assert t2 >= t1  # loser waited at the atomic unit

    def test_atomic_gap_throttles_cross_socket(self, sm_gpu):
        """Summit X-Bus atomics are rate limited (atomic_gap); in-island
        atomics are not."""
        from repro.machines import summit_gpu

        def streaming(target, nranks):
            job = Job(summit_gpu(), nranks, "shmem", placement="spread")
            win = job.window(1, dtype=np.int64)

            def program(ctx):
                if ctx.rank == 0:
                    t0 = ctx.sim.now
                    for i in range(32):
                        yield from ctx.atomic_fetch_add(win, target, 0, 1)
                    return (ctx.sim.now - t0) / 32
                yield from ctx.compute(seconds=0)

            return job.run(program).results[0]

        in_island = streaming(1, 2)
        cross = streaming(3, 6)
        assert cross > in_island


class TestEventBudget:
    """The host cost of a blocking atomic, counted in simulator events (the
    counts were taken before the verbs became one generator each, and are
    what keeps them so: a seventh event is a wake-up somebody added)."""

    @staticmethod
    def events(machine, runtime, n, issue):
        job = Job(machine, 2, runtime, placement="spread")
        win = job.window(4, dtype=np.int64)

        def program(ctx):
            if ctx.rank == 0:
                for i in range(n):
                    yield from issue(ctx, win, i)
            yield from ctx.barrier()

        return job.run(program).events_processed

    @pytest.mark.parametrize(
        "issue",
        [
            lambda ctx, win, i: win.handle(ctx).cas_blocking(1, 0, i, i + 1),
            lambda ctx, win, i: win.handle(ctx).faa_blocking(1, 1, 1),
            lambda ctx, win, i: win.handle(ctx).swap_blocking(1, 2, i),
        ],
        ids=["cas", "faa", "swap"],
    )
    def test_one_sided_blocking_atomic_costs_six_events(self, pm_cpu, issue):
        """``fetch_op`` charge, request leg, the atomic unit's apply,
        response leg, and the completion, which resumes the origin one
        ``sync_enter`` wake-up later: five events (six while the wake-up
        was a sleep of its own, hence the name)."""
        events = lambda n: self.events(pm_cpu, "one_sided", n, issue)
        assert events(40) - events(8) == 5 * 32

    def test_shmem_compare_swap_costs_five_events(self, pm_gpu):
        """The fused AMO resumes on the response: no wake-up charge."""

        def issue(ctx, win, i):
            return ctx.atomic_compare_swap(win, 1, 0, i, i + 1)

        events = lambda n: self.events(pm_gpu, "shmem", n, issue)
        assert events(40) - events(8) == 5 * 32


class TestLostLeg:
    """One-sided loss semantics on the atomic round trip: the origin is
    parked on the op's completion, so a lost request or response leg
    surfaces where it waits — same exception, same simulated instant, same
    target memory as before the blocking verbs were fused (values generated
    at PR 19's head; seed 0 drops the request, seed 1 the response)."""

    @staticmethod
    def outcome(machine, runtime, seed, issue):
        from repro import faults

        plan = faults.FaultPlan.uniform(loss=0.5, max_retries=0, seed=seed)
        with faults.inject(plan):
            job = Job(machine, 2, runtime, placement="spread")
            win = job.window(2, dtype=np.int64)

            def program(ctx):
                if ctx.rank != 0:
                    yield from ctx.compute(seconds=0)
                    return None
                syncs = ctx.counter.syncs
                try:
                    yield from issue(ctx, win)
                except faults.FaultError as exc:
                    return str(exc), ctx.sim.now, ctx.counter.syncs - syncs
                return None

            res = job.run(program)
        return res.results[0], int(win.local(1)[0]), res.events_processed

    @pytest.mark.parametrize(
        "issue, written",
        [
            (lambda ctx, win: win.handle(ctx).cas_blocking(1, 0, 0, 42), 42),
            (lambda ctx, win: win.handle(ctx).faa_blocking(1, 0, 5), 5),
            (lambda ctx, win: win.handle(ctx).swap_blocking(1, 0, 9), 9),
        ],
        ids=["cas", "faa", "swap"],
    )
    def test_one_sided(self, pm_cpu, issue, written):
        lost_request = self.outcome(pm_cpu, "one_sided", 0, issue)
        assert lost_request == (
            ("transfer cpu0->cpu1 (16 B) lost on cpu0<->cpu1 after 1 attempts",
             8.025000000000001e-05, 1),
            0,  # never applied
            8,
        )
        lost_response = self.outcome(pm_cpu, "one_sided", 1, issue)
        assert lost_response == (
            ("transfer cpu1->cpu0 (8 B) lost on cpu0<->cpu1 after 1 attempts",
             8.11505e-05, 1),
            written,  # applied at the target; only the old value was lost
            10,
        )

    def test_shmem(self, pm_gpu):
        def issue(ctx, win):
            return ctx.atomic_compare_swap(win, 1, 0, 0, 42)

        assert self.outcome(pm_gpu, "shmem", 0, issue) == (
            ("transfer gpu0->gpu1 (16 B) lost on gpu0<->gpu1 after 1 attempts",
             1.02e-05, 0),
            0,
            8,
        )
        assert self.outcome(pm_gpu, "shmem", 1, issue) == (
            ("transfer gpu1->gpu0 (8 B) lost on gpu0<->gpu1 after 1 attempts",
             1.050064e-05, 0),
            42,
            10,
        )
