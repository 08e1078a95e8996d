"""One-sided windows: put/get, flush semantics, fence, polling receiver."""

import numpy as np
import pytest

from repro.comm import CommError, Job


def job2(machine, runtime="one_sided"):
    return Job(machine, 2, runtime, placement="spread")


class TestPutGet:
    def test_put_lands_in_target_buffer(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(8)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.array([1.0, 2.0, 3.0]), offset=2)
                yield from h.flush(1)
            else:
                yield from ctx.compute(seconds=0)

        job.run(program)
        assert np.array_equal(win.local(1)[2:5], [1.0, 2.0, 3.0])
        assert win.local(1)[0] == 0.0

    def test_put_out_of_bounds_fails(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(4)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.zeros(3), offset=2)
                yield from h.flush(1)
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError, match="out of bounds"):
            job.run(program)

    def test_put_needs_values_or_nelems(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(4)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1)
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError, match="values or nelems"):
            job.run(program)

    def test_get_fetches_remote_values(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(4)
        win.local(1)[:] = [10.0, 20.0, 30.0, 40.0]

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                req = yield from h.get(1, offset=1, nelems=2)
                got = yield from ctx.wait(req)
                return got
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert np.array_equal(res.results[0], [20.0, 30.0])


class TestFlushSemantics:
    def test_data_not_guaranteed_before_flush(self, pm_cpu):
        """The put is non-blocking: immediately after issue the target may
        not have the data yet; after the flush it must."""
        job = job2(pm_cpu)
        win = job.window(2)
        observed = {}

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.array([7.0]))
                observed["before_flush"] = float(win.local(1)[0])
                yield from h.flush(1)
                observed["after_flush"] = float(win.local(1)[0])
            else:
                yield from ctx.compute(seconds=0)

        job.run(program)
        assert observed["before_flush"] == 0.0
        assert observed["after_flush"] == 7.0

    def test_flush_costs_a_round_trip(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(2)
        route_latency = pm_cpu.topology.route("cpu0", "cpu1").latency

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.array([1.0]))
                t0 = ctx.sim.now
                yield from h.flush(1)
                return ctx.sim.now - t0
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] >= 2 * route_latency

    def test_flush_all_covers_every_target(self, pm_cpu):
        job = Job(pm_cpu, 2, "one_sided", placement="spread")
        win = job.window(2)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.array([5.0]))
                yield from h.flush()  # flush_all
                return float(win.local(1)[0])
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 5.0

    def test_flush_local_cheaper_than_flush(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(2)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(1, np.array([1.0]))
                t0 = ctx.sim.now
                yield from h.flush_local(1)
                t_local = ctx.sim.now - t0
                yield from h.put(1, np.array([2.0]))
                t1 = ctx.sim.now
                yield from h.flush(1)
                t_remote = ctx.sim.now - t1
                return t_local, t_remote
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        t_local, t_remote = res.results[0]
        assert t_local < t_remote


class TestFence:
    def test_fence_is_collective_epoch(self, pm_cpu):
        job = job2(pm_cpu)
        win = job.window(2)

        def program(ctx):
            h = win.handle(ctx)
            yield from h.fence()
            if ctx.rank == 0:
                yield from h.put(1, np.array([3.0]))
            yield from h.fence()
            # After the closing fence both ranks observe the data.
            return float(win.local(1)[0])

        res = job.run(program)
        assert res.results == [3.0, 3.0]

    def test_unbalanced_fence_deadlocks(self, pm_cpu):
        from repro.sim.event import SimulationError

        job = job2(pm_cpu)
        win = job.window(2)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.fence()

        with pytest.raises(SimulationError, match="deadlock"):
            job.run(program)


class TestPollingReceiver:
    def test_listing1_loop_sees_all_signals(self, pm_cpu):
        job = Job(pm_cpu, 4, "one_sided", placement="spread")
        sig = job.window(4, dtype=np.int64)

        def program(ctx):
            h = sig.handle(ctx)
            if ctx.rank == 0:
                got = yield from ctx.poll_wait_signals(sig, [1, 2, 3], expected=3)
                return sorted(got)
            yield from ctx.compute(seconds=ctx.rank * 1e-6)
            yield from h.put(0, np.array([1], dtype=np.int64), offset=ctx.rank)
            yield from h.flush(0)

        res = job.run(program)
        assert res.results[0] == [1, 2, 3]

    def test_poll_expected_bounds_checked(self, pm_cpu):
        job = job2(pm_cpu)
        sig = job.window(4, dtype=np.int64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.poll_wait_signals(sig, [0], expected=2)
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError, match="slots"):
            job.run(program)

    def test_poll_cost_scales_with_slots(self, pm_cpu):
        """The Listing-1 scan charges per remaining slot — the 'extra work'
        the paper blames for one-sided SpTRSV's scaling ceiling."""
        times = {}
        for nslots in (2, 64):
            job = Job(pm_cpu, 2, "one_sided", placement="spread")
            sig = job.window(64, dtype=np.int64)

            def program(ctx, n=nslots):
                h = sig.handle(ctx)
                if ctx.rank == 0:
                    t0 = ctx.sim.now
                    yield from ctx.poll_wait_signals(
                        sig, list(range(n)), expected=1
                    )
                    return ctx.sim.now - t0
                yield from h.put(0, np.array([1], dtype=np.int64), offset=0)
                yield from h.flush(0)

            times[nslots] = job.run(program).results[0]
        assert times[64] > times[2]


class TestCountedCompletion:
    """flush / fence wait on a count of ops in flight per (origin, target),
    not on an AllOf over a list of their completion events."""

    def test_flush_of_one_target_ignores_traffic_to_another(self, pm_cpu):
        job = Job(pm_cpu, 3, "one_sided", placement="spread")
        win = job.window(1 << 16)

        def program(ctx):
            h = win.handle(ctx)
            if ctx.rank == 0:
                yield from h.put(2, nelems=1 << 16)  # long: 512 KiB
                yield from h.put(1, nelems=1)
                yield from h.flush(1)
                ledger = win.ledgers[0]
                after_one = ledger.pending(1), ledger.pending(2), ledger.pending()
                yield from h.flush()
                return after_one, ledger.pending()
            yield from ctx.compute(seconds=0)

        after_one, after_all = job.run(program).results[0]
        assert after_one == (0, 1, 1)  # rank 2's put is still in flight
        assert after_all == 0

    def test_completions_nobody_waits_on_skip_the_heap(self, pm_cpu):
        """n puts + flush: the n - 1 completions that cannot release the
        flush are flags; only the last takes the heap trip."""

        def events(n):
            job = job2(pm_cpu)
            win = job.window(1)

            def program(ctx):
                h = win.handle(ctx)
                if ctx.rank == 0:
                    for _ in range(n):
                        yield from h.put(1, nelems=1)
                    assert win.ledgers[0].pending(1) > 0
                    yield from h.flush(1)
                    assert win.ledgers[0].pending() == 0
                yield from ctx.barrier()

            return job.run(program).events_processed

        # Per extra put: its issue charge and its delivery — no third event.
        assert events(40) - events(8) == 2 * 32

    def test_lost_put_surfaces_at_every_flush_that_covers_it(self, pm_cpu):
        from repro import faults

        plan = faults.FaultPlan.uniform(loss=0.999999, max_retries=0)
        with faults.inject(plan):
            job = Job(pm_cpu, 3, "one_sided", placement="spread")
            win = job.window(4)

            def program(ctx):
                h = win.handle(ctx)
                if ctx.rank != 0:
                    yield from ctx.compute(seconds=0)
                    return None
                returned = yield from h.put(1, nelems=1)
                in_flight = win.ledgers[0].pending(1)
                raised = []
                for target in (1, 2, None, 1):
                    try:
                        yield from h.flush(target)
                    except faults.FaultError as exc:
                        raised.append((target, exc))
                return returned, in_flight, raised

            returned, in_flight, raised = job.run(program).results[0]
        assert returned is None  # MPI_Put: completion is the flush
        assert in_flight == 1
        assert [t for t, _ in raised] == [1, None, 1]  # never target 2's flush
        assert len({id(exc) for _, exc in raised}) == 1
        assert win.ledgers[0].pending() == 0
        assert win.ledgers[0].lost == [(1, raised[0][1])]  # parked once, kept
