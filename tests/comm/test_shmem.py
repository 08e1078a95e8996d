"""GPU-initiated SHMEM layer: put-with-signal, waits, quiet, ordering."""

import numpy as np
import pytest

from repro.comm import CommError, Job


def gjob(machine, n=2):
    return Job(machine, n, "shmem", placement="spread")


class TestPutSignal:
    def test_data_and_signal_land(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(8)
        sig = job.window(4, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.put_signal_nbi(
                    data, 1, values=np.array([1.5, 2.5]), offset=3,
                    signal_win=sig, signal_idx=2, signal_value=9,
                )
                yield from ctx.quiet()
            else:
                yield from ctx.wait_until_all(sig, [2], value=9)
                return list(data.local(1)[3:5])

        res = job.run(program)
        assert res.results[1] == [1.5, 2.5]
        assert sig.local(1)[2] == 9

    def test_signal_never_observable_before_data(self, pm_gpu):
        """The put-with-signal ordering guarantee: when the waiter wakes,
        the data is already visible."""
        job = gjob(pm_gpu)
        data = job.window(4)
        sig = job.window(2, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.put_signal_nbi(
                    data, 1, values=np.array([7.0]), signal_win=sig, signal_idx=0
                )
                yield from ctx.quiet()
            else:
                yield from ctx.wait_until_all(sig, [0], value=1)
                # Observed at the very wake instant.
                return float(data.local(1)[0])

        res = job.run(program)
        assert res.results[1] == 7.0

    def test_signal_add_accumulates(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(4)
        sig = job.window(2, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                for _ in range(3):
                    yield from ctx.put_signal_nbi(
                        data, 1, nelems=1, signal_win=sig, signal_idx=0,
                        signal_value=1, signal_op="add",
                    )
                yield from ctx.quiet()
            else:
                yield from ctx.wait_until_all(sig, [0], value=3)
                return int(sig.local(1)[0])

        res = job.run(program)
        assert res.results[1] == 3

    def test_bad_signal_op_rejected(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(4)
        sig = job.window(2, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.put_signal_nbi(
                    data, 1, nelems=1, signal_win=sig, signal_idx=0,
                    signal_op="xor",
                )
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError, match="signal_op"):
            job.run(program)


class TestWaitUntil:
    def test_wait_until_any_returns_fired_index(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(4)
        sig = job.window(8, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(seconds=1e-6)
                yield from ctx.put_signal_nbi(
                    data, 1, nelems=1, signal_win=sig, signal_idx=5
                )
                yield from ctx.quiet()
            else:
                idx = yield from ctx.wait_until_any(sig, [1, 3, 5, 7])
                return idx

        res = job.run(program)
        assert res.results[1] == 5

    def test_wait_until_any_consume_resets(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(4)
        sig = job.window(2, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.put_signal_nbi(
                    data, 1, nelems=1, signal_win=sig, signal_idx=0
                )
                yield from ctx.quiet()
            else:
                idx = yield from ctx.wait_until_any(sig, [0], consume=True)
                return idx, int(sig.local(1)[0])

        res = job.run(program)
        assert res.results[1] == (0, 0)

    def test_wait_until_any_empty_rejected(self, pm_gpu):
        job = gjob(pm_gpu)
        sig = job.window(2, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.wait_until_any(sig, [])
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError):
            job.run(program)

    def test_wait_satisfied_signals_do_not_block(self, pm_gpu):
        job = gjob(pm_gpu)
        sig = job.window(2, dtype=np.uint64, fill=5)

        def program(ctx):
            t0 = ctx.sim.now
            yield from ctx.wait_until_all(sig, [0, 1], value=5)
            return ctx.sim.now - t0

        res = job.run(program)
        assert res.results[0] == 0.0  # no block, no wakeup charge


class TestQuiet:
    def test_quiet_completes_outstanding(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(4)
        sig = job.window(2, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.put_signal_nbi(
                    data, 1, values=np.array([4.0]), signal_win=sig, signal_idx=0
                )
                yield from ctx.quiet()
                # After quiet, remote completion is guaranteed.
                return float(data.local(1)[0])
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 4.0

    def test_landed_puts_leave_no_tracked_state(self, pm_gpu):
        """A program that never calls quiet (halo exchange, fig10, the
        SpTRSV receive loop) used to keep every put's completion event for
        the life of the job.  Completion is counted: 10 000 landed puts
        leave a zero, not a 10 000-entry list."""
        job = gjob(pm_gpu)
        data = job.window(1)
        sig = job.window(1, dtype=np.uint64)
        n = 10_000
        peak = []

        def program(ctx):
            if ctx.rank == 0:
                returned = set()
                for _ in range(n):
                    returned.add((yield from ctx.put_signal_nbi(
                        data, 1, nelems=1, signal_win=sig, signal_idx=0,
                        signal_op="add",
                    )))
                    peak.append(ctx.ledger.busy)
                return returned
            yield from ctx.wait_until_all(sig, [0], value=n)

        res = job.run(program)
        origin = job.contexts[0]
        assert res.results[0] == {None}  # completion is counted, not handed out
        assert sig.local(1)[0] == n
        ledger = origin.ledger
        assert ledger.busy == 0 and ledger.lost == []
        assert ledger.draining == -1 and not ledger  # no quiet blocked
        assert 0 < max(peak) < 100  # bounded by the wire, not by the program
        # Nothing per-put survives on the context.
        assert not any(
            isinstance(v, (list, dict, set)) and len(v) > 100
            for v in vars(origin).values()
        )

    def test_quiet_blocks_until_the_last_put_lands(self, pm_gpu):
        job = gjob(pm_gpu)
        data = job.window(8)
        sig = job.window(1, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                for i in range(8):
                    yield from ctx.put_signal_nbi(
                        data, 1, values=np.array([float(i + 1)]), offset=i,
                        signal_win=sig, signal_idx=0, signal_op="add",
                    )
                in_flight = ctx.ledger.busy
                yield from ctx.quiet()
                return in_flight, ctx.ledger.busy, data.local(1).tolist()
            yield from ctx.compute(seconds=0)

        in_flight, after, landed = job.run(program).results[0]
        assert in_flight > 0 and after == 0
        assert landed == [float(i + 1) for i in range(8)]

    def test_lost_put_surfaces_at_quiet_and_stays(self, pm_gpu):
        from repro import faults

        plan = faults.FaultPlan.uniform(loss=0.999999, max_retries=0)
        with faults.inject(plan):
            job = gjob(pm_gpu)
            data = job.window(1)
            sig = job.window(1, dtype=np.uint64)

            def program(ctx):
                if ctx.rank != 0:
                    yield from ctx.compute(seconds=0)
                    return None
                returned = yield from ctx.put_signal_nbi(
                    data, 1, nelems=1, signal_win=sig, signal_idx=0
                )
                issued = ctx.ledger.busy
                raised = []
                for _ in range(2):  # blocked when it is lost; lost on entry
                    try:
                        yield from ctx.quiet()
                    except faults.FaultError as exc:
                        raised.append(exc)
                return returned, issued, raised, ctx.ledger.busy

            returned, issued, raised, in_flight = job.run(program).results[0]
        assert returned is None and issued == 1
        assert len(raised) == 2 and raised[0] is raised[1]
        assert in_flight == 0
        assert job.contexts[0].ledger.lost == [(1, raised[0])]  # parked once, kept
        assert sig.local(1)[0] == 0  # a lost put applies nothing

    def test_second_concurrent_quiet_on_one_pe_is_an_error(self, pm_gpu):
        """Two processes of one PE blocked in quiet at once: the second is a
        CommError at the call, not an orphaned first waiter."""
        job = gjob(pm_gpu)
        data = job.window(1 << 16)
        sig = job.window(1, dtype=np.uint64)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.put_signal_nbi(
                    data, 1, nelems=1 << 16, signal_win=sig, signal_idx=0
                )
                other = ctx.sim.process(ctx.quiet(), name="second quiet")
                yield from ctx.quiet()
                yield other
            else:
                yield from ctx.compute(seconds=0)

        with pytest.raises(CommError, match="PE 0's quiet is already blocked"):
            job.run(program)

    def test_barrier_all(self, pm_gpu):
        job = gjob(pm_gpu, n=4)

        def program(ctx):
            yield from ctx.compute(seconds=ctx.rank * 1e-6)
            yield from ctx.barrier_all()
            return ctx.sim.now

        res = job.run(program)
        # All ranks leave the barrier at (nearly) the same time.
        assert max(res.results) - min(res.results) < 1e-9


class TestGpuAtomics:
    def test_atomic_cas_via_shmem(self, pm_gpu):
        job = gjob(pm_gpu)
        win = job.window(2, dtype=np.int64)

        def program(ctx):
            if ctx.rank == 0:
                old = yield from ctx.atomic_compare_swap(win, 1, 0, 0, 77)
                return old
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 0
        assert win.local(1)[0] == 77

    def test_atomic_fetch_add_via_shmem(self, pm_gpu):
        job = gjob(pm_gpu)
        win = job.window(2, dtype=np.int64, fill=5)

        def program(ctx):
            if ctx.rank == 0:
                old = yield from ctx.atomic_fetch_add(win, 1, 0, 3)
                return old
            yield from ctx.compute(seconds=0)

        res = job.run(program)
        assert res.results[0] == 5
        assert win.local(1)[0] == 8
