"""Generator processes: suspension, return values, failure."""

import numpy as np
import pytest

from repro.sim import Process, Simulator, WaitList
from repro.sim.event import DeadlockError, SimulationError


class TestBasics:
    def test_process_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)  # not a generator

    def test_process_runs_and_returns(self, sim):
        def prog():
            yield sim.timeout(2)
            return "result"

        p = sim.process(prog())
        sim.run()
        assert p.value == "result"
        assert sim.now == 2

    def test_yield_receives_event_value(self, sim):
        def prog():
            got = yield sim.timeout(1, value="hello")
            return got

        p = sim.process(prog())
        sim.run()
        assert p.value == "hello"

    def test_sequential_timeouts_accumulate(self, sim):
        def prog():
            yield sim.timeout(1)
            yield sim.timeout(2)
            yield sim.timeout(3)

        sim.process(prog())
        sim.run()
        assert sim.now == 6

    def test_two_processes_interleave(self, sim):
        log = []

        def prog(name, step):
            for _ in range(3):
                yield sim.timeout(step)
                log.append((name, sim.now))

        sim.process(prog("a", 2))
        sim.process(prog("b", 3))
        sim.run()
        # At the t=6 tie, b's event was scheduled earlier (at t=3, vs a's
        # at t=4), so insertion order puts b first.
        assert log == [
            ("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9),
        ]

    def test_process_is_waitable(self, sim):
        def child():
            yield sim.timeout(5)
            return 99

        def parent():
            result = yield sim.process(child())
            return result * 2

        p = sim.process(parent())
        sim.run()
        assert p.value == 198

    def test_yield_already_processed_event_resumes(self, sim):
        done = sim.timeout(0)

        def prog():
            yield sim.timeout(1)
            got = yield done  # already processed by then
            return got

        p = sim.process(prog())
        sim.run()
        assert p.triggered
        assert sim.now == 1

    def test_is_alive(self, sim):
        def prog():
            yield sim.timeout(1)

        p = sim.process(prog())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestFailures:
    def test_exception_in_process_fails_it(self, sim):
        def prog():
            yield sim.timeout(1)
            raise ValueError("inside")

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert not p.ok
        assert isinstance(p.value, ValueError)

    def test_failed_event_throws_into_process(self, sim):
        ev = sim.event()

        def prog():
            try:
                yield ev
            except RuntimeError as e:
                return f"caught {e}"

        p = sim.process(prog())
        ev.fail(RuntimeError("bad"))
        sim.run()
        assert p.value == "caught bad"

    def test_yielding_non_event_fails_process(self, sim):
        def prog():
            yield 42

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert not p.ok
        assert isinstance(p.value, SimulationError)

    def test_yielding_foreign_event_fails_process(self, sim):
        other = Simulator()

        def prog():
            yield other.timeout(1)

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert not p.ok


class TestFusedResume:
    """``Process._resume`` is one frame on the success path; every typed
    failure it used to give through ``_step`` it still gives."""

    def test_non_event_yield_closes_generator_and_names_the_value(self, sim):
        cleaned = []

        def prog():
            try:
                yield "not an event"
            finally:
                cleaned.append(True)

        p = sim.process(prog(), name="offender")
        p.defuse()
        sim.run()
        assert cleaned == [True]
        assert isinstance(p.value, SimulationError)
        assert "offender" in str(p.value) and "'not an event'" in str(p.value)

    def test_foreign_event_message_and_no_callback_left_behind(self, sim):
        other = Simulator()
        foreign = other.event()

        def prog():
            yield foreign

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert isinstance(p.value, SimulationError)
        assert "another simulator" in str(p.value)
        assert not foreign.callbacks  # the process never parked on it

    def test_failure_after_first_resume_is_typed_too(self, sim):
        def prog():
            yield sim.timeout(1)
            yield None

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert sim.now == 1
        assert isinstance(p.value, SimulationError)

    def test_already_processed_event_is_relayed_on_the_next_step(self, sim):
        """Yielding a fired event resumes at the same instant, one engine
        step later, with the event's value (or its exception)."""
        fired = sim.timeout(1, value="late")
        failed = sim.event()
        failed.fail(RuntimeError("old news"))
        failed.defuse()
        sim.run()
        assert fired.processed and failed.processed
        before = sim.event_count

        def prog():
            got = yield fired
            try:
                yield failed
            except RuntimeError as exc:
                return got, str(exc), sim.now

        p = sim.process(prog())
        sim.run()
        assert p.value == ("late", "old news", 1)
        # bootstrap + two relays + the process's own completion
        assert sim.event_count - before == 4

    def test_settled_event_relays_like_any_processed_event(self, sim):
        flag = sim.event()
        flag.settle("done")
        assert flag.triggered and flag.processed and flag.ok
        assert sim.peek() == float("inf")  # never queued

        def prog():
            return (yield flag)

        p = sim.process(prog())
        sim.run()
        assert p.value == "done"


class TestSleep:
    """``yield d`` (a float) sleeps: the heap entry is the process itself,
    pushed where ``Timeout(sim, d)`` would have been, so a sleep takes the
    same ``(time, seq)`` place and the same one engine step."""

    def test_sleep_and_timeout_made_at_one_instant_resume_in_seq_order(self, sim):
        log = []

        def sleeper(tag, first):
            if first:
                yield 1.0
            else:
                yield sim.timeout(1.0)
            log.append(tag)

        # Alternate sleeps and Timeouts, all due at t=1: creation order wins.
        for i in range(6):
            sim.process(sleeper(i, first=i % 2 == 0))
        sim.run()
        assert log == [0, 1, 2, 3, 4, 5]
        assert sim.now == 1.0

    def test_a_sleep_queued_before_a_timeout_due_earlier_still_waits(self, sim):
        log = []

        def sleeper():
            yield 2.0
            log.append(("sleep", sim.now))

        sim.process(sleeper())
        sim.run(until=0.5)
        sim.timeout(1.0).add_callback(lambda ev: log.append(("timeout", sim.now)))
        sim.run()
        assert log == [("timeout", 1.5), ("sleep", 2.0)]

    def test_sleep_resumes_with_none(self, sim):
        def prog():
            got = yield 1.5
            return got, sim.now

        p = sim.process(prog())
        sim.run()
        assert p.value == (None, 1.5)

    def test_numpy_float64_is_a_float(self, sim):
        def prog():
            yield np.float64(0.25)
            yield np.float64(0.0)
            return sim.now

        p = sim.process(prog())
        sim.run()
        assert p.ok and p.value == 0.25

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"), -0.5e-300])
    def test_bad_delay_raises_at_the_yield(self, sim, bad):
        def prog():
            try:
                yield bad
            except ValueError as exc:
                caught = str(exc)
            else:  # pragma: no cover - the assertion below reports it
                caught = None
            yield 1.0  # still a live process: the error did not kill it
            return caught

        p = sim.process(prog())
        sim.run()
        assert p.ok and "finite and >= 0" in p.value
        assert sim.now == 1.0

    def test_uncaught_bad_delay_fails_the_process(self, sim):
        def prog():
            yield float("nan")

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert not p.ok and isinstance(p.value, ValueError)
        assert sim.now == 0.0  # nothing reached the heap

    def test_bad_delay_after_a_bad_delay(self, sim):
        """The generator may answer the error with another bad delay."""

        def prog():
            for bad in (-1.0, float("nan")):
                try:
                    yield bad
                except ValueError:
                    pass
            return "survived"

        p = sim.process(prog())
        sim.run()
        assert p.value == "survived"

    def test_int_is_still_a_bad_yield(self, sim):
        def prog():
            yield 1

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert isinstance(p.value, SimulationError)
        assert "float delay" in str(p.value)

    def test_sleeping_process_is_never_listed_in_a_deadlock(self, sim):
        never = sim.event()

        def napper():
            yield 1.0
            yield 2.0

        def waiter():
            yield never

        sim.process(napper(), name="napper")
        sim.process(waiter(), name="waiter")
        with pytest.raises(DeadlockError) as err:
            sim.run(until=never)
        assert "'waiter' is parked on" in str(err.value)
        assert "napper" not in str(err.value)
        assert sim.now == 3.0  # the sleeps ran out before the heap did

    def test_each_sleep_is_one_event(self, sim):
        def prog(n):
            for _ in range(n):
                yield 1e-6

        for n in (0, 1, 7):
            before = sim.event_count
            p = sim.process(prog(n))
            sim.run()
            # bootstrap (a zero sleep) + n sleeps + the process's completion
            assert sim.event_count - before == n + 2
            assert p.ok


class TestWaitList:
    """``yield wl`` parks the process on a :class:`WaitList`; ``wl.wake()``
    pushes ``(now, seq, process)`` where the replaced event's ``succeed()``
    pushed itself, so a wake takes the event's place in ``(time, seq)``."""

    def test_resumes_at_the_wakers_instant_between_older_and_newer_entries(self, sim):
        log = []
        wl = WaitList("a test occurrence")

        def parked():
            got = yield wl
            log.append(("parked", sim.now, got))

        def waker():
            yield 2.0
            sim.timeout(0.0).add_callback(lambda _: log.append(("before", sim.now)))
            wl.wake()
            sim.timeout(0.0).add_callback(lambda _: log.append(("after", sim.now)))

        sim.process(parked())
        sim.process(waker())
        sim.run()
        assert log == [("before", 2.0), ("parked", 2.0, None), ("after", 2.0)]

    def test_wake_takes_the_place_of_the_event_it_replaces(self):
        """The same program with an ``Event`` + ``succeed()`` in place of the
        list resumes in the same order and processes as many events."""

        def run(use_list):
            sim = Simulator()
            log = []
            parks = [WaitList(f"w{i}") if use_list else sim.event() for i in range(3)]

            def waiter(i):
                yield parks[i]
                log.append((i, sim.now))

            def waker():
                yield 1.0
                for i in (2, 0, 1):
                    if use_list:
                        parks[i].wake()
                    else:
                        parks[i].succeed()
                    sim.timeout(0.0).add_callback(lambda _, i=i: log.append(("t", i)))

            for i in range(3):
                sim.process(waiter(i))
            sim.process(waker())
            sim.run()
            return log, sim.event_count

        assert run(use_list=True) == run(use_list=False)

    def test_waking_an_empty_list_pushes_nothing(self, sim):
        wl = WaitList("nobody")
        wl.wake()
        assert sim.peek() == float("inf") and not wl

    def test_a_second_wake_resumes_only_the_processes_parked_since(self, sim):
        wl = WaitList("a test occurrence")
        log = []

        def parked(tag, delay):
            yield delay
            yield wl
            log.append((tag, sim.now))

        def waker():
            yield 1.5
            wl.wake()
            yield 1.5
            wl.wake()

        sim.process(parked("a", 1.0))
        sim.process(parked("b", 1.0))
        sim.process(parked("c", 2.0))
        sim.process(waker())
        sim.run()
        assert log == [("a", 1.5), ("b", 1.5), ("c", 3.0)]
        assert not wl

    @pytest.mark.parametrize("bad", [[], [1.0], 3])
    def test_a_plain_list_or_an_int_is_still_a_bad_yield(self, sim, bad):
        def prog():
            yield bad

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert isinstance(p.value, SimulationError)
        assert "WaitList" in str(p.value)

    def test_a_deadlock_names_what_a_parked_rank_waits_for(self, pm_cpu, monkeypatch):
        from repro.comm import Job

        job = Job(pm_cpu, 3, "one_sided", placement="spread")
        sig = job.window(1, dtype=np.int64)
        table = job.window(1, dtype=np.int64)
        # A wire that never delivers: the atomic's request leg never lands.
        monkeypatch.setattr(job.fabric, "send", lambda *a, **k: None)

        def program(ctx):
            if ctx.rank == 0:
                yield sig.on_write(0)  # nobody ever writes
            elif ctx.rank == 1:
                yield ctx.engine.on_arrival()  # nobody ever sends
            else:
                yield from table.handle(ctx).cas_blocking(0, 0, 0, 1)

        with pytest.raises(DeadlockError) as err:
            job.run(program)
        msg = str(err.value)
        assert "'rank0' is parked on <WaitList: a write to rank 0>" in msg
        assert "'rank1' is parked on <WaitList: a message arriving at rank 1>" in msg
        assert "'rank2' is parked on <WaitList: an atomic at rank 0, offset 0>" in msg
        assert "Process" not in msg


class TestDelayedWake:
    """``yield (wl, d)`` parks on the list as ``yield wl`` does; the wake
    pushes the process ``d`` later: ``yield wl; yield d`` in one entry."""

    def test_resumes_where_a_wake_then_a_sleep_would(self):
        def run(folded):
            sim = Simulator()
            wl, log = WaitList("a test occurrence"), []

            def parked():
                if folded:
                    yield wl, 0.7
                else:
                    yield wl
                    yield 0.7
                log.append(sim.now)

            def waker():
                yield 0.1
                yield 0.2  # now is 0.30000000000000004: a sum, not a literal
                wl.wake()

            sim.process(parked())
            sim.process(waker())
            sim.run()
            return log, sim.event_count

        (folded, events), (unfolded, unfolded_events) = run(True), run(False)
        assert folded == unfolded == [(0.1 + 0.2) + 0.7]
        assert events == unfolded_events - 1

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_bad_delay_raises_at_the_yield_and_parks_nothing(self, sim, bad):
        wl = WaitList("a test occurrence")

        def prog():
            try:
                yield wl, bad
            except ValueError as exc:
                return str(exc), list(wl), sim.peek()

        p = sim.process(prog())
        sim.run()
        message, parked, next_entry = p.value
        assert "finite and >= 0" in message
        assert parked == [] and next_entry == float("inf")

    def test_uncaught_bad_delay_fails_the_process(self, sim):
        wl = WaitList("a test occurrence")

        def prog():
            yield wl, float("nan")

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert isinstance(p.value, ValueError)
        assert not wl and sim.now == 0.0

    @pytest.mark.parametrize(
        "shape", ["event", "one", "three", "int delay"]
    )
    def test_other_tuples_are_bad_yields(self, sim, shape):
        wl = WaitList("a test occurrence")
        bad = {
            "event": (sim.event(), 1.0),
            "one": (wl,),
            "three": (wl, 1.0, 1.0),
            "int delay": (wl, 1),
        }[shape]

        def prog():
            yield bad

        p = sim.process(prog())
        p.defuse()
        sim.run()
        assert isinstance(p.value, SimulationError)
        assert "(WaitList, delay)" in str(p.value)
        assert not wl

    def test_a_later_plain_park_resumes_at_the_wake(self, sim):
        wl, log = WaitList("a test occurrence"), []

        def parked():
            yield wl, 0.5
            log.append(sim.now)
            yield wl
            log.append(sim.now)

        def waker():
            yield 1.0
            wl.wake()
            yield 1.0
            wl.wake()

        sim.process(parked())
        sim.process(waker())
        sim.run()
        assert log == [1.5, 2.0]

    def test_a_deadlock_names_the_list(self, sim):
        never, wl = sim.event(), WaitList("a write nobody makes")

        def prog():
            yield wl, 1.0

        sim.process(prog(), name="rank0")
        with pytest.raises(DeadlockError) as err:
            sim.run(until=never)
        assert "'rank0' is parked on <WaitList: a write nobody makes>" in str(err.value)


@pytest.fixture
def built(monkeypatch):
    """Every ``Timeout`` / ``Delivery`` / ``_AtomicOp`` constructed, by class."""
    from repro.comm.window import _AtomicOp
    from repro.net.fabric import Delivery
    from repro.sim.event import Timeout

    counts = dict.fromkeys(("Timeout", "Delivery", "_AtomicOp"), 0)
    for cls in (Timeout, Delivery, _AtomicOp):
        real = cls.__init__

        def counted(self, *args, _real=real, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


class TestNoTimeoutForARoundMessage:
    """A 4-rank shmem ring allreduce: the sender's issue charge and the
    receiver's wake-up are sleeps, the recheck rides on the receiver's wake
    and each delivery is the put's own record on the heap: 109 events, 133
    when each of those was a ``Timeout`` or a sleep of its own."""

    def test_a_round_message_builds_no_timeout_and_no_delivery(self, built):
        from repro.collectives.core import CollectiveComm
        from repro.collectives.plan import CollectivePlan
        from repro.comm.job import Job
        from repro.machines import perlmutter_gpu

        plan = CollectivePlan(
            coll="allreduce", algorithm="ring", nranks=4, nelems=64, stripes=1
        )
        job = Job(perlmutter_gpu(), 4, "shmem")
        comm = CollectiveComm(job, [plan])

        def prog(ctx, comm):
            yield from comm.endpoint(ctx).run()

        res = job.run(prog, comm)
        assert comm.stats.messages == job.fabric.total_messages == 24
        assert built == {"Timeout": 0, "Delivery": 0, "_AtomicOp": 0}
        assert job.sim.event_count == res.events_processed == 109

    @pytest.mark.parametrize(("runtime", "events"), [("one_sided", 5), ("shmem", 5)])
    def test_a_blocking_cas_is_one_record(self, built, runtime, events):
        """Request leg, the atomic unit's turn and the response leg are three
        pushes of one ``_AtomicOp``; with the issue charge and the origin's
        wake (which carries MPI's wait charge) the events are 5."""
        import numpy as np

        from repro.comm.job import Job
        from repro.machines import perlmutter_cpu, perlmutter_gpu

        machine = perlmutter_cpu() if runtime == "one_sided" else perlmutter_gpu()

        def events_for(n_cas):
            job = Job(machine, 2, runtime)
            win = job.window(1, dtype=np.int64)

            def prog(ctx):
                if ctx.rank == 0:
                    for i in range(n_cas):
                        if runtime == "one_sided":
                            yield from win.handle(ctx).cas_blocking(1, 0, i, i + 1)
                        else:
                            yield from ctx.atomic_compare_swap(win, 1, 0, i, i + 1)
                yield from ctx.barrier()

            res = job.run(prog)
            assert win.local(1)[0] == n_cas
            return res.events_processed

        extra = events_for(2) - events_for(1)
        assert built == {"Timeout": 0, "Delivery": 0, "_AtomicOp": 3}
        assert extra == events
