"""Generator processes: suspension, return values, failure."""

import pytest

from repro.sim import Process, Simulator
from repro.sim.event import SimulationError


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
