"""Simulator clock, scheduling order, run() modes."""

import pytest

from repro.sim import DeadlockError, Simulator
from repro.sim.event import SimulationError


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_time_advances_monotonically(self, sim):
        stamps = []
        for d in (5.0, 1.0, 3.0):
            sim.timeout(d).add_callback(lambda e, s=stamps: s.append(sim.now))
        sim.run()
        assert stamps == [1.0, 3.0, 5.0]

    def test_ties_broken_by_insertion_order(self, sim):
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("first"))
        sim.timeout(1.0).add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_event_count_increments(self, sim):
        sim.timeout(1)
        sim.timeout(2)
        sim.run()
        assert sim.event_count == 2


class TestRunModes:
    def test_run_to_quiescence(self, sim):
        sim.timeout(7)
        sim.run()
        assert sim.now == 7

    def test_run_until_time_processes_earlier_events(self, sim):
        hits = []
        sim.timeout(1).add_callback(lambda e: hits.append(1))
        sim.timeout(10).add_callback(lambda e: hits.append(10))
        sim.run(until=5.0)
        assert hits == [1]
        assert sim.now == 5.0

    def test_run_until_time_then_continue(self, sim):
        sim.timeout(10)
        sim.run(until=5.0)
        sim.run()
        assert sim.now == 10

    def test_run_until_past_time_raises(self, sim):
        sim.timeout(5)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=1.0)

    def test_run_until_event_returns_value(self, sim):
        ev = sim.timeout(2, value="payload")
        assert sim.run(until=ev) == "payload"
        assert sim.now == 2

    def test_run_until_never_firing_event_detects_deadlock(self, sim):
        ev = sim.event()  # never triggered
        sim.timeout(1)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=ev)

    def test_deadlock_is_a_typed_simulation_error(self, sim):
        """An empty heap with the 'until' event unfired is DeadlockError — a
        SimulationError, so existing handlers keep working — stating what
        the engine knows (time, event), not a guess at the cause."""
        ev = sim.event()
        sim.timeout(3)
        with pytest.raises(DeadlockError, match=r"heap is empty at t=3\.000e\+00s") as info:
            sim.run(until=ev)
        assert isinstance(info.value, SimulationError)
        assert sim.event_count == 1  # the timeout was processed first
        sim.run()  # the simulator is usable again (not left 'running')

    def test_deadlock_on_an_empty_heap_from_the_start(self, sim):
        with pytest.raises(DeadlockError, match="no live process"):
            sim.run(until=sim.event())

    def test_deadlock_names_the_live_processes_and_what_they_wait_on(self, sim):
        """Only processes whose generator has not finished are named, each
        with the event it is parked on, in creation order."""
        gate = sim.event()

        def finishes():
            yield sim.timeout(1)

        def blocks():
            yield sim.timeout(2)
            yield gate

        sim.process(finishes(), name="done-by-then")
        first = sim.process(blocks(), name="first")
        second = sim.process(blocks(), name="second")
        with pytest.raises(DeadlockError) as info:
            sim.run(until=sim.all_of([first, second]))
        lines = str(info.value).splitlines()
        assert lines[1:] == [
            f"  process 'first' is parked on {gate!r}",
            f"  process 'second' is parked on {gate!r}",
        ]
        gate.succeed()
        sim.run()
        assert not sim._live  # dropped at completion, not kept for the run

    def test_run_until_already_processed_event_returns_at_once(self, sim):
        ev = sim.timeout(1, value="x")
        sim.timeout(5)
        sim.run(until=2.0)
        assert sim.run(until=ev) == "x"
        assert sim.now == 2.0 and sim.event_count == 1

    def test_run_until_failed_event_raises(self, sim):
        ev = sim.event()
        sim.timeout(1).add_callback(lambda e: ev.fail(RuntimeError("died")))
        with pytest.raises(RuntimeError, match="died"):
            sim.run(until=ev)

    def test_run_until_foreign_event_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.run(until=other.timeout(1))

    def test_not_reentrant(self, sim):
        def prog():
            yield sim.timeout(1)
            sim.run()  # illegal nested run

        sim.process(prog())
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()

    def test_peek(self, sim):
        assert sim.peek() == float("inf")
        sim.timeout(4)
        assert sim.peek() == 4
