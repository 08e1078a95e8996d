"""Event state machine, condition events, failure propagation."""

import pytest

from repro.sim import AllOf, Simulator
from repro.sim.event import SimulationError


class TestEventLifecycle:
    def test_fresh_event_is_untriggered(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value_and_ok(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_succeed_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_succeed_after_fail_raises(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("x"))
        ev.defuse()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callbacks_run_in_registration_order(self, sim):
        ev = sim.event()
        order = []
        ev.add_callback(lambda e: order.append(1))
        ev.add_callback(lambda e: order.append(2))
        ev.succeed()
        sim.run()
        assert order == [1, 2]

    def test_callback_after_processing_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        sim.run()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda e: None)

    def test_callback_after_processing_raises_with_no_earlier_callback(self, sim):
        """Callbacks are created lazily; 'processed' must not depend on
        anybody having registered before the event fired."""
        events = (sim.timeout(1), sim.event().succeed(delay=1))
        assert not any(ev.processed for ev in events)
        sim.run()
        for ev in events:
            assert ev.processed
            with pytest.raises(SimulationError):
                ev.add_callback(lambda e: None)

    def test_unwaited_events_share_no_callback_state(self, sim):
        a, b = sim.event(), sim.timeout(1)
        seen = []
        a.add_callback(seen.append)
        a.succeed()
        sim.run()
        assert seen == [a]  # b's processing ran nothing of a's

    def test_delayed_succeed_fires_at_delay(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(sim.now))
        ev.succeed(delay=2.5)
        sim.run()
        assert seen == [2.5]

    def test_unwaited_failed_event_raises_at_processing(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_defused_failed_event_is_silent(self, sim):
        ev = sim.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        sim.run()  # no raise


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        t = sim.timeout(3.0, value="done")
        sim.run()
        assert sim.now == 3.0
        assert t.value == "done"

    def test_zero_delay_is_legal(self, sim):
        sim.timeout(0.0)
        sim.run()
        assert sim.now == 0.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestNonFiniteTimesNeverReachTheHeap:
    """A nan key does not even sort (it compares false both ways) and an
    infinite one never fires: both are rejected before the push, by every
    way of putting an event on the heap."""

    BAD = [float("nan"), float("inf"), -1e-9]

    @pytest.mark.parametrize("delay", BAD)
    def test_timeout(self, sim, delay):
        with pytest.raises(ValueError, match="finite and >= 0"):
            sim.timeout(delay)
        assert sim.peek() == float("inf")

    @pytest.mark.parametrize("delay", BAD)
    def test_succeed_and_fail_delay(self, sim, delay):
        ev = sim.event()
        with pytest.raises(ValueError, match="finite and >= 0"):
            ev.succeed(delay=delay)
        with pytest.raises(ValueError, match="finite and >= 0"):
            sim.event().fail(RuntimeError("x"), delay=delay)
        assert sim.peek() == float("inf")
        # Rejected before any state changed: still pending, still usable.
        assert not ev.triggered
        ev.succeed("ok", delay=2.0)
        assert sim.run(until=ev) == "ok" and sim.now == 2.0

    @pytest.mark.parametrize("when", [float("nan"), float("inf"), 0.5])
    def test_at_time(self, sim, when):
        sim.timeout(1.0)
        sim.run()  # now = 1.0, so 0.5 is the past
        with pytest.raises(ValueError, match="finite and >= now"):
            sim.at_time(when)
        assert sim.peek() == float("inf")

    def test_at_time_now_is_legal(self, sim):
        sim.timeout(1.0)
        sim.run()
        assert sim.run(until=sim.at_time(1.0, "v")) == "v"


class TestConditions:
    def test_allof_waits_for_all(self, sim):
        t1, t2, t3 = sim.timeout(1), sim.timeout(5), sim.timeout(3)
        done = AllOf(sim, [t1, t2, t3])
        sim.run(until=done)
        assert sim.now == 5

    def test_empty_allof_is_vacuously_satisfied(self, sim):
        done = AllOf(sim, [])
        assert done.triggered

    def test_allof_collects_values(self, sim):
        t1 = sim.timeout(1, value="a")
        t2 = sim.timeout(2, value="b")
        done = AllOf(sim, [t1, t2])
        sim.run(until=done)
        assert set(done.value.values()) == {"a", "b"}

    def test_allof_propagates_failure(self, sim):
        ev = sim.event()
        t = sim.timeout(1)
        done = AllOf(sim, [ev, t])
        ev.fail(RuntimeError("child failed"))
        with pytest.raises(RuntimeError, match="child failed"):
            sim.run(until=done)

    def test_allof_with_already_processed_child(self, sim):
        t1 = sim.timeout(1)
        sim.run()  # clock is now 1; t1 already processed
        done = AllOf(sim, [t1, sim.timeout(2)])
        sim.run(until=done)
        assert sim.now == 3  # 1 (elapsed) + 2 (new timeout)

    @pytest.mark.parametrize("cond", [AllOf])
    def test_condition_over_only_processed_children(self, sim, cond):
        """Children that fired with nobody waiting (no callbacks list was
        ever made) still resolve a condition built afterwards."""
        kids = [sim.timeout(1, "x"), sim.timeout(2, "y")]
        sim.run()
        done = cond(sim, kids)
        assert done.triggered
        assert sim.run(until=done) == {kids[0]: "x", kids[1]: "y"}

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            AllOf(sim, [other.timeout(1)])


class TestSettle:
    """``Event.settle``: a completion flag — the heap only when someone waits."""

    def test_without_waiter_is_processed_in_place(self, sim):
        ev = sim.event()
        ev.settle(7)
        assert ev.processed and ev.ok and ev.value == 7
        sim.run()
        assert sim.event_count == 0

    def test_with_waiter_takes_the_heap_trip(self, sim):
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append((e.value, sim.event_count)))
        ev.settle("v")
        assert ev.triggered and not ev.processed and seen == []
        sim.run()
        assert seen == [("v", 1)]

    def test_settle_twice_or_after_succeed_raises(self, sim):
        ev = sim.event()
        ev.settle()
        with pytest.raises(SimulationError):
            ev.settle()
        queued = sim.event().succeed()
        with pytest.raises(SimulationError):
            queued.settle()

    def test_callback_on_settled_event_raises(self, sim):
        ev = sim.event()
        ev.settle()
        with pytest.raises(SimulationError):
            ev.add_callback(lambda e: None)
