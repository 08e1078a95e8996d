"""The max_events livelock guard on Simulator.run / Job.run."""

import pytest

from repro.comm import Job
from repro.sim import Simulator
from repro.sim.event import SimulationError


class TestSimulatorBudget:
    def test_livelock_caught(self, sim):
        # Two processes that wake each other forever at one instant.
        wake = {"a": sim.event(), "b": sim.event()}

        def ping(me, other):
            while True:
                wake[other].succeed()
                wake[other] = sim.event()
                yield wake[me]

        sim.process(ping("a", "b"))
        sim.process(ping("b", "a"))
        with pytest.raises(SimulationError, match="event budget"):
            sim.run(max_events=10_000)

    def test_budget_not_triggered_by_normal_run(self, sim):
        sim.timeout(1)
        sim.timeout(2)
        sim.run(max_events=100)
        assert sim.now == 2

    def test_budget_applies_to_until_event(self, sim):
        def spinner():
            while True:
                yield sim.timeout(1e-9)

        sim.process(spinner())
        never = sim.event()
        with pytest.raises(SimulationError, match="event budget"):
            sim.run(until=never, max_events=500)

    def test_budget_applies_to_until_time(self, sim):
        def spinner():
            while True:
                yield sim.timeout(1e-9)

        sim.process(spinner())
        with pytest.raises(SimulationError, match="event budget"):
            sim.run(until=1.0, max_events=500)

    def test_budget_is_per_call(self, sim):
        sim.timeout(1)
        sim.run(max_events=5)
        for _ in range(10):
            sim.timeout(1)
        sim.run(max_events=11)  # fresh budget; would fail if cumulative

    def test_invalid_budget(self, sim):
        with pytest.raises(SimulationError):
            sim.run(max_events=0)

    def test_budget_error_mentions_time(self):
        sim = Simulator()

        def spinner():
            while True:
                yield sim.timeout(1.0)

        sim.process(spinner())
        with pytest.raises(SimulationError, match="t="):
            sim.run(max_events=50)


class TestBudgetIsExact:
    """The budget is compared inline, before each step: ``max_events=N``
    processes exactly N events and raises on the N+1st, whichever way
    ``run`` was asked to stop."""

    @staticmethod
    def _spinning(sim):
        def spinner():
            while True:
                yield sim.timeout(1e-9)

        sim.process(spinner())

    @pytest.mark.parametrize("mode", ["none", "event", "time"])
    @pytest.mark.parametrize("budget", [1, 7, 500])
    def test_raises_at_the_same_count_in_every_until_mode(self, mode, budget):
        sim = Simulator()
        self._spinning(sim)
        until = {"none": None, "event": sim.event(), "time": 1.0}[mode]
        with pytest.raises(SimulationError, match=f"processed {budget} events"):
            sim.run(until=until, max_events=budget)
        assert sim.event_count == budget

    @pytest.mark.parametrize("mode", ["none", "event", "time"])
    def test_a_run_of_exactly_the_budget_completes(self, mode):
        sim = Simulator()
        last = [sim.timeout(t) for t in (1, 2, 3)][-1]
        until = {"none": None, "event": last, "time": 3.0}[mode]
        sim.run(until=until, max_events=3)
        assert sim.event_count == 3

    def test_event_count_is_the_number_of_step_calls(self, monkeypatch):
        """``benchmarks/perf`` reads ``sim.events`` as the profiler's call
        count of ``Simulator.step``: it must be called once per processed
        event, by every ``run`` mode, and by nothing else."""
        calls = []
        real = Simulator.step

        def counted(self):
            calls.append(self)
            real(self)

        monkeypatch.setattr(Simulator, "step", counted)
        sim = Simulator()

        def prog():
            for _ in range(5):
                yield sim.timeout(1)
            return "end"

        p = sim.process(prog())
        sim.timeout(50)
        sim.run(until=2.5)
        assert sim.run(until=p) == "end"
        sim.run()
        assert sim.now == 50
        assert len(calls) == sim.event_count == 8  # bootstrap, 5 timeouts, p, 50


class TestJobBudget:
    def test_job_forwards_budget(self, pm_cpu):
        def chatty(ctx):
            while True:
                yield from ctx.compute(seconds=1e-9)

        job = Job(pm_cpu, 2, "two_sided")
        with pytest.raises(SimulationError, match="event budget"):
            job.run(chatty, max_events=1_000)

    def test_job_budget_allows_normal_completion(self, pm_cpu):
        def quick(ctx):
            yield from ctx.barrier()
            return ctx.rank

        res = Job(pm_cpu, 4, "two_sided").run(quick, max_events=10_000)
        assert res.results == [0, 1, 2, 3]
