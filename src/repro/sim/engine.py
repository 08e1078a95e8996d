"""The discrete-event simulation core.

:class:`Simulator` owns virtual time and an event heap.  All timing in the
reproduction — link traversal, MPI op overheads, GPU kernel slices — is
expressed as events scheduled here, so a whole multi-rank run is
deterministic and produces *virtual* seconds, independent of host speed.

Determinism contract: two runs with the same program and the same RNG seeds
produce identical event orderings.  Ties in time are broken by insertion
sequence number.
"""

from __future__ import annotations

from collections.abc import Generator
from heapq import heappop, heappush
from math import inf
from typing import Any

from repro.sim.event import (
    _PENDING,
    AllOf,
    DeadlockError,
    Event,
    SimulationError,
    Timeout,
)
from repro.sim.process import InFlight, Process
from repro.util.validation import check_count

__all__ = ["Simulator"]


class Simulator:
    """Event heap + virtual clock.

    Usage::

        def rank(sim, done):
            yield 2e-6  # sleep: a float delay, nothing allocated
            yield done  # park until the event fires
            return sim.now

        sim = Simulator()
        done = sim.timeout(5e-6)  # an event: it can carry callbacks
        done.add_callback(lambda ev: print("fired at", sim.now))
        proc = sim.process(rank(sim, done))
        sim.run()
        print(sim.now, proc.value)

    A process sleeps by yielding the delay, a message in flight is an
    :class:`~repro.sim.process.InFlight` record; :meth:`timeout` is for
    events that carry callbacks or that several parties wait on.
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: list[tuple[float, int, Event | InFlight]] = []
        self._seq: int = 0
        self._running = False
        self.event_count: int = 0  # processed events, for instrumentation
        # Processes whose generator has not finished, in creation order.
        self._live: dict[Process, None] = {}

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- event construction helpers ------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` simulated seconds from now.

        For an occurrence with callbacks or several waiters; a process that
        only needs to sleep yields ``delay`` itself.
        """
        return Timeout(self, delay, value)

    def at_time(self, when: float, value: Any = None) -> Event:
        """An event that fires at the *absolute* simulated time ``when``.

        Unlike ``timeout(when - now)``, the event is enqueued at exactly
        ``when`` — ``now + (when - now)`` can differ from ``when`` by one
        ulp, which matters to the bulk-transfer engine
        (:mod:`repro.perf`): its batch completions must land on the very
        float the scalar path's event chain would have produced.
        """
        ev = Event(self)
        ev._ok = True
        ev._value = value
        self._schedule(ev, at=when)
        return ev

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Launch a generator as a simulation process."""
        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------------

    def _schedule(
        self, event: Event | InFlight, delay: float = 0.0, *, at: float | None = None
    ) -> None:
        # A nan or infinite key would sit in the heap for ever (nan compares
        # false both ways, so it does not even sort); negative is the past.
        if at is None:
            if not 0 <= delay < inf:
                raise ValueError(f"event delay must be finite and >= 0, got {delay}")
            when = self._now + delay
        else:
            if not self._now <= at < inf:
                raise ValueError(
                    f"event time must be finite and >= now ({self._now}), got {at}"
                )
            when = at
        heappush(self._heap, (when, self._seq, event))
        self._seq += 1

    # -- execution -------------------------------------------------------------

    def step(self) -> None:
        """Process the single next event. Raises IndexError if none remain.

        Called exactly once per processed event, by :meth:`run` and by
        nobody on its behalf: ``benchmarks/perf`` reads ``sim.events`` as
        the profiler's call count of this function, so it must equal
        ``event_count``.  The event's whole life-cycle step — mark it
        processed, run its callbacks, surface an unhandled failure — is
        inlined here: one frame per event.
        """
        when, _, event = heappop(self._heap)
        self._now = when
        self.event_count += 1
        if event._value is _PENDING:
            # Only a process (a sleep, or a wake from a wait list) or an
            # InFlight record is queued untriggered: both resume with None.
            event._resume(None)
            return
        callbacks = event.callbacks
        if callbacks is None:
            raise SimulationError(f"event {event!r} processed twice")
        event.callbacks = None
        for fn in callbacks:
            fn(event)
        if event._ok is False and not event._defused and not callbacks:
            # A failed event nobody was waiting on: surface it rather than
            # silently dropping the error.
            raise event._value

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the heap is empty."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(
        self, until: float | Event | None = None, *, max_events: int | None = None
    ) -> Any:
        """Run until the heap drains, a deadline passes, or an event fires.

        ``until`` may be:

        * ``None`` — run to quiescence;
        * a float — advance the clock to exactly that time, processing every
          event scheduled before it;
        * an :class:`Event` — run until that event is processed and return its
          value (raising if it failed); :class:`DeadlockError` if the heap
          drains first.

        ``max_events`` bounds the number of events processed by *this call*
        — a guard against livelocked programs (e.g. two processes waking
        each other forever); exceeding it raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if max_events is not None:
            check_count("max_events", max_events, 1, SimulationError)
        # The budget is a count to stop at, compared inline and only when
        # one was given; heap and step are looked up once, not per event.
        limit = None if max_events is None else self.event_count + max_events
        heap, step = self._heap, self.step
        self._running = True
        try:
            if until is None:
                while heap:
                    if limit is not None and self.event_count >= limit:
                        raise self._budget_exhausted(max_events)
                    step()
                return None
            if isinstance(until, Event):
                if until.sim is not self:
                    raise SimulationError("'until' event belongs to another simulator")
                while until.callbacks is not None:  # i.e. not yet processed
                    if not heap:
                        raise self._deadlock(until)
                    if limit is not None and self.event_count >= limit:
                        raise self._budget_exhausted(max_events)
                    step()
                if not until._ok:
                    raise until._value
                return until._value
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"cannot run until {deadline} < current time {self._now}"
                )
            while heap and heap[0][0] <= deadline:
                if limit is not None and self.event_count >= limit:
                    raise self._budget_exhausted(max_events)
                step()
            self._now = deadline
            return None
        finally:
            self._running = False

    def _deadlock(self, until: Event) -> DeadlockError:
        parked = "".join(
            f"\n  process {p.name!r} is parked on {p._target!r}" for p in self._live
        )
        return DeadlockError(
            f"deadlock: the event heap is empty at t={self._now:.3e}s "
            f"and {until!r} has not fired; nothing scheduled can "
            f"trigger it{parked or ' (no live process)'}"
        )

    def _budget_exhausted(self, max_events: int) -> SimulationError:
        return SimulationError(
            f"event budget exhausted: processed {max_events} events "
            f"without completing (livelock? t={self._now:.3e}s)"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self._now:.6e}s queued={len(self._heap)}>"
