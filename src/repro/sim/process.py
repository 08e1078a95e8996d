"""Generator-based simulation processes.

A *process* is a Python generator that yields one of three things: an
:class:`~repro.sim.event.Event` (``value = yield ev`` resumes it with the
event's value once it fires), a ``float`` delay ``d`` (it sleeps ``d``
simulated seconds) or a :class:`WaitList` (it parks until the list's owner
wakes it).  An MPI rank, a GPU thread block, and a NIC injector are all
processes.

A sleep or a wake allocates nothing: the heap entry is the process itself,
pushed where a ``Timeout(sim, d)`` — or the woken event's ``succeed()`` —
would have pushed, so it takes the same place in ``(time, seq)`` order.
Only a wait that somebody else can observe or hang a callback on needs an
event.  A heap entry is therefore a process, an :class:`InFlight` record or
an :class:`~repro.sim.event.Event`.

A :class:`Process` is itself an event: it succeeds with the generator's
return value, so processes can wait on each other (fork/join).
"""

from __future__ import annotations

from collections.abc import Generator
from heapq import heappush
from math import inf
from typing import TYPE_CHECKING, Any

from repro.sim.event import _NO_CALLBACKS, _PENDING, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["InFlight", "Process", "WaitList"]


class InFlight:
    """A heap entry with one consumer, fixed at creation (a message in flight
    and what its arrival does): pushed where its ``Timeout`` would have been
    and popped like a sleeping process (``_value`` is ``_PENDING`` for good),
    it runs ``_resume(None)``, the body of that ``Timeout``'s one callback."""

    __slots__ = ()
    _value = _PENDING


class WaitList(list):
    """Processes parked on one occurrence nobody else observes: ``yield wl``
    parks one; the owner's :meth:`wake` pushes them, in order, at the current
    instant and empties the list.  ``what`` names it in a DeadlockError."""

    __slots__ = ("what",)

    def __init__(self, what: str) -> None:
        self.what = what

    def wake(self, _event: Event | None = None) -> None:
        """Resume the parked processes; an event callback as it stands."""
        for process in self:
            sim = process.sim
            heappush(sim._heap, (sim._now, sim._seq, process))
            sim._seq += 1
        self.clear()

    def __repr__(self) -> str:
        return f"<WaitList: {self.what}>"


class Process(Event):
    """Wrap a generator as a schedulable process.

    The first resumption is a zero sleep, scheduled when the process is
    created.
    """

    __slots__ = ("generator", "name", "_target")

    def __init__(
        self, sim: "Simulator", generator: Generator, name: str | None = None
    ):
        if not isinstance(generator, Generator):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}; "
                "did you forget to call the generator function?"
            )
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | WaitList | None = None
        sim._live[self] = None  # until _retire: what a DeadlockError names
        heappush(sim._heap, (sim._now, sim._seq, self))
        sim._seq += 1

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- internal --------------------------------------------------------------

    def _resume(self, event: Event | None) -> None:
        """One wake-up of the generator, in one frame.

        ``event`` is what the process was parked on (this is its callback),
        or None when ``Simulator.step`` pops the process itself (a sleep or
        a wake).  Advance the generator with the outcome and park the process
        on what it yields next: an event, a wait list, or the heap itself.
        The event's slots are read directly: this runs once per wake-up of
        every rank, and two property calls plus a second frame per wake-up
        were host time spent on no decision.
        """
        generator = self.generator
        try:
            if event is None:
                target = generator.send(None)
            elif event._ok:
                target = generator.send(event._value)
            else:
                event._defused = True
                target = generator.throw(event._value)
            while isinstance(target, float):
                if 0.0 <= target < inf:
                    sim = self.sim
                    heappush(sim._heap, (sim._now + target, sim._seq, self))
                    sim._seq += 1
                    return
                # Raised at the yield, as Timeout's own check is.
                target = generator.throw(
                    ValueError(f"sleep delay must be finite and >= 0, got {target}")
                )
        except StopIteration as stop:
            self._retire()
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self._retire()
            self.fail(exc)
            return
        self._target = target
        if isinstance(target, WaitList):
            target.append(self)
            return
        if not isinstance(target, Event) or target.sim is not self.sim:
            self._bad_yield(target)
            return
        callbacks = target.callbacks
        if callbacks is _NO_CALLBACKS:
            target.callbacks = [self._resume]
        elif callbacks is not None:
            callbacks.append(self._resume)
        else:
            # Already-fired event: resume on the next engine step.
            relay = Event(self.sim)
            relay.add_callback(self._resume)
            if target._ok:
                relay.succeed(target._value)
            else:
                relay.fail(target._value)

    def _retire(self) -> None:
        """The generator is finished: parked on nothing, no longer live."""
        self._target = None
        del self.sim._live[self]

    def _bad_yield(self, target: Any) -> None:
        self._retire()
        if isinstance(target, Event):
            self.fail(SimulationError("process yielded an event from another simulator"))
            return
        self.generator.close()
        self.fail(
            SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield an Event, a WaitList or a float delay"
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
