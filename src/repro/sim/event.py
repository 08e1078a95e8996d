"""Events: the unit of coordination in the discrete-event engine.

The design follows the classic process-interaction style (as in SimPy, but
self-contained): an :class:`Event` starts *untriggered*; calling
:meth:`Event.succeed` or :meth:`Event.fail` schedules it for processing, at
which point the engine invokes its callbacks.  Processes (see
``repro.sim.process``) suspend on events by ``yield``-ing them; a process
that only sleeps yields the delay and needs no event at all.

The composite event :class:`AllOf` lets a process wait for a set of
messages — the building block for ``MPI_Waitall`` in the communication
layers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from heapq import heappush
from math import inf
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.engine import Simulator

__all__ = ["Event", "Timeout", "AllOf", "SimulationError", "DeadlockError"]


class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (double-trigger, etc.)."""


class DeadlockError(SimulationError):
    """``run(until=event)`` found the heap empty with the event unfired:
    nothing scheduled can ever trigger it."""


_PENDING = object()  # sentinel: event value not yet set
# Shared by every event nobody has registered on yet: most deliveries are
# never waited on individually, so the list is made by the first
# add_callback instead of one per event.  Immutable on purpose.
_NO_CALLBACKS: tuple = ()


class Event:
    """A one-shot occurrence at a point in simulated time.

    State machine: *untriggered* -> (*succeed* | *fail*) -> *processed*.
    Callbacks registered before processing run exactly once, in registration
    order, when the engine pops the event off its queue.  Callbacks added
    after processing raise: by then the moment has passed.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | tuple | None = _NO_CALLBACKS
        self._value: Any = _PENDING
        self._ok: bool | None = None
        self._defused = False

    # -- state inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeed/fail has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered; 'ok' is undefined")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception. Only valid once triggered."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered; value is undefined")
        return self._value

    # -- triggering ---------------------------------------------------------

    def succeed(self, value: Any = None, *, delay: float = 0.0) -> "Event":
        """Mark the event successful; callbacks run after ``delay`` sim-time."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self.sim._schedule(self, delay)  # first: a bad delay leaves it pending
        self._ok = True
        self._value = value
        return self

    def fail(self, exc: BaseException, *, delay: float = 0.0) -> "Event":
        """Mark the event failed; the exception propagates into waiters."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError(f"fail() requires an exception, got {exc!r}")
        self.sim._schedule(self, delay)
        self._ok = False
        self._value = exc
        return self

    def defuse(self) -> None:
        """Suppress the 'unhandled failed event' check for this event."""
        self._defused = True

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event is processed."""
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError("cannot add callback to a processed event")
        if callbacks is _NO_CALLBACKS:
            self.callbacks = [fn]
        else:
            callbacks.append(fn)

    def settle(self, value: Any = None) -> None:
        """Succeed *now*: a completion flag rather than an occurrence.

        With a waiter registered this is :meth:`succeed` — the waiter is
        resumed from the heap, in ``(time, seq)`` order.  With none, a heap
        entry would be popped to run no callback, so the event is marked
        processed in place and never queued.  Use it only for completions
        read through ``triggered`` / ``ok`` (an RMA op's remote completion):
        a process that yields the event afterwards is relayed, as for any
        processed event.
        """
        if self.callbacks:
            self.succeed(value)
            return
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.callbacks = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds automatically after ``delay`` simulated seconds.

    For occurrences that carry callbacks or that several parties wait on;
    a process that only sleeps yields the delay instead
    (:class:`~repro.sim.process.Process`), and a message in flight is an
    :class:`~repro.sim.process.InFlight` record.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not 0 <= delay < inf:
            raise ValueError(f"timeout delay must be finite and >= 0, got {delay}")
        # Born triggered: Event.__init__ + succeed(value, delay=) in one call.
        self.sim = sim
        self.callbacks = _NO_CALLBACKS
        self._value = value
        self._ok = True
        self._defused = False
        heappush(sim._heap, (sim._now + delay, sim._seq, self))
        sim._seq += 1


class AllOf(Event):
    """Succeeds when *all* child events have succeeded (``MPI_Waitall``);
    fails with the first child that fails."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        if not self.events:
            # Vacuously satisfied.
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_child(ev)
            else:
                ev.add_callback(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _on_child(self, ev: Event) -> None:
        if self.triggered:
            return
        if not ev.ok:
            ev.defuse()
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())
