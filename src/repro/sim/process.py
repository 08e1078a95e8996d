"""Generator-based simulation processes.

A *process* is a Python generator that yields :class:`~repro.sim.event.Event`
objects; the process suspends until the yielded event fires and resumes with
the event's value (``value = yield ev``).  An MPI rank, a GPU thread block,
and a NIC injector are all processes.

A :class:`Process` is itself an event: it succeeds with the generator's
return value, so processes can wait on each other (fork/join).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.sim.event import Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

__all__ = ["Process", "Interrupt"]


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Wrap a generator as a schedulable process.

    The first resumption is scheduled immediately (at the current simulated
    time) when the process is created.
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
        self._target: Event | None = None
        bootstrap = Event(sim)
        bootstrap.add_callback(self._resume)
        bootstrap.succeed()
        self._target = bootstrap

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The target event the process was waiting on is abandoned (its
        callback is disarmed); the process decides how to recover.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        exc = Interrupt(cause)
        target = self._target
        if target is not None and target.callbacks:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
        trigger = Event(self.sim)
        trigger.add_callback(lambda ev: self._step(exc, throw=True))
        trigger.succeed()

    # -- internal --------------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if event.ok:
            self._step(event.value, throw=False)
        else:
            event.defuse()
            self._step(event.value, throw=True)

    def _step(self, value: Any, *, throw: bool) -> None:
        try:
            if throw:
                target = self.generator.throw(value)
            else:
                target = self.generator.send(value)
        except StopIteration as stop:
            self._target = None
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # Uncaught interrupt terminates the process as a failure.
            self._target = None
            self.fail(exc)
            return
        except BaseException as exc:
            self._target = None
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self.generator.close()
            self._target = None
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must "
                    "yield Event instances"
                )
            )
            return
        if target.sim is not self.sim:
            self._target = None
            self.fail(SimulationError("process yielded an event from another simulator"))
            return
        self._target = target
        if target.processed:
            # Already-fired event: resume on the next engine step.
            relay = Event(self.sim)
            relay.add_callback(self._resume)
            if target.ok:
                relay.succeed(target.value)
            else:
                relay.fail(target.value)
        else:
            target.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name!r} {state}>"
