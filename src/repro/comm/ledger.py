"""Remote completion, counted once: one origin's outstanding one-sided ops.

``MPI_Win_flush`` / ``flush_all`` and NVSHMEM ``quiet`` are one mechanism —
block until every op an origin has in flight (to one target, or to all)
has completed at its target — so both layers count on a :class:`Ledger`:
a :class:`~repro.comm.window.Window` keeps one per origin rank, a
:class:`~repro.comm.shmem.ShmemContext` one per PE.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.comm.base import CommError
from repro.sim.event import Event
from repro.sim.process import WaitList

__all__ = ["Ledger"]


def _complete(sim, error, waiter, done=None, value=None) -> None:
    """Set an RMA op's completion ``done`` when its last leg lands
    (``error`` None) or is lost.

    ``done`` is a flag more than an event: nearly every reader asks
    ``triggered`` / ``ok`` (``Request.done``, the outstanding counts), so it
    is settled in place unless a process is parked on it.  A put has none:
    one is built only to take the heap trip.  A loss (fault injection) is
    one-sided semantics: the origin does not learn about it at the op — it
    is parked on ``done`` (defused, so it never raises unhandled) and
    surfaces at the flush / quiet / wait that gathers it.  ``waiter`` is the
    blocked drain this completion releases (:meth:`Ledger.landed`): then
    ``done`` does take the heap trip and wakes it from there — the same two
    hops, in the same ``(time, seq)`` places, as the ``AllOf`` over every
    pending op that the counts replace.  The woken rank finds a loss parked.
    """
    if done is None:
        if waiter is None and error is None:
            return
        done = Event(sim)
    if waiter is not None:
        done.add_callback(waiter.wake)
    if error is None:
        done.settle(value)
    else:
        done.fail(error)
        done.defuse()


class Ledger(WaitList):
    """One origin's ops in flight, the losses it has not been told of yet,
    and the one drain (flush / quiet) it may have blocked.

    The ledger is the wait list that drain parks on.  ``busy`` counts ops in
    flight, ``per_target`` splits the count by target, ``lost`` keeps every
    ``(target, error)`` loss (fault injection) for good — it surfaces at
    each later drain that covers its target — and ``draining`` is the target
    a blocked drain waits for (None: all of them; -1: nobody is blocked).
    """

    __slots__ = ("busy", "per_target", "lost", "draining")

    def __init__(self, what: str) -> None:
        super().__init__(what)
        self.busy = 0
        self.per_target: dict[int, int] = {}
        self.lost: list[tuple[int, BaseException]] = []
        self.draining: int | None = -1

    def post(self, target: int) -> None:
        """An op to ``target`` left the origin."""
        self.busy += 1
        per_target = self.per_target
        per_target[target] = per_target.get(target, 0) + 1

    def landed(self, target: int, error: BaseException | None) -> "Ledger | None":
        """An op on ``target`` completed there (``error`` None) or was lost:
        count it, park a loss, and return the blocked drain it releases —
        the last op in flight that drain covers, or a loss it covers."""
        self.busy -= 1
        self.per_target[target] -= 1
        if error is not None:
            self.lost.append((target, error))
        blocked = self.draining  # -1 (nobody) is never a target
        if blocked in (None, target) and (error is not None or not self.pending(blocked)):
            self.draining = -1
            return self
        return None

    def pending(self, target: int | None = None) -> int:
        """Ops in flight to ``target`` (None: to anyone)."""
        return self.busy if target is None else self.per_target.get(target, 0)

    def drain(self, target: int | None = None) -> Generator:
        """Block until nothing is in flight to ``target`` (None: to anyone).

        A lost op stays parked: it surfaces here, at the synchronisation
        point — on entry, or once the loss has woken the blocked drain —
        and at every later one.  One drain at a time: a second while one is
        blocked is a :class:`CommError`.
        """
        for parked in (False, True):  # on entry, then once woken
            for t, exc in self.lost:
                if target is None or t == target:
                    raise exc
            if parked or not self.pending(target):
                return
            if self.draining != -1:
                raise CommError(f"{self.what} is already blocked")
            self.draining = target
            yield self
