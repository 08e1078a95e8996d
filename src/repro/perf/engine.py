"""Exact bulk evaluation of homogeneous message batches.

The scalar path walks every message through the event heap: a ``put`` is a
timeout, a fabric delivery event, a land callback, a copy-visibility
timeout and a completion event — five heap operations and several Python
frames per message.  For the paper's hot loops (flood rounds, hashtable
epochs: up to 1e6 messages per synchronisation, all the same size on the
same route) that dispatch overhead *is* the simulator's runtime.

This module evaluates such a batch in one pass: a tight loop that performs
**the identical sequence of float operations** the scalar event chain
would have performed — channel reservations, copy-engine serialisation,
counter increments — but without touching the heap.  Only the batch's
boundary events (sender resume, batch completion, receiver wake) are
materialised, via :meth:`Simulator.at_time`, at the exact times the
scalar chain would have produced.

Why a Python loop and not a closed-form numpy kernel?  Exactness.  The
acceptance bar is *byte-identical* results, and IEEE-754 addition does not
associate: ``base + n * step`` differs from ``n`` repeated ``+= step`` by
ulps that compound over a million messages, and ``now + (T - now)`` (how
the scalar heap lands an event at ``T``) is itself not ``T``.  So the
engine replays the scalar arithmetic verbatim — per-message state updates
in issue order — and numpy serves as storage and binary search
(:func:`numpy.searchsorted` over arrival schedules), not as the
arithmetic engine.  What is eliminated is the per-message *event machinery*
(heap pushes/pops, Event/Request allocation, generator suspensions), which
is where the time went.

Exactness contract (enforced by :func:`repro.perf.bulk_enabled`, asked by
the batch verbs of :mod:`repro.comm` — ``put_batch``, ``put_signal_batch``
/ ``wait_signal_batch``, ``cas_stream`` — plus the construction of their
call sites):

* the fabric is replayable (:attr:`repro.net.fabric.Fabric.replayable`):
  no fault injection (loss/jitter draws are per-message), no congestion
  control (each transfer's ECN verdict throttles the next injection) and
  routing ``None``/minimal (an adaptive or failover policy decides per
  transfer);
* tracer disabled (per-message records cannot be batched);
* the batch is homogeneous: one (src, dst) route, one size, one verb.

Under that contract the bulk path is not an approximation — every float
written into port state, every counter, every metrics observation is the
one the scalar path would have written.  The per-message hop walk itself
is not here: every message of a batch reserves through
:meth:`repro.net.fabric.Fabric.send` with no record (:func:`delivery_times`),
the only code that writes port state, and the hand-off of a signalled
batch's arrival schedule to its waiter lives beside the two verbs that
share it (:mod:`repro.comm.shmem`); this module holds the float recurrences
around them (issue clocks, copy engines, signal waits).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.context import RankContext
    from repro.net.fabric import Fabric

__all__ = ["issue_times", "delivery_times", "bulk_visible_last", "drain_wait_until_all"]


def issue_times(counter, now: float, cost: float, nbytes: float, n: int) -> list[float]:
    """Issue clock of ``n`` back-to-back non-blocking sends from one rank.

    Replays the scalar loop's per-message ``operations`` / ``messages`` /
    ``bytes_sent`` increments and its ``t + cost`` timeout chain — repeated
    additions, never ``n * cost`` (see the module docstring).  The last
    entry is the time the sender resumes.
    """
    counter.operations += n
    counter.messages += n
    bs = counter.bytes_sent
    t = now
    issue = [0.0] * n
    for k in range(n):
        bs += nbytes
        t = t + cost
        issue[k] = t
    counter.bytes_sent = bs
    return issue


def delivery_times(
    fabric: "Fabric", src: str, dst: str, nbytes: float, issue: list[float]
) -> list[float]:
    """Delivery heap times of a batch, in issue order.

    Each message is a record-less :meth:`~repro.net.fabric.Fabric.send`
    injected at its issue time ``t``.  The scalar path pushes its record
    ``arrival - t`` after ``t``, and ``t + (arrival - t)`` can differ from
    ``arrival`` by one ulp; everything downstream of a delivery (copy
    engines, signal waits) keys off that heap time, so that is what is
    returned.
    """
    send = fabric.send
    out = [0.0] * len(issue)
    for k, t in enumerate(issue):
        arrival = send(src, dst, nbytes, None, earliest=t)[1]
        out[k] = t + (arrival - t)
    return out


def bulk_visible_last(target_ctx: "RankContext", nbytes: float, deliver: list[float]) -> float:
    """Visibility time of the *last* write in a batch of RMA puts.

    Replicates, per message, ``RankContext.charge_copy`` at the delivery
    heap time followed by the scalar land callback's ``if delay > 0``
    visibility timeout.  Mutates the target's ``_copy_next_free`` exactly
    as the scalar sequence of land callbacks would have.
    """
    copy = nbytes * target_ctx.costs.copy_per_byte
    if copy <= 0:
        last = deliver[0]
        for v in deliver:
            if v > last:
                last = v
        return last
    cnf = target_ctx._copy_next_free
    last = deliver[0]
    for h in deliver:
        start = h if h > cnf else cnf  # max(now, _copy_next_free)
        finish = start + copy
        cnf = finish
        delay = finish - h
        v = h + delay if delay > 0 else h
        if v > last:
            last = v
    target_ctx._copy_next_free = cnf
    return last


def drain_wait_until_all(
    ctx: "RankContext",
    arrivals: np.ndarray,
    base: int,
    value: int,
    t_entry: float,
    *,
    signal_value: int = 1,
) -> float:
    """Completion time of ``ShmemContext.wait_until_all`` on one signal slot.

    Mini-simulates the scalar polling loop against a known arrival
    schedule: the signal word starts at ``base`` and gains ``signal_value``
    at each time in ``arrivals`` (sorted, the batch's delivery heap times).
    The scalar loop checks first (free), then per round wakes at the next
    write *strictly after* its clock, pays ``poll_slot`` per watched slot
    (one here), and re-checks counting every arrival at-or-before the new
    clock; a loop that ever blocked pays ``wait_wakeup`` once at the end.
    All additions replicate the scalar ``timeout`` chain (and its
    ``recheck > 0`` / ``wait_wakeup > 0`` guards) in order.
    """
    poll = ctx.costs.poll_slot  # recheck cost: poll_slot * len(idxs), one idx
    arr = arrivals.tolist()  # Python floats: identical doubles, cheap compares
    n = len(arr)
    t = t_entry
    # i = number of arrivals at-or-before the clock (searchsorted "right");
    # it is also the index of the next write strictly after the clock, so
    # one pointer serves both the signal count and the wake target, and
    # the post-wake recount is a short linear advance (the clock moved to
    # arr[i] + poll, at most a few slots ahead).
    i = int(np.searchsorted(arrivals, t, side="right"))
    blocked = False
    while base + i * signal_value < value:
        blocked = True
        if i >= n:
            raise AssertionError(
                "bulk wait_until_all: arrival schedule exhausted before the "
                "signal target was reached (sender/receiver batch mismatch?)"
            )
        t = arr[i]
        if poll > 0:
            t = t + poll
        i += 1
        while i < n and arr[i] <= t:
            i += 1
    if blocked and ctx.costs.wait_wakeup > 0:
        t = t + ctx.costs.wait_wakeup
    return t
