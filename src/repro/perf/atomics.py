"""Bulk evaluation of blocking remote-atomic streams (hashtable/CAS flood).

A blocking remote CAS on the scalar path is 6 heap events (MPI) / 5 (the
fused shmem AMO): the issue sleep, the 16 B request transfer, the
target-side serialisation timeout, the 8 B response transfer, the origin's
wake (the process itself) and, MPI only, the wait's wake-up sleep.  The paper's sender's-control workloads (Fig. 4
CAS flood, the hashtable insert epoch) issue these back-to-back from one
origin to one passive target — a homogeneous stream this module replays
as a single tight loop over the identical float recurrence.

Replicated per op (see ``WindowHandle._atomic_blocking``):

1. ``operations += 1; atomics += 1``; origin clock ``t += fetch_op``;
2. 16 B request transfer at ``t`` (``atomic=True`` spacing) -> heap time
   ``h_req``;
3. target atomic unit: ``start = max(h_req, atomic_next_free)``;
   ``finish = start + atomic_apply``; the apply runs at
   ``h_req + (finish - h_req)`` (the scalar path's relative timeout);
4. the CAS/FAA applies against the *real* window buffer — values matter
   (a CAS stream's outcome depends on what previous ops wrote);
5. 8 B response transfer at the apply time -> heap time ``h_resp``;
6. blocking completion: MPI-style (``ctx.wait``) charges
   ``syncs += 1; operations += 1`` and wakes ``sync_enter + wait_per_req``
   after ``h_resp``; shmem-style (``atomic_compare_swap``) resumes at
   ``h_resp`` with no further cost.

Contract (beyond :func:`repro.perf.bulk_enabled`): the target rank is
passive for the duration of the stream — no write watchers on the window
(checked at entry) and no competing traffic on the route (by construction
of the single-writer call sites).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.comm.base import CommError

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.context import RankContext
    from repro.comm.window import Window

__all__ = ["bulk_cas_stream"]


def bulk_cas_stream(
    ctx: "RankContext",
    win: "Window",
    target: int,
    offset: int,
    ops: list[tuple[Any, Any]],
    *,
    count_wait: bool,
) -> Generator:
    """Run a stream of blocking CAS ops; returns the list of old values.

    ``count_wait=True`` replicates ``cas_blocking`` (CAS + ``ctx.wait``,
    the one-sided MPI idiom); ``False`` replicates the fused shmem
    ``atomic_compare_swap`` (resume on the response, no wait accounting).
    """
    if not 0 <= offset < win.count:
        raise CommError(f"atomic offset {offset} out of bounds ({win.count})")
    if win._watchers[target]:
        raise CommError(
            "bulk_cas_stream requires a passive target (no write watchers)"
        )
    sim = ctx.sim
    costs = ctx.costs
    fetch_op = costs.fetch_op
    atomic_apply = costs.atomic_apply
    wake = costs.sync_enter + costs.wait_per_req
    c = ctx.counter
    origin_ep, target_ep = ctx.endpoint, ctx.job.endpoints[target]
    send = ctx.fabric.send
    anf = win._atomic_next_free[target]
    buf = win.buffers[target]
    t = sim.now
    old_values = []
    for compare, value in ops:
        c.operations += 1
        c.atomics += 1
        t = t + fetch_op
        # Both legs are record-less sends, timed as engine.delivery_times does.
        a = send(origin_ep, target_ep, 16.0, None, earliest=t, atomic=True)[1]
        h_req = t + (a - t)
        start = anf if anf > h_req else h_req  # max(now, atomic_next_free)
        finish = start + atomic_apply
        anf = finish
        u = h_req + (finish - h_req)
        old = buf.item(offset)
        if old == compare:
            buf[offset] = value
        old_values.append(old)
        a = send(target_ep, origin_ep, 8.0, None, earliest=u)[1]
        h_resp = u + (a - u)
        if count_wait:
            c.syncs += 1
            c.operations += 1
            t = h_resp + wake if wake > 0 else h_resp
        else:
            t = h_resp
    win._atomic_next_free[target] = anf
    yield sim.at_time(t)
    return old_values
