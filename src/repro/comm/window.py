"""One-sided MPI: RMA windows, put/get, flush, fence, atomics.

A :class:`Window` exposes one numpy buffer per rank (as ``MPI_Win_allocate``
does).  Verbs are charged with the machine's one-sided
:class:`~repro.machines.base.CommCosts`:

* ``put``/``get`` post non-blocking RMA ops (cost ``costs.put``);
* ``flush(target)`` blocks until every outstanding op to ``target`` is
  complete *at the target*, paying the acknowledgement trip back — this is
  why the paper's 4-op one-sided message (put, flush, put-signal, flush)
  costs ~5 us on Perlmutter CPUs against 3.3 us for two-sided;
* ``fence`` is a full epoch close: complete everything, then barrier;
* atomics (``cas_blocking``, ``faa_blocking``, ``swap_blocking``) are round
  trips applied serially at the target (a per-target atomic unit), which is
  where the hashtable's hot-spot contention comes from.

Writes to a rank's buffer wake that rank's *write watchers* — the hook both
the CPU polling loop (paper Listing 1) and NVSHMEM ``wait_until`` build on.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import perf
from repro.comm.base import CommError, Request
from repro.comm.ledger import Ledger, _complete
from repro.perf.atomics import bulk_cas_stream
from repro.perf.engine import bulk_visible_last, delivery_times, issue_times
from repro.sim.event import Event
from repro.sim.process import InFlight, WaitList
from repro.util.validation import check_count

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.context import RankContext
    from repro.comm.job import Job

__all__ = ["Window", "WindowHandle"]


def _cas(buf, offset, compare, value):
    old = buf.item(offset)
    if old == compare:
        buf[offset] = value
    return old


def _faa(buf, offset, _compare, value):
    old = buf.item(offset)
    buf[offset] = old + value
    return old


def _swap(buf, offset, _compare, value):
    old = buf.item(offset)
    buf[offset] = value
    return old


class _AtomicOp(WaitList, InFlight):
    """One remote atomic in flight: a request leg, a turn at the target's
    atomic unit, a response leg carrying the old value back to the origin.

    The three are pushes of this one record; creating it posts the request,
    and the origin parks on the op itself.
    """

    __slots__ = ("handle", "target", "offset", "apply_fn", "compare", "value",
                 "old", "stage", "error")

    def __init__(self, handle, target, offset, apply_fn, compare, value):
        self.handle, self.target, self.offset = handle, target, offset
        self.apply_fn, self.compare, self.value = apply_fn, compare, value
        self.stage = 0  # 0: request leg, 1: at the atomic unit, 2: response leg
        ctx = handle.ctx
        ctx.fabric.send(
            ctx.endpoint, ctx.job.endpoints[target], 16.0, self, atomic=True
        )
        handle.window.ledgers[handle.rank].post(target)
        if apply_fn is _cas and ctx.job.tracer.enabled:
            ctx.job.tracer.emit(
                ctx.sim.now, "cas", handle.rank, target=target, offset=offset
            )

    def __repr__(self) -> str:
        return f"<WaitList: an atomic at rank {self.target}, offset {self.offset}>"

    def _resume(self, _none: None) -> None:
        handle, target = self.handle, self.target
        win, ctx = handle.window, handle.ctx
        stage = self.stage
        if stage == 0 and self.error is None:
            # Atomics serialise at the target's atomic unit.
            now = ctx.sim._now
            free = win._atomic_next_free[target]
            finish = (free if free > now else now) + ctx.costs.atomic_apply
            win._atomic_next_free[target] = finish
            self.stage = 1
            ctx.sim._schedule(self, finish - now)
        elif stage == 1:
            self.old = self.apply_fn(
                win.buffers[target], self.offset, self.compare, self.value
            )
            win._apply_write(target, self.offset, None)  # ring watchers
            self.stage = 2
            ctx.fabric.send(ctx.job.endpoints[target], ctx.endpoint, 8.0, self)
        else:  # the response landed, or a leg was lost
            flush = win.ledgers[handle.rank].landed(target, self.error)
            if self.error is not None:  # the origin raises it at once
                self[0]._after = 0.0
            self.wake()
            if flush is not None:  # another process of the origin rank
                flush.wake()


class _Put(InFlight):
    """One ``MPI_Put`` in flight: its delivery and, when the target runtime
    has a copy engine, a second push when the copy makes the data visible."""

    __slots__ = ("window", "origin", "target", "offset", "values", "nbytes",
                 "copied", "error")

    def __init__(self, window, origin, target, offset, values, nbytes):
        self.window, self.origin, self.target = window, origin, target
        self.offset, self.values, self.nbytes = offset, values, nbytes
        self.copied = False

    def _resume(self, _none: None) -> None:
        win, target, error = self.window, self.target, self.error
        if error is None:
            if not self.copied:
                delay = win.job.contexts[target].charge_copy(self.nbytes)
                if delay > 0:
                    self.copied = True
                    win.job.sim._schedule(self, delay)
                    return
            win._apply_write(target, self.offset, self.values)
        _complete(win.job.sim, error, win.ledgers[self.origin].landed(target, error))


class _Get(InFlight):
    """One ``MPI_Get`` in flight: the request leg, then the response leg
    carrying the data back (``data`` is set once the request is served)."""

    __slots__ = ("window", "origin", "target", "offset", "nelems", "done",
                 "data", "error")

    def __init__(self, window, origin, target, offset, nelems, done):
        self.window, self.origin, self.target = window, origin, target
        self.offset, self.nelems, self.done = offset, nelems, done
        self.data = None

    def _resume(self, _none: None) -> None:
        win, target, error = self.window, self.target, self.error
        job = win.job
        if error is None and self.data is None:
            lo = self.offset
            self.data = np.array(win.buffers[target][lo : lo + self.nelems], copy=True)
            job.fabric.send(job.endpoints[target], job.endpoints[self.origin],
                            self.nelems * win.dtype.itemsize, self)
            return
        _complete(job.sim, error, win.ledgers[self.origin].landed(target, error),
                  self.done, self.data)


class Window:
    """A symmetric RMA window: ``count`` elements of ``dtype`` on each rank."""

    def __init__(self, job: "Job", count: int, dtype=np.float64, fill: Any = 0):
        check_count("window count", count)
        self.job = job
        self.count = count
        self.dtype = np.dtype(dtype)
        # Zero fill is calloc, not a memset: a page nobody writes (timing-only
        # puts) is never touched.
        self.buffers = [
            np.zeros(count, dtype=self.dtype)
            if fill == 0
            else np.full(count, fill, dtype=self.dtype)
            for _ in range(job.nranks)
        ]
        # Remote completion is counted, not collected: one ledger per origin.
        self.ledgers = [Ledger(f"rank {r}'s flush") for r in range(job.nranks)]
        # Serialisation point for atomics at each target.
        self._atomic_next_free: list[float] = [0.0] * job.nranks
        # Write watchers, per target rank.
        self._watchers = [WaitList(f"a write to rank {r}") for r in range(job.nranks)]
        # Arrival schedules of bulk ``put_signal_batch`` batches not yet
        # waited for, FIFO per (target, source, signal index), and the
        # waiter parked on a key, which the next publish wakes.
        self._schedules: dict[tuple[int, int, int], list] = {}
        self._schedule_waiters: dict[tuple[int, int, int], WaitList] = {}

    # -- local access ---------------------------------------------------------

    def local(self, rank: int) -> np.ndarray:
        """Direct access to ``rank``'s window memory (local loads/stores)."""
        return self.buffers[rank]

    # -- write plumbing ---------------------------------------------------------

    def _apply_write(self, target: int, offset: int, values: np.ndarray | None) -> None:
        if values is not None:
            n = len(values)
            if offset < 0 or offset + n > self.count:
                raise CommError(
                    f"window write [{offset}, {offset + n}) out of bounds "
                    f"(count {self.count})"
                )
            self.buffers[target][offset : offset + n] = values
        watchers = self._watchers[target]
        if watchers:
            watchers.wake()

    def on_write(self, target: int) -> WaitList:
        """Yield it to park until the next remote write lands on ``target``."""
        return self._watchers[target]

    def _publish_schedule(self, key, record) -> None:
        self._schedules.setdefault(key, []).append(record)
        waiter = self._schedule_waiters.pop(key, None)
        if waiter is not None:
            waiter.wake()  # the parked waiter takes it when it resumes

    def _take_schedule(self, key):
        """Consume and return the oldest schedule under ``key``, or None."""
        queue = self._schedules.get(key)
        if not queue:
            return None
        record = queue.pop(0)
        if not queue:
            del self._schedules[key]
        return record

    def handle(self, ctx: "RankContext") -> "WindowHandle":
        """This rank's verb interface to the window."""
        return WindowHandle(self, ctx)


class WindowHandle:
    """Rank-local verbs on a :class:`Window` (origin = ``ctx.rank``)."""

    def __init__(self, window: Window, ctx: "RankContext"):
        self.window = window
        self.ctx = ctx
        self.rank = ctx.rank

    # -- local convenience -------------------------------------------------------

    @property
    def local(self) -> np.ndarray:
        return self.window.local(self.rank)

    # -- data movement ---------------------------------------------------------

    def put(
        self,
        target: int,
        values: np.ndarray | None = None,
        *,
        offset: int = 0,
        nelems: int | None = None,
    ) -> Generator:
        """Non-blocking ``MPI_Put``, returning nothing: a flush/fence completes it.

        Either pass ``values`` (copied into the target at arrival) or, in
        pure-timing mode, just ``nelems``.
        """
        ctx, win = self.ctx, self.window
        if values is None and nelems is None:
            raise CommError("put needs values or nelems")
        if values is not None:
            values = np.asarray(values, dtype=win.dtype)
            if values.ndim != 1:
                values = values.ravel()
            nelems = len(values)
        nbytes = nelems * win.dtype.itemsize
        if not 0 <= target < ctx.size:
            raise CommError(f"put target {target} out of range")
        ctx.counter.operations += 1
        ctx.counter.messages += 1
        ctx.counter.bytes_sent += nbytes
        yield ctx.costs.put
        record = _Put(win, self.rank, target, offset, values, nbytes)
        ctx.fabric.send(ctx.endpoint, ctx.job.endpoints[target], nbytes, record)
        win.ledgers[self.rank].post(target)
        if ctx.job.tracer.enabled:
            ctx.job.tracer.emit(
                ctx.sim.now,
                "put",
                self.rank,
                target=target,
                nbytes=nbytes,
                offset=offset,
            )

    def put_batch(
        self, target: int, n: int, *, nelems: int, offset: int = 0
    ) -> Generator:
        """``n`` back-to-back pure-timing puts of the same size.

        Timing- and state-identical to ``n`` sequential :meth:`put` calls
        with ``nelems`` elements each, which is what runs whenever
        :func:`repro.perf.bulk_enabled` vetoes the job.  Otherwise counters,
        channel reservations and the target's copy-engine serialisation are
        replayed per message by :mod:`repro.perf.engine` and only two events
        touch the heap: the sender's resume and one tracked completion at
        the last write's visibility time, so a later flush/fence drains the
        whole batch as one pending event.
        """
        ctx, win = self.ctx, self.window
        check_count("put_batch n", n, 1, CommError)
        if not 0 <= target < ctx.size:
            raise CommError(f"put target {target} out of range")
        if not perf.bulk_verdict(ctx.job):
            for _ in range(n):
                yield from self.put(target, nelems=nelems, offset=offset)
            return
        nbytes = nelems * win.dtype.itemsize
        issue = issue_times(ctx.counter, ctx.sim.now, ctx.costs.put, nbytes, n)
        deliver = delivery_times(
            ctx.fabric, ctx.endpoint, ctx.job.endpoints[target], nbytes, issue
        )
        last = bulk_visible_last(ctx.job.contexts[target], nbytes, deliver)

        def visible(_ev: Event) -> None:
            win._apply_write(target, offset, None)
            _complete(ctx.sim, None, win.ledgers[self.rank].landed(target, None))

        ctx.sim.at_time(last).add_callback(visible)
        win.ledgers[self.rank].post(target)
        yield ctx.sim.at_time(issue[-1])

    def get(
        self, target: int, *, offset: int = 0, nelems: int = 1
    ) -> Generator:
        """Non-blocking ``MPI_Get``: a request/response round trip.

        The returned request completes with the fetched ndarray once the
        response arrives (local completion via ``flush``/``flush_local``).
        """
        ctx, win = self.ctx, self.window
        ctx.counter.operations += 1
        yield ctx.costs.get
        done = Event(ctx.sim)
        record = _Get(win, self.rank, target, offset, nelems, done)
        ctx.fabric.send(ctx.endpoint, ctx.job.endpoints[target], 8.0, record)
        win.ledgers[self.rank].post(target)
        return Request(done, "get", nelems * win.dtype.itemsize)

    # -- completion ------------------------------------------------------------

    def flush(self, target: int | None = None) -> Generator:
        """``MPI_Win_flush`` (or ``flush_all`` when ``target`` is None):
        wait for remote completion of outstanding ops, including the
        acknowledgement trip back to the origin."""
        ctx, win = self.ctx, self.window
        ctx.counter.operations += 1
        ctx.counter.syncs += 1
        yield ctx.costs.flush
        yield from win.ledgers[self.rank].drain(target)
        # Remote-completion acknowledgement: over RDMA a flush is realised
        # as a zero-byte read after the writes — a full round trip to the
        # (furthest) flushed target.
        if target is not None:
            ack = 2.0 * ctx.job.route_latency(target, self.rank)
        else:
            ack = 2.0 * ctx.job.max_route_latency(self.rank)
        if ack > 0:
            yield ack

    def flush_local(self, target: int | None = None) -> Generator:
        """``MPI_Win_flush_local``: local completion only (buffers reusable;
        fetch results available).  No remote acknowledgement trip."""
        ctx, win = self.ctx, self.window
        ctx.counter.operations += 1
        ctx.counter.syncs += 1
        yield ctx.costs.flush
        yield from win.ledgers[self.rank].drain(target)

    def fence(self) -> Generator:
        """``MPI_Win_fence``: close the epoch — complete all outstanding ops
        from this rank, then synchronise all ranks."""
        ctx, win = self.ctx, self.window
        ctx.counter.operations += 1
        yield ctx.costs.fence
        yield from win.ledgers[self.rank].drain()
        yield from ctx.barrier()

    # -- atomics ------------------------------------------------------------------

    def _atomic_blocking(
        self, target, offset, apply_fn, compare, value, *, wait: bool = True
    ) -> Generator:
        """Blocking atomic, issue to old value in one frame.

        ``wait=True`` is the MPI idiom, the atomic followed by
        :meth:`RankContext.wait` on its request (a synchronisation: counted,
        and ``sync_enter`` paid on wake-up); ``False`` is the fused SHMEM
        AMO, which resumes on the response.  Nothing runs between the post
        and the ``yield``, so the op cannot have completed yet: ``wait``'s
        already-complete branch has no counterpart here.
        """
        ctx = self.ctx
        if not 0 <= offset < self.window.count:
            raise CommError(
                f"atomic offset {offset} out of bounds ({self.window.count})"
            )
        ctx.counter.operations += 1
        ctx.counter.atomics += 1
        yield ctx.costs.fetch_op  # the issue overhead
        op = _AtomicOp(self, target, offset, apply_fn, compare, value)
        wake = 0.0
        if wait:
            ctx.counter.syncs += 1
            ctx.counter.operations += 1
            wake = ctx.costs.sync_enter + ctx.costs.wait_per_req
        yield op, wake
        if op.error is not None:
            raise op.error
        return op.old

    def cas_stream(self, target: int, offset: int, ops, *, wait: bool) -> Generator:
        """Back-to-back blocking CAS ops on one word of a passive target;
        returns the list of old values.

        ``wait=True`` is :meth:`cas_blocking` per ``(compare, value)`` pair
        (CAS + ``ctx.wait``, the MPI idiom); ``False`` is the fused
        ``ShmemContext.atomic_compare_swap`` (resume on the response, no
        wait accounting).  That loop runs unless nobody watches the target
        and :func:`repro.perf.bulk_enabled` allows one pass over the
        stream (:mod:`repro.perf.atomics`).
        """
        ctx, win = self.ctx, self.window
        if not win._watchers[target] and perf.bulk_verdict(ctx.job):
            out = yield from bulk_cas_stream(
                ctx, win, target, offset, list(ops), count_wait=wait
            )
            return out
        out = []
        for compare, value in ops:
            old = yield from self._atomic_blocking(
                target, offset, _cas, compare, value, wait=wait
            )
            out.append(old)
        return out

    def cas_blocking(
        self, target: int, offset: int, compare: Any, value: Any
    ) -> Generator:
        """CAS + ``flush_local``: returns the old value (hashtable idiom)."""
        return self._atomic_blocking(target, offset, _cas, compare, value)

    def faa_blocking(self, target: int, offset: int, value: Any) -> Generator:
        """Fetch-and-add + wait: returns the old value."""
        return self._atomic_blocking(target, offset, _faa, None, value)

    def swap_blocking(self, target: int, offset: int, value: Any) -> Generator:
        """Atomic swap + wait: returns the old value."""
        return self._atomic_blocking(target, offset, _swap, None, value)
