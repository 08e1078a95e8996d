"""GPU-initiated one-sided communication (NVSHMEM-style).

:class:`ShmemContext` extends the rank context with the device-side verbs
the paper's GPU implementations use:

* ``put_signal_nbi`` — ``nvshmem_double_put_signal_nbi``: one fused
  operation moves the data and then sets a signal word at the target, with
  the library guaranteeing the signal is observable only after the data
  (the *put-with-signal* primitive whose absence from one-sided MPI costs
  CPUs two extra ops per message);
* ``wait_until_all`` / ``wait_until_any`` —
  ``nvshmem_uint64_wait_until_{all,any}``: block on signal words, waking
  ``costs.wait_wakeup`` after the satisfying write lands;
* ``atomic_compare_swap`` — device-initiated remote atomic;
* ``quiet`` — complete all outstanding non-blocking puts from this PE.

Signals live in a dedicated uint64 :class:`~repro.comm.window.Window`.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import perf
from repro.comm.base import CommError
from repro.comm.context import RankContext
from repro.comm.ledger import Ledger, _complete
from repro.comm.window import Window, _cas, _faa
from repro.perf.engine import drain_wait_until_all, issue_times
from repro.sim.event import Event
from repro.sim.process import InFlight, WaitList
from repro.util.validation import check_count

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.job import Job

__all__ = ["ShmemContext", "SIGNAL_SET", "SIGNAL_ADD"]

SIGNAL_SET = "set"
SIGNAL_ADD = "add"


class _PutSignal(InFlight):
    """One ``put_signal_nbi`` in flight; on arrival it applies data and
    signal and counts itself landed in its origin PE's ledger."""

    __slots__ = ("ctx", "data_win", "target", "offset", "values", "signal_win",
                 "signal_idx", "signal_value", "signal_op", "error")

    def __init__(self, ctx, data_win, target, offset, values, signal_win,
                 signal_idx, signal_value, signal_op):
        self.ctx, self.target = ctx, target
        self.data_win, self.offset, self.values = data_win, offset, values
        self.signal_win, self.signal_idx = signal_win, signal_idx
        self.signal_value, self.signal_op = signal_value, signal_op

    def _resume(self, _none: None) -> None:
        if self.error is None:
            # Data first, then the signal becomes observable: one atomic
            # step at the same simulated instant preserves the ordering
            # guarantee (no waiter can observe signal-without-data).
            target, signal_win, idx = self.target, self.signal_win, self.signal_idx
            self.data_win._apply_write(target, self.offset, self.values)
            sig = signal_win.buffers[target]
            if self.signal_op == SIGNAL_SET:
                sig[idx] = self.signal_value
            else:
                sig[idx] += self.signal_value
            signal_win._apply_write(target, idx, None)  # ring watchers
        ctx, error = self.ctx, self.error
        _complete(ctx.sim, error, ctx.ledger.landed(self.target, error))


class ShmemContext(RankContext):
    """A PE (processing element) with device-initiated one-sided verbs."""

    def __init__(self, job: "Job", rank: int):
        super().__init__(job, rank)
        # Remote completion is counted, not collected: quiet drains this.
        self.ledger = Ledger(f"PE {rank}'s quiet")

    # ------------------------------------------------------------------
    # put with signal
    # ------------------------------------------------------------------

    def put_signal_nbi(
        self,
        data_win: Window,
        target: int,
        values: np.ndarray | None = None,
        *,
        offset: int = 0,
        nelems: int | None = None,
        signal_win: Window,
        signal_idx: int,
        signal_value: int = 1,
        signal_op: str = SIGNAL_SET,
    ) -> Generator:
        """Fused non-blocking put + signal (``nvshmem_*_put_signal_nbi``).

        The data lands in ``data_win`` at ``target``; the signal word
        ``signal_win[target][signal_idx]`` is updated *after* the data is
        visible.  Returns nothing: remote completion is ``quiet``, which
        counts it.
        """
        if not 0 <= target < self.size:
            raise CommError(f"put_signal target {target} out of range")
        if signal_op not in (SIGNAL_SET, SIGNAL_ADD):
            raise CommError(f"unknown signal_op {signal_op!r}")
        if values is None and nelems is None:
            raise CommError("put_signal_nbi needs values or nelems")
        if values is not None:
            values = np.asarray(values, dtype=data_win.dtype).ravel()
            nelems = len(values)
        nbytes = nelems * data_win.dtype.itemsize + signal_win.dtype.itemsize
        self.counter.operations += 1
        self.counter.messages += 1
        self.counter.bytes_sent += nbytes
        yield self.costs.put_signal
        record = _PutSignal(self, data_win, target, offset, values, signal_win,
                            signal_idx, signal_value, signal_op)
        self.fabric.send(self.endpoint, self.job.endpoints[target], nbytes, record)
        self.ledger.post(target)
        if self.job.tracer.enabled:
            self.job.tracer.emit(
                self.sim.now,
                "put_signal",
                self.rank,
                target=target,
                nbytes=nbytes,
                signal_idx=signal_idx,
            )

    def put_signal_batch(
        self,
        data_win: Window,
        target: int,
        n: int,
        *,
        nelems: int,
        offset: int = 0,
        signal_win: Window,
        signal_idx: int,
        signal_value: int = 1,
        signal_op: str = SIGNAL_ADD,
    ) -> Generator:
        """``n`` back-to-back pure-timing ``put_signal_nbi`` of one size.

        Bulk path (:func:`repro.perf.bulk_enabled`): counters and
        per-message channel reservations are replayed exactly
        (:mod:`repro.perf.engine`); the data write, the signal update
        (``n`` accumulated adds, or the final set) and the watcher ring are
        applied in one step at the *last* delivery time, tracked as a
        single outstanding put so ``quiet`` drains the whole batch.  A
        scalar ``wait_until_all`` would see those signals land all at once,
        so the arrival schedule is published on the signal window for
        :meth:`wait_signal_batch`, which takes the same verdict on the same
        job.  Otherwise: the scalar loop.
        """
        check_count("put_signal_batch n", n, 1, CommError)
        if not 0 <= target < self.size:
            raise CommError(f"put_signal target {target} out of range")
        if signal_op not in (SIGNAL_SET, SIGNAL_ADD):
            raise CommError(f"unknown signal_op {signal_op!r}")
        if not perf.bulk_verdict(self.job):
            for _ in range(n):
                yield from self.put_signal_nbi(
                    data_win,
                    target,
                    nelems=nelems,
                    offset=offset,
                    signal_win=signal_win,
                    signal_idx=signal_idx,
                    signal_value=signal_value,
                    signal_op=signal_op,
                )
            return
        nbytes = nelems * data_win.dtype.itemsize + signal_win.dtype.itemsize
        # Signal word before this batch lands: the waiter reconstructs the
        # per-arrival signal values from this base.
        base = int(signal_win.buffers[target][signal_idx])
        issue = issue_times(
            self.counter, self.sim.now, self.costs.put_signal, nbytes, n
        )
        deliver = self.fabric.plan(
            self.endpoint, self.job.endpoints[target], nbytes
        ).times(issue)

        def landed(_ev: Event) -> None:
            data_win._apply_write(target, offset, None)
            sig = signal_win.buffers[target]
            if signal_op == SIGNAL_SET:
                sig[signal_idx] = signal_value
            else:
                sig[signal_idx] += signal_value * n
            signal_win._apply_write(target, signal_idx, None)
            _complete(self.sim, None, self.ledger.landed(target, None))

        self.sim.at_time(max(deliver)).add_callback(landed)
        self.ledger.post(target)
        yield self.sim.at_time(issue[-1])
        if signal_op == SIGNAL_SET:  # only the first store can satisfy a wait
            deliver, base = deliver[:1], 0
        signal_win._publish_schedule(
            (target, self.rank, signal_idx), (np.asarray(deliver), base, signal_value)
        )

    def wait_signal_batch(
        self, signal_win: Window, source: int, signal_idx: int, value: int
    ) -> Generator:
        """Receiver half of :meth:`put_signal_batch`: :meth:`wait_until_all`
        on one slot, timed exactly.

        Bulk path: the batch's signals land in one step, so the polling
        loop is replayed against the arrival schedule the sender published
        (FIFO per (target, source, signal index); a waiter that got there
        first parks until the publish).  Otherwise the scalar wait.
        """
        if not perf.bulk_enabled(self.job):
            yield from self.wait_until_all(signal_win, [signal_idx], value=value)
            return
        self.counter.syncs += 1
        self.counter.operations += 1
        key = (self.rank, source, signal_idx)
        rec = signal_win._take_schedule(key)
        if signal_win.buffers[self.rank][signal_idx] >= value:
            # Satisfied on entry — the batch is applied, so its schedule was
            # published and is retired above: like the scalar loop, return
            # without blocking or wakeup cost.
            return
        t_entry = self.sim.now
        if rec is None:
            waiter = signal_win._schedule_waiters[key] = WaitList(f"batch schedule {key}")
            yield waiter
            rec = signal_win._take_schedule(key)
        arrivals, base, signal_value = rec
        t_done = drain_wait_until_all(
            self, arrivals, base, value, t_entry, signal_value=signal_value
        )
        yield self.sim.at_time(t_done)

    # ------------------------------------------------------------------
    # waiting on signals
    # ------------------------------------------------------------------

    def wait_until_all(
        self, signal_win: Window, idxs: Sequence[int], value: int = 1
    ) -> Generator:
        """Block until every ``signal_win[self][i] >= value``.

        An epoch-style cold wait: cheap counter checks per arrival
        (``poll_slot`` per watched slot), one full ``wait_wakeup`` when the
        epoch completes.
        """
        idxs = list(idxs)
        self.counter.syncs += 1
        self.counter.operations += 1
        if not idxs:
            return  # vacuously satisfied (e.g. a rank with no neighbors)
        rank = self.rank
        sig = signal_win.buffers[rank]
        blocked = False
        while True:
            for i in idxs:
                if sig[i] < value:
                    break
            else:
                break
            blocked = True
            yield signal_win.on_write(rank), self.costs.poll_slot * len(idxs)
        if blocked and self.costs.wait_wakeup > 0:
            yield self.costs.wait_wakeup

    def wait_until_any(
        self,
        signal_win: Window,
        idxs: Sequence[int],
        value: int = 1,
        *,
        consume: bool = False,
    ) -> Generator:
        """Block until some ``signal_win[self][i] >= value``; returns that
        index.  With ``consume=True`` the signal is reset to 0 on return
        (the SpTRSV receive-loop idiom).

        Unlike :meth:`wait_until_all` (an epoch-style cold wait, which pays
        the full ``wait_wakeup`` on completion), ``wait_until_any`` is the
        hot-loop receive primitive of persistent-kernel solvers: the warp
        stays resident, but every wake must *scan* the slot array to find
        which signal fired — ``wait_poll + poll_slot * slots`` per pass.
        ``wait_poll`` is architecture-sensitive (uncached global-memory
        scans on V100 vs L2-resident signals on A100), one of the reasons
        SpTRSV stops scaling on Summit GPUs but scales on Perlmutter.
        """
        idxs = list(idxs)
        if not idxs:
            raise CommError("wait_until_any needs at least one index")
        self.counter.syncs += 1
        self.counter.operations += 1
        sig = signal_win.buffers[self.rank]
        recheck = self.costs.wait_poll + self.costs.poll_slot * len(idxs)
        while True:
            hit = [i for i in idxs if sig[i] >= value]
            if hit:
                break
            yield signal_win.on_write(self.rank), recheck
        idx = hit[0]
        if consume:
            signal_win.buffers[self.rank][idx] = 0
        return idx

    # ------------------------------------------------------------------
    # atomics and completion
    # ------------------------------------------------------------------

    def atomic_compare_swap(
        self, win: Window, target: int, offset: int, compare: Any, value: Any
    ) -> Generator:
        """Blocking device-initiated remote CAS; returns the old value."""
        return win.handle(self)._atomic_blocking(
            target, offset, _cas, compare, value, wait=False
        )

    def atomic_fetch_add(
        self, win: Window, target: int, offset: int, value: Any
    ) -> Generator:
        """Blocking device-initiated remote fetch-and-add; returns old value."""
        return win.handle(self)._atomic_blocking(
            target, offset, _faa, None, value, wait=False
        )

    def quiet(self) -> Generator:
        """``nvshmem_quiet``: complete all outstanding puts from this PE."""
        self.counter.syncs += 1
        self.counter.operations += 1
        if self.costs.flush > 0:
            yield self.costs.flush
        # A lost put (fault injection) surfaces here, at the quiet — the
        # NVSHMEM completion point — and at every later one.
        yield from self.ledger.drain()

    def barrier_all(self) -> Generator:
        """``nvshmem_barrier_all``: quiet + barrier."""
        yield from self.quiet()
        yield from self.barrier()
