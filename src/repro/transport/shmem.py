"""NVSHMEM (GPU-initiated) backend over :class:`repro.comm.shmem.ShmemContext`.

Paper accounting: a notified message is one fused ``put_signal_nbi``; the
receiver blocks in hardware ``wait_until`` waits (cold ``wait_until_all``
wakeups, hot ``wait_until_any`` spins) instead of a software polling loop.
Halo windows are double-buffered by iteration parity — the standard
NVSHMEM stencil idiom, since nothing like a fence separates epochs.
Remote atomics are native shmem AMOs.
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultSemantics
from repro.transport.api import (
    AtomicDomainSpec,
    BackendCaps,
    BatchSpec,
    Channel,
    Endpoint,
    HaloSpec,
    MailboxSpec,
    _AtomicChannel,
    part_bounds,
)
from repro.transport.registry import SHMEM, TransportBackend, register_backend

__all__ = ["ShmemBackend"]


class _HaloChannel(Channel):
    def __init__(self, backend, job, spec: HaloSpec):
        super().__init__(backend, job, spec)
        # Double-buffered halo window (iteration parity), one signal slot
        # per direction.
        self.win = job.window(2 * spec.win_count, dtype=spec.dtype)
        self.sig = job.window(len(spec.slot), dtype=np.uint64)

    def endpoint(self, ctx):
        return _HaloEndpoint(self, ctx)


class _HaloEndpoint(Endpoint):
    """``put_signal_nbi`` x neighbours + ``wait_until_all`` on the signals.

    The halo window is double-buffered by iteration parity: without the
    strict fence of the one-sided variant, a fast neighbour's iteration
    k+1 put must not overwrite halo data this rank has not yet consumed
    for iteration k.
    """

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.win = channel.win
        self.sig = channel.sig
        self._it = 0

    def begin(self, it):
        self._it = it
        return
        yield  # pragma: no cover - no epoch-open op in shmem

    def put(self, seg, dst, values=None):
        seg_dir = self.spec.opposite[seg]
        offset, length = self.spec.segments[dst][seg_dir]
        offset += (self._it % 2) * self.spec.counts[dst]
        yield from self.ctx.put_signal_nbi(
            self.win,
            dst,
            values=values,
            nelems=length,
            offset=offset,
            signal_win=self.sig,
            signal_idx=self.spec.slot[seg_dir],
            signal_value=self._it + 1,
        )

    def finish(self, it):
        expected = [self.spec.slot[d] for d in self.spec.neighbors[self.ctx.rank]]
        yield from self.ctx.wait_until_all(self.sig, expected, value=it + 1)
        parity = it % 2
        received = {}
        for d in self.spec.neighbors[self.ctx.rank]:
            offset, length = self.spec.segments[self.ctx.rank][d]
            start = parity * self.spec.counts[self.ctx.rank] + offset
            received[d] = self.win.local(self.ctx.rank)[start : start + length]
        return received


class _MailboxChannel(Channel):
    def __init__(self, backend, job, spec: MailboxSpec):
        super().__init__(backend, job, spec)
        self.data_win = job.window(max(spec.data_words, 1), dtype=spec.dtype)
        self.sig_win = job.window(max(spec.nslots, 1), dtype=spec.signal_dtype)
        self._round_bulk_ok: bool | None = None

    def paths_exclusive(self, fabric) -> bool:
        """May striped rounds take the bulk path on this job's topology?

        The bulk engine reserves a whole batch's fabric slots at issue
        time; that equals the scalar interleaving only when no *other*
        sender can touch any hop of the path mid-batch.  Sufficient (and
        checkable) condition: every rank has its own endpoint and every
        endpoint pair routes over a single direct hop — then each
        directional link belongs to exactly one sender (the mailbox
        invariant: one message per receiver per round) and nothing
        transits it.  NVLink all-to-all qualifies; fat-trees and the
        Summit dumbbell (shared X-links) do not and stay scalar.
        """
        if self._round_bulk_ok is None:
            eps = self.job.endpoints
            ok = len(set(eps)) == len(eps)
            if ok:
                topo = fabric.topology
                ok = all(
                    len(topo.route(a, b).hops) == 1
                    for a in eps
                    for b in eps
                    if a != b
                )
            self._round_bulk_ok = ok
        return self._round_bulk_ok

    def endpoint(self, ctx):
        return _MailboxEndpoint(self, ctx)


class _MailboxEndpoint(Endpoint):
    """``put_signal_nbi`` + ``wait_until_any`` in a loop (GPU)."""

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.data_win = channel.data_win
        self.sig_win = channel.sig_win
        self._remaining: dict = {}

    def expect(self, msgs):
        self._remaining = dict(msgs)

    def send(self, dst, slot, *, words, values=None, meta=None, tag=0):
        offset = self.spec.offsets[dst][slot]
        yield from self.ctx.put_signal_nbi(
            self.data_win,
            dst,
            values=values,
            nelems=words,
            offset=offset,
            signal_win=self.sig_win,
            signal_idx=slot,
            signal_value=1,
        )

    def recv(self):
        slot = yield from self.ctx.wait_until_any(
            self.sig_win, list(self._remaining), value=1, consume=True
        )
        m = self._remaining.pop(slot)
        if self.spec.read_data:
            off = self.spec.offsets[self.ctx.rank][m.slot]
            data = np.array(
                self.data_win.local(self.ctx.rank)[off : off + m.words], copy=True
            )
        else:
            data = None
        return m.meta, data

    def _bulk_round(self, words, parts):
        from repro import perf

        return (
            parts >= 2
            and words
            and words % parts == 0
            and not self.spec.read_data
            and perf.bulk_enabled(self.ctx.job)
            and self.channel.paths_exclusive(self.ctx.fabric)
        )

    def send_round(self, dst, slot, *, words, parts=1, values=None):
        from repro.perf.engine import rendezvous

        offset = self.spec.offsets[dst][slot]
        if self._bulk_round(words, parts):
            # Signal word before this round lands: the bulk receiver
            # reconstructs per-stripe signal values from this base.
            base = int(self.sig_win.buffers[dst][slot])
            deliver = yield from self.ctx.put_signal_batch(
                self.data_win,
                dst,
                parts,
                nelems=words // parts,
                offset=offset,
                signal_win=self.sig_win,
                signal_idx=slot,
                signal_value=1,
                signal_op="add",
            )
            if deliver is not None:
                rendezvous(self.channel).publish(
                    ("round", self.ctx.rank, dst, slot), np.asarray(deliver), base
                )
            return
        for lo, hi in part_bounds(words, parts):
            stripe = None
            if values is not None and self.spec.read_data:
                # Copy: the sender may overwrite its buffer before the
                # put's delivery applies it at the target.
                stripe = np.asarray(values).ravel()[lo:hi].copy()
            # An empty part still carries its signal (zero-word message)
            # so the receiver's wait target stays ``parts``.
            yield from self.ctx.put_signal_nbi(
                self.data_win,
                dst,
                values=stripe,
                nelems=hi - lo,
                offset=offset + lo,
                signal_win=self.sig_win,
                signal_idx=slot,
                signal_value=1,
                signal_op="add",
            )

    def recv_round(self, src, slot, *, words, parts=1):
        if self._bulk_round(words, parts):
            yield from self._recv_round_bulk(src, slot, parts)
        else:
            yield from self.ctx.wait_until_all(self.sig_win, [slot], value=parts)
        if not self.spec.read_data:
            return None
        off = self.spec.offsets[self.ctx.rank][slot]
        return np.array(
            self.data_win.local(self.ctx.rank)[off : off + words], copy=True
        )

    def _recv_round_bulk(self, src, slot, parts):
        """Exact ``wait_until_all`` timing against the bulk sender's
        published stripe-arrival schedule (mirrors the batch pattern)."""
        from repro.perf.engine import drain_wait_until_all, rendezvous

        ctx = self.ctx
        ctx.counter.syncs += 1
        ctx.counter.operations += 1
        if self.sig_win.buffers[ctx.rank][slot] >= parts:
            return
        t_entry = ctx.sim.now
        rv = rendezvous(self.channel)
        key = ("round", src, ctx.rank, slot)
        rec = rv.poll(key)
        if rec is None:
            yield rv.waiter(key, ctx.sim)
            rec = rv.poll(key)
        arrivals, base = rec
        t_done = drain_wait_until_all(ctx, arrivals, base, parts, t_entry)
        yield ctx.sim.at_time(t_done)

    def drain(self):
        yield from self.ctx.quiet()


class _BatchChannel(Channel):
    def __init__(self, backend, job, spec: BatchSpec):
        super().__init__(backend, job, spec)
        self.data_win = job.window(spec.nelems, dtype=spec.dtype)
        self.sig_win = job.window(spec.nsignals, dtype=np.uint64)

    def endpoint(self, ctx):
        return _BatchEndpoint(self, ctx)


class _BatchEndpoint(Endpoint):
    """``put_signal_nbi`` x n (signal op "add"), receiver ``wait_until_all``."""

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.data_win = channel.data_win
        self.sig_win = channel.sig_win
        self._queued: dict[int, int] = {}

    def post(self, dst):
        from repro import perf

        if perf.bulk_enabled(self.ctx.job):
            # Deferred: nothing runs between the batch pattern's posts and
            # its commit, so one bulk pass at commit() reproduces the
            # scalar issue times exactly.
            self._queued[dst] = self._queued.get(dst, 0) + 1
            return
        yield from self.ctx.put_signal_nbi(
            self.data_win,
            dst,
            nelems=self.spec.nelems,
            signal_win=self.sig_win,
            signal_idx=0,
            signal_value=1,
            signal_op="add",
        )

    def commit(self, dst, it):
        from repro.perf.engine import rendezvous

        n = self._queued.pop(dst, 0)
        if n:
            # Signal word before this batch lands: the bulk receiver
            # reconstructs per-arrival signal values from this base.
            base = int(self.sig_win.buffers[dst][0])
            deliver = yield from self.ctx.put_signal_batch(
                self.data_win,
                dst,
                n,
                nelems=self.spec.nelems,
                signal_win=self.sig_win,
                signal_idx=0,
                signal_value=1,
                signal_op="add",
            )
            if deliver is not None:
                rendezvous(self.channel).publish(
                    (self.ctx.rank, dst, it), np.asarray(deliver), base
                )
        yield from self.ctx.quiet()

    def wait_batch(self, src, it, n):
        from repro import perf

        if perf.bulk_enabled(self.ctx.job):
            yield from self._wait_batch_bulk(src, it, n)
            return
        yield from self.ctx.wait_until_all(self.sig_win, [0], value=(it + 1) * n)

    def _wait_batch_bulk(self, src, it, n):
        """Exact ``wait_until_all`` timing against the bulk sender's
        published arrival schedule (the signals themselves land all at
        once at the batch completion, so the scalar polling loop cannot
        observe them one by one)."""
        from repro.perf.engine import drain_wait_until_all, rendezvous

        ctx = self.ctx
        value = (it + 1) * n
        ctx.counter.syncs += 1
        ctx.counter.operations += 1
        if self.sig_win.buffers[ctx.rank][0] >= value:
            # Satisfied on entry (batch already applied): the scalar loop
            # would return immediately without blocking or wakeup cost.
            return
        t_entry = ctx.sim.now
        rv = rendezvous(self.channel)
        key = (src, ctx.rank, it)
        rec = rv.poll(key)
        if rec is None:
            yield rv.waiter(key, ctx.sim)
            rec = rv.poll(key)
        arrivals, base = rec
        t_done = drain_wait_until_all(ctx, arrivals, base, value, t_entry)
        yield ctx.sim.at_time(t_done)


class _AtomicEndpoint(Endpoint):
    """Remote AMOs.  The CAS/FAA/swap insert sequence reuses the blocking
    window verbs (identical issue/response accounting on GPUs — the
    context supplies the shmem op costs); ``native_cas`` is the fused
    ``shmem_atomic_compare_swap`` used by the Fig. 4 CAS flood.
    """

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.h = {name: win.handle(ctx) for name, win in channel.wins.items()}

    def local(self, space):
        return self.channel.wins[space].local(self.ctx.rank)

    def cas(self, space, dst, offset, compare, value):
        old = yield from self.h[space].cas_blocking(dst, offset, compare, value)
        return old

    def faa(self, space, dst, offset, value):
        old = yield from self.h[space].faa_blocking(dst, offset, value)
        return old

    def swap(self, space, dst, offset, value):
        req = yield from self.h[space].fetch_and_replace(dst, offset, value)
        old = yield from self.ctx.wait(req)
        return old

    def publish(self, space, dst, values, *, offset=0):
        yield from self.h[space].put(dst, values, offset=offset)
        yield from self.h[space].flush_local(dst)

    def native_cas(self, space, dst, offset, compare, value):
        old = yield from self.ctx.atomic_compare_swap(
            self.channel.wins[space], dst, offset, compare, value
        )
        return old

    def cas_stream(self, space, dst, offset, ops):
        from repro import perf
        from repro.perf.atomics import bulk_cas_stream

        win = self.channel.wins[space]
        if perf.bulk_enabled(self.ctx.job) and not win._watchers[dst]:
            # Fused shmem CAS: resume on the response, no wait accounting.
            out = yield from bulk_cas_stream(
                self.ctx, win, dst, offset, list(ops), count_wait=False
            )
            return out
        out = []
        for compare, value in ops:
            old = yield from self.native_cas(space, dst, offset, compare, value)
            out.append(old)
        return out


class ShmemBackend(TransportBackend):
    name = SHMEM
    sided = "shmem"
    caps = BackendCaps(remote_atomics=True, ops_per_message=1, gpu_initiated=True)
    description = "NVSHMEM: fused put_signal_nbi + hardware wait_until"
    # NIC-hardware retry: loss is detected fastest of all runtimes and
    # needs no window re-sync, but an unrecoverable message still only
    # surfaces at quiet/wait time (one-sided completion model).
    fault_semantics = FaultSemantics(mode="surface", detect_scale=0.5)

    @property
    def context_cls(self):
        from repro.comm.shmem import ShmemContext

        return ShmemContext

    def open_halo(self, job, spec: HaloSpec):
        return _HaloChannel(self, job, spec)

    def open_mailbox(self, job, spec: MailboxSpec):
        return _MailboxChannel(self, job, spec)

    def open_batch(self, job, spec: BatchSpec):
        return _BatchChannel(self, job, spec)

    def open_atomics(self, job, spec: AtomicDomainSpec):
        return _AtomicChannel(self, job, spec, _AtomicEndpoint)


register_backend(ShmemBackend())
