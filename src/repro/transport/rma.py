"""One-sided MPI RMA backend over :class:`repro.comm.window.Window`.

Paper accounting (Table I): a notified message is the 4-op emulation —
``Put(data)``, ``Win_flush``, ``Put(signal)``, ``Win_flush`` — and the
receiver runs the user-implemented Listing-1 polling loop, paying
``poll_slot`` per still-outstanding slot per scan.  BSP exchanges use
``Put`` bracketed by a pair of ``Win_fence``.  Remote atomics are native
(MPI_Compare_and_swap / MPI_Fetch_and_op).
"""

from __future__ import annotations

import numpy as np

from repro.comm.base import CommError
from repro.faults.plan import FaultSemantics
from repro.transport.api import (
    AtomicDomainSpec,
    BackendCaps,
    BatchSpec,
    Endpoint,
    HaloSpec,
    MailboxSpec,
    _WindowAtomicEndpoint,
    _mailbox_windows,
    _read_slot,
    part_bounds,
)
from repro.transport.registry import ONE_SIDED, TransportBackend, register_backend

__all__ = ["RmaBackend"]

# n puts, then one completion sequence per synchronisation.
_AMORTISED = (("put",), ("flush", "put", "flush"))


class _HaloEndpoint(Endpoint):
    """Puts within a pair of ``Win_fence`` (paper §III-A).  The fence pair
    is charged as the amortised completion (docs/MODEL.md §3)."""

    ops = _AMORTISED

    @staticmethod
    def windows(job, spec: HaloSpec):
        return {"win": job.window(spec.win_count, dtype=spec.dtype)}

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.win = channel.win
        self.h = channel.win.handle(ctx)

    def begin(self, it):
        # Epoch open (paper: "four MPI_Put within a pair of MPI_Win_fence").
        yield from self.h.fence()

    def put(self, seg, dst, values=None):
        _, _, offset, nelems = self.spec.landing[dst][seg]
        if values is not None:
            yield from self.h.put(dst, values, offset=offset)
        else:
            yield from self.h.put(dst, nelems=nelems, offset=offset)

    def finish(self, it):
        yield from self.h.fence()
        return self.spec.strips(self.ctx.rank, self.win.local(self.ctx.rank))


class _MailboxEndpoint(Endpoint):
    """4-op notified send + the Listing-1 polling receiver."""

    ops = (("put", "flush", "put", "flush"), ())
    windows = staticmethod(_mailbox_windows)

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.data_win = channel.data_win
        self.sig_win = channel.sig_win
        self.h_data = channel.data_win.handle(ctx)
        self.h_sig = channel.sig_win.handle(ctx)
        self._one = np.ones(1, dtype=channel.sig_win.dtype)
        self._remaining: dict = {}
        self._hits: list = []

    def expect(self, msgs):
        self._remaining = dict(msgs)
        self._hits = []

    def recv(self):
        ctx = self.ctx
        if not self._hits and not self._remaining:
            # Nothing left to land: the scan below would park on on_write
            # for ever and surface only as a deadlock at the end of the job.
            raise CommError("recv needs at least one expected message")
        # Listing 1: scan the mask of outstanding slots; each pass costs
        # poll_slot per unmasked entry.  Slots that fired together are
        # handed out one recv() at a time without rescanning.
        while not self._hits:
            scan = ctx.costs.poll_slot * len(self._remaining)
            if scan > 0:
                yield scan
            sig = self.sig_win.local(ctx.rank)
            hit = [s for s in self._remaining if sig[s] >= 1]
            if not hit:
                yield self.sig_win.on_write(ctx.rank)
                continue
            self._hits.extend(self._remaining.pop(s) for s in hit)
        m = self._hits.pop(0)
        return m.meta, _read_slot(self, m.slot, m.words)

    def send_round(self, dst, slot, *, words, parts=1, values=None):
        # The scalar put loop, never put_batch: a round has concurrent
        # senders, and a batch's issue-time reservations would reorder them.
        offset = self.spec.offsets[dst][slot]
        for lo, hi in part_bounds(words, parts):
            if hi == lo:
                continue
            if values is not None and self.spec.read_data:
                # Copy: the sender may overwrite its buffer before the
                # put's delivery applies it at the target.
                stripe = np.asarray(values).ravel()[lo:hi].copy()
                yield from self.h_data.put(dst, stripe, offset=offset + lo)
            else:
                yield from self.h_data.put(
                    dst, nelems=hi - lo, offset=offset + lo
                )
        # Amortised completion: one flush covers every stripe, then the
        # 4-op emulation's put/flush signal pair notifies the round.
        yield from self.h_data.flush(dst)
        yield from self.h_sig.put(dst, self._one, offset=slot)
        yield from self.h_sig.flush(dst)

    def recv_round(self, src, slot, *, words, parts=1):
        yield from self.ctx.poll_wait_signals(self.sig_win, [slot], 1)
        return _read_slot(self, slot, words)

    def drain(self):
        return
        yield  # pragma: no cover - makes drain a (no-op) generator


class _BatchEndpoint(Endpoint):
    """``Put`` x n + flush, then the put/flush signal pair; receiver polls
    (4 MPI ops per synchronised message group)."""

    ops = _AMORTISED

    @staticmethod
    def windows(job, spec: BatchSpec):
        return {
            "data_win": job.window(spec.nelems, dtype=spec.dtype),
            "sig_win": job.window(spec.nsignals, dtype=np.int64),
        }

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.sig_win = channel.sig_win
        self.h = channel.data_win.handle(ctx)
        self.h_sig = channel.sig_win.handle(ctx)

    def send_batch(self, dst, it, n):
        yield from self.h.put_batch(dst, n, nelems=self.spec.nelems)
        yield from self.h.flush(dst)
        yield from self.h_sig.put(
            dst, np.array([it + 1], dtype=np.int64), offset=0
        )
        yield from self.h_sig.flush(dst)

    def wait_batch(self, src, it, n):
        yield from self.ctx.poll_wait_signals(self.sig_win, [0], 1, value=it + 1)


class RmaBackend(TransportBackend):
    name = ONE_SIDED
    caps = BackendCaps(remote_atomics=True, fence_epochs=True)
    description = "one-sided MPI RMA: 4-op put/flush/signal + Listing-1 polling"
    # A lost Put has no receiver to notice it: loss is only discovered at
    # the next synchronisation (slow detection), every retry re-syncs the
    # window state (extra round trip), and the error surfaces at
    # flush/wait rather than at the send.
    fault_semantics = FaultSemantics(mode="surface", detect_scale=4.0, resync_penalty=True)

    endpoints = {
        HaloSpec: _HaloEndpoint,
        MailboxSpec: _MailboxEndpoint,
        BatchSpec: _BatchEndpoint,
        AtomicDomainSpec: _WindowAtomicEndpoint,
    }


register_backend(RmaBackend())
