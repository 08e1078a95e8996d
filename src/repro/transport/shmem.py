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
    Endpoint,
    HaloSpec,
    MailboxSpec,
    _WindowAtomicEndpoint,
    _mailbox_windows,
    _read_slot,
    part_bounds,
)
from repro.transport.registry import SHMEM, TransportBackend, register_backend

__all__ = ["ShmemBackend"]


class _FusedEndpoint(Endpoint):
    """One fused put-with-signal per message, one wait wake-up per
    synchronisation."""

    ops = (("put_signal",), ("wait_wakeup",))


class _HaloEndpoint(_FusedEndpoint):
    """``put_signal_nbi`` x neighbours + ``wait_until_all`` on the signals.

    The halo window is double-buffered by iteration parity: without the
    strict fence of the one-sided variant, a fast neighbour's iteration
    k+1 put must not overwrite halo data this rank has not yet consumed
    for iteration k.
    """

    @staticmethod
    def windows(job, spec: HaloSpec):
        # Double-buffered halo window (iteration parity), one signal slot
        # per direction.
        return {
            "win": job.window(2 * spec.win_count, dtype=spec.dtype),
            "sig": job.window(len(spec.slot), dtype=np.uint64),
        }

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


class _MailboxEndpoint(_FusedEndpoint):
    """``put_signal_nbi`` + ``wait_until_any`` in a loop (GPU)."""

    windows = staticmethod(_mailbox_windows)

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.data_win = channel.data_win
        self.sig_win = channel.sig_win
        self._remaining: dict = {}
        self._metrics = ctx.job.metrics  # None outside an obs session

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
        return m.meta, _read_slot(self, m.slot, m.words)

    def _scalar_reason(self, words, parts):
        """Why this round is not one homogeneous batch, or None when it is:
        a batch needs equal non-empty stripes, pure timing, and a topology
        where paths are exclusive.  Both sides evaluate it on the same
        arguments, so a batched sender always meets a batch waiter."""
        if parts < 2:
            return "one_part"
        if not words:
            return "empty"
        if words % parts:
            return "uneven"
        if self.spec.read_data:
            return "read_data"
        if not self.ctx.job.paths_exclusive:
            return "shared_paths"
        return None

    def send_round(self, dst, slot, *, words, parts=1, values=None):
        metrics = self._metrics
        if metrics is not None:
            why = self._scalar_reason(words, parts)
            metrics.counter(
                "transport.round.batched"
                if why is None
                else f"transport.round.scalar.{why}"
            ).inc()
        if parts == 1 and not self.spec.read_data:
            # The round message is one put_signal_nbi: hand the caller its
            # generator, with no frame of ours to pass through per resume.
            return self.ctx.put_signal_nbi(
                self.data_win,
                dst,
                nelems=words,
                offset=self.spec.offsets[dst][slot],
                signal_win=self.sig_win,
                signal_idx=slot,
                signal_value=1,
                signal_op="add",
            )
        return self._send_parts(dst, slot, words, parts, values)

    def _send_parts(self, dst, slot, words, parts, values):
        offset = self.spec.offsets[dst][slot]
        if self._scalar_reason(words, parts) is None:
            yield from self.ctx.put_signal_batch(
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
        if parts == 1 and not self.spec.read_data:
            # Nothing to read back (_read_slot would be None): the wait's
            # own generator, as for send_round.
            return self.ctx.wait_until_all(self.sig_win, [slot], value=1)
        return self._recv_parts(src, slot, words, parts)

    def _recv_parts(self, src, slot, words, parts):
        if self._scalar_reason(words, parts) is None:
            yield from self.ctx.wait_signal_batch(self.sig_win, src, slot, parts)
        else:
            yield from self.ctx.wait_until_all(self.sig_win, [slot], value=parts)
        return _read_slot(self, slot, words)

    def drain(self):
        yield from self.ctx.quiet()


class _BatchEndpoint(_FusedEndpoint):
    """``put_signal_nbi`` x n (signal op "add") + ``quiet``; the receiver's
    ``wait_until_all`` on the summed signal is ``wait_signal_batch``."""

    @staticmethod
    def windows(job, spec: BatchSpec):
        return {
            "data_win": job.window(spec.nelems, dtype=spec.dtype),
            "sig_win": job.window(spec.nsignals, dtype=np.uint64),
        }

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.data_win = channel.data_win
        self.sig_win = channel.sig_win

    def send_batch(self, dst, it, n):
        yield from self.ctx.put_signal_batch(
            self.data_win,
            dst,
            n,
            nelems=self.spec.nelems,
            signal_win=self.sig_win,
            signal_idx=0,
            signal_value=1,
            signal_op="add",
        )
        yield from self.ctx.quiet()

    def wait_batch(self, src, it, n):
        yield from self.ctx.wait_signal_batch(self.sig_win, src, 0, (it + 1) * n)


class _AtomicEndpoint(_WindowAtomicEndpoint):
    """Remote AMOs: ``native_cas`` is the fused
    ``shmem_atomic_compare_swap`` used by the Fig. 4 CAS flood, which
    resumes on the response: no wait, so no per-sync op."""

    ops = (("fetch_op",), ())
    cas_waits = False


class ShmemBackend(TransportBackend):
    name = SHMEM
    caps = BackendCaps(remote_atomics=True, gpu_initiated=True)
    description = "NVSHMEM: fused put_signal_nbi + hardware wait_until"
    # NIC-hardware retry: loss is detected fastest of all runtimes and
    # needs no window re-sync, but an unrecoverable message still only
    # surfaces at quiet/wait time (one-sided completion model).
    fault_semantics = FaultSemantics(mode="surface", detect_scale=0.5)

    @property
    def context_cls(self):
        from repro.comm.shmem import ShmemContext

        return ShmemContext

    endpoints = {
        HaloSpec: _HaloEndpoint,
        MailboxSpec: _MailboxEndpoint,
        BatchSpec: _BatchEndpoint,
        AtomicDomainSpec: _AtomicEndpoint,
    }


register_backend(ShmemBackend())
