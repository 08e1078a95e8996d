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
        # per strip.
        return {
            "win": job.window(2 * spec.win_count, dtype=spec.dtype),
            "sig": job.window(spec.nslots, dtype=np.uint64),
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
        _, slot, offset, nelems = self.spec.landing[dst][seg]
        yield from self.ctx.put_signal_nbi(
            self.win,
            dst,
            values=values,
            nelems=nelems,
            offset=(self._it % 2) * self.spec.win_count + offset,
            signal_win=self.sig,
            signal_idx=slot,
            signal_value=self._it + 1,
        )

    def finish(self, it):
        rank = self.ctx.rank
        slots = [site[1] for site in self.spec.landing[rank].values()]
        yield from self.ctx.wait_until_all(self.sig, slots, value=it + 1)
        return self.spec.strips(
            rank, self.win.local(rank), (it % 2) * self.spec.win_count
        )


class _MailboxEndpoint(_FusedEndpoint):
    """``put_signal_nbi`` + ``wait_until_any`` in a loop (GPU)."""

    windows = staticmethod(_mailbox_windows)

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self.data_win = channel.data_win
        self.sig_win = channel.sig_win
        self._remaining: dict = {}

    def expect(self, msgs):
        self._remaining = dict(msgs)

    def recv(self):
        slot = yield from self.ctx.wait_until_any(
            self.sig_win, list(self._remaining), value=1, consume=True
        )
        m = self._remaining.pop(slot)
        return m.meta, _read_slot(self, m.slot, m.words)

    def send_round(self, dst, slot, *, words, parts=1, values=None):
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
        return self._recv_parts(slot, words, parts)

    def _recv_parts(self, slot, words, parts):
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
