"""Two-sided MPI backend: tagged ``Isend``/``Irecv``/``Recv`` over
:class:`repro.comm.context.RankContext`.

Paper accounting: 2 ops per message (the send and its matching receive);
synchronisation is carried by the message matching itself — no windows,
no signals.  Remote atomics are not native: the atomic-domain channel
exposes owner-routed triplet messaging instead (``post_msg`` /
``recv_msg_poll``), the hashtable's two-sided design.
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
    _space_windows,
    part_bounds,
)
from repro.transport.registry import TWO_SIDED, TransportBackend, register_backend

__all__ = ["TwoSidedBackend"]


class _MatchedEndpoint(Endpoint):
    """The send and its matching receive per message, one blocking call
    per synchronisation — whatever the pattern."""

    ops = (("isend", "recv_match"), ("sync_enter",))


class _HaloEndpoint(_MatchedEndpoint):
    """Four ``Irecv`` + four ``Isend`` + ``Waitall`` per iteration."""

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self._recvs: list = []
        self._sends: list = []

    def begin(self, it):
        self._recvs = []
        self._sends = []
        for seg, (src, slot, _, _) in self.spec.landing[self.ctx.rank].items():
            r = yield from self.ctx.irecv(source=src, tag=slot)
            self._recvs.append((seg, r))

    def put(self, seg, dst, values=None):
        payload = values.copy() if values is not None else None
        _, tag, _, nelems = self.spec.landing[dst][seg]
        s = yield from self.ctx.isend(
            dst, nbytes=nelems * self.spec.itemsize, tag=tag, payload=payload
        )
        self._sends.append(s)

    def finish(self, it):
        yield from self.ctx.waitall([r for _, r in self._recvs] + self._sends)
        received = {}
        for d, r in self._recvs:
            data, _status = r.value
            received[d] = data
        return received


class _MailboxEndpoint(_MatchedEndpoint):
    """``Isend`` + blocking ``Recv(ANY_SOURCE)``; sends drained at the end."""

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self._send_reqs: list = []

    def expect(self, msgs):
        pass  # matching is carried by the messages themselves

    def send(self, dst, slot, *, words, values=None, meta=None, tag=0):
        r = yield from self.ctx.isend(
            dst,
            nbytes=words * self.spec.itemsize,
            tag=tag,
            payload=(meta, values),
        )
        self._send_reqs.append(r)

    def recv(self):
        (payload, _status) = yield from self.ctx.recv()
        meta, data = payload
        return meta, data

    def send_round(self, dst, slot, *, words, parts=1, values=None):
        # One Isend per part, tagged by the round slot so concurrent
        # in-flight rounds from the same peer can never cross-match.
        for lo, hi in part_bounds(words, parts):
            payload = None
            if values is not None and self.spec.read_data:
                payload = np.asarray(values).ravel()[lo:hi].copy()
            r = yield from self.ctx.isend(
                dst,
                nbytes=(hi - lo) * self.spec.itemsize,
                tag=slot,
                payload=payload,
            )
            self._send_reqs.append(r)

    def recv_round(self, src, slot, *, words, parts=1):
        reqs = []
        for _ in range(parts):
            r = yield from self.ctx.irecv(source=src, tag=slot)
            reqs.append(r)
        values = yield from self.ctx.waitall(reqs)
        if not self.spec.read_data:
            return None
        # Same-(src, tag) messages match posted receives in send order.
        chunks = [p for (p, _status) in values if p is not None]
        if not chunks:
            return np.zeros(0, dtype=self.spec.dtype)
        return np.concatenate([np.asarray(c).ravel() for c in chunks])

    def drain(self):
        if self._send_reqs:
            yield from self.ctx.waitall(self._send_reqs)
            self._send_reqs = []


_BATCH_TAG = 7


class _BatchEndpoint(_MatchedEndpoint):
    """``Isend`` x n + ``Waitall`` / pre-posted ``Irecv`` x n + ``Waitall``."""

    def send_batch(self, dst, it, n):
        reqs = []
        for _ in range(n):
            r = yield from self.ctx.isend(dst, nbytes=self.spec.nbytes, tag=_BATCH_TAG)
            reqs.append(r)
        yield from self.ctx.waitall(reqs)

    def wait_batch(self, src, it, n):
        reqs = []
        for _ in range(n):
            r = yield from self.ctx.irecv(source=src, tag=_BATCH_TAG)
            reqs.append(r)
        yield from self.ctx.waitall(reqs)


class _AtomicEndpoint(_MatchedEndpoint):
    """Symmetric spaces without remote atomics: owners mutate their own
    arrays, writers route triplets to the owner (plus a window-backed CAS
    for the atomic flood, which any MPI runtime can issue)."""

    windows = staticmethod(_space_windows)

    def __init__(self, channel, ctx):
        super().__init__(channel, ctx)
        self._send_reqs: list = []

    def local(self, space):
        return self.channel.wins[space].local(self.ctx.rank)

    def post_msg(self, dst, *, nbytes, payload=None, tag=0):
        req = yield from self.ctx.isend(dst, nbytes=nbytes, tag=tag, payload=payload)
        self._send_reqs.append(req)

    def recv_msg_poll(self, tag=0):
        (payload, _status) = yield from self.ctx.recv_poll(tag=tag)
        return payload

    def drain(self):
        if self._send_reqs:
            yield from self.ctx.waitall(self._send_reqs)
            self._send_reqs = []

    def native_cas(self, space, dst, offset, compare, value):
        h = self.channel.wins[space].handle(self.ctx)
        return h.cas_blocking(dst, offset, compare, value)


class TwoSidedBackend(TransportBackend):
    name = TWO_SIDED
    caps = BackendCaps(remote_atomics=False)
    description = "two-sided MPI: Isend/Irecv/Recv with tag matching"
    # Library-internal recovery off a sender-side ack timer: loss is
    # detected at the base timeout, retransmitted transparently, and only
    # budget exhaustion aborts (MPI communicator-error style).
    fault_semantics = FaultSemantics(mode="abort", detect_scale=1.0)

    endpoints = {
        HaloSpec: _HaloEndpoint,
        MailboxSpec: _MailboxEndpoint,
        BatchSpec: _BatchEndpoint,
        AtomicDomainSpec: _AtomicEndpoint,
    }


register_backend(TwoSidedBackend())
