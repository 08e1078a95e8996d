"""Collective algorithm schedules over the round-slotted mailbox verbs.

Every algorithm is a generator taking one argument ``e`` — a
:class:`repro.collectives.core._RoundExec` bound to one rank of one
collective call — and drives it with ``e.send`` / ``e.recv`` /
``e.exchange``.  The schedules are *pure*: they never see a backend, a
context, or a window; the exec helper maps (peer, round) onto the
channel's slot space and does the stats accounting identically for every
backend (the cross-backend parity guarantee).

Invariant every schedule keeps: **at most one logical message per
(receiver, round)** — that is what makes a round a mailbox slot and lets
one-sided signals accumulate per-stripe without ambiguity.

Edge cases are handled here, once, for all backends:

* ``nranks == 1`` — every collective degenerates to a local no-op
  (zero rounds, zero messages);
* non-power-of-two ranks — recursive doubling/halving run the MPICH
  fold: odd front ranks fold into their even neighbour before the
  power-of-two core phase and are folded back out after;
* ``nelems < nranks`` — balanced chunking leaves some chunks empty;
  empty chunks still travel as zero-word round messages (pure
  notification) so the round structure is size-independent.
"""

from __future__ import annotations

import numpy as np

from repro.collectives.plan import _ceil_log2, _pof2
from repro.transport.api import part_bounds

__all__ = ["ALGORITHM_TABLE"]


def _sl(v, lo, hi):
    return None if v is None else v[lo:hi]


def _core_of(me: int, rem: int) -> int:
    """MPICH fold: rank -> core index in the power-of-two group."""
    return me // 2 if me < 2 * rem else me - rem


def _rank_of(core: int, rem: int) -> int:
    """Inverse map: core index -> the even/back rank that runs it."""
    return core * 2 if core < rem else core + rem


def _rank_lo(core: int, rem: int) -> int:
    """First rank whose block core ``core`` initially owns (the fold
    gives core c < rem ranks {2c, 2c+1}, core c >= rem rank {c+rem};
    owned rank sets are contiguous and ordered by core)."""
    return 2 * core if core < rem else core + rem


# ---------------------------------------------------------------------------
# allreduce
# ---------------------------------------------------------------------------


def allreduce_ring(e):
    """Bandwidth-optimal ring: reduce-scatter pass then allgather pass,
    2(P-1) rounds moving ~nelems/P words each (stripe-able)."""
    P, me = e.P, e.rank
    v = e.v
    if P == 1:
        return v
    bounds = part_bounds(e.nelems, P)
    right, left = (me + 1) % P, (me - 1) % P
    for r in range(P - 1):
        slo, shi = bounds[(me - r) % P]
        dlo, dhi = bounds[(me - r - 1) % P]
        got = yield from e.exchange(
            right, left, r, shi - slo, dhi - dlo,
            values=_sl(v, slo, shi), parts=e.stripes,
        )
        if e.execute and dhi > dlo:
            v[dlo:dhi] = e.reduce(v[dlo:dhi], got)
    for r in range(P - 1):
        slo, shi = bounds[(me + 1 - r) % P]
        dlo, dhi = bounds[(me - r) % P]
        got = yield from e.exchange(
            right, left, (P - 1) + r, shi - slo, dhi - dlo,
            values=_sl(v, slo, shi), parts=e.stripes,
        )
        if e.execute and dhi > dlo:
            v[dlo:dhi] = got
    return v


def allreduce_recursive_doubling(e):
    """Latency-optimal recursive doubling with the MPICH non-power-of-two
    fold: ceil(log2 P) full-vector exchanges (+2 fold rounds)."""
    P, me, n = e.P, e.rank, e.nelems
    v = e.v
    if P == 1:
        return v
    pof2, rem = _pof2(P)
    L = pof2.bit_length() - 1
    slot = 0
    in_core = me >= 2 * rem or me % 2 == 0
    if rem:
        if me < 2 * rem:
            if me % 2:
                yield from e.send(me - 1, 0, n, values=v)
            else:
                got = yield from e.recv(me + 1, 0, n)
                if e.execute:
                    v[:] = e.reduce(v, got)
        slot = 1
    if in_core:
        core = _core_of(me, rem)
        for k in range(L):
            peer = _rank_of(core ^ (1 << k), rem)
            got = yield from e.exchange(peer, peer, slot + k, n, n, values=v)
            if e.execute:
                v[:] = e.reduce(v, got)
    slot += L
    if rem and me < 2 * rem:
        if me % 2:
            got = yield from e.recv(me - 1, slot, n)
            if e.execute:
                v[:] = got
        else:
            yield from e.send(me + 1, slot, n, values=v)
    return v


# ---------------------------------------------------------------------------
# allgather
# ---------------------------------------------------------------------------


def allgather_ring(e):
    """P-1 rounds passing blocks around the ring (stripe-able)."""
    P, me, n = e.P, e.rank, e.nelems
    out = None
    if e.execute:
        out = np.zeros(P * n, dtype=e.v.dtype)
        out[me * n : (me + 1) * n] = e.v
    if P == 1:
        return out
    right, left = (me + 1) % P, (me - 1) % P
    for r in range(P - 1):
        si, di = (me - r) % P, (me - r - 1) % P
        got = yield from e.exchange(
            right, left, r, n, n,
            values=_sl(out, si * n, (si + 1) * n), parts=e.stripes,
        )
        if e.execute:
            out[di * n : (di + 1) * n] = got
    return out


def allgather_recursive_doubling(e):
    """Recursive doubling of owned block *sets* (contiguous core ranges),
    with fold-in/fold-out rounds for non-power-of-two P."""
    P, me, n = e.P, e.rank, e.nelems
    out = None
    if e.execute:
        out = np.zeros(P * n, dtype=e.v.dtype)
        out[me * n : (me + 1) * n] = e.v
    if P == 1:
        return out
    pof2, rem = _pof2(P)
    L = pof2.bit_length() - 1
    slot = 0
    in_core = me >= 2 * rem or me % 2 == 0
    if rem:
        if me < 2 * rem:
            if me % 2:
                yield from e.send(me - 1, 0, n, values=e.v)
            else:
                got = yield from e.recv(me + 1, 0, n)
                if e.execute:
                    out[(me + 1) * n : (me + 2) * n] = got
        slot = 1
    if in_core:
        core = _core_of(me, rem)
        for k in range(L):
            g = 1 << k
            a = core & ~(g - 1)  # my XOR group of size g owns cores [a, a+g)
            peer_core = core ^ g
            pa = peer_core & ~(g - 1)
            peer = _rank_of(peer_core, rem)
            s_lo, s_hi = _rank_lo(a, rem), _rank_lo(a + g, rem)
            r_lo, r_hi = _rank_lo(pa, rem), _rank_lo(pa + g, rem)
            got = yield from e.exchange(
                peer, peer, slot + k,
                (s_hi - s_lo) * n, (r_hi - r_lo) * n,
                values=_sl(out, s_lo * n, s_hi * n),
            )
            if e.execute:
                out[r_lo * n : r_hi * n] = got
    slot += L
    if rem and me < 2 * rem:
        if me % 2 == 0:
            yield from e.send(me + 1, slot, P * n, values=out)
        else:
            got = yield from e.recv(me - 1, slot, P * n)
            if e.execute:
                out[:] = got
    return out


# ---------------------------------------------------------------------------
# reduce_scatter
# ---------------------------------------------------------------------------


def reduce_scatter_ring(e):
    """P-1 ring rounds, shifted so the final accumulated chunk is the
    rank's own (stripe-able; empty chunks are zero-word rounds)."""
    P, me = e.P, e.rank
    v = e.v
    bounds = part_bounds(e.nelems, P)
    mlo, mhi = bounds[me]
    if P == 1:
        return None if v is None else v[mlo:mhi].copy()
    right, left = (me + 1) % P, (me - 1) % P
    for r in range(P - 1):
        slo, shi = bounds[(me - r - 1) % P]
        dlo, dhi = bounds[(me - r - 2) % P]
        got = yield from e.exchange(
            right, left, r, shi - slo, dhi - dlo,
            values=_sl(v, slo, shi), parts=e.stripes,
        )
        if e.execute and dhi > dlo:
            v[dlo:dhi] = e.reduce(v[dlo:dhi], got)
    return None if v is None else v[mlo:mhi].copy()


def reduce_scatter_recursive_halving(e):
    """Recursive halving over contiguous chunk ranges with the MPICH
    fold for non-power-of-two P."""
    P, me, n = e.P, e.rank, e.nelems
    v = e.v
    bounds = part_bounds(n, P)
    mlo, mhi = bounds[me]
    if P == 1:
        return None if v is None else v[mlo:mhi].copy()
    pof2, rem = _pof2(P)
    L = pof2.bit_length() - 1

    def elem_lo(core):
        return bounds[_rank_lo(core, rem)][0] if core < pof2 else n

    slot = 0
    in_core = me >= 2 * rem or me % 2 == 0
    if rem:
        if me < 2 * rem:
            if me % 2:
                yield from e.send(me - 1, 0, n, values=v)
            else:
                got = yield from e.recv(me + 1, 0, n)
                if e.execute:
                    v[:] = e.reduce(v, got)
        slot = 1
    if in_core:
        core = _core_of(me, rem)
        for k in range(L):
            g = pof2 >> k  # current group size; halve each round
            h = g >> 1
            a = core & ~(g - 1)
            peer = _rank_of(core ^ h, rem)
            lo0, lo1, lo2 = elem_lo(a), elem_lo(a + h), elem_lo(a + g)
            if core < a + h:  # low half keeps [lo0, lo1), ships the rest
                s_lo, s_hi, r_lo, r_hi = lo1, lo2, lo0, lo1
            else:
                s_lo, s_hi, r_lo, r_hi = lo0, lo1, lo1, lo2
            got = yield from e.exchange(
                peer, peer, slot + k, s_hi - s_lo, r_hi - r_lo,
                values=_sl(v, s_lo, s_hi),
            )
            if e.execute and r_hi > r_lo:
                v[r_lo:r_hi] = e.reduce(v[r_lo:r_hi], got)
    slot += L
    if rem and me < 2 * rem:
        if me % 2 == 0:
            olo, ohi = bounds[me + 1]
            yield from e.send(me + 1, slot, ohi - olo, values=_sl(v, olo, ohi))
        else:
            got = yield from e.recv(me - 1, slot, mhi - mlo)
            if e.execute and mhi > mlo:
                v[mlo:mhi] = got
    return None if v is None else v[mlo:mhi].copy()


# ---------------------------------------------------------------------------
# alltoall
# ---------------------------------------------------------------------------


def alltoall_pairwise(e):
    """XOR-pairwise exchange: P-1 contention-free rounds (power-of-two
    P only; the plan validates)."""
    P, me, n = e.P, e.rank, e.nelems
    v = e.v
    out = None
    if e.execute:
        out = np.zeros(P * n, dtype=v.dtype)
        out[me * n : (me + 1) * n] = v[me * n : (me + 1) * n]
    if P == 1:
        return out
    for r in range(1, P):
        peer = me ^ r
        got = yield from e.exchange(
            peer, peer, r - 1, n, n,
            values=_sl(v, peer * n, (peer + 1) * n),
        )
        if e.execute:
            out[peer * n : (peer + 1) * n] = got
    return out


def alltoall_ring(e):
    """Shifted-ring exchange: round r sends to me+r, receives from me-r
    (any P, stripe-able)."""
    P, me, n = e.P, e.rank, e.nelems
    v = e.v
    out = None
    if e.execute:
        out = np.zeros(P * n, dtype=v.dtype)
        out[me * n : (me + 1) * n] = v[me * n : (me + 1) * n]
    if P == 1:
        return out
    for r in range(1, P):
        dst, src = (me + r) % P, (me - r) % P
        got = yield from e.exchange(
            dst, src, r - 1, n, n,
            values=_sl(v, dst * n, (dst + 1) * n), parts=e.stripes,
        )
        if e.execute:
            out[src * n : (src + 1) * n] = got
    return out


# ---------------------------------------------------------------------------
# broadcast
# ---------------------------------------------------------------------------


def broadcast_tree(e):
    """Binomial tree: ceil(log2 P) rounds, senders double each round."""
    P, me, n, root = e.P, e.rank, e.nelems, e.root
    v = e.v
    if P == 1:
        return v
    rel = (me - root) % P
    for k in range(_ceil_log2(P)):
        if rel < (1 << k):
            dst_rel = rel + (1 << k)
            if dst_rel < P:
                yield from e.send((dst_rel + root) % P, k, n, values=v)
        elif rel < (1 << (k + 1)):
            got = yield from e.recv(((rel - (1 << k)) + root) % P, k, n)
            if e.execute:
                v[:] = got
    return v


def broadcast_ring(e):
    """Store-and-forward chain from the root (stripe-able): the baseline
    the tree is measured against."""
    P, me, n, root = e.P, e.rank, e.nelems, e.root
    v = e.v
    if P == 1:
        return v
    rel = (me - root) % P
    if rel > 0:
        got = yield from e.recv((me - 1) % P, rel - 1, n, parts=e.stripes)
        if e.execute:
            v[:] = got
    if rel < P - 1:
        yield from e.send((me + 1) % P, rel, n, values=v, parts=e.stripes)
    return v


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------


def barrier_dissemination(e):
    """ceil(log2 P) zero-word rounds to exponentially distant peers."""
    P, me = e.P, e.rank
    if P == 1:
        return None
    for k in range(_ceil_log2(P)):
        yield from e.send((me + (1 << k)) % P, k, 0)
        yield from e.recv((me - (1 << k)) % P, k, 0)
    return None


def barrier_tree(e):
    """Binomial gather to rank 0 then binomial release: 2 ceil(log2 P)
    rounds, half the messages of dissemination."""
    P, me = e.P, e.rank
    if P == 1:
        return None
    L = _ceil_log2(P)
    for g in range(L):  # gather, largest sub-tree first
        k = L - 1 - g
        if (1 << k) <= me < (1 << (k + 1)):
            yield from e.send(me - (1 << k), g, 0)
        elif me < (1 << k) and me + (1 << k) < P:
            yield from e.recv(me + (1 << k), g, 0)
    for k in range(L):  # release, mirror of the broadcast tree
        if me < (1 << k):
            if me + (1 << k) < P:
                yield from e.send(me + (1 << k), L + k, 0)
        elif me < (1 << (k + 1)):
            yield from e.recv(me - (1 << k), L + k, 0)
    return None


ALGORITHM_TABLE = {
    ("allreduce", "ring"): allreduce_ring,
    ("allreduce", "recursive_doubling"): allreduce_recursive_doubling,
    ("allgather", "ring"): allgather_ring,
    ("allgather", "recursive_doubling"): allgather_recursive_doubling,
    ("reduce_scatter", "ring"): reduce_scatter_ring,
    ("reduce_scatter", "recursive_halving"): reduce_scatter_recursive_halving,
    ("alltoall", "pairwise"): alltoall_pairwise,
    ("alltoall", "ring"): alltoall_ring,
    ("broadcast", "tree"): broadcast_tree,
    ("broadcast", "ring"): broadcast_ring,
    ("barrier", "dissemination"): barrier_dissemination,
    ("barrier", "tree"): barrier_tree,
}
