"""Collective execution core: one mailbox channel, many collective calls.

:class:`CollectiveComm` lays a sequence of :class:`CollectivePlan` ops out
over a single round-slotted :class:`~repro.transport.api.MailboxSpec`
channel — each op gets a contiguous block of signal slots (one per round),
so slots are *never reused* and one-sided signals need no reset.  Because
the channel is ordinary transport, every algorithm runs unchanged on all
registered backends.

Two modes, chosen at construction:

* **simulate** (default) — data slots collapse to a single word (puts
  carry ``nelems`` only, no payload); pure timing/accounting, any size.
* **execute** (``execute=True``) — each slot gets a real data region and
  payloads move; algorithms produce numerically correct results (the
  value-parity tests), so sizes should stay small.

:class:`CollectiveStats` is the backend-independent accounting: the exec
helper counts each schedule message (and its stripes) exactly once on the
sender side, so two runs of the same plan on different backends report
identical messages/bytes — the cross-backend parity invariant.  (Raw
context counters still differ per backend: a shmem signal rides the data
put, the 4-op emulation pays separate ops — that is the paper's point.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.collectives.plan import CollectiveError, CollectivePlan
from repro.transport.api import MailboxSpec

__all__ = ["REDUCE_OPS", "CollectiveStats", "CollectiveComm", "CollectiveEndpoint"]

REDUCE_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


@dataclass
class CollectiveStats:
    """Backend-independent schedule accounting (see module docstring)."""

    ops: int = 0
    rounds: int = 0
    messages: int = 0
    bytes_moved: float = 0.0

    def as_dict(self) -> dict:
        return {
            "ops": self.ops,
            "rounds": self.rounds,
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
        }


class CollectiveComm:
    """Channel resources for a planned sequence of collective calls.

    Build it *before* ``job.run`` (channel allocation happens outside the
    simulation); each rank program then calls :meth:`endpoint` and runs
    the ops in plan order (SPMD — every rank must make the same calls).
    """

    def __init__(self, job, plans, *, execute: bool = False):
        if isinstance(plans, CollectivePlan):
            plans = [plans]
        self.plans: list[CollectivePlan] = list(plans)
        if not self.plans:
            raise CollectiveError("CollectiveComm needs at least one plan")
        for p in self.plans:
            if p.nranks != job.nranks:
                raise CollectiveError(
                    f"plan nranks={p.nranks} != job nranks={job.nranks}"
                )
        self.job = job
        self.execute = execute
        self.stats = CollectiveStats()
        self.bases: list[int] = []
        nslots = 0
        slot_offsets: list[int] = []
        data_off = 0
        for p in self.plans:
            self.bases.append(nslots)
            nslots += p.rounds
            if execute:
                for _ in range(p.rounds):
                    slot_offsets.append(data_off)
                    data_off += max(p.slot_words, 1)
        if execute:
            data_words = max(data_off, 1)
            if not slot_offsets:
                slot_offsets = [0]
        else:
            # Simulate mode: puts carry only sizes, so a one-word data
            # window serves any nelems (no memory scaling with payload).
            data_words = 1
            slot_offsets = [0] * max(nslots, 1)
        spec = MailboxSpec(
            data_words=data_words,
            nslots=max(nslots, 1),
            offsets={r: tuple(slot_offsets) for r in range(job.nranks)},
            read_data=execute,
        )
        self.channel = job.channel(spec)

    def endpoint(self, ctx) -> "CollectiveEndpoint":
        return CollectiveEndpoint(self, ctx)


class CollectiveEndpoint:
    """One rank's cursor over the planned collective ops."""

    def __init__(self, comm: CollectiveComm, ctx):
        self.comm = comm
        self.ctx = ctx
        self.ep = comm.channel.endpoint(ctx)
        self._op = 0

    def run(self, values=None, *, op: str = "sum", root: int = 0):
        """Execute the next planned collective on this rank.

        ``values`` is this rank's local input (execute mode only; see the
        plan module for per-collective size conventions), ``op`` the
        reduction for allreduce/reduce_scatter, ``root`` the broadcast
        root.  Returns the local result array in execute mode, else None.
        """
        comm = self.comm
        if self._op >= len(comm.plans):
            raise CollectiveError(
                f"rank {self.ctx.rank} ran more collectives than the "
                f"{len(comm.plans)} planned"
            )
        idx = self._op
        self._op += 1
        plan = comm.plans[idx]
        if op not in REDUCE_OPS:
            raise CollectiveError(
                f"unknown reduction {op!r}; valid: " + ", ".join(REDUCE_OPS)
            )
        if not 0 <= root < plan.nranks:
            raise CollectiveError(f"root {root} out of range for P={plan.nranks}")
        if self.ctx.rank == 0:
            comm.stats.ops += 1
            comm.stats.rounds += plan.rounds
        v = self._prepare(plan, values, root)
        ex = _RoundExec(comm, self.ep, self.ctx, plan, comm.bases[idx],
                        REDUCE_OPS[op], root, v)
        result = yield from plan.strategy.schedule(ex)
        yield from self.ep.drain()
        return result

    def _prepare(self, plan: CollectivePlan, values, root: int):
        if not self.comm.execute or plan.coll == "barrier":
            return None
        dtype = np.dtype(self.comm.channel.spec.dtype)
        expected = plan.nelems * (plan.nranks if plan.coll == "alltoall" else 1)
        if values is None:
            if plan.coll == "broadcast" and self.ctx.rank != root:
                return np.zeros(expected, dtype=dtype)
            raise CollectiveError(
                f"execute-mode {plan.coll} needs per-rank values"
            )
        v = np.array(values, dtype=dtype).ravel().copy()
        if len(v) != expected:
            raise CollectiveError(
                f"{plan.coll} values length {len(v)} != expected {expected}"
            )
        return v


class _RoundExec:
    """What an algorithm schedule sees: rank geometry, the working buffer,
    and round-addressed send/recv with uniform stats accounting.

    ``send`` / ``recv`` return the endpoint's generator for the schedule
    to ``yield from``; the stats are charged when the verb is called,
    which is when it is driven.  What they need of the comm and the
    endpoint — the stats record, the word size, the two verbs — is bound
    once per collective call, not looked up per message."""

    __slots__ = ("base", "reduce", "root", "v", "P", "rank", "nelems",
                 "stripes", "execute", "_stats", "_itemsize", "_send_round",
                 "_recv_round")

    def __init__(self, comm, ep, ctx, plan, base, reduce, root, v):
        self.base = base
        self.reduce = reduce
        self.root = root
        self.v = v
        self.P = plan.nranks
        self.rank = ctx.rank
        self.nelems = plan.nelems
        self.stripes = plan.stripes
        self.execute = comm.execute
        self._stats = comm.stats
        self._itemsize = ep.spec.itemsize
        self._send_round = ep.send_round
        self._recv_round = ep.recv_round

    def send(self, dst, rnd, words, values=None, parts=1):
        self._stats.messages += parts
        self._stats.bytes_moved += words * self._itemsize
        return self._send_round(
            dst, self.base + rnd, words=words, parts=parts, values=values
        )

    def recv(self, src, rnd, words, parts=1):
        return self._recv_round(src, self.base + rnd, words=words, parts=parts)

    def exchange(self, dst, src, rnd, send_words, recv_words,
                 values=None, parts=1):
        yield from self.send(dst, rnd, send_words, values=values, parts=parts)
        return (yield from self.recv(src, rnd, recv_words, parts=parts))
