"""Distributed hashtable insert benchmark (paper §III-C).

One million (scaled) unique keys are inserted into a table distributed over
P ranks; the home rank of a key is known only to the sender — the "true
sender's control" pattern.  The program is written once against the
transport :class:`AtomicDomainSpec` channel and branches only on the
backend's ``caps.remote_atomics`` (an algorithm choice, not an op
sequence — see docs/TRANSPORT.md):

* **with remote atomics** (one-sided RMA, GPU SHMEM): an insert is an
  atomic compare-and-swap on the remote slot; a collision allocates an
  overflow element with fetch-and-add and links it with an atomic swap,
  exactly the paper's CAS / increment / second-atomic sequence.  No
  synchronisation until the end of all inserts — msg/sync is the total
  insert count.
* **without** (two-sided): each insert travels as a ``(ID, elem, pos)``
  triplet (3 words, per Table II) to its owner, which applies it locally;
  ranks synchronise after every insert round, one insert per rank (Table
  II's P messages per sync), so
  each round costs a ~log2(P) termination exchange on top of the messages —
  this is the log-P per-insert growth the paper's §III-C analysis assigns
  to the two-sided design, and why one-sided wins at scale but loses at
  P = 2 (1.1 us/message vs a 2 us CAS).

Paper-fidelity note (DESIGN.md §2): the paper's prose has every insert
broadcast to all P-1 peers while its cost model counts ~log2(P) message
times per insert; we implement owner-routed triplets with per-round
synchronisation, which reproduces the cost model (and the measured 5x /
inverted-at-P=2 results) rather than the prose's broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.job import Job
from repro.machines.base import MachineModel
from repro.transport import AtomicDomainSpec, SpaceSpec
from repro.util.validation import check_count
from repro.workloads.base import WorkloadResult
from repro.workloads.hashtable.table import (
    EMPTY,
    TableGeometry,
    collect_values,
    local_insert,
)

__all__ = [
    "HashTableConfig",
    "generate_keys",
    "run_hashtable",
]


@dataclass(frozen=True)
class HashTableConfig:
    """Benchmark parameters (paper: one million inserts in total)."""

    total_inserts: int = 20_000
    load_factor: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        check_count("hashtable total_inserts", self.total_inserts)
        if not 0 < self.load_factor <= 1:
            raise ValueError("load_factor in (0, 1]")


def generate_keys(cfg: HashTableConfig, nranks: int) -> list[np.ndarray]:
    """Unique nonzero random keys, pre-partitioned per inserting rank.

    Keys are drawn from a 62-bit space: sequential keys under the
    multiplicative hash form a low-discrepancy sequence with artificially
    few collisions, which would understate the overflow-chain path.
    """
    rng = np.random.default_rng(cfg.seed)
    draw = rng.integers(1, 1 << 62, size=2 * cfg.total_inserts + 16, dtype=np.int64)
    keys = np.unique(draw)[: cfg.total_inserts]
    if len(keys) < cfg.total_inserts:
        raise RuntimeError("key draw collision burst; widen the draw")
    keys = rng.permutation(keys)
    per = cfg.total_inserts // nranks
    out = []
    start = 0
    for r in range(nranks):
        take = per + (1 if r < cfg.total_inserts % nranks else 0)
        out.append(keys[start : start + take])
        start += take
    return out


# ---------------------------------------------------------------------------
# the two algorithms (the channel's backend picks one)
# ---------------------------------------------------------------------------


def _domain_spec(geom: TableGeometry) -> AtomicDomainSpec:
    return AtomicDomainSpec(
        spaces={
            "table": SpaceSpec(geom.slots_per_rank, dtype=np.int64, fill=EMPTY),
            "chain": SpaceSpec(geom.slots_per_rank, dtype=np.int64, fill=0),
            "heap": SpaceSpec(2 * geom.heap_per_rank, dtype=np.int64, fill=EMPTY),
            "meta": SpaceSpec(1, dtype=np.int64, fill=0),
        }
    )


def _atomics_rank(ctx, chan, geom: TableGeometry, keys_by_rank, homes):
    """Sender's-control inserts: CAS / increment / second-atomic.

    A rank program over the atomic endpoint's verbs, not an IR program —
    the CAS result steers collision handling, so the op stream only
    exists at run time and no pass or cost model could read it."""
    ep = chan.endpoint(ctx)
    owners, slots = homes[ctx.rank]
    inserts = zip(keys_by_rank[ctx.rank].tolist(), owners.tolist(), slots.tolist())
    yield from ctx.barrier()
    t0 = ctx.sim.now
    collisions = 0
    for key, r, s in inserts:
        old = yield from ep.cas("table", r, s, EMPTY, key)
        if old != EMPTY:
            collisions += 1
            idx = yield from ep.faa("meta", r, 0, 1)
            if idx >= geom.heap_per_rank:
                raise RuntimeError("overflow heap exhausted at target rank")
            # Link in at the head of the slot's chain: swap the head,
            # then publish the (key, next) pair ordered before any
            # subsequent op from this origin.
            prev = yield from ep.swap("chain", r, s, idx + 1)
            yield from ep.publish(
                "heap", r, np.array([key, prev], dtype=np.int64), offset=2 * idx
            )
    insert_time = ctx.sim.now - t0
    yield from ctx.barrier()
    return {"time": insert_time, "collisions": collisions}


def _owner_routed_rank(ctx, chan, keys_by_rank, homes, incoming):
    """Owner-routed inserts, the algorithm of a backend without remote
    atomics: per round, this rank's next key is inserted locally or sent
    to its owner as a ``(ID, elem, pos)`` triplet; then the round's
    ``incoming`` triplets are polled in and applied (GUPS-style codes poll
    ``MPI_Recv`` in a tight loop rather than descheduling per message),
    and the round closes with a termination allreduce.  Sends drain inside
    the timed window; the trailing barrier is outside it."""
    ep = chan.endpoint(ctx)
    spaces = [ep.local(space) for space in ("table", "chain", "heap", "meta")]
    rank = ctx.rank
    owners, slots = homes[rank]
    inserts = list(zip(keys_by_rank[rank].tolist(), owners.tolist(), slots.tolist()))
    yield from ctx.barrier()
    t0 = ctx.sim.now
    for rnd, expected in enumerate(incoming[rank]):
        if rnd < len(inserts):
            key, r, s = inserts[rnd]
            if r == rank:
                local_insert(key, s, *spaces)
                yield from ctx.compute(nbytes=64.0)
            else:
                yield from ep.post_msg(r, nbytes=24.0, tag=1, payload=(r, key, s))
        for _ in range(expected):
            rid, key, s = yield from ep.recv_msg_poll(tag=1)
            if rid != rank:
                raise RuntimeError("triplet routed to the wrong owner")
            local_insert(key, s, *spaces)
            yield from ctx.compute(nbytes=64.0)
        # Round synchronisation: termination/quiescence exchange.
        yield from ctx.allreduce_sum(float(expected))
    yield from ep.drain()
    insert_time = ctx.sim.now - t0
    yield from ctx.barrier()
    return {"time": insert_time, "collisions": 0}


def _incoming_per_round(homes, nranks: int) -> list[list[int]]:
    """Per-rank, per-round incoming triplet counts (static schedule), from
    the owner rank of each sender's keys in insert order, one insert per
    rank per round.

    Receivers must know how many triplets to expect each round; computing
    the counts up front models the counting handshake real codes do without
    simulating a termination-detection protocol.
    """
    nrounds = max((len(owners) for owners, _slots in homes), default=0)
    counts = np.zeros((nranks, nrounds), dtype=np.int64)
    for src, (owners, _slots) in enumerate(homes):
        remote = np.flatnonzero(owners != src)
        np.add.at(counts, (owners[remote], remote), 1)
    return counts.tolist()


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_hashtable(
    machine: MachineModel,
    runtime: str,
    cfg: HashTableConfig,
    nranks: int,
    *,
    placement: str | None = None,
) -> WorkloadResult:
    """Run the distributed hashtable benchmark.

    ``runtime`` is a backend name from :mod:`repro.transport`.
    Execute-mode verification data (all stored values) is returned in
    ``extras["values"]``; ``extras["gups"]`` holds giga-updates/s.
    """
    geom = TableGeometry.for_inserts(
        nranks, cfg.total_inserts, load_factor=cfg.load_factor
    )
    keys_by_rank = generate_keys(cfg, nranks)
    if placement is None:
        placement = "spread" if machine.is_gpu_machine else "block"
    job = Job(machine, nranks, runtime, placement=placement)
    chan = job.channel(_domain_spec(geom))
    # Every key is hashed here, once: ``homes`` holds each inserting rank's
    # (owners, slots).  The algorithm is the backend's capability, not an
    # op sequence: remote atomics insert from the sender, anything else
    # routes to the owner.
    homes = [geom.locate_many(keys) for keys in keys_by_rank]
    if chan.caps.remote_atomics:
        result = job.run(_atomics_rank, chan, geom, keys_by_rank, homes)
    else:
        incoming = _incoming_per_round(homes, nranks)
        result = job.run(_owner_routed_rank, chan, keys_by_rank, homes, incoming)
    tables = [chan.array("table", r) for r in range(nranks)]
    chains = [chan.array("chain", r) for r in range(nranks)]
    heaps = [chan.array("heap", r) for r in range(nranks)]
    metas = [chan.array("meta", r) for r in range(nranks)]
    collisions = (
        sum(r["collisions"] for r in result.results)
        if chan.caps.remote_atomics
        else None
    )
    times = [r["time"] for r in result.results]
    elapsed = max(times)
    values: list[int] = []
    for r in range(nranks):
        values.extend(collect_values(tables[r], heaps[r], metas[r]))
    extras = {
        "geometry": geom,
        "values": values,
        "gups": cfg.total_inserts / elapsed / 1e9,
        "per_insert_us": elapsed / cfg.total_inserts * 1e6 * nranks,
        "collisions": collisions,
        "chains": chains,
        "heaps": heaps,
    }
    return WorkloadResult(
        workload="hashtable",
        machine=machine.name,
        runtime=job.runtime_name,
        nranks=nranks,
        time=elapsed,
        counters=result.counters,
        per_rank=result.per_rank,
        extras=extras,
    )
