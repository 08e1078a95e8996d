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
  ranks synchronise every P inserts (Table II's P messages per sync), so
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
from numbers import Integral

import numpy as np

from repro.comm.job import Job
from repro.ir import ops as O
from repro.ir.lower import run_program
from repro.ir.program import IRProgram, Region, static_program
from repro.machines.base import MachineModel
from repro.transport import AtomicDomainSpec, SpaceSpec
from repro.transport.registry import get_backend
from repro.workloads.base import WorkloadResult
from repro.workloads.hashtable.table import (
    EMPTY,
    TableGeometry,
    collect_values,
    local_insert,
)

__all__ = [
    "HashTableConfig",
    "build_hashtable_program",
    "generate_keys",
    "run_hashtable",
]


@dataclass(frozen=True)
class HashTableConfig:
    """Benchmark parameters (paper: one million inserts in total)."""

    total_inserts: int = 20_000
    load_factor: float = 0.6
    seed: int = 0
    # Two-sided: inserts per rank between synchronisation rounds.  One
    # insert per rank per round matches Table II (P messages per sync
    # globally) and makes the log2(P) round-synchronisation cost dominate
    # at high P — the paper's two-sided scaling penalty.
    sync_window: int = 1

    def __post_init__(self) -> None:
        for name in ("total_inserts", "sync_window"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(
                    f"hashtable {name} must be an integer >= 1, got {value}"
                )
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
# the one program (runtime comes from the channel's backend)
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

    A rank program over the atomic endpoint's verbs, not an
    :class:`IRProgram` — the CAS result steers collision handling, so the
    op stream only exists at run time and no pass or cost model could
    read it."""
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


def _insert_fn(key: int, s: int):
    return lambda st: local_insert(
        key, s, st["table"], st["chain"], st["heap"], st["meta"]
    )


def _recv_handler(state: dict, payload) -> None:
    rid, key, s = payload
    if rid != state["ctx"].rank:
        raise RuntimeError("triplet routed to the wrong owner")
    local_insert(key, s, state["table"], state["chain"], state["heap"],
                 state["meta"])


def build_hashtable_program(
    runtime: str, geom: TableGeometry, keys_by_rank, window: int, nranks: int,
) -> IRProgram:
    """Emit the owner-routed insert pattern — the algorithm of a backend
    without remote atomics — as IR: triplets with per-round
    synchronisation, one region per round, then a drain region (inside the
    timed window) and the trailing barrier in the epilogue (outside it),
    matching the hand-written measurement exactly.

    Every key is hashed here, once: the ``(keys, owners, slots)`` lists per
    inserting rank are the triplets, the owner arrays the round plan."""
    spec = _domain_spec(geom)
    meta = {"total_keys": sum(len(k) for k in keys_by_rank), "window": window}
    homes = [geom.locate_many(keys) for keys in keys_by_rank]
    triplets = [
        (keys.tolist(), owners.tolist(), slots.tolist())
        for keys, (owners, slots) in zip(keys_by_rank, homes)
    ]

    def setup(ctx, chan, ep, state):
        for space in ("table", "chain", "heap", "meta"):
            state[space] = ep.local(space)

    incoming_per_round = _plan_rounds(
        [owners for owners, _slots in homes], nranks, window
    )
    nrounds = len(incoming_per_round[0]) if nranks else 0
    # Hot-loop receive: GUPS-style codes poll MPI_Recv in a tight loop
    # rather than descheduling per message.  The pair is the same for every
    # incoming triplet (ops are frozen), so it is built once.
    take_one = (O.TripletRecv(1, on_payload=_recv_handler), O.Compute(nbytes=64.0))
    regions = []
    for rnd in range(nrounds):
        body = []
        lo, hi = rnd * window, (rnd + 1) * window
        for rank in range(nranks):
            my_keys, owners, slots = triplets[rank]
            ops: list[O.Op] = []
            for key, r, s in zip(my_keys[lo:hi], owners[lo:hi], slots[lo:hi]):
                if r == rank:
                    ops.append(O.Compute(nbytes=64.0, fn=_insert_fn(key, s)))
                else:
                    ops.append(O.TripletSend(r, 24.0, 1, payload=(r, key, s)))
            expected = incoming_per_round[rank][rnd]
            ops.extend(take_one * expected)
            # Round synchronisation: termination/quiescence exchange.
            ops.append(O.AllreduceSum(float(expected)))
            body.append(tuple(ops))
        regions.append(Region(f"round{rnd}", tuple(body)))
    regions.append(Region("drain", tuple((O.MsgDrain(),) for _ in range(nranks))))

    def finalize(ctx, state, elapsed):
        return {"time": elapsed, "collisions": 0}

    return static_program(
        "hashtable",
        spec,
        nranks,
        runtime,
        prologue=[O.Barrier()],
        regions=regions,
        epilogue=[O.Barrier()],
        setup=setup,
        finalize=finalize,
        meta=meta,
    )


def _plan_rounds(
    owners_by_rank: list[np.ndarray], nranks: int, window: int
) -> list[list[int]]:
    """Per-rank, per-round incoming message counts (static schedule), from
    the owner rank of each sender's keys in insert order.

    Receivers must know how many triplets to expect each round; computing
    the counts up front models the counting handshake real codes do without
    simulating a termination-detection protocol.
    """
    nrounds = max(
        ((len(owners) + window - 1) // window for owners in owners_by_rank),
        default=0,
    )
    counts = np.zeros((nranks, nrounds), dtype=np.int64)
    for src, owners in enumerate(owners_by_rank):
        remote = np.flatnonzero(owners != src)
        np.add.at(counts, (owners[remote], remote // window), 1)
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
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks}")
    geom = TableGeometry.for_inserts(
        nranks, cfg.total_inserts, load_factor=cfg.load_factor
    )
    keys_by_rank = generate_keys(cfg, nranks)
    if placement is None:
        placement = "spread" if machine.is_gpu_machine else "block"
    # The algorithm is the backend's capability, not an op sequence: remote
    # atomics insert from the sender, anything else routes to the owner.
    if get_backend(runtime).caps.remote_atomics:
        job = Job(machine, nranks, runtime, placement=placement)
        chan = job.channel(_domain_spec(geom))
        homes = [geom.locate_many(keys) for keys in keys_by_rank]
        result = job.run(_atomics_rank, chan, geom, keys_by_rank, homes)
    else:
        program = build_hashtable_program(
            runtime, geom, keys_by_rank, cfg.sync_window, nranks
        )
        run = run_program(machine, program, placement=placement)
        job, chan, result = run.job, run.chan, run.result
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
        variant=job.runtime_name,
        nranks=nranks,
        time=elapsed,
        counters=result.counters,
        per_rank=result.per_rank,
        extras=extras,
    )
