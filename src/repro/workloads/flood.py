"""Flood (bandwidth) microbenchmarks: the measured dots of Figs. 1, 3, 4.

A flood run sends ``msgs_per_sync`` messages of ``nbytes`` each from rank 0
to rank 1, then synchronises — repeated ``iters`` times.  The pattern is
emitted as a :class:`repro.ir.IRProgram` over the transport
:class:`BatchSpec` channel — one ``BatchSend`` / ``BatchWait`` op pair
(``send_batch`` / ``wait_batch``) per iteration — and lowered through
:func:`repro.ir.run_program`; the backend chosen by runtime name supplies
the op sequence (see docs/TRANSPORT.md):

* two-sided: ``Isend`` x n  /  pre-posted ``Irecv`` x n + ``Waitall``;
* one-sided MPI: ``Put`` x n + ``flush``, then the put/flush signal pair,
  receiver in the Listing-1 polling loop (4 MPI ops per *synchronised*
  message group, matching the paper's accounting);
* GPU SHMEM: ``put_signal_nbi`` x n, receiver ``wait_until_all``.

Because the program is IR, the ambient pass pipeline (off by default —
see docs/IR.md) can rewrite it: coalesce turns the batch of n small
messages into one ``n * nbytes`` message per sync where that wins.  With
passes off the lowering is byte-identical to the pre-IR hand-written
generator.

There is also an atomic-CAS flood for the Fig. 4 compare-and-swap series:
one back-to-back ``cas_stream`` from rank 0, a plain rank program (no pass
rewrites a single stream, so it is not IR).

Bandwidth is measured at the *receiver* (time from batch start to the data
being usable), which is what the paper's sustained-bandwidth plots show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.job import Job
from repro.ir import ops as O
from repro.ir.lower import run_program
from repro.ir.program import IRProgram, region_for_all
from repro.machines.base import MachineModel
from repro.roofline.fit import FloodSample
from repro.transport import AtomicDomainSpec, BatchSpec, SpaceSpec
from repro.util.validation import check_count

__all__ = [
    "FloodResult",
    "build_flood_program",
    "run_flood",
    "run_cas_flood",
]


@dataclass(frozen=True)
class FloodResult:
    """Measured flood outcome for one (size, msg/sync) point."""

    machine: str
    runtime: str
    nbytes: int
    msgs_per_sync: int
    iters: int
    time_total: float
    bandwidth: float  # bytes/s sustained, receiver-observed
    latency_per_message: float  # seconds

    def as_sample(self) -> FloodSample:
        return FloodSample(
            nbytes=float(self.nbytes),
            msgs_per_sync=self.msgs_per_sync,
            bandwidth=self.bandwidth,
        )


def build_flood_program(
    runtime: str, nbytes: int, msgs_per_sync: int, *,
    iters: int = 3, nranks: int = 2,
) -> IRProgram:
    """Rank 0 floods rank 1; both measure the batch window."""
    n = msgs_per_sync

    def per_rank(rank: int, it: int):
        if rank == 0:
            return [O.BatchSend(1, it, n), O.Barrier()]
        if rank == 1:
            return [O.BatchWait(0, it, n), O.Barrier()]
        return [O.Barrier()]

    regions = [
        region_for_all(f"iter{it}", nranks, lambda r, it=it: per_rank(r, it))
        for it in range(iters)
    ]
    return IRProgram("flood", BatchSpec(nbytes=nbytes), nranks, runtime, tuple(regions))


def run_flood(
    machine: MachineModel,
    runtime: str,
    nbytes: int,
    msgs_per_sync: int,
    *,
    iters: int = 3,
    nranks: int = 2,
    placement: str = "spread",
) -> FloodResult:
    """Run one flood point and return the measured bandwidth.

    ``placement="spread"`` puts ranks 0/1 on adjacent endpoints (on-node
    paths); on a multi-node cluster, ``placement="block"`` puts them on
    different nodes, measuring the switched fabric instead.
    """
    check_count("flood msgs_per_sync", msgs_per_sync)
    check_count("flood iters", iters)
    check_count("flood nranks", nranks, 2)
    program = build_flood_program(
        runtime, nbytes, msgs_per_sync, iters=iters, nranks=nranks
    )
    run = run_program(machine, program, placement=placement)
    job = run.job
    # Receiver-observed window (rank 1's elapsed time over the batches).
    elapsed = run.result.results[1]
    total_bytes = float(nbytes) * msgs_per_sync * iters
    # Subtract the inter-iteration barrier cost so the number reflects the
    # communication itself, matching how flood benchmarks report.
    barrier_cost = job._barrier_delay * iters
    net = max(elapsed - barrier_cost, 1e-12)
    bw = total_bytes / net
    return FloodResult(
        machine=machine.name,
        runtime=job.runtime_name,
        nbytes=nbytes,
        msgs_per_sync=msgs_per_sync,
        iters=iters,
        time_total=elapsed,
        bandwidth=bw,
        latency_per_message=net / (msgs_per_sync * iters),
    )


# The CAS flood's one remote location: a single int64 counter per rank.
_CAS_SPEC = AtomicDomainSpec(spaces={"ctr": SpaceSpec(8, dtype=np.int64, fill=0)})


def _cas_stream_rank(ctx, chan, target_rank: int, n_ops: int):
    """Back-to-back remote CAS stream, rank 0 -> target (Fig. 4 series);
    every other rank only joins the opening barrier."""
    ep = chan.endpoint(ctx)
    yield from ctx.barrier()
    if ctx.rank != 0:
        return 0.0
    t0 = ctx.sim.now
    yield from ep.cas_stream("ctr", target_rank, 0, [(i, i + 1) for i in range(n_ops)])
    return ctx.sim.now - t0


def run_cas_flood(
    machine: MachineModel,
    runtime: str,
    *,
    n_ops: int = 64,
    target_rank: int = 1,
    nranks: int = 2,
) -> dict[str, float]:
    """Measure the sustained remote atomic CAS latency (seconds/op).

    ``target_rank`` selects the victim — on Summit GPUs, a rank in the other
    island exposes the cross-socket atomic penalty (1.6 us vs 1.0 us).
    """
    check_count("cas flood n_ops", n_ops)
    check_count("cas flood nranks", nranks, 2)
    if not 0 < target_rank < nranks:
        raise ValueError(f"target_rank {target_rank} out of range (1..{nranks - 1})")
    job = Job(machine, nranks, runtime, placement="spread")
    result = job.run(_cas_stream_rank, job.channel(_CAS_SPEC), target_rank, n_ops)
    elapsed = result.results[0]
    return {
        "machine": machine.name,
        "runtime": job.runtime_name,
        "ops": n_ops,
        "time": elapsed,
        "latency_per_cas": elapsed / n_ops,
        "cas_rate": n_ops / elapsed,
    }
