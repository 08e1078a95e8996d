"""Multi-tenant inference: prefill, KV-cache hand-off, decode replicas.

Disaggregated serving: rank 0 is the prefill engine, the other ranks
are decode replicas for concurrent tenants.  Rank 0 runs prefill over
the prompt (compute), then the prompt's KV cache — ``2 * layers *
context_tokens * hidden`` words — is **broadcast** to every replica,
and each replica decodes ``decode_tokens`` tokens, re-reading the cache
from memory every step (the roofline's bytes term) plus the model
matmuls (the FLOPs term).

The hand-off is the one-sided-communication moment: the cache is big,
the replicas are passive, and the transfer sits directly on the
time-to-first-token path.  ``transfer_time`` isolates it;
``transfer_bandwidth`` is comparable against the machine's link peak.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.core import CollectiveComm
from repro.collectives.plan import _WORD, CollectiveError, plan_collective
from repro.comm.job import Job
from repro.machines.base import MachineModel
from repro.util.validation import check_count

__all__ = ["KvTransferResult", "run_kv_transfer"]


@dataclass(frozen=True)
class KvTransferResult:
    """One measured prefill -> KV hand-off -> decode pipeline."""

    machine: str
    runtime: str
    nranks: int
    context_tokens: int
    hidden: int
    layers: int
    decode_tokens: int
    algorithm: str  # resolved broadcast algorithm
    kv_bytes: float  # cache size moved to each replica
    time: float  # whole pipeline
    prefill_time: float
    transfer_time: float  # broadcast completion past prefill
    decode_time: float  # slowest replica's decode phase
    ttft: float  # time to first token: prefill + hand-off + 1 decode step
    transfer_bandwidth: float  # kv_bytes / transfer_time


def _program(ctx, comm, t_prefill, t_decode_step, decode_tokens):
    ep = comm.endpoint(ctx)
    yield from ctx.barrier()
    t0 = ctx.sim.now
    if ctx.rank == 0:
        yield from ctx.compute(seconds=t_prefill)
    yield from ep.run(root=0)  # KV broadcast (replicas wait passively)
    t_handoff = ctx.sim.now - t0
    if ctx.rank != 0:
        for _ in range(decode_tokens):
            yield from ctx.compute(seconds=t_decode_step)
    return ctx.sim.now - t0, t_handoff


def run_kv_transfer(
    machine: MachineModel,
    runtime: str,
    *,
    nranks: int,
    context_tokens: int = 2048,
    hidden: int = 256,
    layers: int = 4,
    decode_tokens: int = 8,
    algorithm: str = "auto",
    stripes: int = 1,
    placement: str = "spread",
) -> KvTransferResult:
    """Simulate one prefill -> hand-off -> decode pipeline."""
    check_count(
        "kv_transfer nranks (a prefill rank and >= 1 replica)", nranks, 2, CollectiveError
    )
    for name, value in (
        ("context_tokens", context_tokens), ("hidden", hidden),
        ("layers", layers), ("decode_tokens", decode_tokens),
    ):
        check_count(f"kv_transfer {name}", value, 1, CollectiveError)
    kv_words = 2 * layers * context_tokens * hidden  # K and V per layer
    kv_bytes = kv_words * _WORD
    params = 12.0 * layers * float(hidden) ** 2  # transformer block estimate
    flops_prefill = 2.0 * params * context_tokens
    flops_decode = 2.0 * params  # per generated token
    plan, _sel = plan_collective(
        "broadcast", nranks=nranks, nelems=kv_words, algorithm=algorithm,
        stripes=stripes, machine=machine, runtime=runtime,
    )
    job = Job(machine, nranks, runtime, placement=placement)
    comm = CollectiveComm(job, [plan])
    t_prefill = machine.compute_time(0.0, flops_prefill)
    # Decode re-reads the whole cache each step: the bytes term competes
    # with the matmul term in the roofline max().
    t_decode_step = machine.compute_time(kv_bytes, flops_decode)
    with job.spans.span("ml:kv_transfer"):
        res = job.run(_program, comm, t_prefill, t_decode_step, decode_tokens)
    elapsed = max(r[0] for r in res.results)
    handoff = max(r[1] for r in res.results)
    transfer = max(handoff - t_prefill, 1e-12)
    decode = decode_tokens * t_decode_step
    if job.metrics is not None:
        job.metrics.counter("ml.inference.kv_bytes").inc(kv_bytes * (nranks - 1))
    return KvTransferResult(
        machine=machine.name,
        runtime=job.runtime_name,
        nranks=nranks,
        context_tokens=context_tokens,
        hidden=hidden,
        layers=layers,
        decode_tokens=decode_tokens,
        algorithm=plan.algorithm,
        kv_bytes=kv_bytes,
        time=max(elapsed, 1e-12),
        prefill_time=t_prefill,
        transfer_time=transfer,
        decode_time=decode,
        ttft=t_prefill + transfer + t_decode_step,
        transfer_bandwidth=kv_bytes / transfer,
    )
