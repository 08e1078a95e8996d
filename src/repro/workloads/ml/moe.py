"""Expert-parallel MoE layer: alltoall dispatch, FFN compute, combine.

One mixture-of-experts layer with one expert (group) per rank: every
rank routes an equal shard of its ``tokens_per_rank`` activations to
each expert (an **alltoall** of ``tokens/P * hidden`` words per
destination), the expert runs its FFN over everything it received
(``4 * ffn_mult * tokens * hidden^2`` FLOPs — the two matmuls of an
``hidden -> ffn_mult*hidden -> hidden`` block), and a second alltoall
routes the results back.

Communication scales with ``hidden``; expert compute with ``hidden^2``
— so widening the experts hides the dispatch, while adding tokens
scales both and leaves the dispatch fraction flat.  That crossover is
the experiment's checked finding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.core import CollectiveComm
from repro.collectives.plan import _WORD, CollectiveError, plan_collective
from repro.comm.job import Job
from repro.machines.base import MachineModel
from repro.util.validation import check_count

__all__ = ["MoeDispatchResult", "run_moe_dispatch"]


@dataclass(frozen=True)
class MoeDispatchResult:
    """One measured MoE layer (dispatch + expert + combine)."""

    machine: str
    runtime: str
    nranks: int
    tokens_per_rank: int
    hidden: int
    ffn_mult: int
    algorithm: str  # resolved alltoall algorithm
    iters: int
    time: float  # s per layer
    compute_time: float  # modelled expert FFN per layer
    comm_time: float  # layer time the alltoalls did not hide
    comm_fraction: float
    dispatch_bytes: float  # wire bytes per rank per alltoall
    tokens_per_s: float


def _program(ctx, comm, iters, t_expert):
    ep = comm.endpoint(ctx)
    yield from ctx.barrier()
    t0 = ctx.sim.now
    for _ in range(iters):
        yield from ep.run()  # dispatch
        yield from ctx.compute(seconds=t_expert)
        yield from ep.run()  # combine
    return ctx.sim.now - t0


def run_moe_dispatch(
    machine: MachineModel,
    runtime: str,
    *,
    nranks: int,
    tokens_per_rank: int = 1024,
    hidden: int = 256,
    ffn_mult: int = 4,
    algorithm: str = "auto",
    iters: int = 1,
    placement: str = "spread",
) -> MoeDispatchResult:
    """Simulate ``iters`` MoE layers and measure one."""
    for name, value, low in (
        ("nranks", nranks, 1), ("tokens_per_rank", tokens_per_rank, nranks),
        ("hidden", hidden, 1), ("ffn_mult", ffn_mult, 1), ("iters", iters, 1),
    ):
        check_count(f"moe {name}", value, low, CollectiveError)
    # Equal routing: each rank sends tokens/P tokens to every expert.
    tokens_per_dest = tokens_per_rank // nranks
    block_words = tokens_per_dest * hidden  # per-destination alltoall block
    tokens_received = tokens_per_dest * nranks
    flops = 4.0 * ffn_mult * tokens_received * float(hidden) ** 2
    plans = []
    resolved = None
    for _ in range(2 * iters):  # dispatch + combine per layer
        plan, _sel = plan_collective(
            "alltoall", nranks=nranks, nelems=block_words,
            algorithm=algorithm, stripes=1, machine=machine, runtime=runtime,
        )
        plans.append(plan)
        resolved = plan.algorithm if resolved is None else resolved
    job = Job(machine, nranks, runtime, placement=placement)
    comm = CollectiveComm(job, plans)
    t_expert = machine.compute_time(0.0, flops)
    with job.spans.span("ml:moe_dispatch"):
        res = job.run(_program, comm, iters, t_expert)
    elapsed = max(res.results)
    per_layer = max(elapsed, 1e-12) / iters
    comm_time = max(per_layer - t_expert, 0.0)
    if job.metrics is not None:
        job.metrics.counter("ml.moe.layers").inc(iters)
        job.metrics.counter("ml.moe.tokens").inc(tokens_received * iters)
    return MoeDispatchResult(
        machine=machine.name,
        runtime=job.runtime_name,
        nranks=nranks,
        tokens_per_rank=tokens_per_rank,
        hidden=hidden,
        ffn_mult=ffn_mult,
        algorithm=resolved or algorithm,
        iters=iters,
        time=per_layer,
        compute_time=t_expert,
        comm_time=comm_time,
        comm_fraction=comm_time / per_layer if per_layer > 0 else 0.0,
        dispatch_bytes=(nranks - 1) * block_words * _WORD,
        tokens_per_s=tokens_received / per_layer if per_layer > 0 else 0.0,
    )
