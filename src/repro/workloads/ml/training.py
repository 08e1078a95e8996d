"""Data-parallel training step: fwd/bwd compute + gradient allreduce.

One step of synchronous data parallelism on ``nranks`` model replicas:
every rank runs forward and backward over its local batch (charged via
the machine's roofline compute model, ``6 * params * tokens`` FLOPs in
the standard transformer estimate — 2 forward, 4 backward), then the
gradients are summed across replicas with an allreduce.  ``buckets``
splits the gradient into that many back-to-back allreduces (DDP-style
bucketing; more buckets means more per-round latency, which is exactly
the alpha-cost the selector trades against).

The communication volume is ``grad_bytes`` regardless of batch size, so
growing ``tokens_per_rank`` grows only compute — the classic way ML
jobs *hide* the wire.  ``comm_fraction`` reports how much of the step
the allreduce did not hide.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.collectives.core import CollectiveComm
from repro.collectives.plan import _WORD, CollectiveError, plan_collective
from repro.comm.job import Job
from repro.machines.base import MachineModel
from repro.util.validation import check_count, check_non_negative

__all__ = ["RecoverableTrainingSpec", "TrainingStepResult", "run_training_step"]


@dataclass(frozen=True)
class RecoverableTrainingSpec:
    """The shape of a training job the cluster recovery layer can restart.

    :func:`repro.cluster.run_recoverable_training` drives ``steps``
    synchronous data-parallel steps of this shape on a shared cluster
    fabric: each step charges ``compute_seconds`` of fwd/bwd per rank,
    then ring-allreduces ``grad_bytes`` of gradient (each rank sends one
    ``grad_bytes / nranks``-sized shard per ring neighbour exchange, the
    standard bucketed-DDP wire pattern).  The spec is deliberately
    machine-free: the same job replays identically after a rank is
    respawned on a spare node, which is what checkpoint/restart needs.
    """

    steps: int = 12
    grad_bytes: float = 4 * 64 * 1024.0
    compute_seconds: float = 50e-6

    def __post_init__(self) -> None:
        check_count("steps", self.steps)
        check_non_negative("grad_bytes", self.grad_bytes)
        check_non_negative("compute_seconds", self.compute_seconds)

    def shard_bytes(self, nranks: int) -> float:
        """Bytes each rank moves per ring neighbour exchange."""
        return self.grad_bytes / max(nranks, 1)


@dataclass(frozen=True)
class TrainingStepResult:
    """One measured data-parallel training step."""

    machine: str
    runtime: str
    nranks: int
    grad_bytes: float
    tokens_per_rank: int
    buckets: int
    algorithm: str  # resolved allreduce algorithm
    iters: int
    time: float  # s per step
    compute_time: float  # modelled fwd+bwd per step
    comm_time: float  # step time the allreduce did not hide
    comm_fraction: float  # comm_time / time
    flops_per_rank: float
    step_rate: float  # steps / s


def _program(ctx, comm, iters, buckets, t_fwd, t_bwd):
    ep = comm.endpoint(ctx)
    yield from ctx.barrier()
    t0 = ctx.sim.now
    for _ in range(iters):
        yield from ctx.compute(seconds=t_fwd)
        yield from ctx.compute(seconds=t_bwd)
        for _ in range(buckets):
            yield from ep.run()
    return ctx.sim.now - t0


def run_training_step(
    machine: MachineModel,
    runtime: str,
    *,
    nranks: int,
    grad_bytes: float,
    tokens_per_rank: int = 512,
    buckets: int = 1,
    algorithm: str = "auto",
    stripes: int = 1,
    iters: int = 1,
    placement: str = "spread",
) -> TrainingStepResult:
    """Simulate ``iters`` data-parallel steps and measure one.

    ``grad_bytes`` is the full gradient (= 4 bytes per fp32 parameter);
    compute is the transformer estimate ``6 * params * tokens`` FLOPs
    per rank, charged through the machine's roofline model.
    """
    if not _WORD <= grad_bytes < float("inf"):
        raise CollectiveError(f"grad_bytes must be finite and >= {_WORD}, got {grad_bytes}")
    for name, value in (
        ("nranks", nranks), ("buckets", buckets), ("tokens_per_rank", tokens_per_rank),
        ("iters", iters),
    ):
        check_count(f"training {name}", value, 1, CollectiveError)
    params = grad_bytes / 4.0  # fp32 parameters
    flops = 6.0 * params * tokens_per_rank
    grad_words = max(int(grad_bytes // _WORD), 1)
    if buckets > grad_words:
        raise CollectiveError(
            f"buckets={buckets} exceeds gradient words ({grad_words})"
        )
    # DDP-style bucketing: near-even split, every bucket >= 1 word.
    base, rem = divmod(grad_words, buckets)
    bucket_words = [base + (1 if b < rem else 0) for b in range(buckets)]
    plans = []
    resolved = None
    for words in bucket_words * iters:
        plan, _sel = plan_collective(
            "allreduce", nranks=nranks, nelems=words, algorithm=algorithm,
            stripes=stripes, machine=machine, runtime=runtime,
        )
        plans.append(plan)
        resolved = plan.algorithm if resolved is None else resolved
    job = Job(machine, nranks, runtime, placement=placement)
    comm = CollectiveComm(job, plans)
    # All replicas are symmetric: charge fwd (2/6) and bwd (4/6) once.
    t_fwd = machine.compute_time(0.0, flops / 3.0)
    t_bwd = machine.compute_time(0.0, 2.0 * flops / 3.0)
    with job.spans.span("ml:training_step"):
        res = job.run(_program, comm, iters, buckets, t_fwd, t_bwd)
    elapsed = max(res.results)
    per_step = max(elapsed, 1e-12) / iters
    compute = t_fwd + t_bwd
    comm_time = max(per_step - compute, 0.0)
    if job.metrics is not None:
        job.metrics.counter("ml.training.steps").inc(iters)
        job.metrics.counter("ml.training.grad_bytes").inc(grad_bytes * iters)
    return TrainingStepResult(
        machine=machine.name,
        runtime=job.runtime_name,
        nranks=nranks,
        grad_bytes=float(grad_bytes),
        tokens_per_rank=tokens_per_rank,
        buckets=buckets,
        algorithm=resolved or algorithm,
        iters=iters,
        time=per_step,
        compute_time=compute,
        comm_time=comm_time,
        comm_fraction=comm_time / per_step if per_step > 0 else 0.0,
        flops_per_rank=flops,
        step_rate=1.0 / per_step if per_step > 0 else 0.0,
    )
