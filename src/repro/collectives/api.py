"""Run-one-collective entry point: plan, select, simulate, report.

:func:`run_collective` is the collectives analogue of
:func:`repro.workloads.flood.run_flood` — one call builds the job on a
machine/runtime pair, resolves the algorithm (``"auto"`` goes through the
LogGP selector), runs ``iters`` back-to-back collectives, and returns a
:class:`CollectiveResult` with NCCL-convention bandwidths:

* ``alg_bandwidth`` — payload bytes / time (what the caller feels);
* ``bus_bandwidth`` — per-rank wire bytes / time (what the fabric
  carries; for ring allreduce this is ``2(P-1)/P * nbytes / t``, the
  number comparable against a port's peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.collectives.core import CollectiveComm, CollectiveStats
from repro.collectives.plan import CollectiveError, _words, plan_collective
from repro.collectives.selector import Selection
from repro.comm.job import Job
from repro.machines.base import MachineModel
from repro.util.validation import check_count

__all__ = ["CollectiveResult", "run_collective", "explain_collective"]


@dataclass(frozen=True)
class CollectiveResult:
    """One collective measurement (simulated timing + accounting)."""

    machine: str
    runtime: str
    coll: str
    algorithm: str
    nranks: int
    nelems: int
    nbytes: float  # payload bytes (the plan-module size convention)
    stripes: int
    iters: int
    time: float  # seconds per collective
    time_total: float  # whole measured window
    alg_bandwidth: float  # payload bytes / time
    bus_bandwidth: float  # per-rank wire bytes / time (NCCL busbw)
    stats: CollectiveStats  # schedule accounting, totals over iters
    selection: Selection | None = None  # set when algorithm was "auto"
    results: list = field(default_factory=list)  # per-rank arrays (execute)

    @property
    def executed(self) -> bool:
        return bool(self.results)


def _program(ctx, comm, iters, values, op, root):
    ep = comm.endpoint(ctx)
    if values is not None:  # values[rank] or a callable of the rank
        values = values(ctx.rank) if callable(values) else values[ctx.rank]
    yield from ctx.barrier()
    t0 = ctx.sim.now
    out = None
    for _ in range(iters):
        out = yield from ep.run(values, op=op, root=root)
    return ctx.sim.now - t0, out


def run_collective(
    machine: MachineModel,
    runtime: str,
    coll: str,
    *,
    nranks: int,
    nelems: int | None = None,
    nbytes: int | None = None,
    algorithm: str = "auto",
    stripes: int = 1,
    iters: int = 1,
    values=None,
    op: str = "sum",
    root: int = 0,
    placement: str = "spread",
) -> CollectiveResult:
    """Simulate ``iters`` runs of one collective and measure it.

    Size is given as ``nelems`` (words) or ``nbytes`` (rounded up to
    whole words); see :mod:`repro.collectives.plan` for what the size
    means per collective.  ``values`` switches on execute mode: a
    per-rank mapping (``values[rank]`` or a callable) of local inputs,
    returned reduced/gathered in ``result.results``.
    """
    check_count("collective nranks", nranks, 1, CollectiveError)
    nelems = _words(coll, nelems, nbytes)
    iters = check_count("collective iters", iters, 1, CollectiveError)
    check_count("collective stripes", stripes, 1, CollectiveError)
    plan, selection = plan_collective(
        coll,
        nranks=nranks,
        nelems=nelems,
        algorithm=algorithm,
        stripes=stripes,
        machine=machine,
        runtime=runtime,
    )
    job = Job(machine, nranks, runtime, placement=placement)
    execute = values is not None
    comm = CollectiveComm(job, [plan] * iters, execute=execute)
    span_name = f"collective:{coll}:{plan.algorithm}"
    with job.spans.span(span_name):
        res = job.run(_program, comm, iters, values, op, root)
    elapsed = max(r[0] for r in res.results)
    per_iter = max(elapsed, 1e-12) / iters
    payload = plan.nbytes
    wire_per_rank = comm.stats.bytes_moved / iters / nranks
    if job.metrics is not None:
        job.metrics.counter(f"collectives.{coll}.runs").inc(iters)
        job.metrics.counter(f"collectives.{coll}.bytes").inc(
            comm.stats.bytes_moved
        )
    return CollectiveResult(
        machine=machine.name,
        runtime=job.runtime_name,
        coll=coll,
        algorithm=plan.algorithm,
        nranks=nranks,
        nelems=nelems,
        nbytes=payload,
        stripes=stripes,
        iters=iters,
        time=per_iter,
        time_total=elapsed,
        alg_bandwidth=payload / per_iter if payload else 0.0,
        bus_bandwidth=wire_per_rank / per_iter if wire_per_rank else 0.0,
        stats=comm.stats,
        selection=selection,
        results=[r[1] for r in res.results] if execute else [],
    )


def explain_collective(
    machine: MachineModel,
    runtime: str,
    coll: str,
    *,
    nranks: int,
    nelems: int | None = None,
    nbytes: int | None = None,
) -> Selection:
    """Model-only: which algorithm the selector picks and why, for the
    size :func:`run_collective` would move."""
    _plan, selection = plan_collective(
        coll, nranks=nranks, nelems=_words(coll, nelems, nbytes),
        machine=machine, runtime=runtime,
    )
    return selection
