"""Lowering: interpret IR ops onto the transport Channel/Endpoint verbs.

:func:`run_program` is the single entry point the halo and batch runners
call — it applies the ambient pass pipeline (unless faults force the
scalar/no-elide path, as they make ``Fabric.replayable`` false), opens the
program's channel on a fresh :class:`repro.comm.job.Job`, and lowers
each rank's ops through :data:`LOWERINGS`, one function per op class that
maps the op onto exactly the endpoint calls the hand-written runners used
to make.  With the empty pipeline the lowering of a builder-produced
program is byte-identical to the pre-IR runner — the golden-parity lane
pins this across all five backends.

A workload whose op stream no pass or cost model could read is not a
program here: it is a plain rank program over the endpoint verbs
(``repro.workloads.sptrsv``, ``.hashtable``, ``.flood.run_cas_flood``).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from repro.comm.job import Job
from repro.ir import ops as O
from repro.ir.config import current_pipeline, record_report
from repro.ir.explain import IRReport
from repro.ir.pipeline import PassPipeline
from repro.ir.program import IRProgram

__all__ = ["IRRun", "run_program", "lower_rank"]


# One lowering per op class: ``fn(op, ep, ctx, state)`` returns something to
# ``yield from`` whose value is the verb's value.  Where the op is exactly
# one endpoint / context verb, that is the verb's own generator — lowering
# adds no frame of its own under it; only ``HaloFinish``, which hands the
# received halos to ``on_done``, is a generator itself.


def _compute(op, ep, ctx, state):
    if op.fn is not None:
        op.fn(state)
    if op.seconds is not None:
        return ctx.compute(seconds=op.seconds)
    return ctx.compute(nbytes=op.nbytes, flops=op.flops)


def _halo_finish(op, ep, ctx, state):
    received = yield from ep.finish(op.it)
    if op.on_done is not None:
        op.on_done(state, received)
    return received


LOWERINGS = {
    O.Barrier: lambda op, ep, ctx, state: ctx.barrier(),
    O.Compute: _compute,
    O.BatchSend: lambda op, ep, ctx, state: ep.send_batch(op.dst, op.it, op.n),
    O.BatchWait: lambda op, ep, ctx, state: ep.wait_batch(op.src, op.it, op.n),
    O.HaloBegin: lambda op, ep, ctx, state: ep.begin(op.it),
    O.HaloPut: lambda op, ep, ctx, state: ep.put(
        op.seg, op.dst, values=None if op.values is None else op.values(state)
    ),
    O.HaloFinish: _halo_finish,
}


def lowering_of(op: O.Op):
    """The table entry for ``op``'s class (exact type: ops do not subclass
    each other — vocabulary and table move together)."""
    try:
        return LOWERINGS[type(op)]
    except KeyError:
        raise TypeError(f"no lowering for op {type(op).__name__}") from None


def lower_rank(ctx, chan, program: IRProgram, counts: dict):
    """The per-rank generator handed to ``job.run``."""
    ep = chan.endpoint(ctx)
    state: dict = {"ctx": ctx}
    if program.setup is not None:
        program.setup(ctx, chan, ep, state)

    def bind(ops):
        """Dispatch and count a straight-line op list once, not per op run."""
        for op in ops:
            kind = type(op).__name__
            counts[kind] = counts.get(kind, 0) + 1
        return [(lowering_of(op), op) for op in ops]

    rank = ctx.rank
    yield from ctx.barrier()
    t0 = ctx.sim.now
    for region in program.regions:
        for lower, op in bind(region.body[rank]):
            yield from lower(op, ep, ctx, state)
    elapsed = ctx.sim.now - t0
    if program.finalize is not None:
        return program.finalize(ctx, state, elapsed)
    return elapsed


@dataclass
class IRRun:
    """What a runner reads back: the job and its rank results."""

    job: Job
    result: Any  # repro.comm.job.JobResult


def run_program(machine, program: IRProgram, *, placement: str = "spread") -> IRRun:
    """Optimise (ambient :func:`repro.ir.passes` pipeline), lower, and run
    ``program``.

    A non-clean ambient fault plan forces the empty pipeline regardless
    (noted in the report): loss/jitter draws are per-message, so rewrites
    that change message counts would change the fault stream (the same
    reason a fabric under faults is not ``Fabric.replayable``).
    """
    from repro import obs
    from repro.faults.inject import current_plan
    from repro.ir.cost import program_cost

    pipe = current_pipeline()
    notes: list[str] = []
    plan = current_plan()
    if pipe.enabled and plan is not None and not plan.clean:
        notes.append("faults active: scalar/no-elide pipeline forced")
        pipe = PassPipeline()

    session = obs.current()
    rewrites = ()
    before = after = None
    if pipe.enabled:
        span = session.span(f"ir.pipeline.{program.name}") if session else nullcontext()
        with span:
            before = program_cost(program, machine)
            program, rewrites = pipe.run(program, machine)
            after = program_cost(program, machine)

    job = Job(machine, program.nranks, program.runtime, placement=placement)
    chan = job.channel(program.spec)
    counts: dict = {}
    result = job.run(lower_rank, chan, program, counts)

    report = IRReport(
        program=program.name,
        machine=machine.name,
        runtime=job.runtime_name,
        nranks=program.nranks,
        passes=pipe.passes,
        rewrites=tuple(rewrites),
        before=before,
        after=after,
        notes=tuple(notes),
    )
    record_report(report)
    if session is not None:
        m = session.metrics
        m.counter("ir.programs.lowered").inc()
        m.counter("ir.ops.lowered").inc(sum(counts.values()))
        for kind, n in counts.items():
            m.counter(f"ir.ops.{kind}").inc(n)
        for rw in rewrites:
            m.counter(f"ir.pass.{rw.pass_name}.{rw.kind}.rewrites").inc(rw.count)
    return IRRun(job=job, result=result)
